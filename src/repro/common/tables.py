"""Plain-text table rendering for experiment reports.

The benchmark harness prints the same rows the paper reports; this
module renders them as aligned monospace tables without third-party
dependencies.
"""


def render_table(headers, rows, title=None):
    """Render ``rows`` (sequences of cells) under ``headers`` as a string.

    Cells are converted with ``str``; numeric cells are right-aligned.

    >>> print(render_table(["a", "b"], [[1, "x"]]))
    a | b
    --+--
    1 | x
    """
    str_rows = [[_cell(c) for c in row] for row in rows]
    headers = [str(h) for h in headers]
    ncols = len(headers)
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells, aligns):
        """Format one table row with per-column alignment."""
        parts = []
        for i in range(ncols):
            cell = cells[i] if i < len(cells) else ""
            if aligns[i] == ">":
                parts.append(cell.rjust(widths[i]))
            else:
                parts.append(cell.ljust(widths[i]))
        return " | ".join(parts).rstrip()

    aligns = ["<"] * ncols
    for row, orig in zip(str_rows, rows):
        for i, cell in enumerate(orig):
            if isinstance(cell, (int, float)):
                aligns[i] = ">"

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(headers, ["<"] * ncols))
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(fmt_row(row, aligns))
    return "\n".join(lines)


def _cell(value):
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)
