"""Paper-vs-measured reports for every table and figure.

The paper's numbers are hardcoded here (from the published tables and the
prose of §5); benches print them next to the simulated measurements so
the reproduction's shape claims are auditable at a glance.
"""

from repro.common.tables import render_table
from repro.common.units import GB

#: Table 1 (seconds): state size GB -> SUT -> (scheduling, fetching, loading).
PAPER_TABLE1 = {
    250: {
        "flink": (2.2, 68.2, 1.3),
        "rhino": (2.8, 0.2, 1.3),
        "rhinodfs": (2.9, 10.7, 1.3),
        "megaphone": 46.3,
    },
    500: {
        "flink": (2.5, 116.6, 1.8),
        "rhino": (3.1, 0.2, 1.3),
        "rhinodfs": (3.0, 18.9, 1.3),
        "megaphone": 74.8,
    },
    750: {
        "flink": (2.6, 205.3, 1.3),
        "rhino": (3.0, 0.2, 1.5),
        "rhinodfs": (2.6, 36.1, 1.5),
        "megaphone": "OOM",
    },
    1000: {
        "flink": (2.4, 252.9, 1.5),
        "rhino": (3.0, 0.2, 1.5),
        "rhinodfs": (2.9, 62.7, 1.5),
        "megaphone": "OOM",
    },
}

#: §5.2.2 / Figure 4 headline claims.
PAPER_FIGURE4 = {
    "fault_tolerance": {
        "rhino": "latency not affected by the VM failure",
        "flink": "latency increases up to 300 s and drains slowly",
    },
    "scaling": {
        "rhino": "latency rises to ~146 ms, back to normal within ~120 s",
        "flink": "latency increases up to 570 s (NBQ8)",
    },
    "load_balancing": {
        "rhino": "~60 ms increase, mitigated within a minute",
        "megaphone": "latency reaches 23.6 s (NBQ8) for ~90 s",
        "flink": "(vertical scaling) three orders of magnitude increase",
    },
}


def paper_total(size_gb, sut):
    """Figure 1's bar: the summed breakdown from Table 1."""
    cell = PAPER_TABLE1.get(size_gb, {}).get(sut)
    if cell is None:
        return None
    if cell == "OOM":
        return "OOM"
    if isinstance(cell, tuple):
        return round(sum(cell), 1)
    return cell


def figure1_report(results):
    """Render Figure 1: total reconfiguration time per SUT per size."""
    rows = []
    for result in results:
        size_gb = round(result.state_bytes / GB)
        measured = "OOM" if result.out_of_memory else round(result.breakdown_total, 1)
        rows.append([result.sut, size_gb, measured, paper_total(size_gb, result.sut)])
    return render_table(
        ["SUT", "state (GB)", "measured total (s)", "paper total (s)"],
        rows,
        title="Figure 1: time to reconfigure NBQ8 after a VM failure",
    )


def table1_report(results):
    """Render Table 1: the scheduling/fetching/loading breakdown."""
    rows = []
    for result in results:
        size_gb = round(result.state_bytes / GB)
        paper = PAPER_TABLE1.get(size_gb, {}).get(result.sut, "?")
        rows.append(result.row() + [str(paper)])
    return render_table(
        [
            "SUT",
            "state (GB)",
            "scheduling (s)",
            "fetching (s)",
            "loading (s)",
            "total (s)",
            "paper (sched, fetch, load)",
        ],
        rows,
        title="Table 1: recovery time breakdown",
    )


def timeline_report(results, title, claims=None):
    """Render a Figure 4/6 panel set: latency summaries per SUT."""
    rows = [result.row() for result in results]
    table = render_table(
        [
            "SUT",
            "query",
            "steady mean (s)",
            "steady p99 (s)",
            "post-event peak (s)",
            "recovery (s)",
        ],
        rows,
        title=title,
    )
    if claims:
        lines = [table, "", "Paper claims:"]
        for sut, claim in claims.items():
            lines.append(f"  {sut}: {claim}")
        return "\n".join(lines)
    return table


def figure5_report(results):
    """Render the Figure 5 utilization table."""
    rows = [result.row() for result in results]
    return render_table(
        [
            "SUT",
            "mean CPU",
            "mean net (MB/s)",
            "peak net (MB/s)",
            "mean disk (MB/s)",
            "peak mem (GB)",
            "transfer rate (MB/s)",
        ],
        rows,
        title="Figure 5: resource utilization (steady state before reconfiguration)",
    )


def scenario_report(results):
    """Render a batch-runner sweep: one row per scenario, then verdicts.

    Latency percentiles are weight-correct (each sample counts as the
    number of real-world records it models); ``handover (s)`` is the
    slowest completed reconfiguration's trigger-to-done time.  Failed
    invariants are itemized below the table.
    """
    rows = [result.row() for result in results]
    table = render_table(
        [
            "scenario",
            "SUT",
            "query",
            "modeled",
            "MB/s",
            "p50 (ms)",
            "p99 (ms)",
            "handover (s)",
            "invariants",
        ],
        rows,
        title="Scenario sweep",
    )
    lines = [table]
    for result in results:
        if not result.ok:
            lines.append("")
            lines.append(f"{result.name}:")
            for name, verdict in sorted(result.violations.items()):
                lines.append(f"  {name}: {verdict}")
    return "\n".join(lines)


def ablation_report(results):
    """Render the design-choice ablation table."""
    rows = [result.row() for result in results]
    return render_table(
        ["ablation", "setting", "value", "unit"],
        rows,
        title="Design-choice ablations",
    )
