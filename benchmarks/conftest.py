"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper: it runs the
simulation scenario under ``pytest-benchmark`` (one round -- the metric of
interest is the *simulated* result, not wall-clock) and writes the
paper-vs-measured report to ``benchmarks/results/`` as well as stdout.
"""

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit_report(name, text):
    """Print a report and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print()
    print(text)
    print(f"[report written to {path}]")


def run_once(benchmark, fn, *args, **kwargs):
    """Run a scenario exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def emit_timeline_csv(name, results):
    """Persist latency timelines as CSV for external plotting.

    One file per (SUT, query) panel with ``time_s,latency_s,weight`` rows
    (a sample stands for ``weight`` modeled events) plus a comment line
    carrying the reconfiguration time.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    for result in results:
        path = RESULTS_DIR / f"{name}_{result.sut}_{result.query}.csv"
        lines = [f"# event_time={result.event_time}", "time_s,latency_s,weight"]
        lines.extend(
            f"{t:.3f},{latency:.6f},{weight}" for t, latency, weight in result.series
        )
        path.write_text("\n".join(lines) + "\n")
