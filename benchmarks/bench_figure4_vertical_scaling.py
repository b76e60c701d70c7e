"""Figure 4 d-f: latency around vertical rescaling (§5.4.1).

DOP rises from 14 to 16 (the paper: 56 to 64) after three checkpoints.
Expected shape: Rhino migrates a share of virtual nodes with only a small
latency bump; Flink restarts the query and reshuffles all state, spiking
by orders of magnitude on the large-state queries.
"""

from repro.experiments.scenarios.scaling import run_vertical_scaling
from repro.experiments.__main__ import timeline_settings
from repro.experiments.report import timeline_report, PAPER_FIGURE4

from benchmarks.conftest import emit_report, emit_timeline_csv, run_once

SETTINGS = dict(timeline_settings(quick=False), initial_dop=14, add_instances=2)


def run_panels():
    results = []
    for query in ("nbq8", "nbq5", "nbqx"):
        for sut in ("rhino", "rhinodfs", "flink"):
            results.append(run_vertical_scaling(sut, query, **SETTINGS))
    return results


def test_figure4_vertical_scaling(benchmark):
    results = run_once(benchmark, run_panels)
    emit_timeline_csv("figure4_vertical_scaling", results)
    emit_report(
        "figure4_vertical_scaling",
        timeline_report(
            results,
            "Figure 4 d-f: latency around vertical scaling (DOP 14 -> 16)",
            claims=PAPER_FIGURE4["scaling"],
        ),
    )
    by_key = {(r.sut, r.query): r.stats for r in results}
    # Rhino keeps rescaling cheap on large state; Flink reshuffles.
    for query in ("nbq8", "nbqx"):
        assert (
            by_key[("flink", query)].after_peak
            > 5 * by_key[("rhino", query)].after_peak
        )
    # Small state: all SUTs behave (paper: a 1 s spike for Flink).
    assert by_key[("flink", "nbq5")].after_peak < 30.0
    assert by_key[("rhino", "nbq5")].after_peak < 30.0
