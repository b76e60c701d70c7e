"""Figure 4 g-i: latency around load balancing (§5.4.2).

Half the virtual nodes of 8 instances move to 8 other instances.
Expected shape: Rhino's handover barely moves latency; Megaphone's fluid
migration lifts latency for the migration's duration (tens of seconds on
large state); Flink (which substitutes vertical scaling) spikes by orders
of magnitude.
"""

from repro.experiments.scenarios.load_balancing import run_load_balancing
from repro.experiments.__main__ import timeline_settings
from repro.experiments.report import timeline_report, PAPER_FIGURE4

from benchmarks.conftest import emit_report, emit_timeline_csv, run_once

SETTINGS = timeline_settings(quick=False)


def run_panels():
    results = []
    for query in ("nbq8", "nbq5", "nbqx"):
        for sut in ("rhino", "megaphone", "flink"):
            results.append(run_load_balancing(sut, query, **SETTINGS))
    return results


def test_figure4_load_balancing(benchmark):
    results = run_once(benchmark, run_panels)
    emit_timeline_csv("figure4_load_balancing", results)
    emit_report(
        "figure4_load_balancing",
        timeline_report(
            results,
            "Figure 4 g-i: latency around load balancing",
            claims=PAPER_FIGURE4["load_balancing"],
        ),
    )
    by_key = {(r.sut, r.query): r.stats for r in results}
    for query in ("nbq8", "nbqx"):
        rhino = by_key[("rhino", query)]
        megaphone = by_key[("megaphone", query)]
        flink = by_key[("flink", query)]
        # Megaphone's fluid migration hurts latency on large state;
        # Rhino's handover does not.
        assert megaphone.after_peak > 2 * rhino.after_peak
        # Flink's restart-based substitute is the worst of the three.
        assert flink.after_peak > megaphone.after_peak
    # Rhino's rebalancing keeps latency within the steady-state regime.
    assert by_key[("rhino", "nbq8")].after_peak < 30.0
