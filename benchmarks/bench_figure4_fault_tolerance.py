"""Figure 4 a-c: end-to-end latency around a VM failure (§5.2.2).

NBQ8 / NBQ5 / NBQX timelines for Rhino, RhinoDFS, and Flink.  Expected
shape: steady-state latency is comparable for all SUTs; upon the failure
Rhino's latency is essentially unaffected while Flink's spikes by orders
of magnitude (the upstream-backup replay lag) and drains slowly.
"""

import pytest

from repro.experiments.scenarios.fault_tolerance import run_fault_tolerance
from repro.experiments.__main__ import timeline_settings
from repro.experiments.report import timeline_report, PAPER_FIGURE4

from benchmarks.conftest import emit_report, emit_timeline_csv, run_once

SETTINGS = timeline_settings(quick=False)


def run_panels():
    results = []
    for query in ("nbq8", "nbq5", "nbqx"):
        for sut in ("rhino", "rhinodfs", "flink"):
            results.append(run_fault_tolerance(sut, query, **SETTINGS))
    return results


def test_figure4_fault_tolerance(benchmark):
    results = run_once(benchmark, run_panels)
    emit_timeline_csv("figure4_fault_tolerance", results)
    emit_report(
        "figure4_fault_tolerance",
        timeline_report(
            results,
            "Figure 4 a-c: latency around a VM failure",
            claims=PAPER_FIGURE4["fault_tolerance"],
        ),
    )
    by_key = {(r.sut, r.query): r.stats for r in results}
    for query in ("nbq8", "nbq5", "nbqx"):
        rhino = by_key[("rhino", query)]
        flink = by_key[("flink", query)]
        # Comparable steady-state latency (no Rhino overhead, §5.3).
        assert rhino.before_mean == pytest.approx(flink.before_mean, rel=0.5)
    # Large state (NBQ8/NBQX): Flink's spike dwarfs Rhino's.
    for query in ("nbq8", "nbqx"):
        rhino = by_key[("rhino", query)]
        flink = by_key[("flink", query)]
        assert flink.after_peak > 5 * rhino.after_peak
        assert flink.spike_factor > 50  # orders of magnitude above steady
        assert flink.after_mean > 10 * rhino.after_mean
        assert flink.recovery_seconds > rhino.recovery_seconds
    # Small state (NBQ5): every SUT recovers quickly.
    for sut in ("rhino", "rhinodfs", "flink"):
        assert by_key[(sut, "nbq5")].after_peak < 60.0
