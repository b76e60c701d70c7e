"""Table 1: time breakdown for state migration during a recovery (§5.2.1).

Scheduling / state fetching / state loading per SUT per state size.
Expected shape: fetching dominates and scales with state size for the
block-centric SUTs (Flink fetches everything, RhinoDFS the failed share);
Rhino's fetch is a constant local hard-link; scheduling and loading are
small constants everywhere.

The handover-based SUTs (rhino / rhinodfs) report phase times read off
the handover's phase spans, the ones a tracer records.  The bench asserts
that the two contiguous top-level phases (scheduling, transfer) sum to the
report's total, and that a traced run reports the same numbers.
"""

import pytest

from repro.common.units import GB
from repro.experiments.scenarios.recovery import run_recovery
from repro.experiments.report import table1_report

from benchmarks.conftest import emit_report, run_once

SIZES_GB = (250, 500, 750, 1000)
SUTS = ("flink", "rhino", "rhinodfs", "megaphone")

#: SUTs whose report reads the handover's phase spans.
HANDOVER_SUTS = ("rhino", "rhinodfs")


def run_table1():
    return [run_recovery(sut, size * GB) for size in SIZES_GB for sut in SUTS]


def top_level_phases(report):
    """Summed durations of the handover's scheduling and transfer spans."""
    return sum(
        span.duration
        for span in report.spans
        if span.name in ("handover.scheduling", "handover.transfer")
    )


def test_table1_recovery_breakdown(benchmark):
    results = run_once(benchmark, run_table1)
    emit_report("table1_recovery_breakdown", table1_report(results))

    by_key = {(r.sut, round(r.state_bytes / GB)): r for r in results}
    # Rhino: state fetching is a size-independent local hard-link (~0.2 s).
    for size in SIZES_GB:
        assert by_key[("rhino", size)].fetching_seconds < 0.5
    # Loading is a small size-independent constant for all restoring SUTs.
    for size in SIZES_GB:
        for sut in ("rhino", "rhinodfs", "flink"):
            assert by_key[(sut, size)].loading_seconds < 3.0
    # Fetching dominates and scales for the DFS-based SUTs.
    for sut in ("flink", "rhinodfs"):
        assert (
            by_key[(sut, 1000)].fetching_seconds
            > 2.5 * by_key[(sut, 250)].fetching_seconds
        )
        assert by_key[(sut, 1000)].fetching_seconds > by_key[(sut, 1000)].loading_seconds
    # Scheduling is comparable across SUTs (a few seconds).
    for size in SIZES_GB:
        for sut in ("flink", "rhino", "rhinodfs"):
            assert by_key[(sut, size)].scheduling_seconds < 6.0
    # Nothing is pre-copied in a recovery, so scheduling starts at the
    # trigger and the two top-level phases cover the whole handover.
    for size in SIZES_GB:
        for sut in HANDOVER_SUTS:
            report = by_key[(sut, size)].report
            assert top_level_phases(report) == pytest.approx(
                report.total_seconds, abs=1e-9
            )


def test_tracing_is_passive():
    """A traced run and an untraced run produce identical reports."""
    traced = run_recovery("rhino", 250 * GB, trace=True)
    plain = run_recovery("rhino", 250 * GB, trace=False)
    for field in (
        "scheduling_seconds",
        "fetching_seconds",
        "loading_seconds",
        "total_seconds",
        "migrated_bytes",
    ):
        assert getattr(traced.report, field) == getattr(plain.report, field)
    assert traced.report.phase_breakdown() == plain.report.phase_breakdown()
    assert traced.total_seconds == plain.total_seconds
