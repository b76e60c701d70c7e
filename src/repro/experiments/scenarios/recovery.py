"""Figure 1 / Table 1: recovery time vs state size on NBQ8 (§5.2.1).

NBQ8 runs until it holds the target state size (preloaded), one VM
fails, and each SUT reconfigures the query.  The result is the
scheduling / state-fetching / state-loading breakdown.
"""

from repro.common.errors import OutOfMemoryError, ReproError
from repro.common.units import GB
from repro.experiments.report import breakdown_from_trace
from repro.experiments.timeline import run_single_event


class RecoveryResult:
    """One (SUT, state size) cell of Table 1 / point of Figure 1."""

    def __init__(self, sut, state_bytes):
        self.sut = sut
        self.state_bytes = state_bytes
        self.scheduling_seconds = None
        self.fetching_seconds = None
        self.loading_seconds = None
        self.total_seconds = None
        self.out_of_memory = False
        self.migrated_bytes = 0
        #: Span-derived breakdown (dict) when the run was traced, else None.
        self.trace_breakdown = None

    def row(self):
        """The report-table row for this result."""
        if self.out_of_memory:
            return [self.sut, round(self.state_bytes / GB), "OOM", "OOM", "OOM", "OOM"]

        def cell(value):
            """Format one breakdown cell ('-' when not applicable)."""
            return "-" if value is None else round(value, 1)

        return [
            self.sut,
            round(self.state_bytes / GB),
            cell(self.scheduling_seconds),
            cell(self.fetching_seconds),
            cell(self.loading_seconds),
            cell(self.total_seconds),
        ]

    @property
    def breakdown_total(self):
        """Scheduling + fetching + loading (what Figure 1's bars sum)."""
        if self.out_of_memory:
            return None
        parts = [
            self.scheduling_seconds,
            self.fetching_seconds,
            self.loading_seconds,
        ]
        known = [p for p in parts if p is not None]
        return sum(known) if known else self.total_seconds

    def __repr__(self):
        if self.out_of_memory:
            return f"<RecoveryResult {self.sut} {self.state_bytes / GB:.0f}GB OOM>"
        return (
            f"<RecoveryResult {self.sut} {self.state_bytes / GB:.0f}GB "
            f"total={self.total_seconds:.1f}s>"
        )


def run_recovery(sut_name, state_bytes, seed=42, trace=False):
    """Run one recovery experiment; returns a :class:`RecoveryResult`.

    NBQ8 streams at a scaled-down rate (recovery arithmetic depends on
    state bytes and bandwidths, not on throughput), state is preloaded to
    ``state_bytes``, then one machine fails and the SUT's reconfiguration
    is timed.  With ``trace=True`` the run records
    structured spans and, for the handover-based SUTs (rhino / rhinodfs),
    the Table 1 breakdown is *derived from the trace* instead of the
    hand-kept report timers (``result.trace_breakdown``).
    """
    result = RecoveryResult(sut_name, state_bytes)
    try:
        run = run_single_event(
            sut_name,
            "nbq8",
            "failure",
            preload_at=20.0,
            event_at=25.0,
            preload_bytes=state_bytes,
            rate_scale=0.02,
            seed=seed,
            trace=trace,
        )
    except OutOfMemoryError:
        result.out_of_memory = True
        return result
    result.total_seconds = run.testbed.sim.now - run.event_time
    if isinstance(run.outcome, list):
        # One report per migrated operator: the phases interleave, so
        # only the total is meaningful.
        result.migrated_bytes = sum(r.migrated_bytes for r in run.outcome)
        return result
    report = run.outcome
    result.scheduling_seconds = report.scheduling_seconds
    result.fetching_seconds = report.fetching_seconds
    result.loading_seconds = report.loading_seconds
    result.migrated_bytes = getattr(report, "migrated_bytes", 0) or getattr(
        report, "fetched_bytes", 0
    )
    if run.testbed.tracer.enabled and hasattr(run.handle, "rhino"):
        # Re-derive the breakdown from the trace spans; the Handover
        # Manager anchors its phase spans on the exact sim instants the
        # report timers use, so the derived values match the report.
        breakdown = breakdown_from_trace(run.testbed.tracer)
        result.trace_breakdown = breakdown
        result.scheduling_seconds = breakdown["scheduling"]
        result.fetching_seconds = breakdown["fetching"]
        result.loading_seconds = breakdown["loading"]
    return result


def run_figure1(sizes_gb=(250, 500, 750, 1000), suts=("flink", "rhino", "rhinodfs", "megaphone"), **kwargs):
    """All (SUT, size) cells of Figure 1 / Table 1."""
    results = []
    for size_gb in sizes_gb:
        for sut in suts:
            try:
                results.append(run_recovery(sut, size_gb * GB, **kwargs))
            except ReproError:
                failed = RecoveryResult(sut, size_gb * GB)
                failed.out_of_memory = True
                results.append(failed)
    return results
