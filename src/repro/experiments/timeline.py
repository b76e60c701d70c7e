"""The single-event experiment driver and its latency-timeline summary.

Every figure of §5 and Table 1 is one procedure -- deploy a SUT, stream,
preload the state hours of execution would have grown, issue *one*
reconfiguration, watch what follows -- written once, in
:func:`run_single_event`.  The modules under
:mod:`repro.experiments.scenarios` only map their figure's vocabulary
onto its arguments and shape the result; what a reconfiguration means
for a SUT is :meth:`~repro.experiments.harness.SutHandle.reconfigure`'s.
"""

from collections import namedtuple

from repro.experiments.harness import Testbed

#: A finished run: where to read series from, when the event was issued,
#: and what the reconfiguration process returned (the SUT's report(s)).
EventRun = namedtuple("EventRun", "testbed handle event_time outcome")


def run_single_event(
    sut_name,
    query,
    kind,
    params=None,
    *,
    event_at,
    preload_at=10.0,
    preload_bytes=0,
    tail=0.0,
    tail_from_event=False,
    checkpoint_interval=None,
    stateful_dop=None,
    rate_scale=None,
    rate_profile=None,
    monitor=False,
    seed=42,
    trace=False,
):
    """Run ``query`` on ``sut_name`` through one reconfiguration.

    State is preloaded at ``preload_at`` and ``handle.reconfigure(kind,
    **params)`` issued at ``event_at`` (absolute simulated seconds); the
    run then continues until the reconfiguration completes and for
    ``tail`` more seconds, counted from the completion or, with
    ``tail_from_event``, from the event.  ``monitor`` samples cluster
    utilization throughout (``testbed.monitor``).  A SUT whose preloaded
    state does not fit in memory raises its
    :class:`~repro.common.errors.OutOfMemoryError` instead of running on.

    The reconfiguration is issued from outside ``sim.run()``, between two
    runs: everything scheduled for ``event_at`` has happened before it.
    """
    testbed = Testbed(seed=seed, rate_scale=rate_scale, trace=trace)
    handle = testbed.deploy(
        sut_name,
        query,
        checkpoint_interval=checkpoint_interval,
        stateful_dop=stateful_dop,
    )
    if monitor:
        testbed.start_monitor()
    testbed.start_workload(query, rate_profile=rate_profile)
    sim = testbed.sim
    sim.run(until=preload_at)
    if preload_bytes:
        handle.preload(preload_bytes)
        out_of_memory = handle.check_memory()
        if out_of_memory is not None:
            raise out_of_memory
    sim.run(until=event_at)
    outcome = sim.run(until=handle.reconfigure(kind, **(params or {})))
    if tail > 0:
        sim.run(until=(event_at if tail_from_event else sim.now) + tail)
    return EventRun(testbed, handle, event_at, outcome)


def latency_timeline(sut_name, query, kind, params=None, **timeline):
    """A single-event run reduced to its :class:`TimelineResult`."""
    run = run_single_event(sut_name, query, kind, params, **timeline)
    latency = run.handle.metrics.latency
    return TimelineResult(
        run.handle.name,
        query,
        LatencyStats(latency, run.event_time),
        latency.samples,
        run.event_time,
    )


class TimelineResult:
    """Latency series + summary for one (SUT, query) timeline panel."""

    def __init__(self, sut, query, stats, series, event_time):
        self.sut = sut
        self.query = query
        self.stats = stats
        self.series = series
        self.event_time = event_time

    def row(self):
        """The report-table row for this result."""
        return [self.sut, self.query] + self.stats.row()

    def __repr__(self):
        return f"<TimelineResult {self.sut}/{self.query} {self.stats!r}>"


class LatencyStats:
    """Summary of one latency series around a reconfiguration event."""

    def __init__(self, series, event_time):
        self.series = series  # LatencySeries
        self.event_time = event_time
        self.before_mean = series.mean(end=event_time)
        self.before_p99 = series.percentile(0.99, end=event_time)
        self.after_mean = series.mean(start=event_time)
        self.after_peak = series.maximum(start=event_time)
        self.recovery_seconds = self._recovery_time()

    def _recovery_time(self):
        """Seconds after the event until latency returns to steady state:
        the last sample above twice the pre-event p99, four times the
        pre-event mean, or 1 ms, whichever is largest."""
        threshold = max(self.before_p99 * 2, self.before_mean * 4, 1e-3)
        last_bad = None
        for t, latency, _weight in self.series.window(start=self.event_time):
            if latency > threshold:
                last_bad = t
        if last_bad is None:
            return 0.0
        return max(0.0, last_bad - self.event_time)

    @property
    def spike_factor(self):
        """How many times above the pre-event mean the post-event peak is."""
        if self.before_mean <= 0:
            return float("inf") if self.after_peak > 0 else 1.0
        return self.after_peak / self.before_mean

    def row(self):
        """The report-table row for this result."""
        return [
            round(self.before_mean, 3),
            round(self.before_p99, 3),
            round(self.after_peak, 3),
            round(self.recovery_seconds, 1),
        ]

    def __repr__(self):
        return (
            f"<LatencyStats before_mean={self.before_mean:.3f}s "
            f"after_peak={self.after_peak:.1f}s "
            f"recovery={self.recovery_seconds:.1f}s>"
        )
