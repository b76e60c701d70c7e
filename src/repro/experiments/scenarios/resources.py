"""Figure 5 / §5.3: resource utilization of NBQ8 with and without Rhino.

Samples cluster CPU / memory / network / disk while NBQ8 runs at steady
state with periodic checkpoints, then through a reconfiguration.  The
§5.3 headline numbers fall out of the same run: Rhino uses more network
bandwidth during replication windows but transfers state several times
faster than Flink's DFS uploads, at no steady-state latency cost.
"""

from repro.common.units import GB
from repro.experiments.timeline import LatencyStats, run_single_event


class ResourceResult:
    """Utilization series + state-transfer speed for one SUT run."""

    def __init__(self, sut, query):
        self.sut = sut
        self.query = query
        self.samples = []
        self.mean_cpu = 0.0
        self.mean_network = 0.0
        self.peak_network = 0.0
        self.mean_disk = 0.0
        self.peak_memory = 0
        self.transfer_rate = None  # bytes/second of checkpoint persistence
        self.latency_stats = None
        self.reconfig_time = None

    def row(self):
        """The report-table row for this result."""
        return [
            self.sut,
            round(self.mean_cpu, 3),
            round(self.mean_network / 1e6, 1),
            round(self.peak_network / 1e6, 1),
            round(self.mean_disk / 1e6, 1),
            round(self.peak_memory / GB, 1),
            "-" if self.transfer_rate is None else round(self.transfer_rate / 1e6),
        ]


def run_resource_utilization(
    sut_name,
    query="nbq8",
    checkpoint_interval=60.0,
    steady_seconds=240.0,
    after_seconds=240.0,
    rate_scale=0.25,
    preload_bytes=60 * GB,
    seed=42,
):
    """One Figure 5 run; returns a :class:`ResourceResult`.

    Utilization is sampled through ``steady_seconds`` of steady state, a
    machine failure, and until ``after_seconds`` past the failure.
    """
    run = run_single_event(
        sut_name,
        query,
        "failure",
        event_at=10.0 + steady_seconds,
        tail=after_seconds,
        tail_from_event=True,
        preload_bytes=preload_bytes,
        checkpoint_interval=checkpoint_interval,
        rate_scale=rate_scale,
        monitor=True,
        seed=seed,
    )
    handle, monitor = run.handle, run.testbed.monitor
    monitor.stop()

    result = ResourceResult(handle.name, query)
    result.reconfig_time = run.event_time
    result.samples = monitor.samples
    steady_end = result.reconfig_time
    result.mean_cpu = monitor.mean("cpu_fraction", end=steady_end)
    result.mean_network = monitor.mean("network_rate", end=steady_end)
    result.peak_network = monitor.peak("network_rate", end=steady_end)
    result.mean_disk = monitor.mean("disk_rate", end=steady_end)
    result.peak_memory = monitor.peak("memory_bytes")
    result.transfer_rate = _transfer_rate(handle)
    result.latency_stats = LatencyStats(handle.metrics.latency, result.reconfig_time)
    return result


def _transfer_rate(handle):
    """Effective bytes/second of state persistence (replication or DFS)."""
    timings = handle.job.checkpoint_storage.persist_timings
    total_bytes = sum(b for b, _s in timings)
    total_seconds = sum(s for _b, s in timings)
    if total_seconds <= 0:
        return None
    return total_bytes / total_seconds
