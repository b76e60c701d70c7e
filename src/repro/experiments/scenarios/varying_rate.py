"""Figure 6: NBQ8 latency under a varying data rate (§5.5).

Each producer ramps 1 -> 8 -> 1 MB/s in 0.5 MB/s steps every 10 s.  Once
state reaches ~150 GB, the operators of one server migrate to the
remaining seven.  Rhino's latency stays flat through the reconfiguration;
Flink's reaches minutes and then drains.
"""

from repro.common.units import GB
from repro.experiments.harness import Testbed
from repro.experiments.timeline import LatencyStats
from repro.experiments.scenarios.fault_tolerance import TimelineResult
from repro.nexmark import TriangularRate


def run_varying_rate(
    sut_name,
    query="nbq8",
    checkpoint_interval=60.0,
    preload_bytes=150 * GB,
    warmup=160.0,
    cooldown=180.0,
    rate_floor=1e6,
    rate_ceiling=8e6,
    rate_step=0.5e6,
    rate_period=10.0,
    seed=42,
):
    """One varying-rate run with a mid-run full-machine migration.

    The triangular profile is applied per stream (the paper configures it
    per producer thread; aggregate shape is identical).
    """
    testbed = Testbed(seed=seed)
    profile = TriangularRate(
        floor=rate_floor, ceiling=rate_ceiling, step=rate_step, period=rate_period
    )
    handle = testbed.deploy(sut_name, query, checkpoint_interval=checkpoint_interval)
    testbed.start_workload(query, rate_profile=profile)
    testbed.sim.run(until=10.0)
    handle.preload(preload_bytes)
    testbed.sim.run(until=10.0 + warmup)
    # Migrate the operators of one server to the remaining seven (§5.5):
    # a *planned* reconfiguration.  Rhino drains the server through
    # handovers (delta-only migration, no replay); Flink's only mechanism
    # is the stop/restore/replay restart, triggered here by retiring the
    # machine.
    reconfig_time = testbed.sim.now
    victim = testbed.workers[-1]
    if sut_name == "megaphone":
        migration = handle.recover(victim)
    elif hasattr(handle, "rhino"):
        migration = handle.rhino.reconfigure("drain", machine=victim).process
    else:
        testbed.cluster.kill(victim)
        migration = handle.recover(victim)
    testbed.sim.run(until=migration)
    testbed.sim.run(until=testbed.sim.now + cooldown)
    stats = LatencyStats(handle.metrics.latency, reconfig_time)
    return TimelineResult(
        handle.name, query, stats, handle.metrics.latency.samples, reconfig_time
    )


def run_figure6(suts=("rhino", "rhinodfs", "flink"), **kwargs):
    """All Figure 6 series."""
    return [run_varying_rate(sut, **kwargs) for sut in suts]
