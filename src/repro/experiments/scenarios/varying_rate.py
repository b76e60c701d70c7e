"""Figure 6: NBQ8 latency under a varying data rate (§5.5).

Each producer ramps 1 -> 8 -> 1 MB/s in 0.5 MB/s steps every 10 s.  Once
state reaches ~150 GB, the operators of one server migrate to the
remaining seven.  Rhino's latency stays flat through the reconfiguration;
Flink's reaches minutes and then drains.
"""

from repro.common.units import GB
from repro.experiments.timeline import latency_timeline
from repro.nexmark import TriangularRate


def run_varying_rate(
    sut_name,
    query="nbq8",
    checkpoint_interval=60.0,
    preload_bytes=150 * GB,
    warmup=160.0,
    cooldown=180.0,
    seed=42,
):
    """One varying-rate run with a mid-run full-machine migration.

    Migrating the operators of one server to the remaining seven (§5.5)
    is a *planned* reconfiguration: a ``drain``.  The triangular profile
    is applied per stream (the paper configures it per producer thread;
    the aggregate shape is identical).
    """
    return latency_timeline(
        sut_name,
        query,
        "drain",
        event_at=10.0 + warmup,
        tail=cooldown,
        preload_bytes=preload_bytes,
        checkpoint_interval=checkpoint_interval,
        rate_profile=TriangularRate(floor=1e6, ceiling=8e6, step=0.5e6, period=10.0),
        seed=seed,
    )
