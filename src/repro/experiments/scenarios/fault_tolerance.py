"""Figure 4 a-c: end-to-end latency around a VM failure (§5.2.2).

NBQ8/NBQ5/NBQX run on 8 VMs; after three checkpoints one VM is
terminated; each SUT recovers and the run continues for three more
checkpoint intervals.  The deliverable is the latency timeline and its
summary: Rhino's latency is essentially unaffected, Flink accumulates a
latency lag of minutes that drains slowly.
"""

from repro.common.units import GB, MB
from repro.experiments.timeline import latency_timeline

#: Paper's approximate state sizes at the failure (§5.2.2).
PRELOAD_BYTES = {"nbq8": 190 * GB, "nbq5": 26 * MB, "nbqx": 180 * GB}


def run_fault_tolerance(
    sut_name,
    query="nbq8",
    checkpoint_interval=60.0,
    checkpoints_before=3,
    checkpoints_after=3,
    rate_scale=0.05,
    preload_bytes=None,
    seed=42,
):
    """One latency-timeline run with a mid-run VM failure."""
    if preload_bytes is None:
        preload_bytes = PRELOAD_BYTES.get(query, 0)
    return latency_timeline(
        sut_name,
        query,
        "failure",
        event_at=10.0 + checkpoints_before * checkpoint_interval,
        tail=checkpoints_after * checkpoint_interval,
        preload_bytes=preload_bytes,
        checkpoint_interval=checkpoint_interval,
        rate_scale=rate_scale,
        seed=seed,
    )
