"""Figure 4 d-f: latency around vertical rescaling (§5.4.1).

The stateful operator runs below full parallelism (the paper: DOP 56 of
64; scaled: 14 of 16); after three checkpoints the SUT scales to full
parallelism.  Rhino migrates a share of virtual nodes through handovers;
Flink restarts the query and reshuffles all state.
"""

from repro.common.units import GB, MB
from repro.experiments.timeline import latency_timeline

#: Approximate state sizes at the reconfiguration (§5.4.1, §5.4.2).
PRELOAD_BYTES = {"nbq8": 220 * GB, "nbq5": 26 * MB, "nbqx": 170 * GB}


def run_vertical_scaling(
    sut_name,
    query="nbq8",
    checkpoint_interval=60.0,
    checkpoints_before=3,
    checkpoints_after=3,
    rate_scale=0.05,
    preload_bytes=None,
    initial_dop=14,
    add_instances=2,
    seed=42,
):
    """One latency-timeline run with a mid-run scale-out."""
    if preload_bytes is None:
        preload_bytes = PRELOAD_BYTES.get(query, 0)
    return latency_timeline(
        sut_name,
        query,
        "rescale",
        {"add_instances": add_instances},
        event_at=10.0 + checkpoints_before * checkpoint_interval,
        tail=checkpoints_after * checkpoint_interval,
        preload_bytes=preload_bytes,
        checkpoint_interval=checkpoint_interval,
        stateful_dop=initial_dop,
        rate_scale=rate_scale,
        seed=seed,
    )
