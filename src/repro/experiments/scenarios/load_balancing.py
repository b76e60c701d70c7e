"""Figure 4 g-i: latency around a load-balancing reconfiguration (§5.4.2).

Half the virtual nodes of 8 stateful instances move to 8 other instances.
Rhino's handover keeps latency flat; Megaphone's fluid migration raises
latency for the duration of the move (~10-24 s in the paper); Flink has
no load balancing, so the paper (and this scenario) substitutes its
vertical-scaling restart.
"""

from repro.experiments.calibration import Calibration
from repro.experiments.scenarios.scaling import PRELOAD_BYTES, run_vertical_scaling
from repro.experiments.timeline import latency_timeline

#: The paper moves from 8 instances to 8 others.
MOVE_PAIRS = 8


def run_load_balancing(
    sut_name,
    query="nbq8",
    checkpoint_interval=60.0,
    checkpoints_before=3,
    checkpoints_after=3,
    rate_scale=0.05,
    preload_bytes=None,
    seed=42,
):
    """One latency-timeline run with a mid-run rebalance.

    Moves half the virtual nodes of the first :data:`MOVE_PAIRS` instances
    to the last :data:`MOVE_PAIRS` instances.
    """
    if sut_name == "flink":
        # §5.4.2: "As there is no implementation of load balancing in
        # Flink, we compare load balancing against vertical scaling."
        return run_vertical_scaling(
            sut_name,
            query,
            checkpoint_interval=checkpoint_interval,
            checkpoints_before=checkpoints_before,
            checkpoints_after=checkpoints_after,
            rate_scale=rate_scale,
            preload_bytes=preload_bytes,
            seed=seed,
        )
    if preload_bytes is None:
        preload_bytes = PRELOAD_BYTES.get(query, 0)
    dop = Calibration.stateful_dop
    pairs = min(MOVE_PAIRS, dop // 2)
    return latency_timeline(
        sut_name,
        query,
        "rebalance",
        {"moves": [(i, dop - pairs + i) for i in range(pairs)]},
        event_at=10.0 + checkpoints_before * checkpoint_interval,
        tail=checkpoints_after * checkpoint_interval,
        preload_bytes=preload_bytes,
        checkpoint_interval=checkpoint_interval,
        rate_scale=rate_scale,
        seed=seed,
    )
