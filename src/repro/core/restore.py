"""Where a failure recovery restores from, and where its replay starts.

A failed instance's origin is dead, so its state comes from the job's
checkpoint storage -- the replica holding on the target worker (Rhino)
or the DFS files of a completed checkpoint (RhinoDFS) -- and the records
since that checkpoint replay from upstream backup (§4.1.2, §4.2).
"""

from repro.common.errors import ProtocolError


def publish(rhino, execution):
    """Hand each plan's target the checkpoint it restores.

    Returns each plan's restore point: (frontier, checkpoint id), the
    frontier being the one the restored state was captured with.  The
    replacement takes that frontier for its ranges now, while it still
    waits for the state: the replay's sources ask it what it will have
    seen.
    """
    coordinator = rhino.job.coordinator
    if not coordinator.has_completed():
        raise ProtocolError("failure recovery without a completed checkpoint")
    points = []
    for plan in execution.plans:
        checkpoint = rhino.job.checkpoint_storage.restore_point(
            coordinator, f"{plan.op_name}[{plan.origin_index}]", plan.target_machine
        )
        replacement = rhino.job.instances[(plan.op_name, plan.target_index)]
        replacement.progress.take(plan.vnodes, checkpoint.frontier)
        execution.publish_state(plan, checkpoint)
        points.append((checkpoint.frontier, checkpoint.checkpoint_id))
    return points


def replay_start(rhino, points):
    """The source offsets of the upcoming replay: those of the newest
    completed checkpoint at or below the oldest restore point, to cover
    every migrated range.

    A handover checkpoint's tuple id is not registered with the
    coordinator, and a replica holding may name a checkpoint the
    coordinator aborted (replication ships at instance-ack time).  Older
    offsets only mean more replay, which every consumer deduplicates.
    """
    coordinator = rhino.job.coordinator
    ids = [source for _, source in points if isinstance(source, int)]
    if not ids:
        return dict(coordinator.latest_completed().offsets)
    target = min(ids)
    eligible = [r for r in coordinator.completed if r.checkpoint_id <= target]
    if not eligible:
        raise ProtocolError(
            f"no completed checkpoint at or below {target} to replay from"
        )
    return dict(eligible[-1].offsets)
