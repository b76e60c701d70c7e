"""Where a failure recovery restores from, and where its replay starts.

A failed instance's origin is dead, so its state comes from the target
worker's replica (Rhino) or from the DFS (RhinoDFS), and the records
since that checkpoint replay from upstream backup (§4.1.2, §4.2).
"""

from repro.common.errors import ProtocolError


def publish(rhino, execution):
    """Hand each plan's target its restore payload.

    Returns each plan's restore point: (frontier, source), where the
    source is the DFS checkpoint's record or the replica holding's
    checkpoint id, and the frontier is the one the restored state was
    captured with.  The replacement takes that frontier for its ranges
    now, while it still waits for the state: the replay's sources ask it
    what it will have seen.
    """
    coordinator = rhino.job.coordinator
    if not coordinator.has_completed():
        raise ProtocolError("failure recovery without a completed checkpoint")
    points = []
    for plan in execution.plans:
        instance_id = f"{plan.op_name}[{plan.origin_index}]"
        if rhino.dfs_storage is not None:
            source = _newest_record_with(coordinator, instance_id)
            checkpoint = source.checkpoints[instance_id]
            frontier = checkpoint.frontier
            payload = ("dfs", checkpoint)
        else:
            holding = rhino.replicator.store_on(plan.target_machine).holding_of(
                instance_id
            )
            source = holding.checkpoint_id
            frontier = holding.frontier
            payload = ("local", holding.live_tables())
        replacement = rhino.job.instances[(plan.op_name, plan.target_index)]
        replacement.progress.take(plan.vnodes, frontier)
        execution.publish_state(plan, payload, frontier)
        points.append((frontier, source))
    return points


def replay_start(rhino, points):
    """The source offsets of the upcoming replay: those of the oldest
    checkpoint any plan restores from, to cover every migrated range."""
    record = _oldest_restore_record(rhino, [source for _, source in points])
    return dict(record.offsets)


def _newest_record_with(coordinator, instance_id):
    """Newest completed checkpoint that covers ``instance_id``.

    A checkpoint completed between the failure and this handover
    excludes the dead instance; its state must come from an older one.
    """
    for record in reversed(coordinator.completed):
        if instance_id in record.checkpoints:
            return record
    raise ProtocolError(f"no completed checkpoint covers {instance_id}")


def _oldest_restore_record(rhino, sources):
    coordinator = rhino.job.coordinator
    if rhino.dfs_storage is not None:
        return min(sources, key=lambda r: r.checkpoint_id)
    # Handover checkpoints carry tuple ids and are not registered with the
    # coordinator; replaying from an older periodic checkpoint's offsets is
    # safe (every consumer deduplicates the replay).
    ids = [source for source in sources if isinstance(source, int)]
    if not ids:
        return coordinator.latest_completed()
    # A holding may reference a checkpoint the coordinator aborted
    # (replication ships at instance-ack time): replay from the newest
    # *completed* checkpoint at or below it -- older offsets only mean
    # more replay, which the consumers deduplicate exactly.
    target = min(ids)
    eligible = [r for r in coordinator.completed if r.checkpoint_id <= target]
    if not eligible:
        raise ProtocolError(
            f"no completed checkpoint at or below {target} to replay from"
        )
    return eligible[-1]
