"""Carrying out a rollback: the simulated I/O of an aborted handover.

``resolution.py`` decides what each participant does; :func:`abort` does
it: alignment is cancelled, key groups change hands, routing reverts,
spawned targets go, and the records diverted during the broken epoch
replay from upstream backup.  Every consumer deduplicates that replay
against its own ranges' frontiers; an origin that gets its groups back
resumes theirs where it released them.
"""

from repro.core.handover import ABORTED, HandoverAborted


def abort(manager, execution, machine, resolved):
    """Roll ``execution`` back as ``resolved`` says, ``machine`` lost;
    journal the abort and fail the execution with
    :class:`HandoverAborted` (its driver and waiting targets receive it)."""
    sim, job = manager.sim, manager.job
    if sim.tracer.enabled:
        sim.tracer.event(
            "handover.abort",
            track="handover",
            handover=execution.handover_id,
            machine=machine.name,
        )
    marker_id = ("handover", execution.handover_id)
    # 1. Stop the epoch transition: swallow in-flight markers and
    #    release every blocked channel.
    for instance in job.all_instances():
        cancel = getattr(instance, "cancel_alignment", None)
        if cancel is not None:
            cancel(marker_id)
    settled = list(zip(execution.plans, resolved.settlements))
    # 2. Hand every plan's key groups back to the old configuration.
    for plan, settlement in settled:
        _settle(job, sim, plan, settlement)
    # 3. Remove targets spawned for this handover.
    for plan, settlement in settled:
        if settlement.remove:
            job.remove_instance(plan.op_name, plan.target_index)
    # 4. Replay the diverted epoch boundary from upstream backup.
    _replay_aborted_gap(job, sim)
    job.coordinator.resume()
    del manager._executions[execution.handover_id]
    manager._journal(
        execution,
        ABORTED,
        handover=execution.handover_id,
        machine=machine.name,
    )
    execution.abort(HandoverAborted(execution.handover_id, machine))


def _settle(job, sim, plan, settlement):
    if settlement.adopt:
        origin = job.instances[(plan.op_name, plan.origin_index)]
        origin.adopt_groups(plan.vnodes)
        origin.replay_epoch = sim.now
        origin.restart_frontier()
    if settlement.fence:
        target = job.instances[(plan.op_name, plan.target_index)]
        if settlement.release:
            target.release_groups(plan.vnodes)
        target.replay_epoch = sim.now
    for runtime in job.edge_runtimes(downstream=plan.op_name):
        for router in runtime.routers.values():
            for lo, hi in plan.vnodes:
                router.reassign(lo, hi, settlement.owner)


def _replay_aborted_gap(job, sim):
    coordinator = job.coordinator
    if not coordinator.has_completed():
        return
    # The replay below re-emits everything consumers have not yet
    # processed; batches stuck behind a partition must not ALSO be
    # delivered once the network heals.
    job.fabric.drop_unreachable()
    # What a bystander processes of the replay it had not seen (a batch
    # just dropped) is recovery work, not end-to-end latency.
    for instance in job.stateful_instances():
        if instance.machine.alive and instance.replay_epoch is None:
            instance.replay_epoch = sim.now
    record = coordinator.completed[-1]
    for source in job.source_instances():
        if not source.machine.alive:
            continue
        offset = record.offsets.get(source.instance_id)
        if offset is not None:
            source.send_command("seek", min(offset, source.cursor.offset))
