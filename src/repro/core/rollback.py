"""Carrying out a rollback: the simulated I/O of an aborted handover.

``resolution.py`` decides what each participant does; :func:`abort` does
it: alignment is cancelled, key groups change hands, routing reverts,
spawned targets go, and the records diverted during the broken epoch
replay from upstream backup past each rolled-back consumer's fresh
frontier; :func:`consumer_filter` builds a recovery's source filter too.
"""

from repro.engine.instance import ConsumerDrivenReplayFilter, Frontier, ReplayFilter
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
    _replay_aborted_gap(job, sim, settled)
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
    num_groups = job.config.num_key_groups
    if settlement.adopt:
        origin = job.instances[(plan.op_name, plan.origin_index)]
        origin.adopt_groups(plan.vnodes)
        # The default frontier reads the *live* progress dict (not a
        # snapshot): a replayed copy can race its still-in-flight
        # original, and whichever arrives second must read as seen.
        origin.replay_filter = ReplayFilter(
            num_groups,
            Frontier(origin.origin_progress, float("-inf")),
            fresh_ranges=plan.vnodes,
            fresh=settlement.frontier,
            epoch=sim.now,
        )
        origin.restart_frontier()
    if settlement.fence:
        target = job.instances[(plan.op_name, plan.target_index)]
        if settlement.release:
            target.release_groups(plan.vnodes)
        # After a partition the batches diverted to a live target arrive
        # once the network heals, while the origin replays them: whatever
        # was created up to the abort reads as seen; a retry's records pass.
        target.replay_filter = ReplayFilter(
            num_groups,
            Frontier(target.origin_progress, float("-inf")),  # live
            fresh_ranges=plan.vnodes,
            fresh=Frontier({}, sim.now),
            epoch=sim.now,
        )
    for runtime in job.edge_runtimes(downstream=plan.op_name):
        for router in runtime.routers.values():
            for lo, hi in plan.vnodes:
                router.reassign(lo, hi, settlement.owner)


def _replay_aborted_gap(job, sim, settled):
    coordinator = job.coordinator
    if not coordinator.has_completed():
        return
    # The replay below re-emits everything consumers have not yet
    # processed; batches stuck behind a partition must not ALSO be
    # delivered once the network heals.
    job.fabric.drop_unreachable()
    # A replayed copy can race its still-in-flight original toward a
    # *bystander* consumer; give every unprotected stateful instance (each
    # live plan participant got its filter above) a dedup filter over its
    # live progress frontier so whichever copy arrives second is dropped.
    for instance in job.stateful_instances():
        if not instance.machine.alive or instance.replay_filter is not None:
            continue
        instance.replay_filter = ReplayFilter(
            job.config.num_key_groups,
            Frontier(instance.origin_progress, float("-inf")),  # live
            epoch=sim.now,
        )
    record = coordinator.completed[-1]
    fresh = [
        (plan.op_name, lo, hi, settlement.frontier)
        for plan, settlement in settled
        if settlement.frontier is not None
        for lo, hi in plan.vnodes
    ]
    source_filter = consumer_filter(job, fresh, sim.now)
    for source in job.source_instances():
        if not source.machine.alive:
            continue
        source.replay_filter = source_filter
        offset = record.offsets.get(source.instance_id)
        if offset is not None:
            source.send_command("seek", min(offset, source.cursor.offset))


def consumer_filter(job, fresh, epoch):
    """A source-side replay filter over every key group's consumers.

    ``fresh`` lists ``(op_name, lo, hi, frontier)``: the :class:`Frontier`
    a restored or rolled-back consumer of groups [lo, hi) replays from (a
    later entry wins where two overlap).  Every other consumer's frontier
    is its live progress, one per instance.
    """
    num_groups = job.config.num_key_groups
    layers = []  # per operator: its consumed (lo, hi, frontier), ascending
    for op_name, assignment in job.assignments.items():
        live = {}
        pieces = []
        for lo, hi, owner in assignment.owner_runs():
            instance = job.instances.get((op_name, owner))
            if instance is None or instance.state is None:
                continue
            frontier = live.get(owner)
            if frontier is None:
                frontier = live[owner] = Frontier(
                    instance.origin_progress, float("-inf")
                )
            pieces.append((lo, hi, frontier))
        for fresh_op, lo, hi, frontier in fresh:
            if fresh_op == op_name:
                pieces = _overlay(pieces, lo, hi, frontier)
        layers.append(pieces)
    cuts = sorted(
        {cut for pieces in layers for lo, hi, _ in pieces for cut in (lo, hi)}
    )
    cursors = [0] * len(layers)
    segments = []
    for lo, hi in zip(cuts, cuts[1:]):
        consumers = []
        for layer, pieces in enumerate(layers):
            index = cursors[layer]
            while index < len(pieces) and pieces[index][1] <= lo:
                index += 1
            cursors[layer] = index
            if index < len(pieces) and pieces[index][0] <= lo:
                consumers.append(pieces[index][2])
        if consumers:
            segments.append((lo, hi, consumers))
    return ConsumerDrivenReplayFilter(num_groups, segments, epoch=epoch)


def _overlay(pieces, lo, hi, frontier):
    """``pieces`` with ``frontier`` in place wherever they meet [lo, hi)."""
    out = []
    for p_lo, p_hi, current in pieces:
        if p_hi <= lo or hi <= p_lo:
            out.append((p_lo, p_hi, current))
            continue
        if p_lo < lo:
            out.append((p_lo, lo, current))
        out.append((max(p_lo, lo), min(p_hi, hi), frontier))
        if hi < p_hi:
            out.append((hi, p_hi, current))
    return out
