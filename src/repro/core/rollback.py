"""Aborting a handover: roll every plan back to the old configuration.

The paper leaves a failure during a handover as future work ("may restart
the protocol", §4.1.2).  This is the abort half of the restartable
variant: alignment is cancelled, origins re-adopt their virtual nodes,
routing reverts, spawned targets are removed, and the records diverted
during the broken epoch replay from upstream backup.  Its callers are the
Handover Manager's machine-failure / suspicion handlers and the
control-plane takeover; :func:`abort` is their one entry point.
"""

from repro.engine.instance import ConsumerDrivenReplayFilter, Frontier, ReplayFilter
from repro.core.handover import ABORTED, HandoverAborted


def abort(manager, execution, machine):
    """Abort a prepared ``execution`` because ``machine`` failed.

    Rolls the job back, drops the execution from ``manager``'s registry,
    journals the abort, and fails the execution: its driver and every
    waiting target receive :class:`HandoverAborted`.
    """
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
    # 2. Roll every plan back to the old configuration.
    for plan in execution.plans:
        _rollback_plan(job, sim, plan, execution)
    # 3. Remove targets spawned for this handover.
    for plan in execution.plans:
        if plan.spawn_target:
            job.remove_instance(plan.op_name, plan.target_index)
    # 4. Replay the diverted epoch boundary from upstream backup.
    _replay_aborted_gap(job, sim, execution)
    job.coordinator.resume()
    del manager._executions[execution.handover_id]
    manager._journal(
        execution,
        ABORTED,
        handover=execution.handover_id,
        machine=machine.name,
    )
    execution.abort(HandoverAborted(execution.handover_id, machine))


def _rollback_plan(job, sim, plan, execution):
    origin = job.instances.get((plan.op_name, plan.origin_index))
    # A failure recovery has no origin to fall back to: the instance at
    # the origin index is the *empty replacement* (also the target).
    # It must keep its hold-all filter until a retry restores the
    # checkpoint; an origin-style filter would let records from
    # already-rewound sources flow into the empty state.
    origin_alive = (
        not plan.replace_origin
        and origin is not None
        and origin.machine.alive
        and getattr(origin, "state", None) is not None
    )
    if origin_alive:
        for lo, hi in plan.vnodes:
            origin.state.adopt_groups(lo, hi)
        origin.logic.absorb(plan.vnodes)
        # Records diverted to the dead target replay from the captured
        # source frontiers; everything older is already in our state.
        # The default frontier reads the *live* progress dict (not a
        # snapshot): a replayed copy can race its still-in-flight
        # original, and whichever arrives second must read as seen.
        origin.replay_filter = ReplayFilter(
            job.config.num_key_groups,
            Frontier(origin.origin_progress, float("-inf")),
            fresh_ranges=plan.vnodes,
            fresh=_diverted(execution),
            epoch=sim.now,
        )
        origin.restart_frontier()
    target = job.instances.get((plan.op_name, plan.target_index))
    if (
        not plan.spawn_target
        and target is not None
        and target is not origin
        and target.machine.alive
        and getattr(target, "state", None) is not None
    ):
        # The broken epoch diverted records toward the target.  When
        # the abort was caused by a *partition* (not a death) the
        # target is still running and the data plane still holds those
        # batches -- they will arrive once the network heals, but the
        # origin replays the same records from upstream backup.  Mark
        # everything created up to the abort as seen for the
        # rolled-back groups; records of a later successful retry are
        # newer and pass.
        target.replay_filter = ReplayFilter(
            job.config.num_key_groups,
            Frontier(target.origin_progress, float("-inf")),  # live
            fresh_ranges=plan.vnodes,
            fresh=Frontier({}, sim.now),
            epoch=sim.now,
        )
    # Rewire every producer back to the origin (an aborted epoch).
    for runtime in job.edge_runtimes(downstream=plan.op_name):
        for router in runtime.routers.values():
            for lo, hi in plan.vnodes:
                router.reassign(lo, hi, plan.origin_index)


def _replay_aborted_gap(job, sim, execution):
    coordinator = job.coordinator
    if not coordinator.has_completed():
        return
    # The replay below re-emits everything consumers have not yet
    # processed; batches stuck behind a partition must not ALSO be
    # delivered once the network heals.
    job.fabric.drop_unreachable()
    # A replayed copy can race its still-in-flight original toward a
    # *bystander* consumer; give every unprotected stateful instance a
    # dedup filter over its live progress frontier so whichever copy
    # arrives second is dropped.
    plan_ids = set()
    for plan in execution.plans:
        plan_ids.add(f"{plan.op_name}[{plan.origin_index}]")
        plan_ids.add(f"{plan.op_name}[{plan.target_index}]")
    for instance in job.stateful_instances():
        if (
            instance.instance_id in plan_ids
            or not instance.machine.alive
            or instance.replay_filter is not None
        ):
            continue
        instance.replay_filter = ReplayFilter(
            job.config.num_key_groups,
            Frontier(instance.origin_progress, float("-inf")),  # live
            epoch=sim.now,
        )
    record = coordinator.completed[-1]
    diverted = _diverted(execution)
    fresh = []
    for plan in execution.plans:
        origin = job.instances.get((plan.op_name, plan.origin_index))
        if origin is None or not origin.machine.alive:
            continue  # a dead origin is handled by failure recovery
        fresh.extend((plan.op_name, lo, hi, diverted) for lo, hi in plan.vnodes)
    source_filter = consumer_filter(job, fresh, sim.now)
    for source in job.source_instances():
        if not source.machine.alive:
            continue
        source.replay_filter = source_filter
        offset = record.offsets.get(source.instance_id)
        if offset is not None:
            source.send_command("seek", min(offset, source.cursor.offset))


def _diverted(execution):
    """The frontier of what a rolled-back consumer already holds.

    The epoch boundary diverted each rewired source's records after its
    captured frontier.  A source absent from the frontiers never rewired:
    all of its records reached the origin, so the floor reads them as seen.
    """
    return Frontier(dict(execution.source_frontiers), float("inf"))


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
