"""The Handover Manager: the forward protocol of a reconfiguration (§3.3).

The HM turns a set of :class:`HandoverPlan` objects into one marker-driven
reconfiguration: it suspends checkpointing, prepares targets, injects the
handover marker at every source, brokers the state rendezvous between
origins and targets, collects acknowledgments from every instance, and
produces the scheduling / state-fetching / state-loading breakdown of
Table 1.  What happens *before* the barrier -- the background pre-copy
of a cold target -- lives in ``fluid.py``; where a failure recovery
restores from, in ``restore.py``; how the state itself moves, in the
job's checkpoint storage (``engine/checkpointing.py``); how an
interrupted handover ends, in ``resolution.py``, and how a rollback is
carried out, in ``rollback.py``.
"""

from repro.common.errors import ProtocolError
from repro.obs import phase_span
from repro.sim.kernel import Interrupt
from repro.engine.instance import OperatorInstance, SourceInstance
from repro.core import fluid, migration, resolution, restore, rollback
from repro.core.handover import (
    ABORTED,
    ACCEPTED,
    ACK,
    COMMITTED,
    PHASE_SET_BY,
    HandoverAborted,
    HandoverExecution,
    HandoverMarker,
)
from repro.core.journal import plan_to_dict

#: Grace period for an in-flight checkpoint before a handover aborts it
#: (it may be unable to complete after a failure).
CHECKPOINT_DRAIN_TIMEOUT = 10.0
#: Watchdog on a handover's marker round: a handover whose acks have not
#: all landed this long after its marker raises ``ProtocolError``.
HANDOVER_TIMEOUT = 3600.0


class HandoverManager:
    """Coordinates handovers for one job."""

    def __init__(self, sim, job, rhino):
        self.sim = sim
        self.job = job
        self.rhino = rhino
        #: Prepared executions by handover id: the ones markers and
        #: machine failures reach.
        self._executions = {}
        self.reports = []
        #: Under a control group, every accepted reconfiguration until it
        #: commits or aborts, by reconfig id (what a takeover resolves).
        self._inflight = {}
        #: Ids of running handovers (pre-copy included): the reconciler
        #: keeps their pre-copy holdings.
        self.running = set()
        self._reconfig_ids = 0
        #: Per-manager handover ids: two runs in one interpreter must
        #: allocate identical ids (they appear in trace tags and journal
        #: records, and replay determinism is asserted byte-for-byte).
        self._handover_ids = 0

    # -- journaling ------------------------------------------------------------

    def _journal(self, execution, kind, **payload):
        """Journal one transition of an open reconfiguration.

        A no-op without a control group and once the reconfiguration has
        closed.  The live phase moves where the record is appended, so
        replay reproduces it exactly; a closing kind pops the
        reconfiguration *before* the append, so a crash listener firing on
        this very record observes it gone, exactly as replay will.
        Returns the record (None when the journal is fenced).
        """
        if self._inflight.get(execution.reconfig_id) is not execution:
            return None
        if kind in (COMMITTED, ABORTED):
            del self._inflight[execution.reconfig_id]
        execution.phase = PHASE_SET_BY.get(kind, execution.phase)
        return self.rhino.control_group.journal.append(
            kind, reconfig=execution.reconfig_id, **payload
        )

    # -- public entry point ----------------------------------------------------

    def execute(self, plans, trigger_time=None):
        """Run one reconfiguration; returns a Process yielding the report."""
        trigger_time = self.sim.now if trigger_time is None else trigger_time
        execution = HandoverExecution(self.sim, plans, trigger_time)
        if self.rhino.control_group is not None:
            self._reconfig_ids += 1
            execution.reconfig_id = self._reconfig_ids
            self._inflight[execution.reconfig_id] = execution
            execution.on_ack = lambda instance_id: self._journal(
                execution, ACK, instance=instance_id
            )
        execution.process = self.sim.process(
            self._execute(execution), name="handover"
        )
        # Journaled after the process exists: a crash listener firing on
        # this very record can interrupt it cleanly.
        execution.accepted_record = self._journal(
            execution,
            ACCEPTED,
            reason=plans[0].reason,
            trigger_time=trigger_time,
            plans=[plan_to_dict(plan) for plan in plans],
        )
        return execution.process

    def _execute(self, execution):
        group = self.rhino.control_group
        plans = execution.plans
        trigger_time = execution.trigger_time
        config = self.rhino.config
        coordinator = self.job.coordinator
        root = scheduling_span = transfer_span = handover_id = None
        try:
            if execution.reconfig_id is not None:
                # Quorum commit-wait: a leader cut off from its majority
                # stalls here -- before suspending the coordinator or
                # touching any shared state -- so a deposed primary's
                # accepted-but-never-committed handover leaves nothing
                # behind to roll back.
                yield from group.await_commit(execution.accepted_record)
            self._handover_ids += 1
            handover_id = self._handover_ids
            self.running.add(handover_id)
            # One root span over the whole reconfiguration and two
            # contiguous top-level phases the report reads: "scheduling"
            # (trigger -> markers injected, Table 1's first row) and
            # "transfer" (alignment + per-instance fetch/load + acks).
            root = self.sim.tracer.span(
                "handover",
                track="handover",
                start=trigger_time,
                kind=plans[0].reason,
                plans=len(plans),
                handover=handover_id,
            )
            # A cold target gets its state pre-copied in the background
            # *before* the barrier, while origins keep processing.
            precopy_outcomes, precopied = yield from fluid.precopy(
                self.rhino, handover_id, plans, root
            )
            # Table 1's "scheduling" row runs from the trigger (so it
            # includes the quorum commit-wait) unless a pre-copy came first.
            scheduling_span = phase_span(
                self.sim,
                "handover.scheduling",
                track="handover",
                parent=root,
                start=self.sim.now if precopied else trigger_time,
                handover=handover_id,
            )
            coordinator.suspend()
            # Let an in-flight checkpoint drain, but only briefly: after a
            # failure its barriers may be unable to complete (e.g. they
            # would need a replacement source this very handover will
            # start), so the reconfiguration supersedes it.
            waited = 0.0
            while coordinator.checkpoint_in_flight:
                yield self.sim.timeout(0.25)
                waited += 0.25
                if waited >= CHECKPOINT_DRAIN_TIMEOUT:
                    coordinator.abort_all_pending()
                    break

            # Spawn rescale targets before the marker flows so their
            # channels exist and post-marker records buffer at them.
            for plan in plans:
                if plan.spawn_target:
                    self.job.spawn_operator_instance(
                        plan.op_name, plan.target_index, plan.target_machine
                    )
            # Modeled deployment/RPC latency of triggering the
            # reconfiguration.
            yield self.sim.timeout(config.scheduling_delay)

            report = execution.prepare(
                handover_id,
                [i.instance_id for i in self.job.all_instances() if i.machine.alive],
            )
            report.spans.append(scheduling_span)
            report.precopy = precopy_outcomes
            execution.root_span = root
            report.migrated_bytes += report.precopy_bytes + report.delta_bytes
            self._executions[handover_id] = execution
            # From here on on_machine_failure aborts the execution; a
            # participant that died earlier never reached it.
            dead = next((m for m in self._participants(execution) if not m.alive), None)
            if dead is not None:
                self._lost(execution, dead, down=True)
                raise HandoverAborted(handover_id, dead)
            self._journal(execution, "handover.prepared", handover=handover_id)

            restore_offsets = None
            if plans[0].reason == migration.FAILURE:
                points = restore.publish(self.rhino, execution)
                self._journal(
                    execution, "handover.state-shipped", handover=handover_id
                )
                restore_offsets = restore.replay_start(self.rhino, points)
            scheduling_span.finish()
            transfer_span = execution.open_phase("handover.transfer")

            marker = HandoverMarker(handover_id, plans, self.sim.now)
            if group is not None:
                # Stamp the leader's epoch: workers discard markers minted
                # under a deposed leader (see on_marker).
                marker.epoch = group.epoch
            for source in self.job.source_instances():
                if source.machine.alive:
                    source.send_command("marker", marker)
                    if restore_offsets is not None:
                        offset = restore_offsets.get(source.instance_id)
                        if offset is not None:
                            source.send_command("seek", offset)
            self._journal(execution, "handover.marker", handover=handover_id)

            deadline = self.sim.timeout(HANDOVER_TIMEOUT)
            waiter = self.sim.any_of([execution.done, deadline])
            try:
                winner = yield waiter
            except Interrupt:
                # The control plane died and killed this driver.  The
                # waiter stays subscribed to ``execution.done``; if the
                # takeover later *aborts* this execution (quorum fencing
                # keeps workers from ever acking a deposed leader's
                # markers), the failure must not escape through the
                # orphaned condition.
                waiter.defused = True
                raise
            if winner is deadline and not execution.done.triggered:
                raise ProtocolError(f"handover {handover_id} timed out")

            self._commit(execution)
            coordinator.resume()
            transfer_span.finish(
                end=report.completed_at, acks=len(execution.acked)
            )
            root.finish(
                end=report.completed_at,
                status="completed",
                migrated_bytes=report.migrated_bytes,
                moved_state_bytes=report.moved_state_bytes,
            )
            return report
        except Interrupt:
            # A leader deposition killed this driver mid-protocol.  The
            # execution stays in _inflight: the takeover resolves it after
            # journal replay.
            raise
        except BaseException:
            self._journal(execution, ABORTED, handover=execution.handover_id)
            raise
        finally:
            # Abort, timeout, or a missing checkpoint: close open spans so
            # the trace never ends with a dangling handover, and never
            # leave periodic checkpointing suspended.
            for span in (transfer_span, scheduling_span, root):
                if span is not None and span.is_open:
                    span.finish(status="aborted")
            coordinator.resume()
            self.running.discard(handover_id)

    def _commit(self, execution):
        """The handover is the epoch transition: commit the new logical
        key-group assignment so future deployments see it."""
        for plan in execution.plans:
            assignment = self.job.assignments[plan.op_name]
            for lo, hi in plan.vnodes:
                assignment.reassign(lo, hi, plan.target_index)
        report = execution.report
        if report.completed_at is None:  # acked in full, then the leader died
            report.completed_at = self.sim.now
        self.reports.append(report)
        del self._executions[execution.handover_id]
        self._journal(execution, COMMITTED, handover=execution.handover_id)

    # -- the marker handler (runs inside each instance's main loop) -------------

    def on_marker(self, instance, marker):
        """The engine-invoked handler run at each instance's alignment point."""
        group = self.rhino.control_group
        if (
            group is not None
            and marker.epoch is not None
            and marker.epoch < group.epoch
        ):
            # Epoch fence at the worker: a marker minted by a since-deposed
            # leader must not rewire routing the new leader now owns.
            # Forward it so downstream alignment state drains, but apply
            # nothing locally.
            group.note_fenced_marker(marker, instance)
            yield from instance.broadcast(marker)
            return
        execution = self._executions.get(marker.handover_id)
        if execution is None:
            # Unknown, committed or aborted handover: the marker is inert.
            yield from instance.broadcast(marker)
            return
        # Step 3, upstream routine: rewire output channels of migrated
        # virtual nodes at *this* instance's alignment point.
        for plan in marker.plans:
            for router in instance.output_routers:
                if router.edge.dst_op == plan.op_name and router.assignment is not None:
                    for lo, hi in plan.vnodes:
                        router.reassign(lo, hi, plan.target_index)
        # Forward the marker before doing local work so downstream
        # instances start aligning while we migrate state.
        yield from instance.broadcast(marker)
        if isinstance(instance, SourceInstance):
            instance.paused = False  # replacement sources resume here

        if isinstance(instance, OperatorInstance):
            is_failure = any(p.reason == migration.FAILURE for p in marker.plans)
            target_of = [
                plan
                for plan in marker.plans
                if plan.op_name == instance.op.name
                and plan.target_index == instance.index
            ]
            if is_failure and instance.state is not None and not target_of:
                # What a survivor processes of the upcoming replay it had
                # not seen: recovery work, not end-to-end latency.
                instance.replay_epoch = self.sim.now
            for plan in marker.plans:
                if plan.op_name != instance.op.name or instance.state is None:
                    continue
                if (
                    instance.index == plan.origin_index
                    and not plan.replace_origin
                ):
                    yield from self._origin_steps(instance, plan, execution)
                if plan in target_of:
                    yield from self._target_steps(instance, plan, execution)
        execution.ack(instance.instance_id)

    # -- origin routine (§4.1.2 step 3, third case) -------------------------------

    def _origin_steps(self, instance, plan, execution):
        outcome = execution.report.precopy.get(id(plan))
        dirty = None
        if outcome is not None:
            # Measured *at barrier entry*: what the migrating ranges
            # dirtied since the last pre-copy/delta snapshot.
            dirty = sum(
                instance.state.dirty_bytes_in_groups(lo, hi, outcome.cutoff_seq)
                for lo, hi in plan.vnodes
            )
        checkpoint = yield from instance.snapshot_state(
            ("handover", execution.handover_id, instance.index)
        )
        fetch_span = execution.open_phase(
            "handover.fetching",
            role="origin",
            instance=instance.instance_id,
            **plan.trace_tags(),
        )
        transferred = yield from self.job.checkpoint_storage.hand_over(
            instance, checkpoint, plan, execution, dirty
        )
        if transferred is None:
            fetch_span.finish(status="port-failed")
            return
        execution.publish_state(plan, checkpoint)
        fetch_span.finish(bytes=transferred)
        self._journal(
            execution,
            "handover.state-shipped",
            handover=execution.handover_id,
            instance=instance.instance_id,
        )
        execution.report.migrated_bytes += transferred
        # Phase accounting: whatever an origin ships behind the barrier is
        # "cutover".
        execution.report.cutover_bytes += transferred
        execution.report.moved_state_bytes += instance.release_groups(plan.vnodes)
        self._journal(
            execution,
            "handover.origin-drained",
            handover=execution.handover_id,
            instance=instance.instance_id,
        )

    # -- target routine (§4.1.2 step 3, fourth case) --------------------------------

    def _target_steps(self, instance, plan, execution):
        try:
            checkpoint = yield execution.state_ready_event(plan)
        except HandoverAborted:
            return  # the handover rolled back; adopt nothing
        storage = self.job.checkpoint_storage
        fetch_span = execution.open_phase(
            "handover.fetching",
            role="target",
            instance=instance.instance_id,
            source=storage.fetch_source,
            **plan.trace_tags(),
        )
        migrated = yield storage.fetch(instance.machine, checkpoint)
        execution.report.migrated_bytes += migrated
        fetch_span.finish(bytes=migrated)
        load_span = execution.open_phase(
            "handover.loading",
            instance=instance.instance_id,
            **plan.trace_tags(),
        )
        yield self.sim.timeout(self.rhino.config.state_load_seconds)
        if execution.done.triggered and not execution.done.ok:
            load_span.finish(status="aborted")
            return  # the handover rolled back while the state loaded
        instance.state.ingest_tables(checkpoint.full_tables, ranges=plan.vnodes)
        # Incremental: the target keeps the indexes of the virtual nodes it
        # already served and adds the migrated ones, whose replay progress
        # is the frontier the state was captured with.
        instance.progress.take(plan.vnodes, checkpoint.frontier)
        instance.adopt_groups(plan.vnodes)
        if plan.reason == migration.FAILURE:
            # The sampling epoch is the reconfiguration *trigger*: records
            # created before the failure were measured in their original
            # epoch; anything newer is live traffic whose delay (e.g.
            # waiting for this restore) is real end-to-end latency.
            instance.replay_epoch = execution.report.triggered_at
            # The watermarks received so far precede the replay.
            instance.restart_frontier()
        instance.restoring = False
        load_span.finish(
            bytes=sum(t.size_bytes for t in checkpoint.full_tables),
            groups=plan.moved_groups,
        )
        self._journal(
            execution,
            "handover.target-resumed",
            handover=execution.handover_id,
            instance=instance.instance_id,
        )

    # -- failure of a participant mid-handover ------------------------------------

    def on_machine_failure(self, machine):
        """A dead worker rolls back every handover it is critical to (the
        caller may retry); a dead bystander's acks are forgotten."""
        for execution in list(self._executions.values()):
            self._lost(execution, machine, down=True)

    def on_machine_suspected(self, machine):
        """A *suspected* worker (dead or partitioned) rolls back every
        handover it is critical to; a partitioned bystander still acks."""
        for execution in list(self._executions.values()):
            self._lost(execution, machine, down=False)

    def _lost(self, execution, machine, down):
        resolved = resolution.resolve(self.facts(execution, machine.name, down))
        if resolved.outcome == resolution.ROLLBACK:
            rollback.abort(self, execution, machine, resolved)
        elif resolved.forget:
            for instance in self.job.all_instances():
                if instance.machine is machine:
                    execution.forget(instance.instance_id)

    def facts(self, execution, lost, down=True, journaled=True):
        """The ``resolution.Facts`` of ``execution`` (None: closed) when
        ``lost``, a worker's name or ``resolution.LEADER``, is lost."""
        if execution is None:
            return resolution.Facts(lost, down, journaled, None, set(), set(), ())
        plans = tuple(self.plan_facts(plan) for plan in execution.plans)
        phase, expected, acked = execution.phase, execution.expected, execution.acked
        return resolution.Facts(lost, down, journaled, phase, expected, acked, plans)

    def plan_facts(self, plan):
        """One plan's ``resolution.PlanFacts``, read off the live job."""
        origin = self.job.instances.get((plan.op_name, plan.origin_index))
        target = self.job.instances.get((plan.op_name, plan.target_index))
        return resolution.PlanFacts(
            plan,
            _party(origin, origin and origin.machine, plan.vnodes),
            _party(target, plan.target_machine, plan.vnodes),
        )

    def _participants(self, execution):
        """The origin and target machine of every plan."""
        for plan in execution.plans:
            origin = self.job.instances.get((plan.op_name, plan.origin_index))
            if origin is not None:
                yield origin.machine
            if plan.target_machine is not None:
                yield plan.target_machine


def _party(instance, machine, vnodes):
    state = getattr(instance, "state", None)
    owned = state.owned if state is not None else None
    holds = state is not None and (
        owned is None or any(owned.intersects(lo, hi) for lo, hi in vnodes)
    )
    alive = machine is not None and machine.alive
    name = machine.name if machine is not None else None
    return resolution.Party(name, alive, state is not None, holds)
