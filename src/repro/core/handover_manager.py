"""The Handover Manager: the forward protocol of a reconfiguration (§3.3).

The HM turns a set of :class:`HandoverPlan` objects into one marker-driven
reconfiguration: it suspends checkpointing, prepares targets, injects the
handover marker at every source, brokers the state rendezvous between
origins and targets, collects acknowledgments from every instance, and
produces the scheduling / state-fetching / state-loading breakdown of
Table 1.  What happens *before* the barrier -- the background pre-copy
of a cold target -- lives in ``fluid.py``; where a failure recovery
restores from, in ``restore.py``; how a broken handover is undone, in
``rollback.py``.
"""

from repro.common.errors import ProtocolError
from repro.common.units import split_bytes
from repro.faults.retry import with_retry
from repro.obs import phase_span
from repro.sim.flows import TransferFailed
from repro.sim.kernel import Interrupt
from repro.engine.instance import OperatorInstance, ReplayFilter, SourceInstance
from repro.core import fluid, migration, restore, rollback
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
        root = scheduling_span = transfer_span = None
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
            for outcome in precopy_outcomes.values():
                report.precopy_bytes += outcome.precopy_bytes
                report.precopy_chunks += outcome.precopy_chunks
                report.delta_bytes += outcome.delta_bytes
                report.delta_rounds = max(
                    report.delta_rounds, outcome.delta_rounds
                )
                report.migrated_bytes += (
                    outcome.precopy_bytes + outcome.delta_bytes
                )
            self._executions[handover_id] = execution
            # From here on on_machine_failure aborts the execution; a
            # participant that died earlier never reached it.
            dead = next((m for m in self._participants(execution) if not m.alive), None)
            if dead is not None:
                rollback.abort(self, execution, dead)
                raise HandoverAborted(handover_id, dead)
            self._journal(execution, "handover.prepared", handover=handover_id)

            restore_offsets = None
            source_filter = None
            if plans[0].reason == migration.FAILURE:
                points = restore.publish(self.rhino, execution)
                self._journal(
                    execution, "handover.state-shipped", handover=handover_id
                )
                restore_offsets, source_filter = restore.replay_start(
                    self.rhino, plans, points
                )
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
                        # Replay only what some consumer still needs: drop
                        # replayed records every consumer has already seen.
                        source.replay_filter = source_filter
                        offset = restore_offsets.get(source.instance_id)
                        if offset is not None:
                            source.send_command("seek", offset)
            self._journal(execution, "handover.marker", handover=handover_id)

            deadline = self.sim.timeout(config.handover_timeout)
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
            # Capture the exact old/new-epoch routing boundary for this
            # source (abort rollback replays from here if needed).
            execution.source_frontiers[instance.instance_id] = (
                instance._last_emitted_ts
            )

        if isinstance(instance, OperatorInstance):
            is_failure = any(p.reason == migration.FAILURE for p in marker.plans)
            target_of = [
                plan
                for plan in marker.plans
                if plan.op_name == instance.op.name
                and plan.target_index == instance.index
                and (
                    plan.spawn_target
                    or plan.replace_origin
                    or plan.reason == migration.REBALANCE
                )
            ]
            if is_failure and instance.state is not None and not target_of:
                # Survivors deduplicate the upcoming replay against their
                # exact per-source progress frontier.  Refreshed on *every*
                # failure: a stale filter from an earlier recovery would
                # let a newer replay re-process records seen since.
                instance.replay_filter = ReplayFilter(
                    self.job.config.num_key_groups,
                    float("-inf"),
                    origin_progress=dict(instance.origin_progress),
                    epoch=self.sim.now,
                )
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
        dirty = 0
        if outcome is not None:
            # Measured *at barrier entry*: what the migrating ranges
            # dirtied since the last pre-copy/delta snapshot.
            store = instance.state.store
            for lo, hi in plan.vnodes:
                dirty += store.dirty_bytes_in_groups(lo, hi, outcome.cutoff_seq)
        checkpoint = yield from instance.state.checkpoint(
            ("handover", execution.handover_id, instance.index)
        )
        checkpoint.cutoff_ts = instance.last_record_ts
        checkpoint.origin_progress = dict(instance.origin_progress)
        fetch_span = execution.open_phase(
            "handover.fetching",
            role="origin",
            instance=instance.instance_id,
            **plan.trace_tags(),
        )
        transferred = 0
        if self.rhino.dfs_storage is not None:
            persist = self.rhino.dfs_storage.persist(instance, checkpoint)
            if persist is not None:
                yield persist
            transferred = checkpoint.delta_bytes
            execution.publish_state(
                plan,
                ("dfs", checkpoint),
                checkpoint.cutoff_ts,
                origin_progress=checkpoint.origin_progress,
            )
        else:
            target_machine = plan.target_machine
            # An intra-worker move ships nothing: tables are shared on disk.
            if target_machine is not instance.machine:
                # What crosses the barrier is what the target lacks: the
                # dirty remainder when a pre-copied holding is (still) there
                # -- it vanishes if the target restarted with wiped disks --
                # the checkpoint's delta on a replica holder, else everything.
                replica = self.rhino.replicator.store_on(target_machine)
                precopied = (
                    outcome is not None
                    and instance.instance_id in replica.holdings
                )
                replica.ingest(checkpoint)
                tag = "handover-migration"
                cutover_span = None
                if precopied:
                    transferred = dirty
                    tag = "handover-cutover"
                    cutover_span = self.sim.tracer.span(
                        "handover.cutover",
                        track="handover",
                        parent=execution.root_span,
                        handover=execution.handover_id,
                        instance=instance.instance_id,
                        bytes=transferred,
                        **plan.trace_tags(),
                    )
                elif replica.has_complete(instance.instance_id):
                    transferred = checkpoint.delta_bytes
                else:
                    transferred = checkpoint.total_bytes
                # With those bytes shipped the holding is the checkpoint.
                replica.ingest_full(
                    instance.instance_id,
                    checkpoint.full_tables,
                    checkpoint.manifest,
                    checkpoint.checkpoint_id,
                    cutoff_ts=checkpoint.cutoff_ts,
                    origin_progress=checkpoint.origin_progress,
                )
                if transferred > 0:
                    # Chunk-granular and resumable: a retry after a
                    # transient fault resends only unfinished chunks.
                    xfer = self.job.cluster.chunked_transfer(
                        instance.machine,
                        target_machine,
                        split_bytes(transferred, fluid.CHUNK_BYTES),
                        tag=tag,
                    )
                    try:
                        yield from with_retry(
                            self.sim,
                            xfer.process,
                            self.rhino.replicator.retry,
                            describe=tag,
                        )
                        yield target_machine.disk_write(
                            transferred, tag="handover-migration"
                        )
                    except TransferFailed:
                        # The target worker died (or stayed unreachable
                        # past the retry budget) mid-transfer: keep our
                        # state; the abort rollback re-adopts the vnodes.
                        if cutover_span is not None:
                            cutover_span.finish(status="port-failed")
                        fetch_span.finish(status="port-failed")
                        return
                if cutover_span is not None:
                    cutover_span.finish()
            execution.publish_state(
                plan,
                ("local", list(checkpoint.full_tables)),
                checkpoint.cutoff_ts,
                origin_progress=checkpoint.origin_progress,
            )
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
        moved = 0
        for lo, hi in plan.vnodes:
            moved += instance.state.drop_groups(lo, hi)
        execution.report.moved_state_bytes += moved
        remaining = instance.state.owned_ranges()
        instance.logic.rebuild(remaining if remaining is not None else [])
        self._journal(
            execution,
            "handover.origin-drained",
            handover=execution.handover_id,
            instance=instance.instance_id,
        )

    # -- target routine (§4.1.2 step 3, fourth case) --------------------------------

    def _target_steps(self, instance, plan, execution):
        config = self.rhino.config
        try:
            tables, cutoff, origin_progress = yield execution.state_ready_event(plan)
        except HandoverAborted:
            return  # the handover rolled back; adopt nothing
        kind, payload = tables
        fetch_span = execution.open_phase(
            "handover.fetching",
            role="target",
            instance=instance.instance_id,
            source=kind,
            **plan.trace_tags(),
        )
        if kind == "dfs":
            checkpoint = payload
            fetch = self.rhino.dfs_storage.fetch(instance.machine, checkpoint)
            migrated = yield fetch
            execution.report.migrated_bytes += migrated
            live_tables = checkpoint.full_tables
            fetch_span.annotate(bytes=migrated)
        else:
            # Replica (or origin-pushed) tables are local: hard-link them.
            yield self.sim.timeout(config.local_fetch_seconds)
            live_tables = payload
            fetch_span.annotate(bytes=0)
        fetch_span.finish()
        load_span = execution.open_phase(
            "handover.loading",
            instance=instance.instance_id,
            **plan.trace_tags(),
        )
        yield self.sim.timeout(config.state_load_seconds)
        instance.state.store.ingest_tables(live_tables, ranges=plan.vnodes)
        for lo, hi in plan.vnodes:
            instance.state.adopt_groups(lo, hi)
        # Incremental: the target keeps the indexes of the virtual nodes it
        # already served and adds the migrated ones.
        instance.logic.absorb(plan.vnodes)
        if plan.reason == migration.FAILURE:
            # Fresh (restored) ranges replay from the checkpoint frontier.
            # The default must stay open (-inf): a blanket "seen" default
            # would silently swallow records of key groups this instance
            # adopts in a *later* reconfiguration.  The sampling epoch is
            # the reconfiguration *trigger*: records created before the
            # failure were measured in their original epoch; anything newer
            # is live traffic whose delay (e.g. waiting for this restore)
            # is real end-to-end latency.
            instance.replay_filter = ReplayFilter(
                self.job.config.num_key_groups,
                float("-inf"),
                origin_progress=dict(instance.origin_progress),
                fresh_ranges=plan.vnodes,
                fresh_cutoff=cutoff if cutoff is not None else float("-inf"),
                fresh_origin_progress=origin_progress,
                epoch=execution.report.triggered_at,
            )
            # The watermarks received so far precede that replay.
            instance.restart_frontier()
        instance.checkpoints_enabled = True
        load_span.finish(
            bytes=sum(t.size_bytes for t in live_tables),
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
        """Handover fault tolerance (the paper's §4.1.2 future work).

        A bystander's death only removes its acknowledgments; the death of
        a plan's *target or origin worker* aborts the handover: alignment
        is cancelled, origins re-adopt their virtual nodes, routing
        reverts, and the records diverted during the broken epoch replay
        from upstream backup.  The caller receives
        :class:`HandoverAborted` and may retry.
        """
        for execution in list(self._executions.values()):
            if self._critical_to(execution, machine):
                rollback.abort(self, execution, machine)
            else:
                for instance in self.job.all_instances():
                    if instance.machine is machine:
                        execution.forget(instance.instance_id)

    def on_machine_suspected(self, machine):
        """A *suspected* machine (heartbeats lost: dead or partitioned)
        aborts every handover it is critical to.

        Unlike :meth:`on_machine_failure` no acknowledgments are forgotten:
        a partitioned bystander is still running and will ack once its
        markers arrive.  If the suspicion is false (partition heals), the
        caller simply re-plans and retries the aborted handover.
        """
        for execution in list(self._executions.values()):
            if self._critical_to(execution, machine):
                rollback.abort(self, execution, machine)

    def _critical_to(self, execution, machine):
        """True when ``machine`` hosts the target or origin of a plan."""
        return any(m is machine for m in self._participants(execution))

    def _participants(self, execution):
        """The origin and target machine of every plan."""
        for plan in execution.plans:
            origin = self.job.instances.get((plan.op_name, plan.origin_index))
            if origin is not None:
                yield origin.machine
            if plan.target_machine is not None:
                yield plan.target_machine
