"""The Handover Manager: coordination of in-flight reconfigurations (§3.3).

The HM turns a set of :class:`HandoverPlan` objects into one marker-driven
reconfiguration: it suspends checkpointing, prepares targets, injects the
handover marker at every source, brokers the state rendezvous between
origins and targets, collects acknowledgments from every instance, and
produces the scheduling / state-fetching / state-loading breakdown of
Table 1.  What happens *before* the barrier -- the background pre-copy
of a cold target -- lives in ``fluid.py``.
"""

from repro.common.errors import ProtocolError
from repro.faults.retry import with_retry
from repro.sim.flows import TransferFailed
from repro.sim.kernel import Interrupt
from repro.engine.instance import (
    ConsumerDrivenReplayFilter,
    OperatorInstance,
    ReplayFilter,
    SourceInstance,
)
from repro.core import fluid, migration
from repro.core.handover import (
    HandoverAborted,
    HandoverExecution,
    HandoverMarker,
)
from repro.core.journal import plan_to_dict

#: Grace period for an in-flight checkpoint before a handover aborts it
#: (it may be unable to complete after a failure).
CHECKPOINT_DRAIN_TIMEOUT = 10.0

#: Journal record kinds that advance an in-flight entry's phase, in
#: protocol order.  Mirrored by journal replay so the live phase and the
#: replayed phase agree by construction.
_PHASE_OF = {
    "handover.accepted": "accepted",
    "handover.prepared": "prepared",
    "handover.marker": "marker",
    "handover.state-shipped": "state-shipped",
    "handover.origin-drained": "origin-drained",
    "handover.target-resumed": "target-resumed",
}


def _split_bytes(nbytes, cap):
    """Split a byte count into chunk sizes of at most ``cap``."""
    sizes = []
    remaining = nbytes
    while remaining > 0:
        size = min(cap, remaining)
        sizes.append(size)
        remaining -= size
    return sizes


class _Inflight:
    """Control-plane view of one accepted-but-unresolved reconfiguration.

    Tracked only under a control group; the takeover's decision table
    walks these entries after the leader is deposed.
    """

    __slots__ = (
        "reconfig_id",
        "plans",
        "trigger_time",
        "phase",
        "handover_id",
        "execution",
        "process",
        "accepted_record",
    )

    def __init__(self, reconfig_id, plans, trigger_time):
        self.reconfig_id = reconfig_id
        self.plans = plans
        self.trigger_time = trigger_time
        self.phase = "accepted"
        self.handover_id = None
        self.execution = None
        #: The driver Process running _execute (interrupted on crash).
        self.process = None
        #: The journaled ``handover.accepted`` record; the driver blocks
        #: until it commits.
        self.accepted_record = None

    def to_state(self):
        """This entry in journal-replay form (structural-equality oracle)."""
        return {
            "reason": self.plans[0].reason,
            "trigger_time": self.trigger_time,
            "plans": [plan_to_dict(plan) for plan in self.plans],
            "phase": self.phase,
            "handover": self.handover_id,
            "acked": (
                sorted(self.execution.acked)
                if self.execution is not None
                else []
            ),
        }


class HandoverManager:
    """Coordinates handovers for one job."""

    def __init__(self, sim, job, rhino):
        self.sim = sim
        self.job = job
        self.rhino = rhino
        self._executions = {}  # handover_id -> HandoverExecution
        self.reports = []
        #: Under a control group every protocol transition is journaled
        #: and in-flight reconfigurations are tracked here.
        self._inflight = {}  # reconfig_id -> _Inflight
        self._reconfig_ids = 0
        #: Per-manager handover ids: two runs in one interpreter must
        #: allocate identical ids (they appear in trace tags and journal
        #: records, and replay determinism is asserted byte-for-byte).
        self._handover_ids = 0

    # -- journaling ------------------------------------------------------------

    def _journal(self, entry, kind, **payload):
        """Record a protocol transition (no-op without a control group).

        Updates the live entry's phase at the same point the record is
        appended, so journal replay reproduces the live phase exactly.
        Returns the appended record (None when the journal is fenced) so
        callers can wait on its quorum commit.
        """
        if entry is None:
            return None
        phase = _PHASE_OF.get(kind)
        if phase is not None:
            entry.phase = phase
            if payload.get("handover") is not None:
                entry.handover_id = payload["handover"]
        return self.rhino.control_group.journal.append(
            kind, reconfig=entry.reconfig_id, **payload
        )

    def _entry_of(self, execution):
        for entry in self._inflight.values():
            if entry.execution is execution:
                return entry
        return None

    def _pop_entry(self, entry):
        if entry is None:
            return
        self._inflight.pop(entry.reconfig_id, None)
        if entry.execution is not None:
            entry.execution.on_ack = None

    # -- public entry point ----------------------------------------------------

    def execute(self, plans, trigger_time=None):
        """Run one reconfiguration; returns a Process yielding the report."""
        entry = None
        if self.rhino.control_group is not None:
            trigger_time = self.sim.now if trigger_time is None else trigger_time
            self._reconfig_ids += 1
            entry = _Inflight(self._reconfig_ids, plans, trigger_time)
            self._inflight[entry.reconfig_id] = entry
        process = self.sim.process(
            self._execute(plans, trigger_time, entry), name="handover"
        )
        if entry is not None:
            entry.process = process
            # Journaled after the process exists: a crash listener firing
            # on this very record can interrupt it cleanly.
            entry.accepted_record = self._journal(
                entry,
                "handover.accepted",
                reason=plans[0].reason,
                trigger_time=trigger_time,
                plans=[plan_to_dict(plan) for plan in plans],
            )
        return process

    def _execute(self, plans, trigger_time, entry=None):
        try:
            result = yield from self._execute_inner(plans, trigger_time, entry)
            return result
        except Interrupt:
            # A leader deposition killed this driver mid-protocol.  The
            # entry stays in _inflight: the takeover's decision table owns
            # its resolution after journal replay.
            raise
        except BaseException:
            if entry is not None and entry.reconfig_id in self._inflight:
                self._pop_entry(entry)
                self._journal(
                    entry, "handover.aborted", handover=entry.handover_id
                )
            raise
        finally:
            # Whatever happened -- success, abort, timeout, or a missing
            # checkpoint -- periodic checkpointing must not stay suspended.
            self.job.coordinator.resume()

    def _execute_inner(self, plans, trigger_time, entry=None):
        group = self.rhino.control_group
        if entry is not None:
            # Quorum commit-wait: a leader cut off from its majority stalls
            # here -- before suspending the coordinator or touching any
            # shared state -- so a deposed primary's accepted-but-never-
            # committed handover leaves nothing behind to roll back.
            yield from group.await_commit(entry.accepted_record)
        trigger_time = self.sim.now if trigger_time is None else trigger_time
        config = self.rhino.config
        coordinator = self.job.coordinator
        tracer = self.sim.tracer
        self._handover_ids += 1
        handover_id = self._handover_ids
        # The handover's trace: one root span spanning the whole
        # reconfiguration plus two contiguous top-level phases --
        # "scheduling" (trigger -> markers injected, Table 1's first row)
        # and "transfer" (alignment + per-instance fetch/load + acks).
        # Their durations sum exactly to the reported reconfiguration time.
        root = tracer.span(
            "handover",
            track="handover",
            start=trigger_time,
            kind=plans[0].reason,
            plans=len(plans),
            handover=handover_id,
        )
        scheduling_span = None
        transfer_span = None
        try:
            # A cold target gets its state pre-copied in the background
            # *before* the barrier, while origins keep processing.
            precopy_outcomes, precopied = yield from fluid.precopy(
                self.rhino, handover_id, plans, root
            )
            # Table 1's "scheduling" row runs from the trigger (so it
            # includes the quorum commit-wait) unless a pre-copy came first.
            scheduling_start = self.sim.now if precopied else trigger_time
            scheduling_span = tracer.span(
                "handover.scheduling",
                track="handover",
                parent=root,
                start=scheduling_start,
                handover=handover_id,
            )
            coordinator.suspend()
            # Let an in-flight checkpoint drain, but only briefly: after a
            # failure its barriers may be unable to complete (e.g. they would
            # need a replacement source this very handover will start), so the
            # reconfiguration supersedes it.
            waited = 0.0
            while coordinator.checkpoint_in_flight:
                yield self.sim.timeout(0.25)
                waited += 0.25
                if waited >= CHECKPOINT_DRAIN_TIMEOUT:
                    coordinator.abort_all_pending()
                    break

            reason = plans[0].reason
            # Spawn rescale targets before the marker flows so their channels
            # exist and post-marker records buffer at them.
            for plan in plans:
                if plan.spawn_target:
                    self.job.spawn_operator_instance(
                        plan.op_name, plan.target_index, plan.target_machine
                    )
            # Modeled deployment/RPC latency of triggering the reconfiguration.
            yield self.sim.timeout(config.scheduling_delay)

            execution = HandoverExecution(
                self.sim,
                handover_id,
                plans,
                expected_acks=[
                    i.instance_id
                    for i in self.job.all_instances()
                    if i.machine.alive
                ],
                reason=reason,
            )
            execution.report.triggered_at = trigger_time
            execution.root_span = root
            execution.precopy = precopy_outcomes
            report = execution.report
            for outcome in precopy_outcomes.values():
                report.precopy_bytes += outcome.precopy_bytes
                report.precopy_chunks += outcome.precopy_chunks
                report.precopy_seconds = max(
                    report.precopy_seconds, outcome.precopy_seconds
                )
                report.delta_bytes += outcome.delta_bytes
                report.delta_rounds = max(
                    report.delta_rounds, outcome.delta_rounds
                )
                report.delta_seconds = max(
                    report.delta_seconds, outcome.delta_seconds
                )
                report.migrated_bytes += (
                    outcome.precopy_bytes + outcome.delta_bytes
                )
            self._executions[handover_id] = execution
            if entry is not None:
                entry.execution = execution
                execution.on_ack = lambda instance_id: self._journal(
                    entry, "handover.ack", instance=instance_id
                )
                self._journal(entry, "handover.prepared", handover=handover_id)

            restore_offsets = None
            source_filter = None
            if reason == migration.FAILURE:
                restore_offsets, source_filter = self._prepare_failure_state(
                    plans, execution
                )
            execution.report.scheduling_seconds = self.sim.now - scheduling_start
            scheduling_span.finish()
            transfer_span = tracer.span(
                "handover.transfer",
                track="handover",
                parent=root,
                handover=handover_id,
            )

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
            self._journal(entry, "handover.marker", handover=handover_id)

            deadline = self.sim.timeout(config.handover_timeout)
            waiter = self.sim.any_of([execution.done, deadline])
            try:
                winner = yield waiter
            except HandoverAborted:
                del self._executions[handover_id]
                raise
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

            # The handover is the epoch transition: commit the new logical
            # key-group assignment so future deployments see it.
            for plan in plans:
                assignment = self.job.assignments[plan.op_name]
                for lo, hi in plan.vnodes:
                    assignment.reassign(lo, hi, plan.target_index)
            # Pop before journaling: a crash listener firing on this very
            # record must observe the entry gone, exactly as replay will.
            self._pop_entry(entry)
            self._journal(entry, "handover.committed", handover=handover_id)
            coordinator.resume()
            report = execution.report
            transfer_span.finish(end=report.completed_at, acks=len(execution.acked))
            root.finish(
                end=report.completed_at,
                status="completed",
                migrated_bytes=report.migrated_bytes,
                moved_state_bytes=report.moved_state_bytes,
            )
            self.reports.append(report)
            del self._executions[handover_id]
            return report
        finally:
            # Abort, timeout, or a missing checkpoint: close open spans so
            # the trace never ends with a dangling handover.
            if transfer_span is not None and transfer_span.is_open:
                transfer_span.finish(status="aborted")
            if scheduling_span is not None and scheduling_span.is_open:
                scheduling_span.finish(status="aborted")
            if root.is_open:
                root.finish(status="aborted")

    def _prepare_failure_state(self, plans, execution):
        """Resolve the restore source for each failed instance.

        The origin is dead, so state comes from the target worker's replica
        (Rhino) or from the DFS (RhinoDFS); records since that checkpoint
        replay from upstream backup (the returned source offsets).
        """
        coordinator = self.job.coordinator
        if not coordinator.has_completed():
            raise ProtocolError("failure recovery without a completed checkpoint")
        restore_meta = []  # (cutoff, origin_progress) per plan
        for plan in plans:
            instance_id = f"{plan.op_name}[{plan.origin_index}]"
            if self.rhino.config.use_dfs:
                record = self._newest_record_with(instance_id)
                checkpoint = record.checkpoints[instance_id]
                cutoff = record.cutoffs.get(instance_id, record.triggered_at)
                progress = checkpoint.origin_progress
                execution.publish_state(
                    plan, ("dfs", checkpoint), cutoff, origin_progress=progress
                )
            else:
                holding = self.rhino.replicator.store_on(
                    plan.target_machine
                ).holding_of(instance_id)
                cutoff = holding.cutoff_ts
                if cutoff is None:
                    record = self._completed_record(holding.checkpoint_id)
                    cutoff = record.cutoffs.get(instance_id, record.triggered_at)
                progress = holding.origin_progress
                execution.publish_state(
                    plan,
                    ("local", holding.live_tables()),
                    cutoff,
                    origin_progress=progress,
                )
            restore_meta.append((cutoff, progress))
        self._journal(
            self._entry_of(execution),
            "handover.state-shipped",
            handover=execution.handover_id,
        )
        # Replay from the offsets of the restore checkpoint (the oldest
        # checkpoint any plan restores from, to cover every migrated range).
        record = self._oldest_restore_record(plans)
        source_filter = self._build_source_filter(plans, restore_meta)
        return dict(record.offsets), source_filter

    def _build_source_filter(self, plans, restore_meta):
        """A consumer-driven ingest filter for the upcoming replay.

        Maps every key group to its consuming instances across all stateful
        operators; recovered instances carry their restored checkpoint's
        frontier, survivors are consulted live.
        """
        fresh = {}  # (op_name, group) -> (origin_progress, cutoff)
        for plan, (cutoff, progress) in zip(plans, restore_meta):
            for lo, hi in plan.vnodes:
                for group in range(lo, hi):
                    fresh[(plan.op_name, group)] = (progress, cutoff)
        return self._consumer_filter_with_fresh(fresh)

    def _newest_record_with(self, instance_id):
        """Newest completed checkpoint that covers ``instance_id``.

        A checkpoint completed between the failure and this handover
        excludes the dead instance; its state must come from an older one.
        """
        for record in reversed(self.job.coordinator.completed):
            if instance_id in record.checkpoints:
                return record
        raise ProtocolError(f"no completed checkpoint covers {instance_id}")

    def _completed_record(self, checkpoint_id):
        for record in self.job.coordinator.completed:
            if record.checkpoint_id == checkpoint_id:
                return record
        raise ProtocolError(f"no completed checkpoint {checkpoint_id}")

    def _oldest_restore_record(self, plans):
        if self.rhino.config.use_dfs:
            records = [
                self._newest_record_with(f"{plan.op_name}[{plan.origin_index}]")
                for plan in plans
            ]
            return min(records, key=lambda r: r.checkpoint_id)
        ids = []
        for plan in plans:
            instance_id = f"{plan.op_name}[{plan.origin_index}]"
            holding = self.rhino.replicator.store_on(
                plan.target_machine
            ).holding_of(instance_id)
            # Handover checkpoints carry tuple ids and are not registered
            # with the coordinator; replaying from an older periodic
            # checkpoint's offsets is safe (the replay filters deduplicate).
            if isinstance(holding.checkpoint_id, int):
                ids.append(holding.checkpoint_id)
        if not ids:
            return self.job.coordinator.latest_completed()
        # A holding may reference a checkpoint the coordinator aborted
        # (replication ships at instance-ack time): replay from the newest
        # *completed* checkpoint at or below it -- older offsets only mean
        # more replay, which the filters deduplicate exactly.
        target = min(ids)
        eligible = [
            r
            for r in self.job.coordinator.completed
            if r.checkpoint_id <= target
        ]
        if not eligible:
            raise ProtocolError(
                f"no completed checkpoint at or below {target} to replay from"
            )
        return eligible[-1]

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
        if execution is None or execution.aborted:
            # Unknown or aborted handover: the marker is inert.
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
        config = self.rhino.config
        outcome = execution.precopy.get(id(plan))
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
        fetch_start = self.sim.now
        fetch_span = self.sim.tracer.span(
            "handover.fetching",
            track="handover",
            parent=execution.root_span,
            handover=execution.handover_id,
            role="origin",
            instance=instance.instance_id,
            **plan.trace_tags(),
        )
        transferred = 0
        if config.use_dfs:
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
                        _split_bytes(transferred, config.handover_chunk_bytes),
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
            self._entry_of(execution),
            "handover.state-shipped",
            handover=execution.handover_id,
            instance=instance.instance_id,
        )
        execution.report.fetching_seconds = max(
            execution.report.fetching_seconds, self.sim.now - fetch_start
        )
        execution.report.migrated_bytes += transferred
        # Phase accounting: whatever an origin ships behind the barrier is
        # "cutover".
        execution.report.cutover_bytes += transferred
        execution.report.cutover_seconds = max(
            execution.report.cutover_seconds, self.sim.now - fetch_start
        )
        moved = 0
        for lo, hi in plan.vnodes:
            moved += instance.state.drop_groups(lo, hi)
        execution.report.moved_state_bytes += moved
        execution.origin_completed[id(plan)] = checkpoint
        remaining = instance.state.owned_ranges()
        instance.logic.rebuild(remaining if remaining is not None else [])
        self._journal(
            self._entry_of(execution),
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
        fetch_start = self.sim.now
        kind, payload = tables
        fetch_span = self.sim.tracer.span(
            "handover.fetching",
            track="handover",
            parent=execution.root_span,
            handover=execution.handover_id,
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
        execution.report.fetching_seconds = max(
            execution.report.fetching_seconds, self.sim.now - fetch_start
        )
        load_start = self.sim.now
        load_span = self.sim.tracer.span(
            "handover.loading",
            track="handover",
            parent=execution.root_span,
            handover=execution.handover_id,
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
        execution.report.loading_seconds = max(
            execution.report.loading_seconds, self.sim.now - load_start
        )
        self._journal(
            self._entry_of(execution),
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
            if self._critical_to(execution, machine) and not execution.aborted:
                self._abort_execution(execution, machine)
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
            if self._critical_to(execution, machine) and not execution.aborted:
                self._abort_execution(execution, machine)

    def _critical_to(self, execution, machine):
        """True when ``machine`` hosts the target or origin of a plan."""
        return any(
            plan.target_machine is machine
            or self._origin_machine(plan) is machine
            for plan in execution.plans
        )

    def _origin_machine(self, plan):
        instance = self.job.instances.get((plan.op_name, plan.origin_index))
        return instance.machine if instance is not None else None

    def _abort_execution(self, execution, machine):
        if self.sim.tracer.enabled:
            self.sim.tracer.event(
                "handover.abort",
                track="handover",
                handover=execution.handover_id,
                machine=machine.name,
            )
        marker_id = ("handover", execution.handover_id)
        # 1. Stop the epoch transition: swallow in-flight markers and
        #    release every blocked channel.
        for instance in self.job.all_instances():
            cancel = getattr(instance, "cancel_alignment", None)
            if cancel is not None:
                cancel(marker_id)
        # 2. Roll every plan back to the old configuration.
        for plan in execution.plans:
            self._rollback_plan(plan, execution)
        # 3. Remove targets spawned for this handover.
        for plan in execution.plans:
            if plan.spawn_target:
                self.job.remove_instance(plan.op_name, plan.target_index)
        # 4. Replay the diverted epoch boundary from upstream backup.
        self._replay_aborted_gap(execution)
        self.job.coordinator.resume()
        entry = self._entry_of(execution)
        if entry is not None:
            # Pop before journaling (see the commit path).
            self._pop_entry(entry)
            self._journal(
                entry,
                "handover.aborted",
                handover=execution.handover_id,
                machine=machine.name,
            )
        execution.abort(HandoverAborted(execution.handover_id, machine))

    def _rollback_plan(self, plan, execution):
        origin = self.job.instances.get((plan.op_name, plan.origin_index))
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
            # The default frontier is the *live* progress dict (not a
            # snapshot): a replayed copy can race its still-in-flight
            # original, and whichever arrives second must read as seen.
            origin.replay_filter = ReplayFilter(
                self.job.config.num_key_groups,
                float("-inf"),
                origin_progress=origin.origin_progress,
                fresh_ranges=plan.vnodes,
                fresh_origin_progress=dict(execution.source_frontiers),
                # A source absent from the frontiers never rewired: all of
                # its records reached us, so treat them as seen.
                fresh_cutoff=float("inf"),
                epoch=self.sim.now,
            )
            origin.restart_frontier()
        target = self.job.instances.get((plan.op_name, plan.target_index))
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
                self.job.config.num_key_groups,
                float("-inf"),
                origin_progress=target.origin_progress,  # live frontier
                fresh_ranges=plan.vnodes,
                fresh_cutoff=self.sim.now,
                epoch=self.sim.now,
            )
        # Rewire every producer back to the origin (an aborted epoch).
        for runtime in self.job.edge_runtimes(downstream=plan.op_name):
            for router in runtime.routers.values():
                for lo, hi in plan.vnodes:
                    router.reassign(lo, hi, plan.origin_index)

    def _replay_aborted_gap(self, execution):
        coordinator = self.job.coordinator
        if not coordinator.has_completed():
            return
        # The replay below re-emits everything consumers have not yet
        # processed; batches stuck behind a partition must not ALSO be
        # delivered once the network heals.
        self.job.fabric.drop_unreachable()
        # A replayed copy can race its still-in-flight original toward a
        # *bystander* consumer; give every unprotected stateful instance a
        # dedup filter over its live progress frontier so whichever copy
        # arrives second is dropped.
        plan_ids = set()
        for plan in execution.plans:
            plan_ids.add(f"{plan.op_name}[{plan.origin_index}]")
            plan_ids.add(f"{plan.op_name}[{plan.target_index}]")
        for instance in self.job.stateful_instances():
            if (
                instance.instance_id in plan_ids
                or not instance.machine.alive
                or instance.replay_filter is not None
            ):
                continue
            instance.replay_filter = ReplayFilter(
                self.job.config.num_key_groups,
                float("-inf"),
                origin_progress=instance.origin_progress,  # live frontier
                epoch=self.sim.now,
            )
        record = coordinator.completed[-1]
        fresh = {}
        for plan in execution.plans:
            origin = self.job.instances.get((plan.op_name, plan.origin_index))
            if origin is None or not origin.machine.alive:
                continue  # a dead origin is handled by failure recovery
            for lo, hi in plan.vnodes:
                for group in range(lo, hi):
                    fresh[(plan.op_name, group)] = (
                        dict(execution.source_frontiers),
                        float("inf"),  # un-rewired sources diverted nothing
                    )
        source_filter = self._consumer_filter_with_fresh(fresh)
        for source in self.job.source_instances():
            if not source.machine.alive:
                continue
            source.replay_filter = source_filter
            offset = record.offsets.get(source.instance_id)
            if offset is not None:
                source.send_command("seek", min(offset, source.cursor.offset))

    def _consumer_filter_with_fresh(self, fresh):
        num_groups = self.job.config.num_key_groups
        consumers_by_group = {}
        for op_name, assignment in self.job.assignments.items():
            for group in range(num_groups):
                instance = self.job.instances.get(
                    (op_name, assignment.owner_of(group))
                )
                if instance is None or instance.state is None:
                    continue
                progress, cutoff = fresh.get((op_name, group), (None, None))
                consumers_by_group.setdefault(group, []).append(
                    (instance, progress, cutoff)
                )
        return ConsumerDrivenReplayFilter(
            num_groups, consumers_by_group, epoch=self.sim.now
        )
