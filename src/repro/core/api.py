"""The public Rhino API.

Rhino is a *library deployed on top of a scale-out SPE* (§3.2).  Attach it
once to a running :class:`repro.engine.job.Job`::

    rhino = Rhino(job, cluster, RhinoConfig(replication_factor=1)).attach()
    ...
    report = sim.run(until=rhino.reconfigure("failure", machine=dead_machine))

``reconfigure()`` is the only verb -- one handover protocol serves fault
tolerance, elasticity and load balancing (§4.1), so every purpose is a
*kind* of the same call::

    rhino.reconfigure("rescale", op_name="join", add_instances=8)
    rhino.reconfigure("rebalance", op_name="join", moves=[(0, 8), (1, 9)])
    rhino.reconfigure("drain", machine=retiring_machine)

Each call returns the process driving the reconfiguration; its value is
the :class:`~repro.core.handover.HandoverReport`.  With a traced
simulator, the handover's spans are
``sim.tracer.find(prefix="handover", handover=report.handover_id)``.

On attach, Rhino registers its handover-marker handler with the engine,
builds replica groups through the Replication Manager, and makes the
chains the job's checkpoint storage, so every incremental checkpoint is
replicated along its chain (proactive state migration, §3.2).
"""

import functools
import inspect

from repro.common.errors import ProtocolError
from repro.engine.checkpointing import LocalCheckpointStorage
from repro.core import migration, resolution
from repro.core.handover import HandoverAborted, HandoverMarker
from repro.core.handover_manager import HandoverManager
from repro.core.replication import ChainReplicator, ReplicaChains
from repro.core.replication_manager import ReplicationManager

#: Pause before an aborted handover is re-planned and retried (seconds).
HANDOVER_RETRY_DELAY = 0.5
#: Executions one reconfiguration may run: the first and three re-runs.
HANDOVER_ATTEMPTS = 4


class RhinoConfig:
    """Rhino's tunables (defaults follow the paper's setup, §5.1.3).

    All parameters are keyword-only and validated at construction, so a
    bad configuration fails where it is written, not when the library is
    later attached to a job.  Retries are not a setting: every deployment
    retries each state block under ``faults.retry.BLOCK_RETRY`` and
    re-runs an aborted handover as ``resolution.rerun`` says.  Neither is
    replica repair: every deployment reconciles once per completed
    checkpoint (``Rhino._reconcile``).
    """

    def __init__(
        self,
        *,
        replication_factor=1,
        block_size=64 * 1024 * 1024,
        credit_window_bytes=256 * 1024 * 1024,
        scheduling_delay=0.8,
        local_fetch_seconds=0.2,
        state_load_seconds=1.3,
    ):
        if replication_factor < 1:
            raise ProtocolError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        if block_size <= 0:
            raise ProtocolError(f"block_size must be > 0, got {block_size}")
        if credit_window_bytes <= 0:
            raise ProtocolError(
                f"credit_window_bytes must be > 0, got {credit_window_bytes}"
            )
        for name, value in (
            ("scheduling_delay", scheduling_delay),
            ("local_fetch_seconds", local_fetch_seconds),
            ("state_load_seconds", state_load_seconds),
        ):
            if value < 0:
                raise ProtocolError(f"{name} must be >= 0, got {value}")
        #: Secondary copies per instance.  1 mirrors the evaluation's
        #: "local primary + one remote secondary" (HDFS replication 2).
        self.replication_factor = replication_factor
        self.block_size = block_size
        self.credit_window_bytes = credit_window_bytes
        #: Modeled RPC/deployment latency of triggering a reconfiguration.
        self.scheduling_delay = scheduling_delay
        #: Local replica fetch (hard-linking) -- Table 1's 0.2 s.
        self.local_fetch_seconds = local_fetch_seconds
        #: Opening table files + manifest processing -- Table 1's ~1.3 s.
        self.state_load_seconds = state_load_seconds

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.__dict__.items()))
        return f"RhinoConfig({inner})"


class Rhino:
    """Efficient management of very large distributed state."""

    def __init__(self, job, cluster, config=None):
        self.job = job
        self.cluster = cluster
        self.sim = job.sim
        self.config = config or RhinoConfig()
        self.replication_manager = ReplicationManager(
            list(job.machines), self.config.replication_factor
        )
        self.replicator = ChainReplicator(
            self.sim,
            cluster,
            block_size=self.config.block_size,
            credit_window_bytes=self.config.credit_window_bytes,
        )
        self.handover_manager = HandoverManager(self.sim, job, self)
        #: (instance_id, member_name) bulk copies the reconciler has in
        #: flight, so overlapping passes never double-copy.
        self._reconciling = set()
        #: The quorum-replicated control plane (see enable_control_group):
        #: the one handle on its journal (``.journal``) and takeover
        #: lifecycle (``.failover``).  ``None`` is the paper's single
        #: unreplicated coordinator, which journals nothing.
        self.control_group = None

    # -- lifecycle ------------------------------------------------------------

    def attach(self):
        """Register Rhino's protocols with the host engine (once per Rhino)."""
        self.job.marker_handlers[HandoverMarker] = self.handover_manager.on_marker
        # A job that checkpoints to durable storage (RhinoDFS's DFS files)
        # keeps it; one that keeps checkpoints where they were taken gets
        # the replica chains.
        if isinstance(self.job.checkpoint_storage, LocalCheckpointStorage):
            self.job.checkpoint_storage = ReplicaChains(self)
        self.job.coordinator.checkpoint_listeners.append(
            lambda _checkpoint: self._reconcile()
        )
        self.job.failure_listeners.append(self._on_machine_failure)
        for machine in self.job.machines:
            machine.on_restart(self._on_machine_restart)
        self._place_replica_groups()
        return self

    def _place_replica_groups(self):
        """Give every stateful instance that lacks one a replica group (the
        Replication Manager's bin packing); existing chains stay put."""
        instances = [
            (i.instance_id, i.machine) for i in self.job.stateful_instances()
        ]
        sizes = {
            i.instance_id: max(1, i.state.total_bytes)
            for i in self.job.stateful_instances()
        }
        self.replication_manager.build_groups(instances, sizes)
        self._journal_groups()

    # -- control-plane fault tolerance ----------------------------------------------

    def enable_control_group(self, members, detector=None):
        """Replicate the control plane across a quorum of ``members``.

        Creates a :class:`~repro.core.quorum.ControlGroup` whose journal
        commits every record through a majority of the group, with
        deterministic leader election, monotonic epoch fencing, and
        membership change by a hand-off record between static
        configurations (see ``repro.core.quorum``).
        ``members[0]`` is the initial leader.  When a ``detector`` is given
        its verdicts are journaled too, so a new leader inherits the
        suspicion state.  Returns the ControlGroup.

        Needs the replica chains as the job's checkpoint storage, so not
        RhinoDFS: the DFS restore path reads per-instance checkpoint
        handles out of the coordinator's completed records, which only
        journal metadata (source offsets and timestamps).
        """
        if not isinstance(self.job.checkpoint_storage, ReplicaChains):
            raise ProtocolError(
                "a control group is not supported by RhinoDFS "
                "(the job checkpoints to the DFS)"
            )
        if self.control_group is not None:
            raise ProtocolError("control plane already configured")
        from repro.core.quorum import ControlGroup

        group = ControlGroup(self.sim, self, list(members))
        self.control_group = group
        self.job.coordinator.journal = group.journal
        if detector is not None:
            group.failover.watch_detector(detector)
        # Baseline record: the current replica-group map.
        self._journal_groups()
        group.start()
        return group

    def _fence_token(self):
        """The epoch a command submitted right now is stamped with."""
        if self.control_group is None:
            return None
        return self.control_group.fence_token()

    def _check_fence(self, token):
        """Reject a command stamped under a deposed leader (no-op without
        a control group)."""
        if self.control_group is not None:
            self.control_group.check_fence(token)

    def _journal_groups(self):
        """WAL the current replica-group map (no-op without a control group)."""
        if self.control_group is None:
            return
        self.control_group.journal.append(
            "groups.assigned",
            groups={
                instance_id: [m.name for m in group.chain]
                for instance_id, group in sorted(
                    self.replication_manager.groups.items()
                )
            },
        )

    def _await_control_plane(self):
        """Block a client request while the control group has no leader."""
        group = self.control_group
        while group is not None and group.failover.down:
            yield group.failover.available

    # -- reconfigurations (§3.5) ------------------------------------------------------

    def reconfigure(self, plan_or_kind, *, fence_token=None, **kwargs):
        """The one reconfiguration entry point.

        ``plan_or_kind`` is either a kind name from
        :data:`RECONFIGURE_KINDS` with that kind's keyword arguments --

        * ``reconfigure("failure", machine=m)``
        * ``reconfigure("rescale", op_name="join", add_instances=8,
          machines=None, share=0.5)``
        * ``reconfigure("rebalance", op_name="join", moves=[(0, 8)],
          node_count=None)``
        * ``reconfigure("drain", machine=m)``

        -- or an explicit :class:`~repro.core.migration.HandoverPlan` (or a
        list of them) to hand straight to the Handover Manager.  Returns the
        driving :class:`~repro.sim.kernel.Process` (``yield`` it, or pass it
        to ``sim.run(until=...)``).  Its value is the
        :class:`~repro.core.handover.HandoverReport`, or None when a
        failure recovery had nothing to hand over (the machine held only
        replicas and stateless instances).
        """
        # Commands are stamped with the control-plane epoch at submission
        # (None without a quorum group).  ``fence_token=`` overrides the
        # stamp -- the stale-leader surface: a client replaying a command
        # it buffered under a deposed leader must be fenced, not applied.
        token = self._fence_token() if fence_token is None else fence_token
        plans = self._as_plans(plan_or_kind)
        if plans is not None:
            if kwargs:
                raise ProtocolError(
                    "explicit handover plans take no keyword arguments"
                )
            name = "rhino-plans"

            def plan():
                return plans, None

        else:
            kind = plan_or_kind
            if kind not in self.RECONFIGURE_KINDS:
                raise ProtocolError(
                    f"unknown reconfiguration kind {kind!r}; expected one of "
                    f"{', '.join(self.RECONFIGURE_KINDS)}, a HandoverPlan, or a "
                    f"list of HandoverPlans"
                )
            planner, name_format = self._PLANNERS[kind]
            try:
                bound = inspect.signature(planner).bind(self, **kwargs)
            except TypeError as exc:
                raise ProtocolError(f"reconfigure({kind!r}): {exc}") from None
            name = name_format.format(**bound.arguments)
            plan = functools.partial(planner, *bound.args, **bound.kwargs)
        process = self.sim.process(self._drive(plan, token), name=name)
        if self.control_group is not None:
            self.control_group.failover.track(process)
        return process

    @staticmethod
    def _as_plans(plan_or_kind):
        if isinstance(plan_or_kind, migration.HandoverPlan):
            return [plan_or_kind]
        if isinstance(plan_or_kind, (list, tuple)):
            plans = list(plan_or_kind)
            if not plans or not all(
                isinstance(p, migration.HandoverPlan) for p in plans
            ):
                raise ProtocolError(
                    "reconfigure() takes a non-empty list of HandoverPlans"
                )
            return plans
        return None

    def _drive(self, plan, token):
        """The skeleton every reconfiguration runs, whatever its kind.

        A kind contributes only ``plan()``, which returns its handover
        plans and what to do once the handover has succeeded
        (``commit(token)``, or None).
        Bookkeeping that outlives the handover -- parallelism, replica
        groups, chain repair -- belongs in that last step, so an aborted
        handover leaves none of it behind.
        """
        yield from self._await_control_plane()
        self._check_fence(token)
        trigger_time = self.sim.now
        plans, commit = plan()
        report = None
        if plans:
            report = yield from self._execute_with_retry(plans, trigger_time)
        if commit is not None:
            commit(token)
        return report

    def _execute_with_retry(self, plans, trigger_time):
        """Execute a handover; re-plan and re-run it after an abort.

        An aborted execution runs again, up to :data:`HANDOVER_ATTEMPTS`
        in all, only when ``resolution.rerun`` says so; otherwise
        :class:`HandoverAborted` propagates.  A re-run re-plans the
        failure recoveries whose target worker died
        (:meth:`_replan_failure`).
        """
        for attempt in range(1, HANDOVER_ATTEMPTS + 1):
            try:
                report = yield self.handover_manager.execute(
                    plans, trigger_time=trigger_time
                )
                return report
            except HandoverAborted as aborted:
                facts = [self.handover_manager.plan_facts(p) for p in plans]
                if attempt >= HANDOVER_ATTEMPTS or not resolution.rerun(
                    aborted.machine.alive, facts
                ):
                    raise
                if self.sim.tracer.enabled:
                    self.sim.tracer.event(
                        "handover.retry",
                        track="chaos",
                        attempt=attempt,
                        plans=len(plans),
                    )
                yield self.sim.timeout(HANDOVER_RETRY_DELAY)
                plans = self._replan_failure(plans)

    def _plan_failure(self, machine):
        """Recover every instance the failed ``machine`` hosted."""
        dead = [
            (op_name, index, instance)
            for (op_name, index), instance in sorted(self.job.instances.items())
            if instance.machine is machine
        ]
        if not dead and not self.replication_manager.replicas_on(machine):
            raise ProtocolError(
                f"{machine.name} hosted neither instances nor replicas"
            )
        # An instance owning no key group (a drained origin) has nothing to
        # restore.  Plan first: a planning error must not suspend anything.
        plans = [
            migration.plan_failure_recovery(self.job, self, op_name, index)
            for op_name, index, instance in dead
            if getattr(instance, "state", None) is not None
            and index in self.job.assignments[op_name].owners()
        ]
        # No checkpoint may start (or complete) between the failure and the
        # handover: a snapshot of the still-empty replacement would
        # overwrite its replica holding (§4.1.2 step 1 assumes no
        # checkpoint in flight).
        self.job.coordinator.suspend()
        restoring = {(plan.op_name, plan.origin_index): plan for plan in plans}
        alive_machines = [m for m in self.job.machines if m.alive]
        spare = 0
        for op_name, index, _instance in dead:
            plan = restoring.get((op_name, index))
            if plan is not None:
                self._deploy_held_replacement(op_name, index, plan.target_machine)
                continue
            target = alive_machines[spare % len(alive_machines)]
            spare += 1
            replacement = self.job.replace_instance(op_name, index, target)
            if hasattr(replacement, "paused"):
                # A replacement source replays from its newest checkpointed
                # offset: at the handover marker, or with no handover now,
                # dropping what every consumer has already seen.
                self._seek_to_latest(replacement)
                replacement.paused = bool(plans)
            replacement.start()

        def commit(token):
            if not plans:
                # No handover ran, so nothing else resumes the coordinator.
                self.job.coordinator.resume()
            # Background work: the copies only restore redundancy (§4.2.3).
            self._repair_chains(machine, token)
            self._reconcile()

        return plans, commit

    def _deploy_held_replacement(self, op_name, index, machine):
        """Deploy a stateful replacement that drops all records until the
        handover has loaded its state."""
        replacement = self.job.replace_instance(op_name, index, machine)
        replacement.restoring = True
        replacement.start()

    def _replan_failure(self, plans):
        """Re-plan the failure-recovery plans ``resolution.retarget`` picks
        onto another replica worker and redeploy their replacements there;
        the rest (a partition or a false suspicion) retry unchanged."""
        new_plans = []
        for plan in plans:
            if resolution.retarget(self.handover_manager.plan_facts(plan)):
                plan = migration.plan_failure_recovery(
                    self.job, self, plan.op_name, plan.origin_index
                )
                self._deploy_held_replacement(
                    plan.op_name, plan.origin_index, plan.target_machine
                )
            new_plans.append(plan)
        return new_plans

    def _seek_to_latest(self, source):
        """Position a replacement source at its newest checkpointed offset."""
        for record in reversed(self.job.coordinator.completed):
            offset = record.offsets.get(source.instance_id)
            if offset is not None:
                source.seek(min(offset, source.cursor.partition.end_offset))
                return

    def _repair_chains(self, failed_machine, token=None):
        """Replace the lost ``failed_machine`` in every chain it was in (a
        reconcile pass copies the state); a repair queued under a deposed
        leader must not rewrite chains the new leader already owns."""
        self._check_fence(token)
        primaries = {i.instance_id: i.machine for i in self.job.stateful_instances()}
        self.replication_manager.repair_after_failure(failed_machine, primaries)
        self._journal_groups()

    def _live_primary(self, instance_id):
        """The stateful instance named ``instance_id``, if its machine is up."""
        for instance in self.job.stateful_instances():
            if instance.instance_id == instance_id and instance.machine.alive:
                return instance
        return None

    def _plan_rescale(self, op_name, add_instances, machines=None, share=0.5):
        """Vertical/horizontal scale-out: add instances, each taking a
        ``share`` of an origin instance's virtual nodes."""
        op = self.job.graph.operators[op_name]
        assignment = self.job.assignments[op_name]
        counts = assignment.group_counts()
        origins = sorted(counts, key=lambda idx: counts[idx], reverse=True)
        machines = machines or [m for m in self.job.machines if m.alive]
        plans = []
        for offset in range(add_instances):
            new_index = op.parallelism + offset
            origin_index = origins[offset % len(origins)]
            target_machine = self._machine_with_replica(
                f"{op_name}[{origin_index}]", machines[offset % len(machines)]
            )
            plans.append(
                migration.plan_rescale(
                    self.job, self, op_name, origin_index, new_index,
                    target_machine, share=share,
                )
            )
        return plans, functools.partial(self._commit_spawned, plans)

    def _machine_with_replica(self, instance_id, fallback):
        group = self.replication_manager.groups.get(instance_id)
        chain = [m for m in group.chain if m.alive] if group else []
        return chain[0] if chain else fallback

    def _plan_drain(self, machine):
        """Planned migration of every stateful instance off ``machine``.

        The §5.5 reconfiguration ("migrate 8 operators from one server to
        the remaining 7 servers"): the origin is alive, so each handover
        ships only the last incremental delta -- no upstream replay, no
        latency impact.  New instances spawn on the other workers and take
        over all virtual nodes; the drained instances stay deployed but
        own nothing.
        """
        victims = [
            i
            for i in self.job.stateful_instances()
            if i.machine is machine and i.state.owned_ranges()
        ]
        if not victims:
            raise ProtocolError(f"no stateful instances to drain on {machine.name}")
        others = [m for m in self.job.machines if m.alive and m is not machine]
        plans = []
        for offset, instance in enumerate(victims):
            op_name = instance.op.name
            new_index = self.job.graph.operators[op_name].parallelism + sum(
                plan.op_name == op_name for plan in plans
            )
            target_machine = self._machine_with_replica(
                instance.instance_id, others[offset % len(others)]
            )
            if target_machine is machine:
                target_machine = others[offset % len(others)]
            ranges = list(self.job.assignments[op_name].ranges_of(instance.index))
            plans.append(
                migration.HandoverPlan(
                    op_name,
                    instance.index,
                    new_index,
                    ranges,
                    migration.RESCALE,
                    target_machine=target_machine,
                )
            )
        return plans, functools.partial(self._commit_spawned, plans)

    def _commit_spawned(self, plans, _token):
        """Count a succeeded handover's spawned targets into parallelism.

        Only after success: an abort removes the spawned targets again, and
        a parallelism raised beforehand would leave a phantom index behind
        that the next spawn skips.
        """
        for plan in plans:
            self.job.graph.operators[plan.op_name].parallelism += 1
        self._place_replica_groups()

    def _plan_rebalance(self, op_name, moves, node_count=None):
        """Load balancing: move virtual nodes between existing instances.

        ``moves`` is a list of (origin_index, target_index).
        """
        plans = [
            migration.plan_rebalance(
                self.job, self, op_name, origin, target, node_count
            )
            for origin, target in moves
        ]
        return plans, None

    #: kind -> (planner, process-name format).  ``reconfigure()`` binds its
    #: keyword arguments against the planner's signature, so a kind's
    #: arguments are declared exactly once.
    _PLANNERS = {
        "failure": (_plan_failure, "rhino-recover:{machine.name}"),
        "rescale": (_plan_rescale, "rhino-rescale:{op_name}"),
        "rebalance": (_plan_rebalance, "rhino-rebalance:{op_name}"),
        "drain": (_plan_drain, "rhino-drain:{machine.name}"),
    }
    #: Reconfiguration kinds accepted by :meth:`reconfigure`.
    RECONFIGURE_KINDS = tuple(_PLANNERS)

    # -- failure monitoring -----------------------------------------------------------

    def _on_machine_failure(self, machine):
        self.handover_manager.on_machine_failure(machine)

    def _on_machine_restart(self, machine, wiped):
        """A crashed worker rejoined; restore its replica holdings."""
        if wiped:
            store = self.replicator.stores.get(machine)
            if store is not None:
                store.wipe()
        self._reconcile()

    def enable_failure_detection(self, detector):
        """Wire a :class:`~repro.cluster.monitor.FailureDetector`.

        Suspected machines (heartbeats lost: dead *or* partitioned) abort
        the handovers they are critical to; the re-plan-and-retry loop
        then re-executes onto reachable workers.  Returns the detector.
        """
        detector.on_suspect.append(self._on_machine_suspected)
        return detector

    def _on_machine_suspected(self, machine):
        self.handover_manager.on_machine_suspected(machine)

    # -- the replica reconciler ----------------------------------------------------

    def _reconcile(self):
        """The one replica reconciler, and the only caller of ``bulk_copy``
        (DESIGN.md §8): forget every holding outside its chain (a running
        handover's pre-copy excepted), then start at once a copy to every
        live member lacking a complete holding of a primary that has a
        checkpoint and is not already replicating to it.  Returns at once;
        each copy fails on its own and the next pass retries it.

        A pass runs after every completed checkpoint -- a replica *is* its
        origin's incremental checkpoints (§4.2), so the checkpoint is the
        clock that heals a holding a gray failure left incomplete (a chain
        hop out of retries, a lost table) -- and after a failure's commit,
        a takeover and a restart.  Under RhinoDFS every member ``holds``
        the state (every machine reads the DFS), so nothing is copied."""
        storage = self.job.checkpoint_storage
        groups = self.replication_manager.groups
        running = self.handover_manager.running
        for machine, store in self.replicator.stores.items():
            if not machine.alive:
                continue
            for instance_id, holding in list(store.holdings.items()):
                group = groups.get(instance_id)
                held = holding.checkpoint_id  # a pre-copy's is a tuple
                if not (group is not None and machine in group.chain) and not (
                    isinstance(held, tuple) and held[1] in running
                ):
                    store.drop(instance_id)
        for instance_id, group in sorted(groups.items()):
            primary = self._live_primary(instance_id)
            if primary is None or primary.state.last_checkpoint_id is None:
                continue
            for member in group.chain:
                key = (instance_id, member.name)
                if not member.alive or member is primary.machine or (
                    key in self._reconciling
                    or self.replicator.shipping[instance_id, member]
                    or storage.holds(member, instance_id)
                ):
                    continue
                self._reconciling.add(key)
                copy = self.replicator.bulk_copy(primary, member)
                copy.defused = True
                copy.callbacks.append(
                    lambda _copy, key=key: self._reconciling.discard(key)
                )
                if self.sim.tracer.enabled:
                    self.sim.tracer.event(
                        "chaos.reconcile",
                        track="chaos",
                        instance=instance_id,
                        member=member.name,
                    )

    # -- introspection ----------------------------------------------------------------

    @property
    def reports(self):
        """Handover reports, oldest first."""
        return self.handover_manager.reports
