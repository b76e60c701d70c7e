"""Control-plane takeover: bounded-MTTR recovery after a leader is deposed.

The paper's managers (§3.3) run on a single coordinator; a crash there
would strand every in-flight handover, replication epoch, and checkpoint.
Reconfigurable-SMR systems solve this by making the configuration manager
itself a journaled, replicated service (Bortnikov et al.).  The
:class:`~repro.core.quorum.ControlGroup` is that service; this module is
what happens when its leader is lost, on the virtual clock:

1. **Halt** (:meth:`FailoverManager.depose`): the leader's control-plane
   *service* dies or loses its quorum lease -- the machine keeps running
   the data plane.  The epoch is bumped (the fencing point), the
   checkpoint coordinator and the journal are fenced, and every
   control-plane driver process (handover drivers, reconfiguration
   drivers) is killed mid-protocol.  Worker-side protocol code (marker
   alignment, state rendezvous) keeps running; its acknowledgments simply
   reach a dead coordinator.
2. **Elect**: after the detection delay the survivors elect the member
   with the highest synced seq that can assemble a quorum; with no such
   member the control plane stays unavailable until the fault heals.
3. **Truncate**: records the deposed leader never replicated to the
   winner exist only on the deposed disk and are dropped from the log.
4. **Replay**: the winner reads the journal from its local disk
   (simulated disk read of every byte) and folds it into a
   :class:`~repro.core.journal.RecoveredControlState`.  When nothing was
   truncated, replay completeness is self-checked: the recovered state
   must equal the live snapshot captured at the crash instant (stored in
   ``replay_checks``, asserted by tests).
5. **Resume**: each in-flight reconfiguration ends as
   :func:`~repro.core.resolution.resolve` says for a lost leader.
   Chains that lost a member during the outage get replacements, and
   one reconcile pass starts the copies they lack (it does not wait).

The takeover is a ``failover`` span, opened at the fault, with ``detect`` /
``replay`` / ``resume`` children that sum to it; each ``history`` entry is
read off them (``repro.obs.failover_phases``), traced or not.
"""

from types import SimpleNamespace

from repro.obs import failover_phases, phase_span
from repro.core import quorum, resolution, rollback
from repro.core.journal import ControlJournal
from repro.core.handover import ABORTED, HandoverAborted
from repro.core.replication_manager import ReplicaGroup


#: The "machine" an abort names when the control-plane leader was lost.
COORDINATOR = SimpleNamespace(name="coordinator")


class FailoverManager:
    """Owns the depose/takeover lifecycle of a :class:`ControlGroup`."""

    def __init__(self, sim, rhino, group):
        self.sim = sim
        self.rhino = rhino
        self.group = group
        self.journal = group.journal
        self.down = False
        #: Event that succeeds when the new leader finishes taking over;
        #: gated client requests wait on it.
        self.available = None
        #: Live reconfiguration driver processes (killed on deposition).
        self.drivers = []
        #: Machine names the failure detector currently suspects.
        self.suspected = set()
        #: One dict per completed takeover, read off its spans: detect /
        #: replay / resume / total virtual seconds, new epoch and leader.
        self.history = []
        #: One (replayed, snapshot) ``to_dict()`` pair per takeover that
        #: truncated nothing -- the replay-completeness oracle asserted by
        #: tests.
        self.replay_checks = []
        #: Takeovers whose replay could not be checked against the crash
        #: snapshot because the deposed leader's uncommitted suffix was
        #: truncated (the live snapshot legitimately ran ahead of the log).
        self.truncated_takeovers = 0
        self.snapshot_at_crash = None

    # -- wiring ---------------------------------------------------------------

    def track(self, process):
        """Register a reconfiguration driver (killed if the leader dies)."""
        self.drivers = [p for p in self.drivers if p.is_alive]
        self.drivers.append(process)

    def watch_detector(self, detector):
        """Journal the failure detector's verdicts (control-plane state)."""
        detector.on_suspect.append(self._on_suspect)
        detector.on_unsuspect.append(self._on_unsuspect)
        return detector

    def _on_suspect(self, machine):
        self.suspected.add(machine.name)
        self.journal.append(
            "detector.verdict", machine=machine.name, verdict="suspect"
        )

    def _on_unsuspect(self, machine):
        self.suspected.discard(machine.name)
        self.journal.append(
            "detector.verdict", machine=machine.name, verdict="clear"
        )

    # -- halt -----------------------------------------------------------------

    def depose(self, fault_time, initial_wait):
        """The leader is gone: fence its epoch and start the takeover.

        ``fault_time`` is when the leader was actually lost (the takeover's
        detect phase is measured from it); ``initial_wait`` is how much of
        the detection delay is still to elapse before the survivors elect.

        Safe to call from inside a journal listener (i.e. from within one
        of the driver processes being killed): interrupts are scheduled,
        not thrown synchronously, so the active process dies at its next
        wait point.
        """
        if self.down:
            return None  # a second fault mid-takeover changes nothing
        group = self.group
        # The fencing point: every command stamped before this instant is
        # from a deposed epoch.
        group.epoch += 1
        # Snapshot first: the oracle is the live state at the instant the
        # leader died, before the crash wipes volatile memory.
        self.snapshot_at_crash = ControlJournal.snapshot_live(self.rhino)
        self.down = True
        self.available = self.sim.event()
        if self.sim.tracer.enabled:
            self.sim.tracer.event(
                "failover.crash",
                track="failover",
                primary=group.leader.name,
                epoch=group.epoch,
            )
        self._halt_control_plane()
        takeover = self.sim.process(
            self._takeover(fault_time, initial_wait),
            name=f"failover:epoch-{group.epoch}",
        )
        takeover.defused = True
        return takeover

    def _halt_control_plane(self):
        """Fence the journal and coordinator; kill every driver mid-protocol."""
        self.journal.fenced = True
        self.rhino.job.coordinator.crash()
        cause = ("control-crash", self.group.leader.name)
        handovers = self.rhino.handover_manager._inflight.values()
        for process in [e.process for e in handovers] + self.drivers:
            if process.is_alive:
                process.defused = True
                process.interrupt(cause)
        self.drivers = []

    # -- elect, truncate, replay, resume ------------------------------------------

    def _takeover(self, fault_time, initial_wait):
        group = self.group
        sim = self.sim
        tracer = sim.tracer
        root = phase_span(
            sim, "failover", track="failover", start=fault_time, epoch=group.epoch
        )

        # Phase 1: the survivors notice the lost lease and elect.
        detect_span = phase_span(
            sim, "failover.detect", track="failover", parent=root, start=fault_time
        )
        if initial_wait > 0:
            yield self.sim.timeout(initial_wait)
        candidate = group._elect()
        while candidate is None:
            # No member can assemble a quorum (e.g. a partition split the
            # group three ways): the control plane stays unavailable until
            # the fault heals.  Gated clients wait on ``available``.
            yield self.sim.timeout(quorum.HEARTBEAT_INTERVAL)
            candidate = group._elect()
        detect_span.finish(leader=candidate.name)
        group.elections += 1
        if tracer.enabled:
            tracer.event(
                "control.election",
                track="failover",
                epoch=group.epoch,
                leader=candidate.name,
                synced=candidate.synced_seq,
            )

        # Phase 2: drop the uncommitted suffix, read the winner's log and
        # fold it back into state.
        replay_span = phase_span(sim, "failover.replay", track="failover", parent=root)
        truncated_before = self.journal.truncated_records
        # Records the deposed leader never replicated to the winner exist
        # only on the deposed disk: they are not part of the new epoch.
        # The winner holds every committed record (quorum intersection);
        # check_journal_linearizable catches a takeover that lost one.
        self.journal.truncate_to(candidate.synced_seq)
        if self.journal.durable_bytes > 0 and candidate.machine.alive:
            try:
                yield candidate.machine.disk_read(
                    self.journal.durable_bytes, tag="journal-replay"
                )
            except Exception:  # noqa: BLE001 - I/O cost modeling only
                pass
        # Seat the new leader before unfencing so the takeover's own
        # transitions (abort records for stranded checkpoints and
        # handovers) flush through the new leader's disk and a *second*
        # crash replays to the post-takeover state.
        group.leader = candidate
        self.journal.fenced = False
        # The new leader's first record announces its epoch (the SMR
        # equivalent of Raft's term no-op): replay reconstructs the epoch
        # from the log alone.
        self.journal.append(
            "control.epoch", epoch=group.epoch, leader=candidate.name
        )
        state = self.journal.replay()
        truncated = self.journal.truncated_records - truncated_before
        if truncated == 0:
            self.replay_checks.append(
                (state.to_dict(), self.snapshot_at_crash.to_dict())
            )
        else:
            # The crash snapshot saw uncommitted transitions that the new
            # epoch's log (correctly) does not contain; end-state
            # invariants and the linearizability checker cover this case.
            self.truncated_takeovers += 1
        group._reconcile_membership()
        self.rhino.job.coordinator.restore_from_journal(state)
        self._restore_groups(state)
        self._reconcile_detector(state)
        replay_span.finish(
            records=len(self.journal.records),
            bytes=self.journal.durable_bytes,
            truncated=truncated,
        )

        # Phase 3: resolve every stranded reconfiguration and repair
        # redundancy broken during the outage.
        resume_span = phase_span(sim, "failover.resume", track="failover", parent=root)
        yield from self._resume_inflight(state)
        self._repair_replication()
        self.rhino._reconcile()
        # Re-baseline the groups record: repairs during the fenced outage
        # never reached the journal, and the repairs above just did.
        self.rhino._journal_groups()
        self.rhino.job.coordinator.restore_service()
        resume_span.finish()
        root.finish(status="completed", leader=candidate.name)
        phases = failover_phases(root, (detect_span, replay_span, resume_span))
        self.history.append(phases)
        self.journal.append(
            "failover.complete",
            primary=candidate.name,
            seconds=phases["total"],
            epoch=group.epoch,
        )
        self.down = False
        self.available.succeed()

    def _restore_groups(self, state):
        """Rebuild the Replication Manager's groups from the journal."""
        by_name = self.rhino.cluster.machines
        groups = {}
        for instance_id, names in state.replica_groups.items():
            chain = [by_name[name] for name in names if name in by_name]
            groups[instance_id] = ReplicaGroup(instance_id, chain)
        self.rhino.replication_manager.groups = groups

    def _reconcile_detector(self, state):
        """Re-journal suspicion flips that happened while fenced."""
        replayed = set(state.suspected)
        for name in sorted(self.suspected - replayed):
            self.journal.append(
                "detector.verdict", machine=name, verdict="suspect"
            )
        for name in sorted(replayed - self.suspected):
            self.journal.append(
                "detector.verdict", machine=name, verdict="clear"
            )

    # -- resume ---------------------------------------------------------------------

    def _resume_inflight(self, state):
        """Carry out the resolution of every stranded reconfiguration: a
        rolled-back planned one is re-issued by its client, a failure
        recovery is re-executed here."""
        hm = self.rhino.handover_manager
        job = self.rhino.job
        for reconfig_id in sorted(set(state.in_flight) | set(hm._inflight)):
            execution = hm._inflight.get(reconfig_id)
            journaled = reconfig_id in state.in_flight
            facts = hm.facts(execution, resolution.LEADER, journaled=journaled)
            resolved = resolution.resolve(facts)
            if resolved.outcome == resolution.SETTLED:
                self.journal.append(ABORTED, reconfig=reconfig_id)
            elif resolved.outcome == resolution.UNJOURNALED:
                del hm._inflight[reconfig_id]
            elif resolved.outcome == resolution.ABANDON:
                for plan, settlement in zip(execution.plans, resolved.settlements):
                    if settlement.remove:
                        job.remove_instance(plan.op_name, plan.target_index)
                hm._journal(execution, ABORTED)
            elif resolved.outcome == resolution.COMMIT:
                for plan, settlement in zip(execution.plans, resolved.settlements):
                    if plan.spawn_target:
                        op = job.graph.operators[plan.op_name]
                        op.parallelism = max(op.parallelism, settlement.owner + 1)
                hm._commit(execution)
            else:
                rollback.abort(hm, execution, COORDINATOR, resolved)
            if resolved.resume:
                plans = self.rhino._replan_failure(execution.plans)
                try:
                    yield from self.rhino._execute_with_retry(plans, self.sim.now)
                except HandoverAborted:
                    # Out of attempts, or not re-runnable; the recovery
                    # driver (or the reconcile pass after the next
                    # checkpoint) picks the machine up again.
                    pass

    def _repair_replication(self):
        """Replace the members chains lost while the coordinator was down."""
        groups = self.rhino.replication_manager.groups.values()
        lost = {m.name: m for g in groups for m in g.chain if not m.alive}
        for machine in lost.values():
            self.rhino._repair_chains(machine)

    def __repr__(self):
        state = "down" if self.down else "up"
        return f"<FailoverManager leader={self.group.leader.name} {state}>"
