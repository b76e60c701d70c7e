"""Quorum-replicated control plane: journal SMR, elections, epoch fencing.

The control plane as a replicated state machine, and the only way to make
it fault tolerant.  A :class:`ControlGroup` of N coordinator replicas
sequences every :class:`~repro.core.journal.ControlJournal` record through
a majority quorum (stream-based SMR, Lawniczak & Distler), elects leaders
deterministically, fences deposed leaders with monotonic epochs, and
reconfigures its own membership with a joint-consensus two-phase change
(Bortnikov et al.).  What happens between a leader's loss and its
successor's first command is :mod:`repro.core.failover`.

**Commit rule.**  The leader appends records to its in-memory log; the
journal's flusher writes each batch to the leader's disk and ships it to
every reachable follower.  A record is *committed* once a majority of
every active configuration has synced it (the leader counts itself after
its local disk write).  Client-visible protocol boundaries -- a
handover's ``accepted`` record, the membership ``joint`` record -- block
on commit, so a leader partitioned from every quorum stalls before
touching shared state.

**Election.**  A member may lead if a majority of every active
configuration is up and can reach it.  Among eligible candidates the one
with the highest ``synced_seq`` wins (lowest member index breaks ties);
quorum intersection guarantees the winner holds every committed record.
Records above the winner's ``synced_seq`` exist only on the deposed
leader's disk and are truncated from the new epoch's log.

**Fencing.**  Every deposition bumps the monotonic ``epoch``.  Commands
stamp the epoch at submission; executing a command stamped with an older
epoch raises :class:`StaleEpochError` before anything is mutated, and
workers treat handover markers from a stale epoch as inert.  A leader
that cannot renew its quorum lease for ``detection_delay`` self-fences
(its driver processes are killed exactly like a service crash).

**Membership change.**  ``change_membership`` appends a
``control.member-joint`` record; until the change commits, every quorum
(commit, lease, election) requires a majority of the old *and* the new
configuration.  Brand-new members are resynced before they can count.
Once the joint record commits under both majorities, the leader appends
``control.member-commit`` and the new configuration takes over alone.  A
leader crash mid-change is safe: the next leader finds the joint record
in the journal and finishes the change.
"""

from repro.common.errors import ProtocolError, StaleEpochError
from repro.core.failover import FailoverManager
from repro.core.journal import ControlJournal

__all__ = ["ControlGroup", "ControlMember", "StaleEpochError"]


class ControlMember:
    """One coordinator replica in the control group."""

    __slots__ = ("machine", "index", "service_up", "synced_seq")

    def __init__(self, machine, index):
        self.machine = machine
        #: Creation order; the deterministic tie-break in elections.
        self.index = index
        #: The control-plane *service* on this machine is running (the
        #: machine itself may serve the data plane while the service is
        #: down).
        self.service_up = True
        #: Highest journal seq this replica has durably synced.
        self.synced_seq = 0

    @property
    def name(self):
        return self.machine.name

    def __repr__(self):
        state = "up" if self.service_up else "DOWN"
        return f"<ControlMember {self.name} {state} synced={self.synced_seq}>"


class ControlGroup:
    """N coordinator replicas running the control plane as an SMR group."""

    def __init__(
        self,
        sim,
        rhino,
        machines,
        detection_delay=0.5,
        heartbeat_interval=0.25,
    ):
        if len(machines) < 2:
            raise ProtocolError("a control group needs at least 2 replicas")
        if len(set(m.name for m in machines)) != len(machines):
            raise ProtocolError("control group members must be distinct")
        self.sim = sim
        self.rhino = rhino
        self.cluster = rhino.cluster
        self.detection_delay = detection_delay
        self.heartbeat_interval = heartbeat_interval
        self._registry = {}
        self._next_index = 0
        self.members = [self._member_for(m) for m in machines]
        self.leader = self.members[0]
        #: Monotonic leader epoch; bumped at every deposition.
        self.epoch = 1
        #: In-flight joint-consensus membership change, or ``None``.
        self.joint = None
        #: Largest seq committed under the quorum rule.
        self.committed_seq = 0
        #: Commit history for the linearizability checker: (seq, epoch)
        #: in commit order.
        self.commit_log = []
        self.fencing_rejections = 0
        self.elections = 0
        self.rejoins = 0
        self.journal = ControlJournal(sim, self.cluster, self)
        #: The takeover lifecycle: halt, elect, truncate, replay, resume.
        self.failover = FailoverManager(sim, rhino, self)
        self._commit_waiters = []
        self._monitor = None
        self._suspect_since = None
        self._resyncing = set()
        # The new group's first records: announce epoch 1 and the initial
        # configuration, so replay always reconstructs both.
        self.journal.append(
            "control.epoch", epoch=self.epoch, leader=self.leader.name
        )
        self.journal.append(
            "control.member-commit", members=self.member_names()
        )

    # -- membership bookkeeping ------------------------------------------------

    def _member_for(self, machine):
        member = self._registry.get(machine.name)
        if member is None:
            member = ControlMember(machine, self._next_index)
            self._next_index += 1
            self._registry[machine.name] = member
        return member

    def member_names(self):
        return [m.name for m in self.members]

    def all_members(self):
        """Every replica in any active configuration, creation order."""
        seen = []
        pools = [self.members]
        if self.joint is not None:
            pools.append(self.joint["old"])
            pools.append(self.joint["new"])
        for pool in pools:
            for member in pool:
                if member not in seen:
                    seen.append(member)
        return seen

    def configs(self):
        """The configurations whose majorities every quorum must satisfy."""
        if self.joint is None:
            return [self.members]
        return [self.joint["old"], self.joint["new"]]

    def joint_state(self):
        if self.joint is None:
            return None
        return {
            "old": [m.name for m in self.joint["old"]],
            "new": [m.name for m in self.joint["new"]],
            "seq": self.joint["seq"],
        }

    @staticmethod
    def _majority(members):
        return len(members) // 2 + 1

    # -- the commit rule -------------------------------------------------------

    def replication_targets(self):
        """Members the quorum flusher ships batches to."""
        return self.all_members()

    def mark_synced(self, member, seq):
        """A replica durably holds every record up to ``seq``."""
        if seq > member.synced_seq:
            member.synced_seq = seq
            self._advance_commit()

    def _advance_commit(self):
        records = self.journal.records
        configs = self.configs()
        advanced = False
        while self.committed_seq < len(records):
            seq = self.committed_seq + 1
            if not all(
                sum(1 for m in config if m.synced_seq >= seq)
                >= self._majority(config)
                for config in configs
            ):
                break
            record = records[seq - 1]
            self.committed_seq = seq
            self.commit_log.append((seq, record.epoch))
            advanced = True
            if self.sim.tracer.enabled:
                self.sim.tracer.event(
                    "control.commit",
                    track="failover",
                    seq=seq,
                    epoch=record.epoch,
                )
        if advanced and self._commit_waiters:
            ready = [w for w in self._commit_waiters if w[0] <= self.committed_seq]
            self._commit_waiters = [
                w for w in self._commit_waiters if w[0] > self.committed_seq
            ]
            for _, event in ready:
                event.succeed()

    def await_commit_seq(self, seq):
        """Generator: block until ``seq`` is quorum-committed."""
        if seq <= self.committed_seq:
            return
        event = self.sim.event()
        self._commit_waiters.append((seq, event))
        yield event

    def await_commit(self, record):
        """Generator: block until ``record`` is quorum-committed."""
        if record is None:  # append was fenced; the caller is about to die
            return
        yield from self.await_commit_seq(record.seq)

    # -- quorum health and elections -------------------------------------------

    def _can_vote(self, member):
        return member.service_up and member.machine.alive

    def _supports(self, voter, candidate):
        if not self._can_vote(voter):
            return False
        if voter is candidate:
            return True
        return self.cluster.reachable(voter.machine, candidate.machine)

    def _has_quorum(self, candidate):
        return all(
            sum(1 for voter in config if self._supports(voter, candidate))
            >= self._majority(config)
            for config in self.configs()
        )

    def _leader_healthy(self):
        return self._can_vote(self.leader) and self._has_quorum(self.leader)

    def _elect(self):
        """The deterministic election winner right now, or ``None``.

        Candidates are restricted to the *new* configuration during a
        joint change, so a mid-change election can never seat a leader the
        committed configuration would immediately evict.
        """
        pool = self.joint["new"] if self.joint is not None else self.members
        candidates = [
            m for m in pool if self._can_vote(m) and self._has_quorum(m)
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda m: (m.synced_seq, -m.index))

    # -- the monitor -----------------------------------------------------------

    def start(self):
        """Start the quorum lease monitor (idempotent)."""
        if self._monitor is None or not self._monitor.is_alive:
            self._monitor = self.sim.process(
                self._monitor_loop(), name="control-monitor"
            )
            self._monitor.defused = True
        return self._monitor

    def stop(self):
        """Stop the monitor (no-op if not running)."""
        if self._monitor is not None and self._monitor.is_alive:
            self._monitor.defused = True
            self._monitor.interrupt("monitor-stop")
        self._monitor = None

    def _monitor_loop(self):
        while True:
            yield self.sim.timeout(self.heartbeat_interval)
            if self.failover.down:
                self._suspect_since = None
                continue
            if self._leader_healthy():
                self._suspect_since = None
            else:
                if self._suspect_since is None:
                    self._suspect_since = self.sim.now
                expired = (
                    self.sim.now - self._suspect_since
                    >= self.detection_delay - 1e-12
                )
                if expired:
                    fault_time = self._suspect_since
                    self._suspect_since = None
                    # The lease expired: the leader self-fences and the
                    # survivors elect.  Detection time was consumed here,
                    # so the takeover does not sleep again.
                    self.failover.depose(fault_time=fault_time, initial_wait=0.0)
                    continue
            self._kick_resyncs()

    def _kick_resyncs(self):
        top = len(self.journal.records)
        for member in self.all_members():
            if member is self.leader or member.name in self._resyncing:
                continue
            if not self._can_vote(member) or member.synced_seq >= top:
                continue
            if not self.cluster.reachable(self.leader.machine, member.machine):
                continue
            process = self.sim.process(
                self._resync(member), name=f"control-resync:{member.name}"
            )
            process.defused = True

    def _resync(self, member):
        self._resyncing.add(member.name)
        try:
            while True:
                records = self.journal.records
                target = len(records)
                if member.synced_seq >= target:
                    break
                missing = sum(
                    r.nbytes for r in records[member.synced_seq :]
                )
                if missing > 0:
                    yield self.cluster.transfer(
                        self.leader.machine,
                        member.machine,
                        missing,
                        tag="control-resync",
                    )
                    yield member.machine.disk_write(
                        missing, tag="control-resync"
                    )
                self.mark_synced(member, target)
        except Exception:  # noqa: BLE001 - partition/crash mid-resync
            pass  # the monitor retries once the member is reachable again
        finally:
            self._resyncing.discard(member.name)

    # -- fault surface (ChaosController) ---------------------------------------

    def crash_member(self, name):
        """The control-plane service on ``name`` dies."""
        member = self._registry.get(name)
        if member is None:
            raise ProtocolError(f"{name} is not a control-group member")
        if not member.service_up:
            return
        member.service_up = False
        if self.sim.tracer.enabled:
            self.sim.tracer.event(
                "control.member-crash", track="failover", member=name
            )
        if member is self.leader:
            # A dead leader service fences instantly; followers notice
            # after the detection delay, then elect.
            self.failover.depose(
                fault_time=self.sim.now, initial_wait=self.detection_delay
            )

    def restart_member(self, name):
        """The control-plane service on ``name`` came back (fault reverted)."""
        member = self._registry.get(name)
        if member is None:
            raise ProtocolError(f"{name} is not a control-group member")
        if member.service_up:
            return
        member.service_up = True
        self.rejoins += 1
        if self.sim.tracer.enabled:
            self.sim.tracer.event(
                "control.member-rejoin", track="failover", member=name
            )
        # The monitor resyncs it; a rejoined ex-leader is a follower now.

    # -- epoch fencing ----------------------------------------------------------

    def fence_token(self):
        """The epoch a command submitted right now is stamped with."""
        return self.epoch

    def check_fence(self, token):
        """Reject a command stamped with a deposed epoch.

        Raises :class:`StaleEpochError` before anything is mutated -- the
        stale command is a no-op, which is what makes retried commands
        exactly-once across leader changes.
        """
        if token is None:
            return
        if token < self.epoch:
            self.fencing_rejections += 1
            if self.sim.tracer.enabled:
                self.sim.tracer.event(
                    "control.fenced",
                    track="failover",
                    stale_epoch=token,
                    epoch=self.epoch,
                )
            raise StaleEpochError(
                f"command from epoch {token} rejected: "
                f"the control plane is at epoch {self.epoch}"
            )

    def note_fenced_marker(self, marker, instance):
        """Count a worker discarding a deposed leader's handover marker."""
        self.fencing_rejections += 1
        if self.sim.tracer.enabled:
            self.sim.tracer.event(
                "control.fenced-marker",
                track="failover",
                handover=marker.handover_id,
                stale_epoch=marker.epoch,
                epoch=self.epoch,
                instance=str(instance.instance_id),
            )

    # -- membership change ------------------------------------------------------

    def change_membership(self, machines):
        """Reconfigure the control group itself (joint consensus).

        Returns the driver process.  The change is a control-plane verb:
        it is epoch-fenced, gated on availability, and tracked so a
        leader crash kills the driver and the next leader resumes the
        change from the journaled joint record.
        """
        token = self.fence_token()
        process = self.sim.process(
            self._change(list(machines), token), name="rhino-member-change"
        )
        self.failover.track(process)
        return process

    def _change(self, machines, token):
        yield from self.rhino._await_control_plane()
        self.check_fence(token)
        if self.joint is not None:
            raise ProtocolError("a membership change is already in flight")
        if len(machines) < 2:
            raise ProtocolError("a control group needs at least 2 replicas")
        if self.leader.machine not in machines:
            raise ProtocolError(
                "the current leader must be part of the new configuration"
            )
        old = list(self.members)
        new = [self._member_for(m) for m in machines]
        # Enter the joint configuration before journaling it (like a
        # handover entry's phase): a kill landing on this very record
        # snapshots live state that already matches what replay will see.
        self.joint = {
            "old": old,
            "new": new,
            "seq": len(self.journal.records) + 1,
        }
        self.journal.append(
            "control.member-joint",
            old=[m.name for m in old],
            new=[m.name for m in new],
        )
        if self.sim.tracer.enabled:
            self.sim.tracer.event(
                "control.member-joint",
                track="failover",
                old=[m.name for m in old],
                new=[m.name for m in new],
            )
        yield from self._finish_change()

    def _finish_change(self):
        joint = self.joint
        # Brand-new members must hold the log before their acks can count
        # toward the new configuration's majority.
        for member in joint["new"]:
            if member.synced_seq == 0 and self._can_vote(member):
                yield from self._resync(member)
        yield from self.await_commit_seq(joint["seq"])
        self.journal.append(
            "control.member-commit",
            members=[m.name for m in joint["new"]],
        )
        self.members = list(joint["new"])
        self.joint = None
        if self.sim.tracer.enabled:
            self.sim.tracer.event(
                "control.member-commit",
                track="failover",
                members=self.member_names(),
            )
        self._advance_commit()  # the narrower quorum may unblock commits

    def _reconcile_membership(self, state):
        """Adopt the replayed journal's view of the configuration."""
        by_name = self.cluster.machines
        if state.control_members:
            self.members = [
                self._member_for(by_name[name])
                for name in state.control_members
                if name in by_name
            ]
        if state.joint is not None:
            self.joint = {
                "old": [
                    self._member_for(by_name[name])
                    for name in state.joint["old"]
                    if name in by_name
                ],
                "new": [
                    self._member_for(by_name[name])
                    for name in state.joint["new"]
                    if name in by_name
                ],
                "seq": state.joint["seq"],
            }
        else:
            # A joint record that never committed anywhere was truncated
            # with the deposed leader's suffix: the change never happened.
            self.joint = None

    def resume_membership_change(self):
        """New leader: finish a joint change found in the journal."""
        process = self.sim.process(
            self._finish_change(), name="rhino-member-change"
        )
        self.failover.track(process)
        return process

    # -- quiescence --------------------------------------------------------------

    def stable(self):
        """Fully recovered: a live leader, no joint config, all caught up."""
        if self.failover.down or self.joint is not None:
            return False
        if not self._leader_healthy():
            return False
        top = len(self.journal.records)
        if self.committed_seq < top:
            return False
        return all(
            m.synced_seq >= top
            for m in self.members
            if self._can_vote(m)
        )

    def __repr__(self):
        return (
            f"<ControlGroup n={len(self.members)} epoch={self.epoch} "
            f"leader={self.leader.name} committed={self.committed_seq}>"
        )
