"""Quorum-replicated control plane: journal SMR, elections, epoch fencing.

The control plane as a replicated state machine, and the only way to make
it fault tolerant.  A :class:`ControlGroup` of N coordinator replicas
sequences every :class:`~repro.core.journal.ControlJournal` record through
a majority quorum (stream-based SMR, Lawniczak & Distler), elects leaders
deterministically, fences deposed leaders with monotonic epochs, and
changes its own membership through a chain of static configurations
joined by hand-off records (Bortnikov et al.).  What happens between a
leader's loss and its successor's first command is
:mod:`repro.core.failover`.

**Commit rule.**  The journal's flusher writes each batch to the leader's
disk and ships it to every reachable follower, crediting a follower only
over a contiguous prefix (a gap is the monitor's resync's job).  Record
``s`` is *committed*, in log order, once a majority of the configuration
in force before it and after it has synced it (two configurations only
for a hand-off record).  Client-visible protocol boundaries (a handover's
``accepted`` record, a membership hand-off) block on commit, so a leader
partitioned from every quorum stalls before touching shared state.

**Election.**  Voters, candidates and the lease come from the
configuration in force (the one the next commit needs), a majority of
which holds every committed record.  A member may lead if a majority of
it is up and can reach the member; the highest ``synced_seq`` wins
(lowest member index breaks ties), so the winner holds every committed
record, and records above it are truncated from the new epoch's log.

**Fencing.**  Every deposition bumps the monotonic ``epoch``.  Commands
stamp the epoch at submission; executing a command stamped with an older
epoch raises :class:`StaleEpochError` before anything is mutated, and
workers treat handover markers from a stale epoch as inert.  A leader
that cannot renew its quorum lease for :data:`DETECTION_DELAY` self-fences
(its driver processes are killed exactly like a service crash).

**Membership change.**  Every configuration is static.
``change_membership`` appends one ``control.member-commit`` hand-off
record naming the next one -- the record every group writes at creation
-- and waits for it to commit; from then on the new configuration is in
force and a leader it removed loses its lease.  A hand-off that survives
a takeover commits like any other record, and a truncated one never
happened.  Brand-new members count once the monitor's resync has
shipped them the log.
"""

from repro.common.errors import ProtocolError, StaleEpochError
from repro.core.failover import FailoverManager
from repro.core.journal import ControlJournal

__all__ = ["ControlGroup", "ControlMember", "StaleEpochError"]

#: Virtual seconds a leader may miss its quorum lease before it
#: self-fences (and after a leader crash, before the survivors elect).
DETECTION_DELAY = 0.5
#: Virtual seconds between the lease monitor's checks.
HEARTBEAT_INTERVAL = 0.25


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

    def __init__(self, sim, rhino, machines):
        if len(machines) < 2:
            raise ProtocolError("a control group needs at least 2 replicas")
        if len(set(m.name for m in machines)) != len(machines):
            raise ProtocolError("control group members must be distinct")
        self.sim = sim
        self.rhino = rhino
        self.cluster = rhino.cluster
        self._registry = {}
        self._next_index = 0
        initial = [self._member_for(m) for m in machines]
        #: (seq, members) of every configuration record in the log.
        self._configs = []
        self.leader = initial[0]
        #: Monotonic leader epoch; bumped at every deposition.
        self.epoch = 1
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
        self._journal_config(initial)

    # -- configurations --------------------------------------------------------

    @property
    def members(self):
        """The newest configuration in the log (what replay reports)."""
        return self._configs[-1][1]

    def _member_for(self, machine):
        member = self._registry.get(machine.name)
        if member is None:
            member = ControlMember(machine, self._next_index)
            self._next_index += 1
            self._registry[machine.name] = member
        return member

    def member_names(self):
        return [m.name for m in self.members]

    def config_at(self, seq):
        """The configuration in force at ``seq``: the newest one journaled
        before it (the group's first, for the records up to and including
        its own)."""
        for start, members in reversed(self._configs):
            if start < seq:
                return members
        return self._configs[0][1]

    def voters(self):
        """The configuration in force: the one the next commit needs."""
        return self.config_at(self.committed_seq + 1)

    def all_members(self):
        """The configuration in force, then the newest one's newcomers."""
        voters = self.voters()
        return voters + [m for m in self.members if m not in voters]

    def _journal_config(self, members):
        # Adopt the configuration before journaling it (like a handover
        # entry's phase): a kill landing on this very record snapshots
        # live state that already matches what replay will see.
        self._configs.append((len(self.journal.records) + 1, members))
        return self.journal.append(
            "control.member-commit", members=[m.name for m in members]
        )

    def _reconcile_membership(self):
        """Adopt the chain of configurations in the surviving log.

        A hand-off truncated with the deposed leader's suffix never
        happened; one that survived commits like any other record.
        """
        machines = self.cluster.machines
        configs = [
            (r.seq, [self._member_for(machines[n]) for n in r.payload["members"]])
            for r in self.journal.records
            if r.kind == "control.member-commit"
        ]
        if configs:
            self._configs = configs

    @staticmethod
    def _majority(members, test):
        return sum(1 for m in members if test(m)) >= len(members) // 2 + 1

    # -- the commit rule -------------------------------------------------------

    def mark_synced(self, member, seq):
        """A replica durably holds every record up to ``seq``."""
        if seq > member.synced_seq:
            member.synced_seq = seq
            self._advance_commit()

    def _advance_commit(self):
        records = self.journal.records
        advanced = False
        while self.committed_seq < len(records):
            seq = self.committed_seq + 1
            # A hand-off must also be held by the configuration it starts.
            if not all(
                self._majority(config, lambda m: m.synced_seq >= seq)
                for config in (self.config_at(seq), self.config_at(seq + 1))
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
        return self._can_vote(voter) and self.cluster.reachable(
            voter.machine, candidate.machine
        )

    def _candidates(self):
        """Voters that are up and that a majority of the voters supports
        (until a hand-off commits, a member it removes may hold a
        committed record no staying member has)."""
        voters = self.voters()
        return [
            m
            for m in voters
            if self._can_vote(m)
            and self._majority(voters, lambda voter: self._supports(voter, m))
        ]

    def _leader_healthy(self):
        # A leader that a committed hand-off removed loses its lease too.
        return self.leader in self._candidates()

    def _elect(self):
        """The deterministic election winner right now, or ``None``."""
        candidates = self._candidates()
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
            yield self.sim.timeout(HEARTBEAT_INTERVAL)
            if self.failover.down:
                self._suspect_since = None
                continue
            if self._leader_healthy():
                self._suspect_since = None
            else:
                if self._suspect_since is None:
                    self._suspect_since = self.sim.now
                expired = (
                    self.sim.now - self._suspect_since >= DETECTION_DELAY - 1e-12
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
                fault_time=self.sim.now, initial_wait=DETECTION_DELAY
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
        """Hand the group over to the static configuration ``machines``.

        Returns the driver process.  The change is a control-plane verb:
        it is epoch-fenced, gated on availability, and tracked so a
        leader crash kills the driver, which nothing resumes.
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
        if self._configs[-1][0] > self.committed_seq:
            raise ProtocolError("a membership change is already in flight")
        if len(machines) < 2:
            raise ProtocolError("a control group needs at least 2 replicas")
        if self.leader.machine not in machines:
            raise ProtocolError(
                "the current leader must be part of the new configuration"
            )
        record = self._journal_config([self._member_for(m) for m in machines])
        yield from self.await_commit(record)
        if self.sim.tracer.enabled:
            self.sim.tracer.event(
                "control.member-commit",
                track="failover",
                members=record.payload["members"],
            )

    # -- quiescence --------------------------------------------------------------

    def stable(self):
        """Fully recovered: a live leader, everything committed, all caught up."""
        if self.failover.down or not self._leader_healthy():
            return False
        top = len(self.journal.records)
        if self.committed_seq < top:
            return False
        return all(m.synced_seq >= top for m in self.members if self._can_vote(m))

    def __repr__(self):
        return (
            f"<ControlGroup n={len(self.members)} epoch={self.epoch} "
            f"leader={self.leader.name} committed={self.committed_seq}>"
        )
