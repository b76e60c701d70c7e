"""The control journal: a write-ahead log of control-plane transitions.

Rhino's coordinator-side managers (§3.3) -- the checkpoint coordinator,
the Handover Manager, and the Replication Manager -- are exactly the state
a coordinator crash would strand.  The :class:`ControlJournal` write-ahead
logs every transition of that state as a small typed record:

* ``checkpoint.triggered`` / ``checkpoint.completed`` / ``checkpoint.aborted``
* ``groups.assigned`` (the full replica-group map, last-wins)
* the ``handover.*`` kinds of :data:`~repro.core.handover.PHASE_TABLE`
  plus ``handover.aborted``
* ``detector.verdict`` (failure-detector suspicion flips)
* ``control.epoch`` / ``control.member-commit`` (the group's own leader
  epoch and configuration; every ``member-commit`` after the group's
  first is a membership hand-off)
* ``failover.complete`` (informational)

The journal belongs to a :class:`~repro.core.quorum.ControlGroup`.  The
in-memory record list is the leader's log; a demand-driven flusher process
writes each batch through the leader's simulated disk and ships it over
the simulated network to every reachable follower's disk, so journal
traffic competes with the data plane for real bandwidth.  Per-member sync
progress feeds the group's commit rule: a record counts as durable once a
majority holds it, and a newly elected leader truncates whatever the
deposed one never replicated.

:meth:`ControlJournal.replay` folds the records into a
:class:`RecoveredControlState` -- a pure, canonically serializable value
object.  Replaying the same journal twice is bit-identical, and replaying
at crash time reproduces the live manager state exactly
(:meth:`snapshot_live` builds the same structure from the live objects,
which every takeover that truncated nothing is checked against).
"""

import json
import zlib

from repro.common.errors import CorruptionError
from repro.core.handover import ABORTED, ACCEPTED, ACK, COMMITTED, PHASE_SET_BY


def plan_to_dict(plan):
    """A :class:`~repro.core.migration.HandoverPlan` as a JSON-safe dict."""
    return {
        "op": plan.op_name,
        "origin": plan.origin_index,
        "target": plan.target_index,
        "vnodes": [[lo, hi] for lo, hi in plan.vnodes],
        "reason": plan.reason,
        "machine": plan.target_machine.name if plan.target_machine else None,
        "spawn": bool(plan.spawn_target),
        "replace": bool(plan.replace_origin),
    }


#: Modeled framing bytes of one journal record (the CRC included).
RECORD_OVERHEAD = 64


class JournalRecord:
    """One journaled control-plane transition."""

    __slots__ = ("seq", "time", "kind", "payload", "nbytes", "epoch", "crc32")

    def __init__(self, seq, time, kind, payload, epoch):
        self.seq = seq
        self.time = time
        self.kind = kind
        self.payload = payload
        #: Leader epoch the record was appended under.
        self.epoch = epoch
        #: Modeled serialized size: framing overhead plus the payload's
        #: canonical JSON length (deterministic, no wall-clock input).
        #: The CRC lives inside the fixed framing overhead, so enabling
        #: verification never changes a record's modeled size.
        self.nbytes = RECORD_OVERHEAD + len(
            json.dumps(payload, sort_keys=True, default=str)
        )
        self.crc32 = self._checksum()

    def _checksum(self):
        framed = "|".join(
            (
                str(self.seq),
                str(self.epoch),
                self.kind,
                json.dumps(self.payload, sort_keys=True, default=str),
            )
        )
        return zlib.crc32(framed.encode("utf-8"))

    def verify(self):
        """Recompute the CRC; raises :class:`CorruptionError` on mismatch."""
        actual = self._checksum()
        if actual != self.crc32:
            raise CorruptionError(
                f"journal record #{self.seq} ({self.kind}) failed CRC32: "
                f"stored {self.crc32:#010x}, computed {actual:#010x}"
            )
        return self.crc32

    def __repr__(self):
        return f"<JournalRecord #{self.seq} t={self.time:.3f} {self.kind}>"


class RecoveredControlState:
    """Coordinator/manager state folded out of the journal.

    A pure value object: :meth:`to_dict` is canonical (sorted keys, plain
    containers only), so two replays of the same journal -- or a replay
    and a live snapshot taken at the same instant -- compare equal
    through it.
    """

    def __init__(self):
        self.next_checkpoint_id = 0
        self.completed = []  # checkpoint dicts, oldest first
        self.pending = []  # triggered-but-unresolved checkpoint ids
        self.replica_groups = {}  # instance_id -> [machine names]
        self.in_flight = {}  # reconfig_id -> reconfiguration dict
        self.suspected = []  # machine names under suspicion
        self.epoch = 0  # leader epoch of the newest control.epoch record
        self.control_members = []  # newest control-group configuration

    def to_dict(self):
        return {
            "next_checkpoint_id": self.next_checkpoint_id,
            "completed": [dict(item) for item in self.completed],
            "pending": list(self.pending),
            "replica_groups": {
                key: list(chain)
                for key, chain in sorted(self.replica_groups.items())
            },
            "in_flight": {
                str(key): dict(value)
                for key, value in sorted(self.in_flight.items())
            },
            "suspected": list(self.suspected),
            "epoch": self.epoch,
            "control_members": list(self.control_members),
        }

    def __eq__(self, other):
        if not isinstance(other, RecoveredControlState):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self):
        return (
            f"<RecoveredControlState ckpts={len(self.completed)} "
            f"pending={len(self.pending)} inflight={len(self.in_flight)}>"
        )


class ControlJournal:
    """Write-ahead log of control-plane state on simulated storage."""

    def __init__(self, sim, cluster, group):
        self.sim = sim
        self.cluster = cluster
        #: The :class:`~repro.core.quorum.ControlGroup` this journal
        #: replicates through: it stamps the epoch, names the leader and
        #: followers the flusher writes to, and owns the commit rule.
        self.group = group
        self.records = []
        #: Synchronous append listeners (fault injection hooks, tests).
        self.listeners = []
        #: Bytes in the leader's log.
        self.durable_bytes = 0
        #: Bytes whose I/O cost has been charged by the flusher.
        self.flushed_bytes = 0
        self.flushes = 0
        self._flusher = None
        #: Records appended but not yet replicated by the flusher.
        self._pending = []
        #: Records dropped by torn-tail truncation on verified reads plus
        #: uncommitted-suffix truncation at leader takeover.
        self.truncated_records = 0
        #: Fenced between a leader's deposition and its successor's
        #: takeover: a dead coordinator journals nothing, so appends
        #: attempted by still-running worker-side protocol code are
        #: dropped, keeping replay-at-takeover equal to the crash-instant
        #: snapshot.
        self.fenced = False

    # -- appending ------------------------------------------------------------

    def append(self, kind, **payload):
        """Append one record to the leader's log; returns it.

        The record's replication (and the I/O it costs) is the flusher's
        job; callers that need it durable wait on the group's commit.
        Listeners fire synchronously after the append -- a listener may
        kill the leader, which is exactly how the phase-targeted chaos
        tests land a control-plane death on a specific protocol transition.
        """
        if self.fenced:
            return None
        record = JournalRecord(
            len(self.records) + 1,
            self.sim.now,
            kind,
            payload,
            self.group.epoch,
        )
        self.records.append(record)
        self.durable_bytes += record.nbytes
        self._pending.append(record)
        if self._flusher is None or not self._flusher.is_alive:
            self._flusher = self.sim.process(self._flush(), name="journal-flush")
            self._flusher.defused = True
        if self.sim.tracer.enabled:
            self.sim.tracer.event(
                "journal.append", track="failover", kind=kind, seq=record.seq
            )
        for listener in list(self.listeners):
            listener(record)
        return record

    def _flush(self):
        # Group commit: every append made while the previous batch was in
        # flight is folded into the next one.  Each batch is written to the
        # leader's disk, then shipped to every reachable follower and
        # written to its disk.  Per-member sync progress feeds the group's
        # commit rule -- a record is committed once a majority of the
        # configuration it belongs to has synced it.  Unreachable followers
        # are skipped, stay behind, and are caught up later by the group's
        # resync process.  A follower is credited only over a contiguous
        # prefix: one that missed an earlier batch holds a gap, and the
        # batch does not fill it.
        while self._pending:
            batch, self._pending = self._pending, []
            nbytes = sum(record.nbytes for record in batch)
            top_seq = batch[-1].seq
            self.flushes += 1
            group = self.group
            leader = group.leader
            if leader.machine.alive and leader.service_up:
                try:
                    yield leader.machine.disk_write(
                        nbytes, tag="control-journal"
                    )
                    group.mark_synced(leader, top_seq)
                except Exception:  # noqa: BLE001 - I/O cost modeling only
                    pass
            for member in group.all_members():
                if member is leader:
                    continue
                if not (member.machine.alive and member.service_up):
                    continue
                if not self.cluster.reachable(leader.machine, member.machine):
                    continue
                try:
                    yield self.cluster.transfer(
                        leader.machine,
                        member.machine,
                        nbytes,
                        tag="control-journal",
                    )
                    yield member.machine.disk_write(
                        nbytes, tag="control-journal"
                    )
                    if member.synced_seq >= batch[0].seq - 1:
                        group.mark_synced(member, top_seq)
                except Exception:  # noqa: BLE001 - I/O cost modeling only
                    pass
            self.flushed_bytes += nbytes

    def truncate_to(self, seq):
        """Drop every record above ``seq`` (the uncommitted suffix).

        Called by a newly elected leader: records the deposed leader
        appended but never replicated to the electee exist only on the
        deposed leader's disk, so the new epoch's log must not contain
        them.  Committed records are never truncated -- the election rule
        (max synced_seq among the configuration in force, whose majority
        holds every committed record) guarantees the winner holds them.
        """
        dropped = [r for r in self.records if r.seq > seq]
        if not dropped:
            return 0
        self.records = [r for r in self.records if r.seq <= seq]
        self._pending = [r for r in self._pending if r.seq <= seq]
        removed = sum(r.nbytes for r in dropped)
        self.durable_bytes -= removed
        self.truncated_records += len(dropped)
        if self.sim.tracer.enabled:
            self.sim.tracer.event(
                "journal.truncate",
                track="failover",
                dropped=len(dropped),
                upto=seq,
            )
        return len(dropped)

    # -- replay ---------------------------------------------------------------

    def read_records(self, committed_seq=None):
        """Verify every record's CRC32 and truncate a torn tail.

        The first record that fails verification marks the torn point:
        it and everything after it are dropped (a crash mid-write tears
        the tail of a log, never the middle).  A mismatch at or below the
        committed floor is not a torn tail -- committed records were
        majority-acknowledged, so a bad CRC there is real corruption and
        raises :class:`CorruptionError`.
        """
        if committed_seq is None:
            committed_seq = self.group.committed_seq
        for index, record in enumerate(self.records):
            try:
                record.verify()
            except CorruptionError:
                if record.seq <= committed_seq:
                    raise
                torn = self.records[index:]
                self.records = self.records[:index]
                self._pending = [
                    r for r in self._pending if r.seq < record.seq
                ]
                self.durable_bytes -= sum(r.nbytes for r in torn)
                self.truncated_records += len(torn)
                if self.sim.tracer.enabled:
                    self.sim.tracer.event(
                        "journal.torn-tail",
                        track="failover",
                        dropped=len(torn),
                        first_bad=record.seq,
                    )
                break
        return self.records

    def replay(self):
        """Fold the journal into a :class:`RecoveredControlState`.

        Pure and deterministic: no clock, no RNG, no live objects -- two
        replays of the same journal are bit-identical.
        """
        state = RecoveredControlState()
        pending = {}
        in_flight = {}
        suspected = set()
        for record in self.read_records():
            kind, p = record.kind, record.payload
            if kind == "checkpoint.triggered":
                state.next_checkpoint_id = max(
                    state.next_checkpoint_id, p["checkpoint"]
                )
                pending[p["checkpoint"]] = True
            elif kind == "checkpoint.completed":
                pending.pop(p["checkpoint"], None)
                state.completed.append(
                    {
                        "id": p["checkpoint"],
                        "triggered_at": p["triggered_at"],
                        "completed_at": p["completed_at"],
                        "offsets": dict(p["offsets"]),
                    }
                )
            elif kind == "checkpoint.aborted":
                pending.pop(p["checkpoint"], None)
            elif kind == "groups.assigned":
                state.replica_groups = {
                    instance_id: list(chain)
                    for instance_id, chain in p["groups"].items()
                }
            elif kind == ACCEPTED:
                in_flight[p["reconfig"]] = {
                    "reason": p["reason"],
                    "trigger_time": p["trigger_time"],
                    "plans": [dict(d) for d in p["plans"]],
                    "phase": PHASE_SET_BY[kind],
                    "handover": None,
                    "acked": [],
                }
            elif kind in PHASE_SET_BY:
                entry = in_flight.get(p["reconfig"])
                if entry is not None:
                    entry["phase"] = PHASE_SET_BY[kind]
                    if p.get("handover") is not None:
                        entry["handover"] = p["handover"]
            elif kind == ACK:
                entry = in_flight.get(p["reconfig"])
                if entry is not None and p["instance"] not in entry["acked"]:
                    entry["acked"].append(p["instance"])
            elif kind in (COMMITTED, ABORTED):
                in_flight.pop(p["reconfig"], None)
            elif kind == "detector.verdict":
                if p["verdict"] == "suspect":
                    suspected.add(p["machine"])
                else:
                    suspected.discard(p["machine"])
            elif kind == "control.epoch":
                state.epoch = p["epoch"]
            elif kind == "control.member-commit":
                state.control_members = list(p["members"])
            # failover.complete is informational: the takeover resolves
            # every stranded transition through its own journaled records.
        for entry in in_flight.values():
            entry["acked"] = sorted(entry["acked"])
        state.pending = sorted(pending)
        state.in_flight = in_flight
        state.suspected = sorted(suspected)
        return state

    @staticmethod
    def snapshot_live(rhino):
        """The live managers' state in :class:`RecoveredControlState` form.

        Built from the coordinator, the Replication Manager, and the
        Handover Manager directly -- the oracle that journal replay must
        reproduce (checked at every takeover that truncated nothing).
        """
        state = RecoveredControlState()
        coordinator = rhino.job.coordinator
        state.next_checkpoint_id = coordinator._next_id
        for record in coordinator.completed:
            state.completed.append(
                {
                    "id": record.checkpoint_id,
                    "triggered_at": record.triggered_at,
                    "completed_at": record.completed_at,
                    "offsets": dict(record.offsets),
                }
            )
        state.pending = sorted(coordinator._pending)
        state.replica_groups = {
            instance_id: [m.name for m in group.chain]
            for instance_id, group in sorted(
                rhino.replication_manager.groups.items()
            )
        }
        for reconfig_id, execution in sorted(
            rhino.handover_manager._inflight.items()
        ):
            state.in_flight[reconfig_id] = {
                "reason": execution.plans[0].reason,
                "trigger_time": execution.trigger_time,
                "plans": [plan_to_dict(plan) for plan in execution.plans],
                "phase": execution.phase,
                "handover": execution.handover_id,
                "acked": sorted(execution.acked),
            }
        group = rhino.control_group
        state.suspected = sorted(group.failover.suspected)
        state.epoch = group.epoch
        state.control_members = group.member_names()
        return state

    def __repr__(self):
        return (
            f"<ControlJournal {len(self.records)} records "
            f"{self.durable_bytes} B led by {self.group.leader.name}>"
        )
