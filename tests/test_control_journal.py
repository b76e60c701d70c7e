"""Unit tests for the control journal, block checksums, and fault-plan
validation."""

import json

import pytest

from repro.cluster import Cluster
from repro.common.errors import CorruptionError, SimulationError
from repro.core.journal import ControlJournal, plan_to_dict
from repro.core.quorum import ControlMember
from repro.core.migration import FAILURE, HandoverPlan
from repro.core.replication import ReplicaStore
from repro.engine.instance import Frontier
from repro.faults import (
    ALL_KINDS,
    CONTROL_KINDS,
    KNOWN_KINDS,
    CRASH_RESTART,
    FaultEvent,
    FaultPlan,
)
from repro.sim import Simulator
from repro.storage.kvs.checkpoint import CheckpointManifest
from repro.storage.kvs.lsm import LSMStore
from repro.storage.kvs.memtable import MERGE, MemTable
from repro.storage.kvs.sstable import GroupSlice, SSTable


def make_table(n=4):
    memtable = MemTable()
    for i in range(n):
        memtable.put(i % 2, f"k{i}", i * 10, seq=i + 1)
    return SSTable(memtable.sorted_items())


# -- satellite (a): CRC32 on SSTable blocks and checkpoint manifests ---------


class TestSSTableChecksum:
    def test_fresh_table_verifies(self):
        table = make_table()
        assert table.verify() == table.crc32

    def test_tampered_value_raises(self):
        table = make_table()
        table.entries[0].value = 999999
        with pytest.raises(CorruptionError):
            table.verify()

    def test_tampered_size_raises(self):
        table = make_table()
        table.entries[-1].nbytes += 1
        with pytest.raises(CorruptionError):
            table.verify()

    def test_tampered_key_raises(self):
        table = make_table()
        table.keys[0] = (table.keys[0][0], "k-swapped")
        with pytest.raises(CorruptionError):
            table.verify()

    def test_tampered_kind_raises(self):
        table = make_table()
        table.entries[0].kind = MERGE
        with pytest.raises(CorruptionError):
            table.verify()

    def test_tampered_seq_raises(self):
        table = make_table()
        table.entries[0].seq += 1
        with pytest.raises(CorruptionError):
            table.verify()

    def test_empty_table_verifies(self):
        table = SSTable([])
        table.verify()

    def test_group_slice_shares_the_file_checksum(self):
        table = make_table()
        view = GroupSlice(table, [(0, 2)])
        assert view.crc32 == table.crc32
        assert view.verify() == table.crc32
        table.entries[0].value = "corrupt"
        with pytest.raises(CorruptionError):
            view.verify()

    def test_lsm_ingest_verifies_foreign_tables(self):
        store = LSMStore("victim")
        table = make_table()
        table.entries[0].value = "corrupt"
        with pytest.raises(CorruptionError):
            store.ingest_tables([table])

    def test_lsm_restore_verifies_tables(self):
        store = LSMStore("victim")
        table = make_table()
        table.entries[0].nbytes += 7
        with pytest.raises(CorruptionError):
            store.restore([table])


class TestManifestChecksum:
    def test_fresh_manifest_verifies(self):
        manifest = CheckpointManifest([1, 2, 3], 4096)
        assert manifest.verify() == manifest.crc32

    def test_tampered_table_ids_raise(self):
        manifest = CheckpointManifest([1, 2, 3], 4096)
        manifest.table_ids = (1, 2, 4)
        with pytest.raises(CorruptionError):
            manifest.verify()

    def test_tampered_total_bytes_raise(self):
        manifest = CheckpointManifest([1, 2, 3], 4096)
        manifest.total_bytes += 1
        with pytest.raises(CorruptionError):
            manifest.verify()


class _StubMachine:
    name = "m0"
    alive = True


class TestReplicaVerifyOnRead:
    def test_holding_of_verifies_manifest_and_tables(self):
        table = make_table()
        manifest = CheckpointManifest([table.table_id], table.size_bytes)
        store = ReplicaStore(_StubMachine())
        store.ingest_full("count[0]", [table], manifest, 1, Frontier())
        assert store.holding_of("count[0]").is_complete
        table.entries[0].value = "corrupt"
        with pytest.raises(CorruptionError):
            store.holding_of("count[0]")


# -- satellite (b): fault-plan validation ------------------------------------


class TestFaultPlanValidation:
    def test_known_kinds_extend_worker_kinds(self):
        # The control kinds must stay out of ALL_KINDS: adding them would
        # shift the RNG draws of every existing seeded plan.
        assert not set(CONTROL_KINDS) & set(ALL_KINDS)
        assert KNOWN_KINDS == ALL_KINDS + CONTROL_KINDS
        assert len(KNOWN_KINDS) == 7

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            FaultEvent(1.0, "meteor-strike", ["w-0"], 1.0)

    def test_worker_fault_on_coordinator_host_rejected(self):
        plan = FaultPlan([FaultEvent(1.0, CRASH_RESTART, ["w-0"], 1.0)])
        with pytest.raises(SimulationError):
            plan.validate(["w-0", "w-1"], coordinator_host="w-0")

    def test_unknown_target_rejected(self):
        plan = FaultPlan([FaultEvent(1.0, CRASH_RESTART, ["w-9"], 1.0)])
        with pytest.raises(SimulationError):
            plan.validate(["w-0", "w-1"])

    def test_plan_round_trips_through_dict(self):
        plan = FaultPlan.generate(3, ["w-0", "w-1"], count=3)
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.to_dict() == plan.to_dict()


# -- the journal itself -------------------------------------------------------


class FakeGroup:
    """The slice of a ControlGroup the journal talks to: two healthy
    replicas, no rhino, and no bootstrap records in the log."""

    def __init__(self, machines):
        self.members = [ControlMember(m, i) for i, m in enumerate(machines)]
        self.leader = self.members[0]
        self.epoch = 1
        self.committed_seq = 0
        self.commit_log = []

    def all_members(self):
        return self.members

    def mark_synced(self, member, seq):
        member.synced_seq = max(member.synced_seq, seq)


def journal_env():
    sim = Simulator()
    cluster = Cluster(sim)
    machines = cluster.add_machines(
        2,
        prefix="j",
        cores=2,
        memory=1024**3,
        nic_bandwidth=1e9,
        disks=1,
        disk_read_bandwidth=400e6,
        disk_write_bandwidth=280e6,
        disk_capacity=64 * 1024**3,
        network_latency=0.0005,
    )
    journal = ControlJournal(sim, cluster, FakeGroup(machines))
    return sim, journal, machines


class TestControlJournal:
    def test_append_is_replicated_asynchronously_to_every_member(self):
        sim, journal, _ = journal_env()
        first = journal.append("checkpoint.triggered", checkpoint=1, expected=[])
        second = journal.append("checkpoint.aborted", checkpoint=1)
        assert (first.seq, second.seq) == (1, 2)
        assert (first.epoch, second.epoch) == (1, 1)
        assert journal.durable_bytes == first.nbytes + second.nbytes
        assert journal.flushed_bytes == 0  # cost not yet charged
        assert [m.synced_seq for m in journal.group.members] == [0, 0]
        sim.run(until=1.0)
        assert journal.flushed_bytes == journal.durable_bytes
        assert journal.flushes >= 1
        assert [m.synced_seq for m in journal.group.members] == [2, 2]

    def test_fenced_journal_drops_appends(self):
        _, journal, _ = journal_env()
        journal.append("checkpoint.triggered", checkpoint=1, expected=[])
        journal.fenced = True
        assert journal.append("checkpoint.triggered", checkpoint=2) is None
        assert len(journal.records) == 1
        journal.fenced = False
        assert journal.append("checkpoint.triggered", checkpoint=2).seq == 2

    def test_listeners_fire_synchronously(self):
        _, journal, _ = journal_env()
        seen = []
        journal.listeners.append(lambda record: seen.append(record.kind))
        journal.append("groups.assigned", groups={})
        assert seen == ["groups.assigned"]

    def test_replay_folds_the_control_state(self):
        _, journal, _ = journal_env()
        journal.append("checkpoint.triggered", checkpoint=1, expected=["count[0]"])
        journal.append(
            "checkpoint.completed",
            checkpoint=1,
            triggered_at=0.0,
            completed_at=0.5,
            offsets={"events/0": 3},
        )
        journal.append("checkpoint.triggered", checkpoint=2, expected=["count[0]"])
        journal.append("groups.assigned", groups={"count[0]": ["j-0", "j-1"]})
        journal.append(
            "handover.accepted",
            reconfig=1,
            reason=FAILURE,
            trigger_time=1.0,
            plans=[{"op": "count", "origin": 0, "target": 1}],
        )
        journal.append("handover.prepared", reconfig=1, handover=7)
        journal.append("handover.ack", reconfig=1, instance="count[1]")
        journal.append("handover.ack", reconfig=1, instance="count[1]")  # dup
        journal.append("handover.ack", reconfig=1, instance="count[0]")
        journal.append("detector.verdict", machine="j-1", verdict="suspect")
        state = journal.replay()
        assert state.next_checkpoint_id == 2
        assert state.pending == [2]
        assert [c["id"] for c in state.completed] == [1]
        assert state.completed[0]["offsets"] == {"events/0": 3}
        assert state.replica_groups == {"count[0]": ["j-0", "j-1"]}
        entry = state.in_flight[1]
        assert entry["phase"] == "prepared"
        assert entry["handover"] == 7
        assert entry["acked"] == ["count[0]", "count[1]"]  # sorted, deduped
        assert state.suspected == ["j-1"]

    def test_replay_is_deterministic_and_complete(self):
        _, journal, _ = journal_env()
        journal.append("checkpoint.triggered", checkpoint=1, expected=[])
        journal.append(
            "handover.accepted", reconfig=1, reason=FAILURE,
            trigger_time=0.0, plans=[],
        )
        journal.append("handover.marker", reconfig=1, handover=3)
        first = journal.replay()
        second = journal.replay()
        canonical = [json.dumps(s.to_dict(), sort_keys=True) for s in (first, second)]
        assert canonical[0] == canonical[1]
        assert first == second

    def test_commit_and_clear_remove_inflight_and_suspicion(self):
        _, journal, _ = journal_env()
        journal.append(
            "handover.accepted", reconfig=1, reason="rebalance",
            trigger_time=0.0, plans=[],
        )
        journal.append("detector.verdict", machine="j-1", verdict="suspect")
        journal.append("handover.committed", reconfig=1, handover=3)
        journal.append("detector.verdict", machine="j-1", verdict="clear")
        state = journal.replay()
        assert state.in_flight == {}
        assert state.suspected == []

    def test_plan_to_dict_is_json_safe(self):
        _, _, machines = journal_env()
        plan = HandoverPlan(
            "count",
            0,
            1,
            [(0, 4), (8, 12)],
            FAILURE,
            target_machine=machines[1],
        )
        as_dict = plan_to_dict(plan)
        assert as_dict == {
            "op": "count",
            "origin": 0,
            "target": 1,
            "vnodes": [[0, 4], [8, 12]],
            "reason": FAILURE,
            "machine": "j-1",
            "spawn": False,
            "replace": True,
        }
