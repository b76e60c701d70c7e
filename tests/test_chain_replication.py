"""Unit tests for the chain replicator and replica stores."""

from types import SimpleNamespace

import pytest

from repro.common.errors import ProtocolError
from repro.common.units import GB, split_bytes
from repro.core.flow_control import CreditLease
from repro.obs.tracer import Tracer
from repro.sim import Simulator
from repro.cluster import Cluster
from repro.storage.kvs import LSMStore
from repro.core.replication import ChainReplicator, ReplicaStore


@pytest.fixture
def env():
    sim = Simulator()
    cluster = Cluster(sim)
    machines = cluster.add_machines(
        3,
        prefix="w",
        nic_bandwidth=100.0,
        disks=1,
        disk_read_bandwidth=100.0,
        disk_write_bandwidth=100.0,
        disk_capacity=10**9,
        network_latency=0.0,
    )
    replicator = ChainReplicator(sim, cluster, block_size=50, credit_window_bytes=200)
    return sim, cluster, machines, replicator


def make_checkpoint(name="s0", checkpoint_id=1, entries=(("k", "v", 100),)):
    store = LSMStore(name)
    for key, value, nbytes in entries:
        store.put(0, key, value, nbytes=nbytes)
    checkpoint, _flushed = store.checkpoint(checkpoint_id)
    return store, checkpoint


def primary_of(store, machine):
    """The live primary instance a repair copy reads from."""
    return SimpleNamespace(
        instance_id=store.name,
        machine=machine,
        state=SimpleNamespace(store=store),
        frontier=lambda: None,
    )


class TestReplicaStore:
    def test_ingest_accumulates_deltas(self):
        store = LSMStore("s0")
        replica = ReplicaStore.__new__(ReplicaStore)
        replica.machine = type("M", (), {"alive": False, "name": "fake"})()
        replica.holdings = {}
        store.put(0, "a", "x", nbytes=10)
        first, _ = store.checkpoint(1)
        store.put(0, "b", "y", nbytes=20)
        second, _ = store.checkpoint(2)
        replica.ingest(first)
        replica.ingest(second)
        holding = replica.holding_of("s0")
        assert holding.bytes_held == 30
        assert holding.is_complete

    def test_incomplete_holding_rejected(self):
        store = LSMStore("s0")
        replica = ReplicaStore.__new__(ReplicaStore)
        replica.machine = type("M", (), {"alive": False, "name": "fake"})()
        replica.holdings = {}
        store.put(0, "a", "x", nbytes=10)
        store.checkpoint(1)  # first delta never replicated
        store.put(0, "b", "y", nbytes=20)
        second, _ = store.checkpoint(2)
        replica.ingest(second)
        with pytest.raises(ProtocolError):
            replica.holding_of("s0")
        assert not replica.has_complete("s0")

    def test_ingest_garbage_collects_dropped_tables(self):
        store = LSMStore("s0", compaction_trigger=2)
        replica = ReplicaStore.__new__(ReplicaStore)
        replica.machine = type("M", (), {"alive": False, "name": "fake"})()
        replica.holdings = {}
        store.put(0, "a", "x", nbytes=10)
        first, _ = store.checkpoint(1)
        replica.ingest(first)
        store.put(0, "a", "y", nbytes=10)
        store.flush()
        store.compact()  # replaces both tables with one
        second, _ = store.checkpoint(2)
        replica.ingest(second)
        holding = replica.holding_of("s0")
        assert len(holding.tables) == 1


class TestChainReplication:
    def test_tail_receives_full_state(self, env):
        sim, _cluster, machines, replicator = env
        _store, checkpoint = make_checkpoint(entries=(("k", "v", 100),))
        process = replicator.replicate(machines[0], [machines[1], machines[2]], checkpoint)
        sim.run(until=process)
        for member in machines[1:]:
            assert replicator.store_on(member).has_complete("s0")

    def test_replication_time_reflects_bandwidth(self, env):
        sim, _cluster, machines, replicator = env
        _store, checkpoint = make_checkpoint(entries=(("k", "v", 400),))
        process = replicator.replicate(machines[0], [machines[1]], checkpoint)
        sim.run(until=process)
        # 400 B over a 100 B/s NIC, then pipelined 100 B/s disk writes:
        # strictly more than the pure transfer, less than transfer+write.
        assert 4.0 <= sim.now <= 9.0

    def test_pipelining_beats_store_and_forward(self, env):
        sim, _cluster, machines, replicator = env
        _store, checkpoint = make_checkpoint(entries=(("k", "v", 1000),))
        process = replicator.replicate(
            machines[0], [machines[1], machines[2]], checkpoint
        )
        sim.run(until=process)
        # Sequential hops would take 2 x 10 s of transfers plus 10 s of
        # writes; block pipelining overlaps them.
        assert sim.now < 28.0

    def test_empty_delta_replicates_instantly(self, env):
        sim, _cluster, machines, replicator = env
        store = LSMStore("s0")
        checkpoint, _ = store.checkpoint(1)
        process = replicator.replicate(machines[0], [machines[1]], checkpoint)
        sim.run(until=process)
        assert sim.now == 0.0
        assert replicator.store_on(machines[1]).has_complete("s0")

    def test_stats_accumulate(self, env):
        sim, _cluster, machines, replicator = env
        _store, checkpoint = make_checkpoint(entries=(("k", "v", 100),))
        process = replicator.replicate(
            machines[0], [machines[1], machines[2]], checkpoint
        )
        sim.run(until=process)
        assert replicator.stats.checkpoints_replicated == 1
        assert replicator.stats.bytes_replicated == 200  # 100 B x 2 members

    def test_bulk_copy_installs_full_replica(self, env):
        sim, _cluster, machines, replicator = env
        store, checkpoint = make_checkpoint(entries=(("k", "v", 300),))
        first = replicator.replicate(machines[0], [machines[1]], checkpoint)
        sim.run(until=first)
        primary = primary_of(store, machines[0])
        copy = replicator.bulk_copy(primary, machines[2])
        bytes_copied = sim.run(until=copy)
        assert bytes_copied == 300
        assert replicator.store_on(machines[2]).has_complete("s0")
        assert replicator.is_current(machines[2], primary)

    def test_a_partial_holding_receives_only_what_it_lacks(self, env):
        """A member holding checkpoint 1 is brought to checkpoint 2 from a
        current peer: only checkpoint 2's delta table crosses the wire."""
        sim, _cluster, machines, replicator = env
        store = LSMStore("s0")
        store.put(0, "a", "x", nbytes=100)
        first, _ = store.checkpoint(1)
        sim.run(until=replicator.replicate(machines[0], machines[1:], first))
        store.put(0, "b", "y", nbytes=200)
        second, _ = store.checkpoint(2)
        sim.run(until=replicator.replicate(machines[0], [machines[1]], second))
        written = []
        write = machines[2].disk_write

        def recording_write(nbytes, tag=None):
            written.append((tag, nbytes))
            return write(nbytes, tag=tag)

        machines[2].disk_write = recording_write
        started = sim.now
        primary = primary_of(store, machines[0])
        assert sim.run(until=replicator.bulk_copy(primary, machines[2])) == 200
        assert written == [("replica-repair", 50)] * 4
        # Four 50 B blocks, each sent and then written at 100 B/s.
        assert sim.now - started == pytest.approx(4.0)
        holding = replicator.store_on(machines[2]).holding_of("s0")
        assert holding.checkpoint_id == 2
        assert set(holding.tables) == set(second.manifest.table_ids)

    def test_a_delta_landing_mid_copy_is_kept(self, env):
        """Checkpoint 3 replicates onto the target while its repair copy
        (of checkpoint 2, from w-1) runs: the delta is based on the copied
        checkpoint, so the copy completes it instead of rolling the
        holding back to checkpoint 2."""
        sim, _cluster, machines, replicator = env
        store = LSMStore("s0")
        store.put(0, "a", "x", nbytes=100)
        first, _ = store.checkpoint(1)
        sim.run(until=replicator.replicate(machines[0], [machines[1]], first))
        store.put(0, "b", "y", nbytes=100)
        second, _ = store.checkpoint(2)
        sim.run(until=replicator.replicate(machines[0], machines[1:], second))
        primary = primary_of(store, machines[0])
        copy = replicator.bulk_copy(primary, machines[2])
        store.put(0, "c", "z", nbytes=10)
        third, _ = store.checkpoint(3)
        delta = replicator.replicate(machines[0], [machines[2]], third)
        assert sim.run(until=copy) == 100  # checkpoint 1's table only
        assert not delta.is_alive
        assert replicator.is_current(machines[2], primary)
        assert replicator.store_on(machines[2]).holding_of("s0").checkpoint_id == 3

    def test_a_stale_holding_outside_the_chain_is_never_the_source(self):
        """w-1 left the chain holding a complete checkpoint 1; the primary
        has since checkpointed twice.  The repair copy onto w-3 comes from
        the primary, never from w-1's stale copy."""
        sim = Simulator(tracer=Tracer())
        cluster = Cluster(sim)
        machines = cluster.add_machines(4, prefix="w", network_latency=0.0)
        replicator = ChainReplicator(sim, cluster, block_size=50)
        store = LSMStore("s0")
        store.put(0, "a", "x", nbytes=100)
        first, _ = store.checkpoint(1)
        sim.run(until=replicator.replicate(machines[0], [machines[1]], first))
        for checkpoint_id in (2, 3):
            store.put(0, f"k{checkpoint_id}", "y", nbytes=100)
            later, _ = store.checkpoint(checkpoint_id)
            sim.run(until=replicator.replicate(machines[0], [machines[2]], later))
        cluster.kill(machines[2])  # the only current holding is gone
        assert replicator.store_on(machines[1]).has_complete("s0")
        primary = primary_of(store, machines[0])
        assert not replicator.is_current(machines[1], primary)
        assert sim.run(until=replicator.bulk_copy(primary, machines[3])) == 300
        assert {span.tags["src"] for span in sim.tracer.find("replicate.bulk")} == {"w-0"}
        assert replicator.is_current(machines[3], primary)
        assert replicator.store_on(machines[3]).holding_of("s0").checkpoint_id == 3

    def test_replica_restores_identical_state(self, env):
        sim, _cluster, machines, replicator = env
        store, checkpoint = make_checkpoint(
            entries=(("a", "x", 10), ("b", "y", 20))
        )
        process = replicator.replicate(machines[0], [machines[1]], checkpoint)
        sim.run(until=process)
        holding = replicator.store_on(machines[1]).holding_of("s0")
        restored = LSMStore("restored")
        restored.restore(holding.live_tables())
        assert restored.get(0, "a") == "x"
        assert restored.get(0, "b") == "y"

    def test_a_slow_landing_write_keeps_the_hop_open(self):
        """A forwarding member's own disk write holds its hop (and the
        replication) open until the write has landed: its bytes drain at
        0.55 s, but its port adds 5 s of latency."""
        sim = Simulator(tracer=Tracer())
        cluster = Cluster(sim)
        machines = cluster.add_machines(
            3,
            prefix="w",
            nic_bandwidth=100.0,
            disks=1,
            disk_write_bandwidth=1000.0,
            disk_capacity=10**9,
            network_latency=0.0,
        )
        machines[1].disks[0].write_port.degrade(extra_latency=5.0)
        replicator = ChainReplicator(sim, cluster, block_size=1000)
        _store, checkpoint = make_checkpoint(entries=(("k", "v", 50),))
        process = replicator.replicate(
            machines[0], [machines[1], machines[2]], checkpoint
        )
        sim.run(until=process)
        assert sim.now == pytest.approx(5.55)
        hop = sim.tracer.one("replicate.hop", src="w-1", dst="w-2")
        assert hop.end == pytest.approx(5.55)
        assert replicator.stats.last_duration == pytest.approx(5.55)

    def test_chain_member_failure_fails_replication(self, env):
        sim, cluster, machines, replicator = env
        _store, checkpoint = make_checkpoint(entries=(("k", "v", 10_000),))
        process = replicator.replicate(machines[0], [machines[1]], checkpoint)
        process.defused = True

        def killer():
            yield sim.timeout(1.0)
            cluster.kill(machines[1])

        sim.process(killer())
        sim.run()
        assert not process.ok

    @pytest.mark.parametrize("topology", ["chain", "star", "streams=4"])
    def test_failed_replication_returns_its_credit(self, topology):
        """A replication whose member dies mid-transfer returns every byte
        of credit it held, so the origin's next replication runs: it used
        to keep its 256 MB, and the next one from the origin hung.  A
        leased four-stream block stream from the origin returns its
        credit the same way."""
        sim = Simulator()
        cluster = Cluster(sim)
        machines = cluster.add_machines(4, prefix="w")
        replicator = ChainReplicator(
            sim, cluster, topology="star" if topology == "star" else "chain"
        )
        credit = replicator._credit_for(machines[0])
        if topology == "streams=4":
            stream = cluster.chunked_transfer(
                machines[0],
                machines[2],
                split_bytes(2 * GB, replicator.block_size),
                tag="replication",
                lease=CreditLease(credit),
                streams=4,
            )
            failed = sim.process(stream.run())
        else:
            _store, big = make_checkpoint("a", entries=(("k", "v", 2 * GB),))
            failed = replicator.replicate(
                machines[0], [machines[1], machines[2]], big
            )
        failed.defused = True

        def killer():
            yield sim.timeout(0.5)
            cluster.kill(machines[2])

        sim.process(killer())
        sim.run(until=10.0)
        assert failed.triggered and not failed.ok
        assert credit.in_flight == 0
        _store, small = make_checkpoint("b", entries=(("k", "v", GB),))
        later = replicator.replicate(
            machines[0], [machines[1], machines[3]], small
        )
        sim.run(until=200.0)
        assert later.ok
        assert credit.in_flight == 0
