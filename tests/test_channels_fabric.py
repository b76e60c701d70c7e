"""Unit tests for channels, routers, and the exchange fabric.

The data plane is batch-denominated: routers emit :class:`RecordBatch`
elements, channel capacity counts batches, and the fabric ships one
element per batch.  A channel delivers by direct call into its consumer's
``add_input`` and buffers only while blocked behind an aligned marker.
"""

import pytest

from repro.engine import channels
from repro.engine.channels import (
    Channel,
    DEFAULT_CAPACITY_BATCHES,
    Edge,
    ExchangeFabric,
    Router,
)
from repro.engine.partitioning import KeyGroupAssignment, key_group_of
from repro.engine.records import CheckpointBarrier, Record, RecordBatch, Watermark
from repro.sim import Simulator
from repro.cluster import Cluster


class FakeInstance:
    def __init__(self, instance_id, index, machine):
        self.instance_id = instance_id
        self.index = index
        self.machine = machine
        self.attached = []
        self.delivered = []  # (channel, element) in delivery order

    def attach_input(self, channel):
        self.attached.append(channel)

    def add_input(self, channel, element):
        self.delivered.append((channel, element))

    def received(self, channel):
        return [element for ch, element in self.delivered if ch is channel]


def batch_of(*records):
    return RecordBatch(list(records))


@pytest.fixture
def env():
    sim = Simulator()
    cluster = Cluster(sim)
    machines = cluster.add_machines(2, prefix="m", nic_bandwidth=1000.0,
                                    network_latency=0.0)
    fabric = ExchangeFabric(sim, cluster, interval=0.1)
    return sim, cluster, machines, fabric


def make_edge(num_groups=8, parallelism=2, partitioning="hash"):
    assignment = KeyGroupAssignment(num_groups, parallelism) if partitioning == "hash" else None
    return Edge("src->dst", "dst", partitioning, assignment=assignment)


class TestLocalDelivery:
    def test_same_machine_send_is_immediate(self, env):
        sim, _cluster, machines, fabric = env
        src = FakeInstance("src[0]", 0, machines[0])
        dst = FakeInstance("dst[0]", 0, machines[0])
        channel = Channel(sim, "c", src, dst)
        done = fabric.send(channel, batch_of(Record("k", 0.0, nbytes=100)))
        assert done is None  # nothing to wait for
        assert len(dst.received(channel)) == 1

    def test_remote_send_delivers_after_flush(self, env):
        sim, _cluster, machines, fabric = env
        src = FakeInstance("src[0]", 0, machines[0])
        dst = FakeInstance("dst[0]", 0, machines[1])
        channel = Channel(sim, "c", src, dst)
        fabric.send(channel, batch_of(Record("k", 0.0, nbytes=100)))
        assert dst.received(channel) == []  # pending in the fabric
        sim.run(until=1.0)
        assert len(dst.received(channel)) == 1

    def test_per_channel_order_preserved_across_flushes(self, env):
        sim, _cluster, machines, fabric = env
        src = FakeInstance("src[0]", 0, machines[0])
        dst = FakeInstance("dst[0]", 0, machines[1])
        channel = Channel(sim, "c", src, dst, capacity_batches=100)
        for i in range(10):
            fabric.send(channel, batch_of(Record(f"k{i}", float(i), nbytes=10)))
        sim.run(until=2.0)
        values = [element.records[0].key for element in dst.received(channel)]
        assert values == [f"k{i}" for i in range(10)]

    def test_send_to_dead_machine_drops_batch_records(self, env):
        sim, cluster, machines, fabric = env
        src = FakeInstance("src[0]", 0, machines[0])
        dst = FakeInstance("dst[0]", 0, machines[1])
        channel = Channel(sim, "c", src, dst)
        cluster.kill(machines[1])
        done = fabric.send(
            channel, batch_of(Record("a", 0.0, nbytes=10), Record("b", 0.0, nbytes=10))
        )
        assert done is None
        # Drop accounting counts the records inside the batch, not elements.
        assert fabric.dropped_elements == 2

    def test_mid_flight_death_drops_batch(self, env):
        sim, cluster, machines, fabric = env
        src = FakeInstance("src[0]", 0, machines[0])
        dst = FakeInstance("dst[0]", 0, machines[1])
        channel = Channel(sim, "c", src, dst)
        fabric.send(channel, batch_of(Record("k", 0.0, nbytes=100_000)))

        def killer():
            yield sim.timeout(0.15)  # during the transfer
            cluster.kill(machines[1])

        sim.process(killer())
        sim.run(until=5.0)
        assert fabric.dropped_elements >= 1
        assert dst.received(channel) == []

    def test_a_flush_spawns_no_process(self, env):
        sim, _cluster, machines, fabric = env
        src = FakeInstance("src[0]", 0, machines[0])
        dst = FakeInstance("dst[0]", 0, machines[1])
        channel = Channel(sim, "c", src, dst)
        fabric.send(channel, batch_of(Record("k", 0.0, nbytes=100)))
        sim.run(until=0.15)  # flushed at 0.1 s, on the wire until 0.2 s
        assert fabric.pending_elements == 0 and dst.delivered == []
        assert sim.alive_processes() == []
        sim.run(until=1.0)
        assert len(dst.delivered) == 1
        assert sim.alive_processes() == []

    def test_pending_elements_counts_records_inside_batches(self, env):
        sim, _cluster, machines, fabric = env
        src = FakeInstance("src[0]", 0, machines[0])
        dst = FakeInstance("dst[0]", 0, machines[1])
        channel = Channel(sim, "c", src, dst)
        fabric.send(
            channel,
            batch_of(*[Record(f"k{i}", float(i), nbytes=10) for i in range(5)]),
        )
        fabric.send(channel, Watermark(5.0))
        # 5 records in the batch; the watermark is control.
        assert fabric.pending_elements == 5
        sim.run(until=1.0)
        assert fabric.pending_elements == 0


class BlockingInstance(FakeInstance):
    """Blocks a channel when a barrier arrives on it, like the real gate."""

    def add_input(self, channel, element):
        super().add_input(channel, element)
        if isinstance(element, CheckpointBarrier):
            channel.block()


class TestBlockRelease:
    def make(self, env, capacity_batches=3):
        sim, _cluster, machines, _fabric = env
        src = FakeInstance("src[0]", 0, machines[0])
        dst = BlockingInstance("dst[0]", 0, machines[0])
        return sim, dst, Channel(sim, "c", src, dst, capacity_batches=capacity_batches)

    def test_open_channel_delivers_by_direct_call_and_holds_nothing(self, env):
        _sim, dst, channel = self.make(env)
        batch = batch_of(Record("k", 0.0))
        assert channel.put(batch) is None
        assert dst.delivered == [(channel, batch)]
        assert not channel.held

    def test_blocked_channel_holds_capacity_then_hands_out_an_event(self, env):
        sim, dst, channel = self.make(env, capacity_batches=3)
        channel.block()
        for i in range(3):
            assert channel.put(Watermark(float(i))) is None
        assert dst.delivered == [] and len(channel.held) == 3
        full = channel.put(Watermark(3.0))
        assert full is not None and not full.triggered
        sim.run(until=1.0)
        assert not full.triggered  # only a release makes room
        channel.release()
        assert full.triggered
        assert [e.timestamp for e in dst.received(channel)] == [0.0, 1.0, 2.0, 3.0]
        assert not channel.held and not channel.blocked

    def test_release_is_fifo_across_held_elements_and_blocked_putters(self, env):
        _sim, dst, channel = self.make(env, capacity_batches=2)
        assert channel.put(CheckpointBarrier(1, 0.0)) is None  # blocks
        assert channel.blocked
        assert channel.put(Watermark(1.0)) is None
        assert channel.put(Watermark(2.0)) is None
        waits = [channel.put(Watermark(3.0)), channel.put(Watermark(4.0))]
        assert all(w is not None and not w.triggered for w in waits)
        channel.release()
        assert all(w.triggered for w in waits)
        assert [e.timestamp for e in dst.received(channel)[1:]] == [1.0, 2.0, 3.0, 4.0]

    def test_release_stops_at_the_next_marker_and_reblocks(self, env):
        _sim, dst, channel = self.make(env, capacity_batches=3)
        channel.put(CheckpointBarrier(1, 0.0))
        channel.put(Watermark(1.0))
        channel.put(CheckpointBarrier(2, 0.0))
        channel.put(Watermark(2.0))  # capacity reached
        first, second = channel.put(Watermark(3.0)), channel.put(Watermark(4.0))
        channel.release()
        # Delivered up to and including barrier 2, which re-blocked the
        # channel mid-drain; the rest stays held, in order.
        assert [type(e).__name__ for e in dst.received(channel)] == [
            "CheckpointBarrier", "Watermark", "CheckpointBarrier",
        ]
        assert channel.blocked
        # The drain made room for both waiting putters, behind watermark 2.
        assert first.triggered and second.triggered
        assert [e.timestamp for e in channel.held] == [2.0, 3.0, 4.0]
        assert channel.put(Watermark(5.0)) is not None  # full again
        channel.release()
        assert [e.timestamp for e in dst.received(channel)[3:]] == [2.0, 3.0, 4.0, 5.0]

    def test_shipper_waits_on_a_full_blocked_channel(self, env):
        sim, _cluster, machines, fabric = env
        src = FakeInstance("src[0]", 0, machines[0])
        dst = BlockingInstance("dst[0]", 0, machines[1])
        channel = Channel(sim, "c", src, dst, capacity_batches=1)
        channel.block()
        for i in range(3):
            fabric.send(channel, batch_of(Record(f"k{i}", float(i), nbytes=10)))
        sim.run(until=1.0)
        # One element held, the shipper parked on the second; its credit
        # stays charged until everything was accepted.
        assert len(channel.held) == 1 and dst.delivered == []
        assert fabric._pending_bytes[(machines[0], machines[1])] == 30
        channel.release()
        sim.run(until=2.0)
        assert [e.records[0].key for e in dst.received(channel)] == ["k0", "k1", "k2"]
        assert fabric._pending_bytes[(machines[0], machines[1])] == 0


class TestCredit:
    def test_producer_blocks_beyond_credit(self, env, monkeypatch):
        sim, _cluster, machines, fabric = env
        monkeypatch.setattr(channels, "CREDIT_BYTES", 150)
        src = FakeInstance("src[0]", 0, machines[0])
        dst = FakeInstance("dst[0]", 0, machines[1])
        channel = Channel(sim, "c", src, dst, capacity_batches=1000)
        first = fabric.send(channel, batch_of(Record("a", 0.0, nbytes=100)))
        second = fabric.send(channel, batch_of(Record("b", 0.0, nbytes=100)))
        assert first is None
        assert not second.triggered  # over the credit window
        sim.run(until=2.0)
        assert second.triggered  # flushed, credit released

    def test_credit_is_charged_per_batch_in_bytes(self, env, monkeypatch):
        sim, _cluster, machines, fabric = env
        monkeypatch.setattr(channels, "CREDIT_BYTES", 150)
        src = FakeInstance("src[0]", 0, machines[0])
        dst = FakeInstance("dst[0]", 0, machines[1])
        channel = Channel(sim, "c", src, dst, capacity_batches=1000)
        # One 3-record batch of 150 bytes fits the window exactly; a
        # per-element charge would have blocked after the first element.
        done = fabric.send(
            channel, batch_of(*[Record(f"k{i}", 0.0, nbytes=50) for i in range(3)])
        )
        assert done is None


class TestHeldBatches:
    """A flush caught by a partition between two *live* machines."""

    def start(self, env):
        """Ship three batches (four records) m0 -> m1; the partition cuts
        their flow mid-transfer at 0.2 s (flush at 0.1 s, 0.2 s on the
        wire).  Returns the consumer, its channel, the attempt times and
        what each ``send`` returned."""
        sim, cluster, machines, fabric = env
        dst = FakeInstance("dst[0]", 0, machines[1])
        channel = Channel(sim, "c", FakeInstance("src[0]", 0, machines[0]), dst)
        attempts = []
        transfer = cluster.transfer

        def recording(src, dst_machine, nbytes, tag=None):
            attempts.append(sim.now)
            return transfer(src, dst_machine, nbytes, tag=tag)

        cluster.transfer = recording
        sent = [
            fabric.send(
                channel,
                batch_of(*[Record(f"k{i}", float(i), nbytes=50)] * rows),
            )
            for i, rows in enumerate((2, 1, 1))
        ]
        sim.run(until=0.15)
        cluster.partition([[machines[0]], [machines[1]]])
        return dst, channel, attempts, sent

    def test_partition_holds_the_batch_and_retries_until_the_heal(self, env):
        sim, cluster, machines, fabric = env
        dst, _channel, attempts, _sent = self.start(env)
        sim.run(until=1.0)
        assert dst.delivered == []
        cluster.heal()
        sim.run(until=1.3)
        assert dst.delivered == []  # the 1.15 s retry is still on the wire
        sim.run(until=3.0)
        # The first attempt at the flush, then one every 0.25 s.
        assert attempts == pytest.approx([0.1, 0.4, 0.65, 0.9, 1.15])
        assert [e.records[0].key for _c, e in dst.delivered] == ["k0", "k1", "k2"]
        assert fabric.dropped_elements == 0
        assert fabric._pending_bytes[(machines[0], machines[1])] == 0

    def test_a_replay_started_behind_the_partition_drops_the_held_batch(
        self, env, monkeypatch
    ):
        sim, cluster, machines, fabric = env
        monkeypatch.setattr(channels, "CREDIT_BYTES", 150)
        dst, _channel, _attempts, sent = self.start(env)
        credit = sent[2]
        assert credit is not None  # 200 B in flight
        sim.run(until=0.5)
        assert fabric.drop_unreachable() == 0  # nothing queued, one held
        assert not credit.triggered
        sim.run(until=0.7)  # the 0.65 s retry sees the newer epoch
        assert fabric.dropped_elements == 4
        assert fabric._pending_bytes[(machines[0], machines[1])] == 0
        assert credit.triggered
        cluster.heal()
        sim.run(until=3.0)
        assert dst.delivered == []

    def test_an_error_that_is_not_a_failed_transfer_stops_the_run(self, env):
        sim, cluster, machines, fabric = env
        src = FakeInstance("src[0]", 0, machines[0])
        channel = Channel(sim, "c", src, FakeInstance("dst[0]", 0, machines[1]))

        def broken(*_args, **_kwargs):
            return sim.event().fail(RuntimeError("wire on fire"))

        cluster.transfer = broken
        fabric.send(channel, batch_of(Record("k", 0.0, nbytes=10)))
        with pytest.raises(RuntimeError, match="wire on fire"):
            sim.run(until=1.0)


class TestRouter:
    def test_hash_routing_follows_assignment(self, env):
        sim, _cluster, machines, fabric = env
        edge = make_edge(num_groups=8, parallelism=2)
        src = FakeInstance("src[0]", 0, machines[0])
        router = Router(sim, fabric, edge, src)
        dst0 = FakeInstance("dst[0]", 0, machines[0])
        dst1 = FakeInstance("dst[1]", 1, machines[0])
        router.connect(dst0)
        router.connect(dst1)
        router.emit_batch(batch_of(Record("some-key", 0.0)))
        group = key_group_of("some-key", 8)
        expected = router.assignment.owner_of(group)
        target = (dst0, dst1)[expected]
        assert len(target.received(router.channels[expected])) == 1

    def test_emit_batch_partitions_by_key_group(self, env):
        sim, _cluster, machines, fabric = env
        edge = make_edge(num_groups=8, parallelism=2)
        router = Router(sim, fabric, edge, FakeInstance("s[0]", 0, machines[0]))
        dst0 = FakeInstance("d[0]", 0, machines[0])
        dst1 = FakeInstance("d[1]", 1, machines[0])
        router.connect(dst0)
        router.connect(dst1)
        records = [Record(f"key-{i}", float(i)) for i in range(32)]
        router.emit_batch(RecordBatch(records))
        delivered = {}
        for index, channel in router.channels.items():
            elements = (dst0, dst1)[index].received(channel)
            for element in elements:
                assert isinstance(element, RecordBatch)
                delivered.setdefault(index, []).extend(element.records)
            # Each consumer gets at most ONE sub-batch per emitted batch.
            assert len(elements) <= 1
        for index, rows in delivered.items():
            for record in rows:
                assert router.assignment.owner_of(key_group_of(record.key, 8)) == index
        assert sum(len(rows) for rows in delivered.values()) == 32

    def test_single_owner_batch_ships_unsplit(self, env):
        sim, _cluster, machines, fabric = env
        edge = make_edge(num_groups=8, parallelism=2)
        router = Router(sim, fabric, edge, FakeInstance("s[0]", 0, machines[0]))
        targets = [FakeInstance(f"d[{i}]", i, machines[0]) for i in range(2)]
        for target in targets:
            router.connect(target)
        group = key_group_of("pinned", 8)
        owner = router.assignment.owner_of(group)
        batch = batch_of(Record("pinned", 0.0), Record("pinned", 1.0))
        router.emit_batch(batch)
        # The original batch object is reused, no re-slicing.
        assert targets[owner].received(router.channels[owner])[0] is batch

    def test_reassign_changes_routing(self, env):
        sim, _cluster, machines, fabric = env
        edge = make_edge(num_groups=8, parallelism=2)
        src = FakeInstance("src[0]", 0, machines[0])
        router = Router(sim, fabric, edge, src)
        dst0 = FakeInstance("dst[0]", 0, machines[0])
        dst1 = FakeInstance("dst[1]", 1, machines[0])
        router.connect(dst0)
        router.connect(dst1)
        router.reassign(0, 8, 1)  # everything to instance 1
        router.emit_batch(batch_of(Record("any-key", 0.0)))
        assert len(dst1.delivered) == 1
        assert dst0.delivered == []

    def test_router_copy_is_private(self, env):
        """Two routers of the same edge rewire independently."""
        sim, _cluster, machines, fabric = env
        edge = make_edge(num_groups=8, parallelism=2)
        router_a = Router(sim, fabric, edge, FakeInstance("a[0]", 0, machines[0]))
        router_b = Router(sim, fabric, edge, FakeInstance("b[0]", 0, machines[0]))
        router_a.reassign(0, 8, 1)
        assert router_a.assignment.owner_of(0) == 1
        assert router_b.assignment.owner_of(0) == 0
        assert edge.assignment.owner_of(0) == 0  # logical truth untouched

    def test_broadcast_reaches_all_channels(self, env):
        sim, _cluster, machines, fabric = env
        edge = make_edge(num_groups=8, parallelism=3)
        router = Router(sim, fabric, edge, FakeInstance("s[0]", 0, machines[0]))
        targets = [FakeInstance(f"d[{i}]", i, machines[0]) for i in range(3)]
        for target in targets:
            router.connect(target)
        router.broadcast(Watermark(5.0))
        for index in range(3):
            assert [e.timestamp for _c, e in targets[index].delivered] == [5.0]

    def test_forward_partitioning_pins_by_index(self, env):
        sim, _cluster, machines, fabric = env
        edge = make_edge(partitioning="forward")
        src = FakeInstance("s[1]", 1, machines[0])
        router = Router(sim, fabric, edge, src)
        dst0 = FakeInstance("d[0]", 0, machines[0])
        dst1 = FakeInstance("d[1]", 1, machines[0])
        router.connect(dst0)
        router.connect(dst1)
        batch = batch_of(Record("k", 0.0))
        router.emit_batch(batch)
        assert dst0.delivered == []  # 1 % 2 == 1
        assert dst1.delivered == [(router.channels[1], batch)]  # shipped unsplit

    def test_connect_capacity_is_batch_denominated(self, env):
        sim, _cluster, machines, fabric = env
        edge = make_edge(partitioning="forward")
        router = Router(sim, fabric, edge, FakeInstance("s[0]", 0, machines[0]))
        dst = FakeInstance("d[0]", 0, machines[0])
        channel = router.connect(dst, capacity_batches=5)
        router.emit_batch(batch_of(Record("k", 0.0)))
        assert channel.capacity_batches == 5
        assert len(dst.delivered) == 1

    def test_default_capacity_is_batch_denominated(self, env):
        sim, _cluster, machines, _fabric = env
        src = FakeInstance("s[0]", 0, machines[0])
        dst = FakeInstance("d[0]", 0, machines[0])
        channel = Channel(sim, "c", src, dst)
        assert channel.capacity_batches == DEFAULT_CAPACITY_BATCHES

    def test_removed_capacity_spellings_are_type_errors(self, env):
        sim, _cluster, machines, fabric = env
        src = FakeInstance("s[0]", 0, machines[0])
        dst = FakeInstance("d[0]", 0, machines[0])
        router = Router(sim, fabric, make_edge(partitioning="forward"), src)
        with pytest.raises(TypeError):
            Channel(sim, "c", src, dst, capacity=7)
        with pytest.raises(TypeError):
            Channel(sim, "c", src, dst, 0, 9)
        with pytest.raises(TypeError):
            router.connect(dst, capacity=11)
        with pytest.raises(TypeError):
            router.connect(dst, 11)
