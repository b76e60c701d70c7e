"""Unit tests for the durable partitioned log."""

import pytest

from repro.common.errors import StorageError
from repro.sim import Simulator
from repro.sim.flows import FlowScheduler, Port
from repro.storage.log import DurableLog


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def log(sim):
    log = DurableLog(sim, scheduler=FlowScheduler(sim))
    log.create_topic("bids", 2)
    return log


class FakeRecord:
    def __init__(self, value, nbytes=0):
        self.value = value
        self.nbytes = nbytes


class TestPartitions:
    def test_append_returns_dense_offsets(self, log):
        partition = log.partition("bids", 0)
        assert partition.append("a") == 0
        assert partition.append("b") == 1
        assert partition.end_offset == 2

    def test_fetch_range(self, log):
        partition = log.partition("bids", 0)
        for value in "abcd":
            partition.append(value)
        assert partition.fetch(1, 2) == ["b", "c"]
        assert partition.fetch(4, 10) == []

    def test_duplicate_topic_rejected(self, log):
        with pytest.raises(StorageError):
            log.create_topic("bids", 1)

    def test_unknown_topic_rejected(self, log):
        with pytest.raises(StorageError):
            log.partition("nope", 0)

    def test_unknown_partition_rejected(self, log):
        with pytest.raises(StorageError):
            log.partition("bids", 9)


class TestCursor:
    def test_poll_blocks_until_append(self, sim, log):
        cursor = log.cursor("bids", 0)
        received = []

        def consumer():
            batch = yield from cursor.poll()
            received.append((batch, sim.now))

        sim.process(consumer())

        def producer():
            yield sim.timeout(5.0)
            log.append("bids", 0, "x")

        sim.process(producer())
        sim.run()
        assert received == [(["x"], 5.0)]

    def test_poll_respects_max_records(self, sim, log):
        for i in range(10):
            log.append("bids", 0, i)
        cursor = log.cursor("bids", 0)

        def consumer():
            batch = yield from cursor.poll(max_records=3)
            return batch

        process = sim.process(consumer())
        sim.run(until=process)
        assert process.value == [0, 1, 2]
        assert cursor.offset == 3

    def test_seek_rewinds_for_replay(self, sim, log):
        for i in range(5):
            log.append("bids", 0, i)
        cursor = log.cursor("bids", 0)

        def consume_all():
            batch = yield from cursor.poll(max_records=10)
            return batch

        process = sim.process(consume_all())
        sim.run(until=process)
        cursor.seek(2)
        process = sim.process(consume_all())
        sim.run(until=process)
        assert process.value == [2, 3, 4]

    def test_seek_beyond_end_rejected(self, log):
        cursor = log.cursor("bids", 0)
        with pytest.raises(StorageError):
            cursor.seek(1)

    def test_lag(self, sim, log):
        for i in range(4):
            log.append("bids", 0, i)
        cursor = log.cursor("bids", 0)
        assert cursor.lag == 4
        cursor.try_poll(max_records=3)
        assert cursor.lag == 1

    def test_try_poll_nonblocking(self, log):
        cursor = log.cursor("bids", 0)
        assert cursor.try_poll() == []

    def test_poll_charges_consumer_nic(self, sim, log):
        class Machine:
            def __init__(self):
                self.nic_in = Port("consumer.nic.in", 100.0)

        machine = Machine()
        log.append("bids", 0, FakeRecord("x", nbytes=200))
        cursor = log.cursor("bids", 0, consumer_machine=machine)

        def consumer():
            batch = yield from cursor.poll()
            return batch

        process = sim.process(consumer())
        sim.run(until=process)
        assert sim.now == pytest.approx(2.0)  # 200 B over 100 B/s

    def test_independent_partitions(self, sim, log):
        log.append("bids", 0, "p0")
        log.append("bids", 1, "p1")
        cursor0 = log.cursor("bids", 0)
        cursor1 = log.cursor("bids", 1)
        assert cursor0.try_poll() == ["p0"]
        assert cursor1.try_poll() == ["p1"]

    def test_end_offsets(self, log):
        log.append("bids", 0, "a")
        log.append("bids", 0, "b")
        log.append("bids", 1, "c")
        assert [p.end_offset for p in log.topics["bids"]] == [2, 1]
