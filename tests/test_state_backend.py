"""Unit tests for an instance's keyed-state I/O: flush stalls, background
compaction and checkpoint flushes, charged to its machine's disks."""

import pytest

from repro.sim import Simulator
from repro.cluster import Cluster
from tests.engine_fixtures import stateful_instance


@pytest.fixture
def env():
    sim = Simulator()
    cluster = Cluster(sim)
    machine = cluster.add_machine(
        "m0",
        cores=4,
        nic_bandwidth=1e9,
        disks=1,
        disk_read_bandwidth=100.0,
        disk_write_bandwidth=100.0,
        disk_capacity=10**9,
    )
    return sim, machine


def make_instance(sim, machine, memtable_limit=100, compaction_trigger=3):
    return stateful_instance(
        sim,
        machine,
        owned_ranges=[(0, 8)],
        memtable_limit=memtable_limit,
        compaction_trigger=compaction_trigger,
    )


class TestMaintenance:
    def test_flush_charges_disk_time(self, env):
        sim, machine = env
        instance = make_instance(sim, machine)
        instance.state.put(0, "k", "v", nbytes=200)  # over the memtable limit
        assert instance.state.needs_flush
        process = sim.process(instance.maintain_state())
        sim.run(until=process)
        assert sim.now == pytest.approx(2.0)  # 200 B at 100 B/s

    def test_no_flush_below_threshold(self, env):
        sim, machine = env
        instance = make_instance(sim, machine)
        instance.state.put(0, "k", "v", nbytes=10)
        process = sim.process(instance.maintain_state())
        sim.run(until=process)
        assert sim.now == 0.0
        assert instance.state.memtable.size_bytes == 10

    def test_compaction_runs_in_background(self, env):
        """Compaction I/O must not block the maintenance caller."""
        sim, machine = env
        instance = make_instance(sim, machine, memtable_limit=10, compaction_trigger=3)
        for i in range(3):
            instance.state.put(0, f"k{i}", i, nbytes=50)
            flush = sim.process(instance.maintain_state())
            sim.run(until=flush)
        # The third maintenance call flushed (0.5 s each) and kicked the
        # merge off in the background: the calls themselves only paid for
        # the three flushes.
        assert sim.now == pytest.approx(1.5)
        assert instance._compacting
        sim.run()
        assert not instance._compacting
        assert len(instance.state.tables) == 1

    def test_single_compaction_at_a_time(self, env):
        sim, machine = env
        instance = make_instance(sim, machine, memtable_limit=10, compaction_trigger=2)
        for i in range(4):
            instance.state.put(0, f"k{i}", i, nbytes=50)
            process = sim.process(instance.maintain_state())
            sim.run(until=process)
        # Multiple triggers while compacting must not stack processes: the
        # second put's merge is still writing when the last two flushes
        # land, so they stay unmerged beside its output.
        first = sim.process(instance.maintain_state())
        second = sim.process(instance.maintain_state())
        sim.run()
        assert len(instance.state.tables) == 3

    def test_checkpoint_charges_sync_flush(self, env):
        sim, machine = env
        instance = make_instance(sim, machine)
        instance.state.put(0, "k", "v", nbytes=300)

        def run():
            checkpoint = yield from instance.snapshot_state(1)
            return checkpoint

        process = sim.process(run())
        checkpoint = sim.run(until=process)
        assert sim.now == pytest.approx(3.0)  # synchronous 300 B write
        assert checkpoint.delta_bytes == 300
        # Stamped with the replay frontier of the instance's one range.
        assert [(lo, hi) for lo, hi, _ in checkpoint.frontier.segments] == [(0, 8)]
