"""Unit tests for the mini distributed file system."""

import pytest

from repro.common.errors import StorageError
from repro.sim import Simulator
from repro.cluster import Cluster
from repro.storage.dfs import DistributedFileSystem


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def setup(sim):
    cluster = Cluster(sim)
    machines = cluster.add_machines(
        4,
        prefix="dn",
        nic_bandwidth=100.0,
        disks=1,
        disk_read_bandwidth=100.0,
        disk_write_bandwidth=100.0,
        disk_capacity=1_000_000,
        network_latency=0.0,
    )
    dfs = DistributedFileSystem(
        sim, cluster, machines, block_size=100, replication=2, seed=7
    )
    return cluster, machines, dfs


class TestWrite:
    def test_write_creates_file_with_blocks(self, sim, setup):
        _cluster, machines, dfs = setup
        write = dfs.write("/ckpt/1", 250, machines[0])
        sim.run(until=write)
        meta = dfs.namenode.lookup("/ckpt/1")
        assert [b.size for b in meta.blocks] == [100, 100, 50]
        assert meta.size == 250

    def test_first_replica_is_local_to_writer(self, sim, setup):
        _cluster, machines, dfs = setup
        write = dfs.write("/f", 300, machines[1])
        sim.run(until=write)
        meta = dfs.namenode.lookup("/f")
        for block in meta.blocks:
            assert block.replicas[0] is machines[1]

    def test_replication_factor_respected(self, sim, setup):
        _cluster, machines, dfs = setup
        write = dfs.write("/f", 100, machines[0])
        sim.run(until=write)
        block = dfs.namenode.lookup("/f").blocks[0]
        assert len(block.replicas) == 2
        assert len(set(m.name for m in block.replicas)) == 2

    def test_write_charges_disk_space_on_replicas(self, sim, setup):
        _cluster, machines, dfs = setup
        write = dfs.write("/f", 200, machines[0])
        sim.run(until=write)
        assert sum(d.used for m in machines for d in m.disks) == 400  # 2 replicas

    def test_write_takes_disk_and_network_time(self, sim, setup):
        _cluster, machines, dfs = setup
        write = dfs.write("/f", 100, machines[0], parallelism=1)
        sim.run(until=write)
        # local disk write (1 s) + network to remote (1 s) + remote disk (1 s)
        assert sim.now == pytest.approx(3.0, rel=0.01)


class TestRead:
    def write_file(self, sim, dfs, machines, path="/f", size=200):
        write = dfs.write(path, size, machines[0])
        sim.run(until=write)

    def test_local_read_has_no_network_cost(self, sim, setup):
        cluster, machines, dfs = setup
        self.write_file(sim, dfs, machines)
        start = sim.now
        net_before = sum(
            cluster.scheduler.port_bytes.get(m.nic_in, 0.0) for m in machines
        )
        read = dfs.read("/f", machines[0])
        sim.run(until=read)
        net_after = sum(
            cluster.scheduler.port_bytes.get(m.nic_in, 0.0) for m in machines
        )
        assert net_after == net_before  # all blocks local to writer
        assert sim.now > start  # but disk reads took time

    def test_remote_read_crosses_network(self, sim, setup):
        cluster, machines, dfs = setup
        self.write_file(sim, dfs, machines)
        # Pick a machine that holds no replica of the file.
        meta = dfs.namenode.lookup("/f")
        holders = {m.name for b in meta.blocks for m in b.replicas}
        outsider = next(m for m in machines if m.name not in holders)
        read = dfs.read("/f", outsider)
        sim.run(until=read)
        ingress = cluster.scheduler.port_bytes.get(outsider.nic_in, 0.0)
        assert ingress == pytest.approx(200.0)

    def test_read_returns_size(self, sim, setup):
        _cluster, machines, dfs = setup
        self.write_file(sim, dfs, machines, size=250)
        read = dfs.read("/f", machines[0])
        value = sim.run(until=read)
        assert value == 250

    def test_read_missing_file_raises(self, sim, setup):
        _cluster, machines, dfs = setup
        with pytest.raises(StorageError):
            dfs.namenode.lookup("/missing")

    def test_read_falls_back_to_surviving_replica(self, sim, setup):
        cluster, machines, dfs = setup
        self.write_file(sim, dfs, machines)
        cluster.kill(machines[0])  # writer held the first replica of each block
        reader = next(m for m in machines if m.alive)
        read = dfs.read("/f", reader)
        value = sim.run(until=read)
        assert value == 200

    def test_read_fails_if_all_replicas_lost(self, sim, setup):
        cluster, machines, dfs = setup
        self.write_file(sim, dfs, machines, size=100)
        block = dfs.namenode.lookup("/f").blocks[0]
        for machine in block.replicas:
            cluster.kill(machine)
        reader = next(m for m in machines if m.alive)
        read = dfs.read("/f", reader)
        read.defused = True
        sim.run()
        assert not read.ok


class TestMetadata:
    def test_delete_frees_replica_space(self, sim, setup):
        _cluster, machines, dfs = setup
        write = dfs.write("/f", 200, machines[0])
        sim.run(until=write)
        freed = dfs.delete("/f")
        assert freed == 200
        assert sum(d.used for m in machines for d in m.disks) == 0
        assert not dfs.exists("/f")

    def test_delete_missing_is_noop(self, setup):
        _cluster, _machines, dfs = setup
        assert dfs.delete("/missing") == 0

    def test_local_bytes(self, sim, setup):
        _cluster, machines, dfs = setup
        write = dfs.write("/f", 300, machines[2])
        sim.run(until=write)
        # The writer holds the first replica of every block.
        blocks = dfs.namenode.lookup("/f").blocks
        assert sum(b.size for b in blocks if machines[2] in b.alive_replicas()) == 300

    def test_zero_byte_file(self, sim, setup):
        _cluster, machines, dfs = setup
        write = dfs.write("/empty", 0, machines[0])
        sim.run(until=write)
        assert dfs.file_size("/empty") == 0
