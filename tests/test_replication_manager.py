"""Unit tests for replica-group placement (bin packing)."""

import pytest

from repro.common.errors import ProtocolError
from repro.sim import Simulator
from repro.cluster import Cluster
from repro.core.replication_manager import ReplicationManager


@pytest.fixture
def workers():
    sim = Simulator()
    cluster = Cluster(sim)
    return cluster.add_machines(4, prefix="w", nic_bandwidth=1e9)


def make_instances(workers, count):
    return [(f"op[{i}]", workers[i % len(workers)]) for i in range(count)]


class TestPlacement:
    def test_every_instance_gets_a_group(self, workers):
        manager = ReplicationManager(workers, replication_factor=1)
        groups = manager.build_groups(make_instances(workers, 8))
        assert len(groups) == 8

    def test_chain_length_matches_replication_factor(self, workers):
        manager = ReplicationManager(workers, replication_factor=2)
        groups = manager.build_groups(make_instances(workers, 4))
        assert all(len(g.chain) == 2 for g in groups.values())

    def test_chain_excludes_primary_worker(self, workers):
        manager = ReplicationManager(workers, replication_factor=2)
        instances = make_instances(workers, 8)
        groups = manager.build_groups(instances)
        primary = dict(instances)
        for instance_id, group in groups.items():
            assert primary[instance_id] not in group.chain

    def test_chain_members_are_distinct(self, workers):
        manager = ReplicationManager(workers, replication_factor=3)
        groups = manager.build_groups(make_instances(workers, 6))
        for group in groups.values():
            assert len(set(group.chain)) == len(group.chain)

    def test_load_is_balanced_by_bytes(self, workers):
        manager = ReplicationManager(workers, replication_factor=1)
        instances = make_instances(workers, 8)
        sizes = {f"op[{i}]": 100 for i in range(8)}
        manager.build_groups(instances, sizes)
        counts = [
            sum(worker in group.chain for group in manager.groups.values())
            for worker in workers
        ]
        assert max(counts) - min(counts) <= 1

    def test_heavy_instances_spread_first(self, workers):
        manager = ReplicationManager(workers, replication_factor=1)
        instances = make_instances(workers, 4)
        sizes = {"op[0]": 1000, "op[1]": 1000, "op[2]": 10, "op[3]": 10}
        groups = manager.build_groups(instances, sizes)
        # The two heavy groups must land on different workers.
        assert groups["op[0]"].chain[0] is not groups["op[1]"].chain[0]

    def test_insufficient_workers_rejected(self, workers):
        manager = ReplicationManager(workers[:2], replication_factor=2)
        with pytest.raises(ProtocolError):
            manager.build_groups([("op[0]", workers[0])])

    def test_invalid_replication_factor(self, workers):
        with pytest.raises(ProtocolError):
            ReplicationManager(workers, replication_factor=0)


class TestRepair:
    def test_failed_worker_replaced_in_chains(self, workers):
        manager = ReplicationManager(workers, replication_factor=1)
        instances = make_instances(workers, 4)
        manager.build_groups(instances)
        victim = workers[0]
        affected = manager.replicas_on(victim)
        victim.fail()
        repairs = manager.repair_after_failure(victim, dict(instances))
        assert {instance_id for instance_id, _w in repairs} == set(affected)
        for group in manager.groups.values():
            assert victim not in group.chain

    def test_repair_avoids_primary(self, workers):
        manager = ReplicationManager(workers, replication_factor=1)
        instances = make_instances(workers, 4)
        manager.build_groups(instances)
        victim = workers[1]
        victim.fail()
        primaries = dict(instances)
        manager.repair_after_failure(victim, primaries)
        for instance_id, group in manager.groups.items():
            assert primaries[instance_id] not in group.chain

    def test_replicas_on_lookup(self, workers):
        manager = ReplicationManager(workers, replication_factor=2)
        manager.build_groups(make_instances(workers, 4))
        total = sum(len(manager.replicas_on(w)) for w in workers)
        assert total == 8  # 4 instances x 2 replicas
