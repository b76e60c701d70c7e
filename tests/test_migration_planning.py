"""Unit tests for handover plan construction and the cold-target path."""

import pytest

from repro.common.errors import ProtocolError
from repro.core import migration
from repro.core.api import Rhino, RhinoConfig
from repro.engine.graph import StreamGraph
from repro.engine.job import JobConfig
from repro.engine.operators import StatefulCounterLogic

from tests.engine_fixtures import EngineEnv, live_feeder

KEYS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]


def counter_graph(parallelism=4):
    graph = StreamGraph("counter")
    graph.source("src", topic="events", parallelism=2)
    graph.operator(
        "count",
        StatefulCounterLogic,
        parallelism,
        inputs=[("src", "hash")],
        stateful=True,
    )
    graph.sink("out", inputs=[("count", "forward")])
    return graph


def setup(machines=4, checkpoint_interval=1.0):
    env = EngineEnv(machines=machines)
    env.topic("events", 2)
    config = JobConfig(
        num_key_groups=32,
        virtual_node_count=4,
        checkpoint_interval=checkpoint_interval,
        exchange_interval=0.05,
        watermark_interval=0.1,
        source_idle_timeout=0.05,
    )
    job = env.job(counter_graph(), config=config).start()
    rhino = Rhino(
        job,
        env.cluster,
        RhinoConfig(
            scheduling_delay=0.1, local_fetch_seconds=0.01, state_load_seconds=0.05
        ),
    ).attach()
    return env, job, rhino


class TestPlanBuilders:
    def test_plan_rejects_empty_vnodes(self):
        with pytest.raises(ProtocolError):
            migration.HandoverPlan("op", 0, 1, [], migration.REBALANCE)

    def test_rebalance_plan_moves_half_by_default(self):
        env, job, rhino = setup()
        plan = migration.plan_rebalance(job, rhino, "count", 0, 1)
        assert plan.reason == migration.REBALANCE
        assert plan.moved_groups == 4  # half of the 8 groups of instance 0
        assert not plan.spawn_target

    def test_rebalance_plan_custom_node_count(self):
        env, job, rhino = setup()
        plan = migration.plan_rebalance(job, rhino, "count", 0, 1, node_count=1)
        assert len(plan.vnodes) == 1
        assert plan.moved_groups == 2  # one virtual node = 8/4 groups

    def test_rescale_plan_spawns_target(self):
        env, job, rhino = setup()
        plan = migration.plan_rescale(
            job, rhino, "count", 0, 4, env.machines[0], share=0.5
        )
        assert plan.spawn_target
        assert plan.target_index == 4
        assert plan.moved_groups == 4

    def test_failure_plan_targets_replica_worker(self):
        env, job, rhino = setup()
        live_feeder(env, "events", KEYS, count=60, interval=0.02)
        env.run(until=3.0)
        plan = migration.plan_failure_recovery(job, rhino, "count", 2)
        group = rhino.replication_manager.group_of("count[2]")
        assert plan.target_machine in group.chain
        assert plan.replace_origin
        assert plan.moved_groups == 8  # the whole instance

    def test_failure_plan_requires_alive_replica(self):
        env, job, rhino = setup()
        live_feeder(env, "events", KEYS, count=60, interval=0.02)
        env.run(until=3.0)
        group = rhino.replication_manager.group_of("count[2]")
        for machine in group.chain:
            machine.alive = False
        with pytest.raises(ProtocolError):
            migration.plan_failure_recovery(job, rhino, "count", 2)


class TestHorizontalScaling:
    def test_scale_to_cold_worker_bulk_copies(self):
        """A target machine without a replica gets a full bulk copy."""
        env, job, rhino = setup(machines=4)
        cold = env.cluster.add_machine(
            "cold-worker",
            cores=8,
            memory=4 * 1024**3,
            nic_bandwidth=1e9,
            disks=2,
            disk_read_bandwidth=400e6,
            disk_write_bandwidth=280e6,
            disk_capacity=512 * 1024**3,
        )
        live_feeder(env, "events", KEYS, count=200, interval=0.02, nbytes=200)
        env.run(until=3.0)
        process = rhino.reconfigure(
            "rescale", op_name="count", add_instances=1, machines=[cold]
        )
        report = env.sim.run(until=process)
        env.run(until=10.0)
        new_instance = job.instance("count", 4)
        # The plan picked a replica-group machine if one existed; force the
        # cold-path assertion only if the new instance is on the cold box.
        assert report is not None
        assert job.graph.operators["count"].parallelism == 5
        assert new_instance.state.owned_ranges()

    def test_cold_target_migration_transfers_full_bytes(self):
        env, job, rhino = setup(machines=4)
        live_feeder(env, "events", KEYS, count=200, interval=0.02, nbytes=500)
        env.run(until=3.0)
        origin = job.instance("count", 0)
        # A machine outside origin's replica group, hosting nothing.
        group = rhino.replication_manager.group_of("count[0]")
        outsider = next(
            m
            for m in env.machines
            if m is not origin.machine and m not in group.chain
        )
        plan = migration.HandoverPlan(
            "count",
            0,
            4,
            list(job.assignments["count"].ranges_of(0)),
            migration.RESCALE,
            target_machine=outsider,
            spawn_target=True,
        )
        process = rhino.handover_manager.execute([plan])
        report = env.sim.run(until=process)
        # Full state moved, not just the delta.
        assert report.migrated_bytes > 0
        new_instance = job.instance("count", 4)
        assert new_instance.machine is outsider
