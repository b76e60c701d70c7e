"""Failure-injection tests: deaths at awkward protocol moments."""

import pytest

from repro.common.errors import ProtocolError
from repro.engine.graph import StreamGraph
from repro.engine.job import JobConfig
from repro.engine.operators import StatefulCounterLogic
from repro.core.api import Rhino, RhinoConfig
from repro.faults.invariants import InvariantViolation, check_replication_restored

from tests.engine_fixtures import EngineEnv, live_feeder

KEYS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]


def counter_graph():
    graph = StreamGraph("counter")
    graph.source("src", topic="events", parallelism=2)
    graph.operator(
        "count",
        StatefulCounterLogic,
        4,
        inputs=[("src", "hash")],
        stateful=True,
    )
    graph.sink("out", inputs=[("count", "forward")])
    return graph


def setup(machines=5, checkpoint_interval=1.0, replication_factor=1):
    env = EngineEnv(machines=machines)
    env.topic("events", 2)
    config = JobConfig(
        num_key_groups=32,
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
            replication_factor=replication_factor,
            scheduling_delay=0.1,
            local_fetch_seconds=0.01,
            state_load_seconds=0.05,
        ),
    ).attach()
    return env, job, rhino


def final_counts(job):
    finals = {}
    for key, _t, value, _w in job.sink_results("out"):
        finals[key] = max(finals.get(key, 0), value)
    return finals


class TestFailureDuringCheckpoint:
    def test_kill_mid_checkpoint_aborts_it(self):
        env, job, rhino = setup(checkpoint_interval=None)
        live_feeder(env, "events", KEYS, count=100, interval=0.02)
        env.run(until=2.0)
        checkpoint_id = job.coordinator.trigger_checkpoint()
        # Kill immediately, before barriers can align everywhere.
        victim = job.instance("count", 2).machine
        env.cluster.kill(victim)
        env.run(until=6.0)
        assert all(
            r.checkpoint_id != checkpoint_id for r in job.coordinator.completed
        )

    def test_checkpointing_resumes_after_recovery(self):
        env, job, rhino = setup()
        live_feeder(env, "events", KEYS, count=400, interval=0.02)
        env.run(until=3.0)
        victim = job.instance("count", 2).machine
        env.cluster.kill(victim)
        recovery = rhino.reconfigure("failure", machine=victim)
        env.run(until=recovery)
        completed_before = len(job.coordinator.completed)
        env.run(until=env.sim.now + 5.0)
        assert len(job.coordinator.completed) > completed_before


class TestReplicaChainFailure:
    def test_chain_member_death_triggers_repair(self):
        env, job, rhino = setup(machines=6)
        live_feeder(env, "events", KEYS, count=200, interval=0.02)
        env.run(until=3.0)
        # Kill a machine that holds replicas but no instance we care about:
        # pick one from a replica chain that is not a primary of count[0].
        group = rhino.replication_manager.group_of("count[0]")
        victim = group.chain[0]
        env.cluster.kill(victim)
        recovery = rhino.reconfigure("failure", machine=victim)
        recovery.defused = True
        env.run(until=15.0)
        # Chains no longer reference the dead machine.
        for chain_group in rhino.replication_manager.groups.values():
            assert victim not in chain_group.chain

    def test_repaired_replica_holds_full_state(self):
        env, job, rhino = setup(machines=6)
        live_feeder(env, "events", KEYS, count=300, interval=0.02)
        env.run(until=3.0)
        group = rhino.replication_manager.group_of("count[1]")
        victim = group.chain[0]
        env.cluster.kill(victim)
        recovery = rhino.reconfigure("failure", machine=victim)
        recovery.defused = True
        env.run(until=15.0)
        new_group = rhino.replication_manager.group_of("count[1]")
        replacement = new_group.chain[0]
        store = rhino.replicator.store_on(replacement)
        assert store.has_complete("count[1]")


    def test_a_member_behind_its_primary_is_not_restored(self):
        """``replication-restored`` counts a member only at its live
        primary's latest checkpoint: a holding still complete at the one
        before is a base the next delta does not fit."""
        env, job, rhino = setup(checkpoint_interval=None)
        live_feeder(env, "events", KEYS, count=100, interval=0.02)
        env.run(until=2.5)
        job.coordinator.trigger_checkpoint()
        env.run(until=4.0)
        check_replication_restored(rhino)
        primary = job.instance("count", 1)
        member = rhino.replication_manager.group_of(primary.instance_id).chain[0]
        primary.state.checkpoint(99)  # taken, never replicated
        assert rhino.replicator.store_on(member).has_complete(primary.instance_id)
        with pytest.raises(InvariantViolation, match=r"count\[1\]: only 0/1"):
            check_replication_restored(rhino)


class TestDoubleFailure:
    def test_sequential_failures_both_recover(self):
        env, job, rhino = setup(machines=6)
        live_feeder(env, "events", KEYS, count=600, interval=0.02)
        env.run(until=3.0)
        first = job.instance("count", 2).machine
        env.cluster.kill(first)
        env.run(until=rhino.reconfigure("failure", machine=first))
        env.run(until=env.sim.now + 3.0)  # a checkpoint + replication
        second = job.instance("count", 1).machine
        assert second is not first
        env.cluster.kill(second)
        env.run(until=rhino.reconfigure("failure", machine=second))
        env.run(until=25.0)
        expected = {}
        for i in range(600):
            key = KEYS[i % len(KEYS)]
            expected[key] = expected.get(key, 0) + 1
        assert final_counts(job) == expected

    def test_a_recovered_primary_leaves_its_own_chain(self):
        """Recovery moves count[2] onto its replica's machine; the chain
        repair replaces that member, so the machine's death later still
        finds a replica (it used to raise "no alive worker")."""
        env, job, rhino = setup()
        live_feeder(env, "events", KEYS, count=600, interval=0.02)
        env.run(until=3.0)
        first = job.instance("count", 2).machine
        env.cluster.kill(first)
        env.run(until=rhino.reconfigure("failure", machine=first))
        env.run(until=env.sim.now + 3.0)
        second = job.instance("count", 2).machine
        chain = rhino.replication_manager.group_of("count[2]").chain
        assert second not in chain
        check_replication_restored(rhino)
        env.cluster.kill(second)
        env.run(until=rhino.reconfigure("failure", machine=second))
        env.run(until=25.0)
        expected = {}
        for i in range(600):
            key = KEYS[i % len(KEYS)]
            expected[key] = expected.get(key, 0) + 1
        assert final_counts(job) == expected


class TestUnrecoverableSituations:
    def test_recover_unknown_machine_rejected(self):
        env, job, rhino = setup()
        spare = env.cluster.add_machine("outsider", nic_bandwidth=1e9)
        recovery = rhino.reconfigure("failure", machine=spare)
        recovery.defused = True
        env.run(until=2.0)
        assert not recovery.ok

    def test_megaphone_style_no_replica_path_raises(self):
        """Without any completed checkpoint, recovery cannot proceed."""
        env, job, rhino = setup(checkpoint_interval=None)
        live_feeder(env, "events", KEYS, count=50, interval=0.02)
        env.run(until=2.0)
        victim = job.instance("count", 0).machine
        env.cluster.kill(victim)
        recovery = rhino.reconfigure("failure", machine=victim)
        recovery.defused = True
        env.run(until=10.0)
        assert not recovery.ok


class TestReconfigurationAfterRecovery:
    def test_rebalance_onto_replacement_preserves_counts(self):
        """Regression: a replacement's replay filter must not swallow
        records of key groups it adopts in a later rebalance."""
        env, job, rhino = setup(machines=5)
        live_feeder(env, "events", KEYS, count=500, interval=0.02)
        env.run(until=3.0)
        victim = job.instance("count", 3).machine
        env.cluster.kill(victim)
        env.run(until=rhino.reconfigure("failure", machine=victim))
        env.run(until=env.sim.now + 2.0)
        # Move half of count[1]'s virtual nodes onto the replacement.
        rebalance = rhino.reconfigure("rebalance", op_name="count", moves=[(1, 3)])
        env.sim.run(until=rebalance)
        env.run(until=25.0)
        expected = {}
        for i in range(500):
            key = KEYS[i % len(KEYS)]
            expected[key] = expected.get(key, 0) + 1
        assert final_counts(job) == expected

    def test_rescale_after_recovery_preserves_counts(self):
        env, job, rhino = setup(machines=6)
        live_feeder(env, "events", KEYS, count=500, interval=0.02)
        env.run(until=3.0)
        victim = job.instance("count", 2).machine
        env.cluster.kill(victim)
        env.run(until=rhino.reconfigure("failure", machine=victim))
        env.run(until=env.sim.now + 2.0)
        env.sim.run(
            until=rhino.reconfigure("rescale", op_name="count", add_instances=2)
        )
        env.run(until=25.0)
        expected = {}
        for i in range(500):
            key = KEYS[i % len(KEYS)]
            expected[key] = expected.get(key, 0) + 1
        assert final_counts(job) == expected
