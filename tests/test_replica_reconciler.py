"""The one replica reconciler (``Rhino._reconcile``).

Chains change only when a member is lost, so a rescale or a drain leaves
every existing holding where its chain expects it.  One pass forgets the
holdings that left their chain and starts, all at once, a copy for every
chain member that lacks its primary's state -- never before the primary's
first checkpoint, which replicates that state anyway.
"""

from collections import Counter

from repro.core.api import Rhino, RhinoConfig
from repro.core.replication import ChainReplicator
from repro.engine.job import JobConfig
from repro.faults.invariants import check_replication_restored

from tests.engine_fixtures import EngineEnv, live_feeder
from tests.test_failure_injection import KEYS, counter_graph, final_counts


def setup(
    machines=5,
    replication_factor=1,
    checkpoint_interval=1.0,
):
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


def expected_counts(count):
    expected = Counter()
    for i in range(count):
        expected[KEYS[i % len(KEYS)]] += 1
    return dict(expected)


def record_copies(monkeypatch, sim):
    """(sim time, instance id, member name) of every repair copy started."""
    started = []
    bulk_copy = ChainReplicator.bulk_copy

    def spy(self, primary, target):
        started.append((sim.now, primary.instance_id, target.name))
        return bulk_copy(self, primary, target)

    monkeypatch.setattr(ChainReplicator, "bulk_copy", spy)
    return started


class TestStableChains:
    def test_rescale_then_origin_failure_keeps_exactly_once(self):
        """RF 1: a rescale must not move the origin's chain, or its only
        replica is a member that never received a copy and the origin's
        failure is unrecoverable."""
        env, job, rhino = setup()
        live_feeder(env, "events", KEYS, count=400, interval=0.02)
        env.run(until=3.0)
        before = job.assignments["count"].group_counts()
        chains = {
            instance_id: list(group.chain)
            for instance_id, group in rhino.replication_manager.groups.items()
        }
        env.run(until=rhino.reconfigure("rescale", op_name="count", add_instances=2))
        after = job.assignments["count"].group_counts()
        origins = sorted(i for i in before if after[i] < before[i])
        assert origins
        for instance_id, chain in chains.items():
            assert rhino.replication_manager.group_of(instance_id).chain == chain
        env.run(until=env.sim.now + 2.0)  # the new instances' first checkpoint
        victim = job.instance("count", origins[-1]).machine
        env.cluster.kill(victim)
        recovery = rhino.reconfigure("failure", machine=victim)
        assert env.sim.run(until=recovery) is not None
        env.run(until=30.0)
        assert final_counts(job) == expected_counts(400)
        check_replication_restored(rhino)

    def test_a_drained_machine_that_fails_recovers(self):
        """A drained origin owns no key group: it has nothing to restore,
        and planning it must neither fail nor leave checkpointing
        suspended; the machine's source is replaced and resumes."""
        env, job, rhino = setup()
        live_feeder(env, "events", KEYS, count=400, interval=0.02)
        env.run(until=3.0)
        victim = job.instance("count", 1).machine
        env.run(until=rhino.reconfigure("drain", machine=victim))
        env.run(until=env.sim.now + 2.0)
        assert any(i.machine is victim for i in job.source_instances())
        env.cluster.kill(victim)
        recovery = rhino.reconfigure("failure", machine=victim)
        assert env.sim.run(until=recovery) is None  # nothing was handed over
        completed = len(job.coordinator.completed)
        env.run(until=30.0)
        assert len(job.coordinator.completed) > completed
        assert final_counts(job) == expected_counts(400)
        check_replication_restored(rhino)


class TestOnePass:
    def test_an_off_chain_holding_is_dropped_and_the_next_handover_precopies(
        self,
    ):
        """A rebalance leaves the origin's state on the target's machine,
        outside the origin's chain.  The next pass forgets it, so a later
        handover onto that machine pre-copies instead of reading a stale
        holding as warm."""
        env, job, rhino = setup()
        live_feeder(env, "events", KEYS, count=500, interval=0.02)
        env.run(until=3.0)
        origin, target = job.instance("count", 1), job.instance("count", 2)
        group = rhino.replication_manager.group_of(origin.instance_id)
        assert target.machine not in group.chain
        replica = rhino.replicator.store_on(target.machine)
        moves = [(1, 2)]
        first = env.sim.run(
            until=rhino.reconfigure("rebalance", op_name="count", moves=moves)
        )
        assert first.precopy
        assert replica.has_complete(origin.instance_id)
        env.run(until=env.sim.now + 1.5)
        assert origin.instance_id not in replica.holdings
        second = env.sim.run(
            until=rhino.reconfigure("rebalance", op_name="count", moves=moves)
        )
        assert second.precopy  # cold again: the pre-copy ran
        env.run(until=25.0)
        assert final_counts(job) == expected_counts(500)

    def test_one_pass_starts_every_copy_at_once(self, monkeypatch):
        """A wiped member of several chains gets all its copies from one
        pass at one instant, not one copy after another."""
        env, job, rhino = setup(replication_factor=3)
        live_feeder(env, "events", KEYS, count=300, interval=0.02)
        env.run(until=3.0)
        spare = next(
            m for m in job.machines
            if not any(i.machine is m for i in job.all_instances())
        )
        held = rhino.replication_manager.replicas_on(spare)
        assert len(held) >= 2
        started = record_copies(monkeypatch, env.sim)
        env.cluster.kill(spare)
        env.run(until=3.5)
        env.cluster.restart(spare, wipe_disks=True)
        env.run(until=3.6)
        assert sorted(instance for _t, instance, _m in started) == sorted(held)
        assert {t for t, _i, _m in started} == {3.5}
        env.run(until=10.0)
        check_replication_restored(rhino)

    def test_a_holding_with_a_hole_heals_at_the_next_checkpoint(self):
        """A replica that lost a table (a gray failure no event reports)
        is complete again before the next checkpoint but one: every
        completed checkpoint runs a pass.  Without one, RF 1 leaves the
        primary unrecoverable until compaction happens to rewrite the
        table away."""
        env, job, rhino = setup()
        live_feeder(env, "events", KEYS, count=500, interval=0.02)
        env.run(until=3.05)
        primary = job.instance("count", 0)
        member = rhino.replication_manager.group_of(primary.instance_id).chain[0]
        replica = rhino.replicator.store_on(member)
        holding = replica.holdings[primary.instance_id]
        del holding.tables[holding.manifest.table_ids[0]]
        assert not replica.has_complete(primary.instance_id)
        # Whether the holding is complete as each checkpoint completes,
        # read before that checkpoint's own pass runs.
        seen = []
        job.coordinator.checkpoint_listeners.insert(
            0,
            lambda checkpoint: seen.append(
                (checkpoint.checkpoint_id, replica.has_complete(primary.instance_id))
            ),
        )
        env.run(until=4.5)
        assert seen == [(3, False), (4, True)]
        env.cluster.kill(primary.machine)
        recovery = rhino.reconfigure("failure", machine=primary.machine)
        assert env.sim.run(until=recovery) is not None
        env.run(until=25.0)
        assert final_counts(job) == expected_counts(500)

    def test_no_copy_starts_before_the_first_checkpoint(self, monkeypatch):
        """Before a primary's first checkpoint there is nothing a copy
        would not ship again when that checkpoint replicates."""
        env, job, rhino = setup(checkpoint_interval=None)
        started = record_copies(monkeypatch, env.sim)
        live_feeder(env, "events", KEYS, count=100, interval=0.02)
        env.run(until=3.0)
        assert started == []
        job.coordinator.trigger_checkpoint()
        env.run(until=5.0)
        check_replication_restored(rhino)
        assert started == []
