"""End-to-end tests of Rhino's protocols on the engine.

These are the protocol-correctness tests of the reproduction: exactly-once
counting across rebalances, rescales, and machine failures, plus the
proactive-replication invariants.
"""

import pytest

from repro.engine.graph import StreamGraph
from repro.engine.job import JobConfig
from repro.engine.operators import StatefulCounterLogic
from repro.baselines.rhinodfs import make_rhinodfs
from repro.core import restore
from repro.core.api import Rhino, RhinoConfig
from repro.engine.checkpointing import DFSCheckpointStorage

from tests.engine_fixtures import EngineEnv, live_feeder, make_dfs

KEYS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]


def counter_graph(source_parallelism=2, counter_parallelism=4):
    graph = StreamGraph("counter")
    graph.source("src", topic="events", parallelism=source_parallelism)
    graph.operator(
        "count",
        StatefulCounterLogic,
        counter_parallelism,
        inputs=[("src", "hash")],
        stateful=True,
        measure_latency=True,
    )
    graph.sink("out", inputs=[("count", "forward")])
    return graph


def make_env(machines=4):
    env = EngineEnv(machines=machines)
    env.topic("events", 2)
    return env


def job_config(checkpoint_interval=1.0):
    return JobConfig(
        num_key_groups=32,
        virtual_node_count=4,
        checkpoint_interval=checkpoint_interval,
        exchange_interval=0.05,
        watermark_interval=0.1,
        source_idle_timeout=0.05,
    )


def make_job(env, checkpoint_interval=1.0, graph=None):
    return env.job(graph or counter_graph(), config=job_config(checkpoint_interval))


def make_rhino(env, job, **overrides):
    defaults = dict(
        replication_factor=1,
        scheduling_delay=0.1,
        local_fetch_seconds=0.01,
        state_load_seconds=0.05,
    )
    defaults.update(overrides)
    return Rhino(job, env.cluster, RhinoConfig(**defaults)).attach()


def final_counts(job):
    finals = {}
    for key, _t, value, _w in job.sink_results("out"):
        finals[key] = max(finals.get(key, 0), value)
    return finals


def expected_counts(total_records):
    expected = {}
    for i in range(total_records):
        key = KEYS[i % len(KEYS)]
        expected[key] = expected.get(key, 0) + 1
    return expected


class TestProactiveReplication:
    def test_checkpoints_are_replicated_to_chains(self):
        env = make_env()
        job = make_job(env).start()
        rhino = make_rhino(env, job)
        live_feeder(env, "events", KEYS, count=60, interval=0.02)
        env.run(until=5.0)
        assert job.coordinator.has_completed()
        for instance in job.stateful_instances("count"):
            group = rhino.replication_manager.group_of(instance.instance_id)
            for member in group.chain:
                assert rhino.replicator.store_on(member).has_complete(
                    instance.instance_id
                )

    def test_replica_bytes_track_state_bytes(self):
        env = make_env()
        job = make_job(env).start()
        rhino = make_rhino(env, job)
        live_feeder(env, "events", KEYS, count=60, interval=0.02, nbytes=100)
        env.run(until=5.0)
        replicated = sum(
            rhino.replicator.store_on(machine).total_bytes for machine in job.machines
        )
        # r=1: the replicas together hold at least the live state of the
        # last checkpoint (they may briefly hold more before GC).
        assert replicated > 0
        live = sum(i.state.total_bytes for i in job.stateful_instances("count"))
        assert replicated >= live * 0.5

    def test_no_replication_without_checkpoints(self):
        env = make_env()
        job = make_job(env, checkpoint_interval=None).start()
        rhino = make_rhino(env, job)
        live_feeder(env, "events", KEYS, count=30, interval=0.02)
        env.run(until=3.0)
        assert rhino.replicator.stats.checkpoints_replicated == 0


class TestRebalance:
    def test_rebalance_moves_vnodes_and_state(self):
        env = make_env()
        job = make_job(env).start()
        rhino = make_rhino(env, job)
        live_feeder(env, "events", KEYS, count=100, interval=0.02)
        env.run(until=3.0)
        origin = job.instance("count", 0)
        target = job.instance("count", 1)
        origin_groups_before = job.assignments["count"].ranges_of(0).span()
        process = rhino.reconfigure("rebalance", op_name="count", moves=[(0, 1)])
        report = env.sim.run(until=process)
        env.run(until=8.0)
        assert report.total_seconds is not None
        assert job.assignments["count"].ranges_of(0).span() < origin_groups_before
        assert origin.state.owned_ranges() is not None
        # Target now owns the union of its range and the moved vnodes.
        moved = report.moved_state_bytes
        assert moved >= 0
        assert target.state.owned_ranges()

    def test_rebalance_preserves_exactly_once(self):
        env = make_env()
        job = make_job(env).start()
        rhino = make_rhino(env, job)
        live_feeder(env, "events", KEYS, count=200, interval=0.02)

        def trigger():
            yield env.sim.timeout(2.0)
            yield rhino.reconfigure(
                "rebalance", op_name="count", moves=[(0, 1), (2, 3)]
            )

        env.sim.process(trigger())
        env.run(until=12.0)
        assert final_counts(job) == expected_counts(200)

    def test_rebalance_report_contains_breakdown(self):
        env = make_env()
        job = make_job(env).start()
        rhino = make_rhino(env, job)
        live_feeder(env, "events", KEYS, count=60, interval=0.02)
        env.run(until=2.0)
        process = rhino.reconfigure("rebalance", op_name="count", moves=[(0, 1)])
        report = env.sim.run(until=process)
        assert report.scheduling_seconds > 0
        assert report.loading_seconds > 0
        assert rhino.reports == [report]


class TestRescale:
    def test_rescale_adds_owning_instances(self):
        env = make_env()
        job = make_job(env).start()
        rhino = make_rhino(env, job)
        live_feeder(env, "events", KEYS, count=100, interval=0.02)
        env.run(until=2.5)
        process = rhino.reconfigure("rescale", op_name="count", add_instances=2)
        report = env.sim.run(until=process)
        env.run(until=8.0)
        assert report is not None
        assert job.graph.operators["count"].parallelism == 6
        new_a = job.instance("count", 4)
        new_b = job.instance("count", 5)
        assert new_a.state.owned_ranges()
        assert new_b.state.owned_ranges()

    def test_rescale_preserves_exactly_once(self):
        env = make_env()
        job = make_job(env).start()
        rhino = make_rhino(env, job)
        live_feeder(env, "events", KEYS, count=200, interval=0.02)

        def trigger():
            yield env.sim.timeout(2.0)
            yield rhino.reconfigure("rescale", op_name="count", add_instances=2)

        env.sim.process(trigger())
        env.run(until=12.0)
        assert final_counts(job) == expected_counts(200)

    def test_new_instances_process_migrated_keys(self):
        env = make_env()
        job = make_job(env).start()
        rhino = make_rhino(env, job)
        live_feeder(env, "events", KEYS, count=400, interval=0.02)

        def trigger():
            yield env.sim.timeout(2.0)
            yield rhino.reconfigure("rescale", op_name="count", add_instances=2)

        env.sim.process(trigger())
        env.run(until=15.0)
        spawned = [job.instance("count", 4), job.instance("count", 5)]
        assert any(i.records_processed > 0 for i in spawned)


class TestFailureRecovery:
    def run_failure_scenario(self, env, job, rhino, kill_at=3.0, total=240):
        live_feeder(env, "events", KEYS, count=total, interval=0.02)
        victim = job.instance("count", 2).machine

        def chaos():
            yield env.sim.timeout(kill_at)
            env.cluster.kill(victim)
            yield rhino.reconfigure("failure", machine=victim)

        chaos_process = env.sim.process(chaos())
        env.run(until=20.0)
        assert chaos_process.ok, chaos_process
        return victim

    def test_failure_recovery_preserves_counts(self):
        env = make_env()
        job = make_job(env).start()
        rhino = make_rhino(env, job)
        self.run_failure_scenario(env, job, rhino)
        assert final_counts(job) == expected_counts(240)

    def test_recovered_instance_runs_on_replica_worker(self):
        env = make_env()
        job = make_job(env).start()
        rhino = make_rhino(env, job)
        # A copy: the repair then replaces the member the instance moved to.
        chain_before = list(rhino.replication_manager.group_of("count[2]").chain)
        victim = self.run_failure_scenario(env, job, rhino)
        replacement = job.instance("count", 2)
        assert replacement.machine is not victim
        assert replacement.machine in chain_before

    def test_failure_report_shows_local_fetch(self):
        env = make_env()
        job = make_job(env).start()
        rhino = make_rhino(env, job)
        self.run_failure_scenario(env, job, rhino)
        report = rhino.reports[-1]
        assert report.reason == "failure"
        # Rhino fetches the replica locally: no bulk network migration.
        assert report.migrated_bytes == 0
        assert report.fetching_seconds < 1.0

    def test_chains_are_repaired_after_failure(self):
        env = make_env()
        job = make_job(env).start()
        rhino = make_rhino(env, job)
        victim = self.run_failure_scenario(env, job, rhino)
        for group in rhino.replication_manager.groups.values():
            assert victim not in group.chain

    def test_replay_is_filtered_to_migrated_ranges(self):
        env = make_env()
        job = make_job(env).start()
        rhino = make_rhino(env, job)
        self.run_failure_scenario(env, job, rhino)
        # Survivors stopped sampling the replay's latency at the marker...
        survivors = [
            i
            for i in job.stateful_instances("count")
            if i.index != 2 and i.replay_epoch is not None
        ]
        assert survivors
        # ...and the sources dropped replayed records of surviving ranges
        # at ingest (Rhino replays only for the recovered partition).
        sources = job.source_instances()
        assert sum(s.records_dropped for s in sources) > 0

    def test_recovery_without_checkpoint_fails(self):
        env = make_env()
        job = make_job(env, checkpoint_interval=None).start()
        rhino = make_rhino(env, job)
        live_feeder(env, "events", KEYS, count=40, interval=0.02)
        env.run(until=1.0)
        victim = job.instance("count", 2).machine
        env.cluster.kill(victim)
        recovery = rhino.reconfigure("failure", machine=victim)
        recovery.defused = True
        env.run(until=5.0)
        assert not recovery.ok


class TestRestorePoint:
    """A failure recovery replays from the frontier its restored state was
    captured with at the checkpoint's barrier -- the replica holding's
    (Rhino) or the DFS checkpoint's (RhinoDFS) -- never from coordinator
    metadata beside it."""

    def recover(self, monkeypatch, env, job, rhino):
        captured = {}  # (instance_id, checkpoint_id) -> barrier-time frontier
        storage = job.checkpoint_storage
        persist = storage.persist

        def persist_spy(instance, checkpoint):
            key = (instance.instance_id, checkpoint.checkpoint_id)
            captured[key] = checkpoint.frontier
            return persist(instance, checkpoint)

        monkeypatch.setattr(storage, "persist", persist_spy)
        points = []
        publish = restore.publish

        def spy(rhino, execution):
            points.extend(publish(rhino, execution))
            return points

        monkeypatch.setattr(restore, "publish", spy)
        TestFailureRecovery().run_failure_scenario(env, job, rhino)
        assert final_counts(job) == expected_counts(240)
        [(frontier, source)] = points
        # The target took that frontier for its restored ranges and moved
        # it on as it processed the replay.
        restored = job.instance("count", 2)
        for lo, hi, progress in frontier.segments:
            for group in range(lo, hi):
                if restored.state.store.owns(group):
                    taken = restored.progress.progress_of(group)
                    assert taken is not progress
                    assert all(taken[o] >= p for o, p in progress.items())
        return captured, frontier, source

    def test_rhino_restores_the_holdings_barrier_frontier(self, monkeypatch):
        env = make_env()
        job = make_job(env).start()
        rhino = make_rhino(env, job)
        captured, frontier, source = self.recover(monkeypatch, env, job, rhino)
        assert isinstance(source, int)
        assert frontier is captured[("count[2]", source)]

    def test_rhinodfs_restores_the_checkpoints_barrier_frontier(self, monkeypatch):
        env = make_env()
        storage = DFSCheckpointStorage(env.sim, make_dfs(env), prefix="/rhinodfs")
        job = env.job(counter_graph(), config=job_config(), storage=storage).start()
        rhino = make_rhinodfs(
            job,
            env.cluster,
            storage.dfs,
            scheduling_delay=0.1,
            state_load_seconds=0.05,
        )
        captured, frontier, source = self.recover(monkeypatch, env, job, rhino)
        assert isinstance(source, int)
        assert frontier is captured[("count[2]", source)]


class TestDrain:
    def test_drain_moves_all_state_off_machine(self):
        env = make_env()
        job = make_job(env).start()
        rhino = make_rhino(env, job)
        live_feeder(env, "events", KEYS, count=200, interval=0.02)
        env.run(until=3.0)
        victim = job.instance("count", 2).machine
        process = rhino.reconfigure("drain", machine=victim)
        report = env.sim.run(until=process)
        env.run(until=10.0)
        assert report is not None
        for instance in job.stateful_instances("count"):
            if instance.machine is victim:
                ranges = instance.state.owned_ranges()
                assert not ranges or all(lo >= hi for lo, hi in ranges)

    def test_drain_preserves_exactly_once(self):
        env = make_env()
        job = make_job(env).start()
        rhino = make_rhino(env, job)
        live_feeder(env, "events", KEYS, count=200, interval=0.02)

        def trigger():
            yield env.sim.timeout(2.0)
            yield rhino.reconfigure("drain", machine=job.instance("count", 1).machine)

        env.sim.process(trigger())
        env.run(until=12.0)
        assert final_counts(job) == expected_counts(200)

    def test_drain_involves_no_replay(self):
        env = make_env()
        job = make_job(env).start()
        rhino = make_rhino(env, job)
        live_feeder(env, "events", KEYS, count=200, interval=0.02)
        env.run(until=3.0)
        offsets_before = [s.cursor.offset for s in job.source_instances()]
        process = rhino.reconfigure("drain", machine=job.instance("count", 2).machine)
        env.sim.run(until=process)
        offsets_after = [s.cursor.offset for s in job.source_instances()]
        # Sources never rewound: planned drains migrate deltas, not logs.
        assert all(a >= b for a, b in zip(offsets_after, offsets_before))
        assert all(s.records_dropped == 0 for s in job.source_instances())

    def test_drain_of_chained_operators_wires_both_spawned_targets(self):
        """Both spawned targets count into parallelism only at commit, so
        the upstream one (spawned second: ``agg`` sorts before ``pre``) must
        still get its channel to the downstream one spawned just before."""
        env = make_env(machines=3)
        graph = StreamGraph("chained")
        graph.source("src", topic="events", parallelism=2)
        graph.operator(
            "pre", StatefulCounterLogic, 3, inputs=[("src", "hash")], stateful=True
        )
        graph.operator(
            "agg", StatefulCounterLogic, 3, inputs=[("pre", "hash")], stateful=True
        )
        graph.sink("out", inputs=[("agg", "forward")])
        job = make_job(env, graph=graph).start()
        rhino = make_rhino(env, job)
        live_feeder(env, "events", KEYS, count=200, interval=0.02)
        env.run(until=2.0)
        victim = job.instance("pre", 1).machine
        assert job.instance("agg", 1).machine is victim
        env.sim.run(until=rhino.reconfigure("drain", machine=victim))
        assert job.graph.operators["pre"].parallelism == 4
        assert job.graph.operators["agg"].parallelism == 4
        env.run(until=12.0)
        assert final_counts(job) == expected_counts(200)
