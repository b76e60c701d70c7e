"""End-to-end tests of the Flink, RhinoDFS, and Megaphone baselines."""

import pytest

from repro.common.errors import ProtocolError
from repro.engine.graph import StreamGraph
from repro.engine.job import Job, JobConfig
from repro.engine.operators import StatefulCounterLogic
from repro.baselines import FlinkRuntime, FlinkConfig, Megaphone, MegaphoneConfig
from repro.baselines.rhinodfs import make_rhinodfs
from repro.engine.checkpointing import DFSCheckpointStorage

from tests.engine_fixtures import EngineEnv, live_feeder, make_dfs

KEYS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]


def counter_graph_factory(source_parallelism=2, counter_parallelism=4):
    def factory():
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

    return factory


def job_config(checkpoint_interval=1.0):
    return JobConfig(
        num_key_groups=32,
        checkpoint_interval=checkpoint_interval,
        exchange_interval=0.05,
        watermark_interval=0.1,
        source_idle_timeout=0.05,
    )


def expected_counts(total_records):
    expected = {}
    for i in range(total_records):
        key = KEYS[i % len(KEYS)]
        expected[key] = expected.get(key, 0) + 1
    return expected


def final_counts(results):
    finals = {}
    for key, _t, value, _w in results:
        finals[key] = max(finals.get(key, 0), value)
    return finals


class TestFlinkBaseline:
    def make_runtime(self, env, dfs):
        return FlinkRuntime(
            env.sim,
            env.cluster,
            counter_graph_factory(),
            env.log,
            env.machines,
            job_config(),
            dfs,
            config=FlinkConfig(restart_delay=0.5, state_load_seconds=0.1),
        ).start()

    def test_checkpoints_upload_to_dfs(self):
        env = EngineEnv(machines=4)
        env.topic("events", 2)
        dfs = make_dfs(env)
        runtime = self.make_runtime(env, dfs)
        live_feeder(env, "events", KEYS, count=60, interval=0.02, nbytes=100)
        env.run(until=4.0)
        assert runtime.storage.uploaded_bytes > 0
        assert dfs.namenode.paths()

    def test_failure_recovery_preserves_counts(self):
        env = EngineEnv(machines=4)
        env.topic("events", 2)
        dfs = make_dfs(env)
        runtime = self.make_runtime(env, dfs)
        live_feeder(env, "events", KEYS, count=240, interval=0.02)
        victim = runtime.job.instance("count", 2).machine

        def chaos():
            yield env.sim.timeout(3.0)
            env.cluster.kill(victim)
            yield runtime.recover_from_failure(victim)

        chaos_process = env.sim.process(chaos())
        env.run(until=25.0)
        assert chaos_process.ok
        assert final_counts(runtime.sink_results("out")) == expected_counts(240)

    def test_recovery_report_breakdown(self):
        env = EngineEnv(machines=4)
        env.topic("events", 2)
        dfs = make_dfs(env)
        runtime = self.make_runtime(env, dfs)
        live_feeder(env, "events", KEYS, count=120, interval=0.02, nbytes=500)
        victim = runtime.job.instance("count", 2).machine

        def chaos():
            yield env.sim.timeout(3.0)
            env.cluster.kill(victim)
            yield runtime.recover_from_failure(victim)

        env.sim.process(chaos())
        env.run(until=25.0)
        report = runtime.reports[-1]
        assert report.reason == "failure"
        assert report.scheduling_seconds >= 0.5
        assert report.fetched_bytes > 0
        assert report.total_seconds > 0.5

    def test_new_job_avoids_dead_machine(self):
        env = EngineEnv(machines=4)
        env.topic("events", 2)
        dfs = make_dfs(env)
        runtime = self.make_runtime(env, dfs)
        live_feeder(env, "events", KEYS, count=120, interval=0.02)
        victim = runtime.job.instance("count", 2).machine

        def chaos():
            yield env.sim.timeout(3.0)
            env.cluster.kill(victim)
            yield runtime.recover_from_failure(victim)

        env.sim.process(chaos())
        env.run(until=25.0)
        for instance in runtime.job.all_instances():
            assert instance.machine is not victim

    def test_rescale_preserves_counts(self):
        env = EngineEnv(machines=4)
        env.topic("events", 2)
        dfs = make_dfs(env)
        runtime = self.make_runtime(env, dfs)
        live_feeder(env, "events", KEYS, count=240, interval=0.02)

        def trigger():
            yield env.sim.timeout(3.0)
            yield runtime.rescale("count", 6)

        trigger_process = env.sim.process(trigger())
        env.run(until=25.0)
        assert trigger_process.ok
        assert runtime.job.graph.operators["count"].parallelism == 6
        assert final_counts(runtime.sink_results("out")) == expected_counts(240)

    def test_restart_without_checkpoint_rejected(self):
        env = EngineEnv(machines=4)
        env.topic("events", 2)
        dfs = make_dfs(env)
        runtime = FlinkRuntime(
            env.sim,
            env.cluster,
            counter_graph_factory(),
            env.log,
            env.machines,
            job_config(checkpoint_interval=None),
            dfs,
        ).start()
        recovery = runtime.recover_from_failure(env.machines[2])
        recovery.defused = True
        env.run(until=2.0)
        assert not recovery.ok


class TestRhinoDFS:
    def test_failure_recovery_fetches_from_dfs(self):
        env = EngineEnv(machines=4)
        env.topic("events", 2)
        dfs = make_dfs(env)
        storage = DFSCheckpointStorage(env.sim, dfs, prefix="/rhinodfs")
        graph = counter_graph_factory()()
        job = Job(
            env.sim,
            env.cluster,
            graph,
            env.log,
            env.machines,
            config=job_config(),
            checkpoint_storage=storage,
        ).start()
        rhino = make_rhinodfs(
            job,
            env.cluster,
            dfs,
            scheduling_delay=0.1,
            state_load_seconds=0.05,
        )
        live_feeder(env, "events", KEYS, count=240, interval=0.02, nbytes=200)
        victim = job.instance("count", 2).machine

        def chaos():
            yield env.sim.timeout(3.0)
            env.cluster.kill(victim)
            yield rhino.reconfigure("failure", machine=victim)

        chaos_process = env.sim.process(chaos())
        env.run(until=25.0)
        assert chaos_process.ok
        report = rhino.reports[-1]
        # RhinoDFS pulls state through the DFS: real bytes move.
        assert report.migrated_bytes > 0
        assert final_counts(job.sink_results("out")) == expected_counts(240)

    def test_make_rhinodfs_installs_dfs_storage(self):
        """``make_rhinodfs`` on a locally checkpointing job installs DFS
        files as its checkpoint storage: checkpoints upload, and nothing
        replicates along a chain."""
        env = EngineEnv(machines=4)
        env.topic("events", 2)
        dfs = make_dfs(env)
        job = env.job(counter_graph_factory()(), config=job_config()).start()
        rhino = make_rhinodfs(job, env.cluster, dfs)
        assert isinstance(job.checkpoint_storage, DFSCheckpointStorage)
        live_feeder(env, "events", KEYS, count=40, interval=0.02, nbytes=200)
        env.run(until=3.0)
        assert job.coordinator.completed
        assert job.checkpoint_storage.uploaded_bytes > 0
        assert rhino.replicator.stats.checkpoints_replicated == 0


class TestMegaphone:
    def make_setup(self, memory=4 * 1024**3, machines=4):
        env = EngineEnv(machines=machines, memory=memory)
        env.topic("events", 2)
        job = env.job(counter_graph_factory()(), config=job_config(None))
        job.start()
        megaphone = Megaphone(job, env.cluster).attach(
            monitor_interval=0.2
        )
        return env, job, megaphone

    def test_memory_accounting_tracks_state(self):
        env, job, megaphone = self.make_setup()
        live_feeder(env, "events", KEYS, count=80, interval=0.02, nbytes=1000)
        env.run(until=4.0)
        megaphone.account_memory()
        charged = sum(m.memory_used for m in env.machines)
        assert charged == sum(
            i.state.total_bytes for i in job.stateful_instances("count")
        )

    def test_out_of_memory_kills_job(self):
        env, job, megaphone = self.make_setup(memory=4096)
        many_keys = [f"key-{i}" for i in range(64)]
        live_feeder(env, "events", many_keys, count=200, interval=0.01, nbytes=1000)
        env.run(until=6.0)
        assert megaphone.failed is not None
        assert not any(i.running for i in job.operator_instances("count"))

    def test_migration_after_oom_rejected(self):
        env, job, megaphone = self.make_setup(memory=4096)
        many_keys = [f"key-{i}" for i in range(64)]
        live_feeder(env, "events", many_keys, count=200, interval=0.01, nbytes=1000)
        env.run(until=6.0)
        migrate = megaphone.migrate("count", [(0, 1, 0.5)])
        migrate.defused = True
        env.run(until=8.0)
        assert not migrate.ok

    def test_fluid_migration_preserves_counts(self):
        env, job, megaphone = self.make_setup()
        live_feeder(env, "events", KEYS, count=240, interval=0.02)

        def trigger():
            yield env.sim.timeout(2.5)
            yield megaphone.migrate("count", [(0, 1, 1.0), (2, 3, 1.0)])

        trigger_process = env.sim.process(trigger())
        env.run(until=12.0)
        assert trigger_process.ok
        finals = {}
        for key, _t, value, _w in job.sink_results("out"):
            finals[key] = max(finals.get(key, 0), value)
        assert finals == expected_counts(240)

    def test_migration_moves_all_origin_state(self):
        env, job, megaphone = self.make_setup()
        live_feeder(env, "events", KEYS, count=120, interval=0.02, nbytes=100)
        env.run(until=3.0)
        origin = job.instance("count", 0)
        target = job.instance("count", 1)
        before = origin.state.total_bytes
        process = megaphone.migrate("count", [(0, 1, 1.0)])
        report = env.sim.run(until=process)
        assert report.migrated_bytes >= before * 0.9
        assert origin.state.total_bytes == 0 or before == 0
        assert report.bins_migrated > 0

    def test_a_migration_across_two_owned_ranges(self):
        """Bins of one batch span both of an origin's ranges; every value
        is pinned from the group-by-group migration it replaced."""
        env = EngineEnv(machines=4, memory=4 * 1024**3)
        env.topic("events", 2)
        job = env.job(counter_graph_factory()(), config=job_config(None))
        job.start()
        megaphone = Megaphone(
            job, env.cluster, MegaphoneConfig(bin_batch_groups=5)
        ).attach(monitor_interval=0.2)
        keys = [f"user-{i}" for i in range(48)]
        live_feeder(env, "events", keys, count=240, interval=0.01, nbytes=700)
        env.run(until=3.0)
        env.sim.run(until=megaphone.migrate("count", [(2, 0, 0.5)]))
        origin, target = job.instance("count", 0), job.instance("count", 1)
        assert origin.state.owned_ranges() == [(0, 8), (16, 20)]
        # Batches of five: [0, 5), then {5, 6, 7, 16, 17}, then {18, 19}.
        report = env.sim.run(until=megaphone.migrate("count", [(0, 1, 1.0)]))
        assignment = job.assignments["count"]
        assert [assignment.owner_of(g) for g in range(32)] == (
            [1] * 20 + [2] * 4 + [3] * 8
        )
        assert origin.state.owned_ranges() == []
        assert target.state.owned_ranges() == [(0, 20)]
        assert (report.migrated_bytes, report.bins_migrated) == (9800, 12)
        assert repr(report.total_seconds) == "0.007566966666666897"
        held = [
            (0, 13), (0, 24), (1, 34), (1, 7), (2, 0), (2, 33), (3, 14),
            (3, 23), (5, 43), (6, 44), (6, 9), (8, 18), (9, 41), (10, 38),
            (10, 46), (11, 28), (12, 11), (12, 26), (13, 36), (13, 5),
            (14, 2), (14, 31), (15, 16), (15, 21), (16, 45), (16, 8), (19, 42),
        ]
        assert target.state.extract_groups(0, 32) == [
            (group, f"user-{user}", 5) for group, user in held
        ]

    def test_migration_time_scales_with_bytes(self):
        env, job, megaphone = self.make_setup()
        live_feeder(env, "events", KEYS, count=120, interval=0.01, nbytes=50_000)
        env.run(until=3.0)
        process = megaphone.migrate("count", [(0, 1, 1.0)])
        report = env.sim.run(until=process)
        assert report.total_seconds > 0
