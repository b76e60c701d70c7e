"""Tests for the two-phase-commit sink (end-to-end exactly-once output)."""

import pytest

from repro.engine.graph import StreamGraph
from repro.engine.job import JobConfig
from repro.engine.operators import StatefulCounterLogic
from repro.engine.sinks import TransactionalSinkLogic
from repro.baselines import FlinkRuntime, FlinkConfig
from repro.core.api import Rhino, RhinoConfig

from tests.engine_fixtures import EngineEnv, live_feeder, make_dfs

KEYS = ["alpha", "bravo", "charlie", "delta"]
TOTAL = 160


def transactional_graph():
    graph = StreamGraph("txn")
    graph.source("src", topic="events", parallelism=2)
    graph.operator(
        "count", StatefulCounterLogic, 2, inputs=[("src", "hash")], stateful=True
    )
    graph.operator(
        "out",
        TransactionalSinkLogic,
        1,
        inputs=[("count", "forward")],
        cpu_per_record=1e-7,
    )
    graph.sinks.add("out")
    return graph


def job_config(interval=1.0):
    return JobConfig(
        num_key_groups=16,
        checkpoint_interval=interval,
        exchange_interval=0.05,
        watermark_interval=0.1,
        source_idle_timeout=0.05,
    )


def committed_results(job_or_runtime):
    """Externally visible output; for FlinkRuntime this spans restarts."""
    return job_or_runtime.sink_results("out")


class TestHappyPath:
    def test_results_commit_only_at_checkpoints(self):
        env = EngineEnv()
        env.topic("events", 2)
        job = env.job(transactional_graph(), config=job_config(interval=None))
        job.start()
        live_feeder(env, "events", KEYS, count=40, interval=0.02)
        env.run(until=3.0)
        sink = job.operator_instances("out")[0]
        # No checkpoint ever ran: every record reached the sink, and
        # nothing is externally visible.
        assert sink.records_processed == 40
        assert sink.logic.committed == []

    def test_checkpoint_commits_pending(self):
        env = EngineEnv()
        env.topic("events", 2)
        job = env.job(transactional_graph(), config=job_config()).start()
        live_feeder(env, "events", KEYS, count=40, interval=0.02)
        env.run(until=5.0)
        sink = job.operator_instances("out")[0]
        assert sink.logic.committed_count == 40

    def test_commit_order_preserves_per_key_sequence(self):
        env = EngineEnv()
        env.topic("events", 2)
        job = env.job(transactional_graph(), config=job_config()).start()
        live_feeder(env, "events", KEYS, count=80, interval=0.02)
        env.run(until=6.0)
        per_key = {}
        for key, _t, value, _w in committed_results(job):
            per_key.setdefault(key, []).append(value)
        for key, values in per_key.items():
            assert values == sorted(values)  # counts only grow


class TestExactlyOnceOutput:
    def test_flink_restart_emits_no_duplicate_commits(self):
        """The decisive test: Flink's replay re-emits results, but only
        one copy ever commits."""
        env = EngineEnv(machines=4)
        env.topic("events", 2)
        dfs = make_dfs(env)
        runtime = FlinkRuntime(
            env.sim,
            env.cluster,
            transactional_graph,
            env.log,
            env.machines,
            job_config(),
            dfs,
            config=FlinkConfig(restart_delay=0.3, state_load_seconds=0.1),
        ).start()
        live_feeder(env, "events", KEYS, count=TOTAL, interval=0.02)

        def chaos():
            yield env.sim.timeout(2.0)
            victim = runtime.job.instance("count", 1).machine
            env.cluster.kill(victim)
            yield runtime.recover_from_failure(victim)

        env.sim.process(chaos())
        env.run(until=25.0)
        # Committed counter updates: each (key, count) value exactly once.
        seen = {}
        for key, _t, value, _w in committed_results(runtime):
            assert seen.get(key, 0) < value or value not in range(
                1, seen.get(key, 0) + 1
            ), f"duplicate commit {key}={value}"
            seen[key] = max(seen.get(key, 0), value)
        expected = {}
        for i in range(TOTAL):
            key = KEYS[i % len(KEYS)]
            expected[key] = expected.get(key, 0) + 1
        assert seen == expected

    def test_rhino_handover_commits_are_exact(self):
        env = EngineEnv(machines=4)
        env.topic("events", 2)
        job = env.job(transactional_graph(), config=job_config()).start()
        rhino = Rhino(
            job,
            env.cluster,
            RhinoConfig(
                scheduling_delay=0.1,
                local_fetch_seconds=0.01,
                state_load_seconds=0.05,
            ),
        ).attach()
        live_feeder(env, "events", KEYS, count=TOTAL, interval=0.02)

        def trigger():
            yield env.sim.timeout(2.0)
            yield rhino.reconfigure("rebalance", op_name="count", moves=[(0, 1)])

        env.sim.process(trigger())
        env.run(until=15.0)
        values_per_key = {}
        for key, _t, value, _w in committed_results(job):
            values_per_key.setdefault(key, []).append(value)
        for key, values in values_per_key.items():
            assert len(values) == len(set(values)), f"duplicate commits for {key}"
            assert max(values) == TOTAL // len(KEYS)
