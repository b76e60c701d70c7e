"""Property-based protocol tests: exactly-once under random reconfigurations.

Hypothesis drives random sequences of rebalances/rescales at random times
against the counter workload; whatever the interleaving, final per-key
counts must equal the no-reconfiguration ground truth.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.graph import StreamGraph
from repro.engine.job import JobConfig
from repro.engine.operators import StatefulCounterLogic
from repro.core.api import Rhino, RhinoConfig

from tests.engine_fixtures import EngineEnv, live_feeder

KEYS = [f"key-{i}" for i in range(24)]
TOTAL = 240


def expected_counts():
    expected = {}
    for i in range(TOTAL):
        key = KEYS[i % len(KEYS)]
        expected[key] = expected.get(key, 0) + 1
    return expected


def run_with_reconfigurations(moves):
    """``moves``: list of (delay, origin, target) rebalances."""
    env = EngineEnv(machines=4)
    env.topic("events", 2)
    config = JobConfig(
        num_key_groups=32,
        virtual_node_count=4,
        checkpoint_interval=1.0,
        exchange_interval=0.05,
        watermark_interval=0.1,
        source_idle_timeout=0.05,
    )
    graph = StreamGraph("prop")
    graph.source("src", topic="events", parallelism=2)
    graph.operator(
        "count", StatefulCounterLogic, 4, inputs=[("src", "hash")], stateful=True
    )
    graph.sink("out", inputs=[("count", "forward")])
    job = env.job(graph, config=config).start()
    rhino = Rhino(
        job,
        env.cluster,
        RhinoConfig(
            scheduling_delay=0.05, local_fetch_seconds=0.01, state_load_seconds=0.02
        ),
    ).attach()
    live_feeder(env, "events", KEYS, count=TOTAL, interval=0.02)

    def reconfigure():
        for delay, origin, target in moves:
            yield env.sim.timeout(delay)
            if origin == target:
                continue
            handover = rhino.reconfigure(
                "rebalance", op_name="count", moves=[(origin, target)]
            )
            handover.defused = True
            yield handover

    env.sim.process(reconfigure())
    env.run(until=15.0)
    finals = {}
    for key, _t, value, _w in job.sink_results("out"):
        finals[key] = max(finals.get(key, 0), value)
    return finals


class TestExactlyOnceProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.3, 2.5),
                st.integers(0, 3),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_random_rebalances_preserve_counts(self, moves):
        assert run_with_reconfigurations(moves) == expected_counts()

    def test_chained_rebalances_do_not_resurrect_stale_state(self):
        # Regression (found by the random search above): a group moved
        # 0 -> 1 -> 2, then a later 0 -> 2 handover of *other* groups
        # ingested count[0]'s files unrestricted, and the stale entries
        # those files still held for the dropped group shadowed the
        # target's newer counts.
        moves = [(1.875, 0, 1), (1.0, 1, 2), (1.0, 0, 2)]
        assert run_with_reconfigurations(moves) == expected_counts()

    @settings(max_examples=6, deadline=None)
    @given(st.floats(1.2, 4.0), st.integers(0, 3))
    def test_failure_at_random_time_preserves_counts(self, kill_at, victim_index):
        env = EngineEnv(machines=5)
        env.topic("events", 2)
        config = JobConfig(
            num_key_groups=32,
            checkpoint_interval=0.8,
            exchange_interval=0.05,
            watermark_interval=0.1,
            source_idle_timeout=0.05,
        )
        graph = StreamGraph("prop-failure")
        graph.source("src", topic="events", parallelism=2)
        graph.operator(
            "count", StatefulCounterLogic, 4, inputs=[("src", "hash")], stateful=True
        )
        graph.sink("out", inputs=[("count", "forward")])
        job = env.job(graph, config=config).start()
        rhino = Rhino(
            job,
            env.cluster,
            RhinoConfig(
                scheduling_delay=0.05,
                local_fetch_seconds=0.01,
                state_load_seconds=0.02,
            ),
        ).attach()
        live_feeder(env, "events", KEYS, count=TOTAL, interval=0.02)

        def chaos():
            yield env.sim.timeout(kill_at)
            victim = job.instance("count", victim_index).machine
            env.cluster.kill(victim)
            recovery = rhino.reconfigure("failure", machine=victim)
            recovery.defused = True
            yield recovery

        env.sim.process(chaos())
        env.run(until=20.0)
        finals = {}
        for key, _t, value, _w in job.sink_results("out"):
            finals[key] = max(finals.get(key, 0), value)
        assert finals == expected_counts()


class TestDeterminism:
    def test_identical_runs_produce_identical_results(self):
        first = run_with_reconfigurations([(1.0, 0, 2), (2.0, 1, 3)])
        second = run_with_reconfigurations([(1.0, 0, 2), (2.0, 1, 3)])
        assert first == second

    def test_recovery_scenario_is_deterministic(self):
        from repro.common.units import GB
        from repro.experiments.scenarios.recovery import run_recovery

        first = run_recovery("rhino", 50 * GB, seed=7)
        second = run_recovery("rhino", 50 * GB, seed=7)
        assert first.total_seconds == second.total_seconds
        assert first.fetching_seconds == second.fetching_seconds
