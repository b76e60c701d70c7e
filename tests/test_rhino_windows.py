"""Rhino handovers on *window* operators (auxiliary-index correctness).

The counter-based integration tests cannot catch index corruption because
counters keep no in-memory index; these tests rebalance and recover
sliding-window jobs and compare results against an undisturbed run.
"""

import functools

import pytest

from repro.engine.graph import StreamGraph
from repro.engine.job import JobConfig
from repro.engine.windows import SlidingWindowAggregate, TumblingWindowJoin
from repro.core.api import Rhino, RhinoConfig

from tests.engine_fixtures import EngineEnv, live_feeder

KEYS = [f"auction-{i}" for i in range(12)]


def window_graph():
    graph = StreamGraph("windows")
    graph.source("src", topic="bids", parallelism=2)
    graph.operator(
        "agg",
        lambda: SlidingWindowAggregate(size=4.0, slide=2.0),
        4,
        inputs=[("src", "hash")],
        stateful=True,
        measure_latency=True,
    )
    graph.sink("out", inputs=[("agg", "forward")])
    return graph


def make_env(machines=4):
    env = EngineEnv(machines=machines)
    env.topic("bids", 2)
    return env


def run_windows(
    reconfigure=None,
    total=300,
    until=25.0,
    exchange_interval=0.05,
    machines=4,
    state_load_seconds=0.02,
    keys=KEYS,
):
    env = make_env(machines)
    config = JobConfig(
        num_key_groups=32,
        virtual_node_count=4,
        checkpoint_interval=2.0,
        exchange_interval=exchange_interval,
        watermark_interval=0.1,
        source_idle_timeout=0.05,
    )
    job = env.job(window_graph(), config=config).start()
    rhino = Rhino(
        job,
        env.cluster,
        RhinoConfig(
            scheduling_delay=0.1,
            local_fetch_seconds=0.01,
            state_load_seconds=state_load_seconds,
        ),
    ).attach()
    live_feeder(env, "bids", keys, count=total, interval=0.05)
    if reconfigure is not None:
        env.sim.process(reconfigure(env, job, rhino))
    env.run(until=until)
    results = {}
    for key, window_end, value, _w in job.sink_results("out"):
        results[(key, window_end)] = value
    return results, job


def kill_host_of(op_name, index, at):
    """A reconfiguration that kills an instance's machine and recovers it."""

    def reconfigure(env, job, rhino):
        yield env.sim.timeout(at)
        victim = job.instance(op_name, index).machine
        env.cluster.kill(victim)
        yield rhino.reconfigure("failure", machine=victim)

    return reconfigure


def window_results_equal(baseline, observed):
    """Observed windows (possibly re-emitted) must agree with baseline."""
    for key, value in observed.items():
        assert key in baseline, f"unexpected window {key}"
        assert baseline[key] == value, (key, baseline[key], value)


class TestWindowRebalance:
    def test_rebalance_preserves_window_results(self):
        baseline, _ = run_windows()

        def reconfigure(env, job, rhino):
            yield env.sim.timeout(6.0)
            yield rhino.reconfigure("rebalance", op_name="agg", moves=[(0, 1), (2, 3)])

        observed, _job = run_windows(reconfigure)
        window_results_equal(baseline, observed)
        # The run still produced most windows despite the reconfiguration.
        assert len(observed) > 0.8 * len(baseline)

    def test_rebalance_target_keeps_its_own_windows(self):
        """Regression: absorbing migrated vnodes must not clear the
        target's pre-existing window index."""

        def reconfigure(env, job, rhino):
            yield env.sim.timeout(6.0)
            yield rhino.reconfigure("rebalance", op_name="agg", moves=[(0, 1)])

        observed, job = run_windows(reconfigure)
        target = job.instance("agg", 1)
        # The target serves both its original groups and the migrated ones.
        assert target.state.owned_ranges()
        served_groups = {g for lo, hi in target.state.owned_ranges() for g in range(lo, hi)}
        indexed_keys = set(target.logic.pane_keys)
        from repro.engine.partitioning import key_group_of

        for key in indexed_keys:
            assert key_group_of(key, 32) in served_groups

    def test_failure_recovery_preserves_window_results(self, exchange_interval=0.05):
        baseline, _ = run_windows(exchange_interval=exchange_interval)
        observed, _job = run_windows(
            kill_host_of("agg", 2, at=8.0),
            until=30.0,
            exchange_interval=exchange_interval,
        )
        window_results_equal(baseline, observed)
        assert len(observed) > 0.7 * len(baseline)

    @pytest.mark.parametrize("exchange_interval", [0.03, 0.07])
    def test_failure_recovery_at_other_exchange_intervals(self, exchange_interval):
        """The restored instance must not fire a window on a watermark it
        received before the replay (0.03 fired two windows short)."""
        self.test_failure_recovery_preserves_window_results(exchange_interval)


#: The rolled-back-rebalance grid: 11 keys, 5 machines, a 1 s state load.
GRID = dict(machines=5, state_load_seconds=1.0, keys=KEYS[:11])


@functools.cache
def undisturbed_grid_run():
    return run_windows(**GRID)[0]


def rebalance_then_kill_target(at, kill_delay):
    """Rebalance ``agg`` 0 -> 3 at ``at``; ``kill_delay`` later, while the
    target loads, kill its machine and recover it."""

    def reconfigure(env, job, rhino):
        yield env.sim.timeout(at)
        handover = rhino.reconfigure("rebalance", op_name="agg", moves=[(0, 3)])
        handover.defused = True
        yield env.sim.timeout(kill_delay)
        victim = job.instance("agg", 3).machine
        env.cluster.kill(victim)
        yield rhino.reconfigure("failure", machine=victim)

    return reconfigure


class TestRolledBackRebalanceGrid:
    """The rebalance rolls back (its target died mid-load) and the
    target's failure recovery replays: the origin re-adopts its groups
    where it released them and every consumer skips what it has seen, so
    no window counts a record twice."""

    @pytest.mark.parametrize("at", [5.5, 6.0, 7.3])
    def test_no_window_over_counts(self, at):
        baseline = undisturbed_grid_run()
        for step in range(20):
            kill_delay = round(0.30 + 0.04 * step, 2)
            observed, _job = run_windows(
                rebalance_then_kill_target(at, kill_delay), **GRID
            )
            over = {
                window: (baseline[window], value)
                for window, value in observed.items()
                if value > baseline.get(window, 0)
            }
            assert not over, (kill_delay, over)


def run_join(reconfigure=None, exchange_interval=0.05):
    env = EngineEnv(machines=4)
    env.topic("left", 1)
    env.topic("right", 1)
    config = JobConfig(
        num_key_groups=32,
        checkpoint_interval=2.0,
        exchange_interval=exchange_interval,
        watermark_interval=0.1,
        source_idle_timeout=0.05,
    )
    graph = StreamGraph("join")
    graph.source("left", topic="left", parallelism=1)
    graph.source("right", topic="right", parallelism=1)
    graph.operator(
        "join",
        lambda: TumblingWindowJoin(size=3.0),
        4,
        inputs=[("left", "hash"), ("right", "hash")],
        stateful=True,
    )
    graph.sink("out", inputs=[("join", "forward")])
    job = env.job(graph, config=config).start()
    rhino = Rhino(
        job,
        env.cluster,
        RhinoConfig(
            scheduling_delay=0.1,
            local_fetch_seconds=0.01,
            state_load_seconds=0.02,
        ),
    ).attach()
    live_feeder(env, "left", KEYS, count=200, interval=0.05)
    live_feeder(env, "right", KEYS, count=200, interval=0.05)
    if reconfigure:
        env.sim.process(reconfigure(env, job, rhino))
    env.run(until=25.0)
    return {(k, t): w for k, t, _v, w in job.sink_results("out")}


def join_matches_equal(baseline, observed):
    for key, weight in observed.items():
        assert baseline.get(key) == weight, key
    assert len(observed) > 0.7 * len(baseline)


class TestJoinRebalance:
    def test_join_rebalance_preserves_matches(self):
        def reconfigure(env, job, rhino):
            yield env.sim.timeout(6.0)
            yield rhino.reconfigure("rebalance", op_name="join", moves=[(0, 2), (1, 3)])

        join_matches_equal(run_join(), run_join(reconfigure))

    @pytest.mark.parametrize("exchange_interval", [0.03, 0.05, 0.07])
    def test_join_failure_recovery_preserves_matches(self, exchange_interval):
        baseline = run_join(exchange_interval=exchange_interval)
        observed = run_join(
            kill_host_of("join", 2, at=8.0), exchange_interval=exchange_interval
        )
        join_matches_equal(baseline, observed)
