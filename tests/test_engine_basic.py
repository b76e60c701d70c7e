"""End-to-end tests of the streaming engine (no Rhino yet)."""

import pytest

from repro.engine.graph import StreamGraph
from repro.engine.job import JobConfig
from repro.engine.operators import MapLogic, FilterLogic, StatefulCounterLogic
from repro.engine.windows import (
    SlidingWindowAggregate,
    TumblingWindowJoin,
    SessionWindowJoin,
)
from repro.engine.records import Record

from tests.engine_fixtures import EngineEnv


def passthrough_graph(parallelism=2):
    graph = StreamGraph("passthrough")
    graph.source("src", topic="events", parallelism=parallelism)
    graph.sink("out", inputs=[("src", "forward")])
    return graph


class TestPipelines:
    def test_source_to_sink_delivers_all_records(self):
        env = EngineEnv()
        env.topic("events", 2)
        env.feed_sequence("events", keys=["a", "b", "c"], count=30)
        job = env.job(passthrough_graph()).start()
        env.run(until=5.0)
        results = job.sink_results("out")
        assert len(results) == 30

    def test_map_transforms_values(self):
        env = EngineEnv()
        env.topic("events", 1)
        env.feed_sequence("events", keys=["k"], count=10)
        graph = StreamGraph("map")
        graph.source("src", topic="events", parallelism=1)
        graph.operator(
            "double", lambda: MapLogic(lambda v: v * 2), 1, inputs=[("src", "forward")]
        )
        graph.sink("out", inputs=[("double", "forward")])
        job = env.job(graph).start()
        env.run(until=5.0)
        values = sorted(v for _k, _t, v, _w in job.sink_results("out"))
        assert values == [0, 2, 4, 6, 8, 10, 12, 14, 16, 18]

    def test_filter_drops_records(self):
        env = EngineEnv()
        env.topic("events", 1)
        env.feed_sequence("events", keys=["k"], count=10)
        graph = StreamGraph("filter")
        graph.source("src", topic="events", parallelism=1)
        graph.operator(
            "odd", lambda: FilterLogic(lambda v: v % 2 == 1), 1, inputs=[("src", "forward")]
        )
        graph.sink("out", inputs=[("odd", "forward")])
        job = env.job(graph).start()
        env.run(until=5.0)
        assert len(job.sink_results("out")) == 5

    def test_keyed_counter_partitions_by_key(self):
        env = EngineEnv()
        env.topic("events", 2)
        env.feed_sequence("events", keys=["a", "b", "c", "d"], count=40)
        graph = StreamGraph("count")
        graph.source("src", topic="events", parallelism=2)
        graph.operator(
            "count",
            StatefulCounterLogic,
            2,
            inputs=[("src", "hash")],
            stateful=True,
            measure_latency=True,
        )
        graph.sink("out", inputs=[("count", "forward")])
        job = env.job(graph).start()
        env.run(until=5.0)
        # Each key's final count must be 10 and each key must live on
        # exactly one instance.
        finals = {}
        for key, _t, value, _w in job.sink_results("out"):
            finals[key] = max(finals.get(key, 0), value)
        assert finals == {"a": 10, "b": 10, "c": 10, "d": 10}

    def test_latency_metrics_are_sampled(self):
        env = EngineEnv()
        env.topic("events", 1)
        # interval=0 keeps creation timestamps in the past of processing
        # time, as with a live generator.
        env.feed_sequence("events", keys=["k"], count=20, interval=0.0)
        graph = StreamGraph("latency")
        graph.source("src", topic="events", parallelism=1)
        graph.operator(
            "count",
            StatefulCounterLogic,
            1,
            inputs=[("src", "hash")],
            stateful=True,
            measure_latency=True,
        )
        graph.sink("out", inputs=[("count", "forward")])
        job = env.job(graph).start()
        env.run(until=5.0)
        assert len(job.metrics.latency) == 20
        assert all(
            latency >= 0 for _t, latency, _w in job.metrics.latency.samples
        )

    def test_state_bytes_accumulate(self):
        env = EngineEnv()
        env.topic("events", 1)
        env.feed_sequence("events", keys=["a", "b"], count=20, nbytes=100)
        graph = StreamGraph("state-bytes")
        graph.source("src", topic="events", parallelism=1)
        graph.operator(
            "count", StatefulCounterLogic, 1, inputs=[("src", "hash")], stateful=True
        )
        graph.sink("out", inputs=[("count", "forward")])
        job = env.job(graph).start()
        env.run(until=5.0)
        # Two keys, last write wins per key: 2 * 100 bytes of live state.
        states = [i.state for i in job.stateful_instances("count")]
        assert sum(state.total_bytes for state in states) == 200


class TestWindows:
    def test_sliding_window_aggregate_counts(self):
        env = EngineEnv()
        env.topic("bids", 1)
        # 1 record per 0.5 s for 60 s, all for one key.
        env.feed_sequence("bids", keys=["k"], count=120, interval=0.5)
        graph = StreamGraph("nbq5-like")
        graph.source("src", topic="bids", parallelism=1)
        graph.operator(
            "agg",
            lambda: SlidingWindowAggregate(size=10.0, slide=5.0),
            1,
            inputs=[("src", "hash")],
            stateful=True,
        )
        graph.sink("out", inputs=[("agg", "forward")])
        job = env.job(graph).start()
        env.run(until=120.0)
        results = job.sink_results("out")
        assert results, "window should have fired"
        # A full 10 s window at 2 records/s holds 20 records.
        full_windows = [v for _k, t, v, _w in results if t >= 10.0]
        assert full_windows
        assert all(v == 20 for v in full_windows)

    def test_tumbling_window_join_matches_keys(self):
        env = EngineEnv()
        env.topic("left", 1)
        env.topic("right", 1)
        for i in range(10):
            env.log.append("left", 0, Record("k", 0.5 + i * 0.1, value=f"L{i}"))
        for i in range(5):
            env.log.append("right", 0, Record("k", 0.5 + i * 0.1, value=f"R{i}"))
        # Push both watermarks past the window end.
        env.log.append("left", 0, Record("other", 10.0, value="late"))
        env.log.append("right", 0, Record("other", 10.0, value="late"))
        graph = StreamGraph("join")
        graph.source("left", topic="left", parallelism=1)
        graph.source("right", topic="right", parallelism=1)
        graph.operator(
            "join",
            lambda: TumblingWindowJoin(size=5.0),
            1,
            inputs=[("left", "hash"), ("right", "hash")],
            stateful=True,
        )
        graph.sink("out", inputs=[("join", "forward")])
        job = env.job(graph).start()
        env.run(until=20.0)
        results = [r for r in job.sink_results("out") if r[0] == "k"]
        assert len(results) == 1
        _key, _t, value, weight = results[0]
        assert value == {"left": 10, "right": 5}
        assert weight == 50  # 10 x 5 join pairs

    def test_tumbling_join_state_deleted_after_fire(self):
        env = EngineEnv()
        env.topic("left", 1)
        env.topic("right", 1)
        env.log.append("left", 0, Record("k", 1.0, value="L", nbytes=1000))
        env.log.append("right", 0, Record("k", 1.0, value="R", nbytes=1000))
        env.log.append("left", 0, Record("z", 30.0, value="wm"))
        env.log.append("right", 0, Record("z", 30.0, value="wm"))
        graph = StreamGraph("join-gc")
        graph.source("left", topic="left", parallelism=1)
        graph.source("right", topic="right", parallelism=1)
        graph.operator(
            "join",
            lambda: TumblingWindowJoin(size=5.0),
            1,
            inputs=[("left", "hash"), ("right", "hash")],
            stateful=True,
        )
        graph.sink("out", inputs=[("join", "forward")])
        job = env.job(graph).start()
        env.run(until=40.0)
        instance = job.stateful_instances("join")[0]
        # Window [0,5) fired and its entries were deleted; after compaction
        # the live bytes shrink to just the un-fired window of key "z".
        instance.state.flush()
        instance.state.compact()
        assert instance.state.total_bytes < 200

    def test_session_window_join(self):
        env = EngineEnv()
        env.topic("left", 1)
        env.topic("right", 1)
        # One session of activity around t=1..2, then silence.
        for i in range(5):
            env.log.append("left", 0, Record("k", 1.0 + i * 0.2, value=i))
            env.log.append("right", 0, Record("k", 1.0 + i * 0.2, value=i))
        env.log.append("left", 0, Record("z", 60.0, value="wm"))
        env.log.append("right", 0, Record("z", 60.0, value="wm"))
        graph = StreamGraph("session")
        graph.source("left", topic="left", parallelism=1)
        graph.source("right", topic="right", parallelism=1)
        graph.operator(
            "join",
            lambda: SessionWindowJoin(gap=5.0),
            1,
            inputs=[("left", "hash"), ("right", "hash")],
            stateful=True,
        )
        graph.sink("out", inputs=[("join", "forward")])
        job = env.job(graph).start()
        env.run(until=90.0)
        results = [r for r in job.sink_results("out") if r[0] == "k"]
        assert len(results) == 1
        assert results[0][3] == 25  # 5 x 5 pairs in the session


class TestCheckpointing:
    def make_job(self, env, interval=1.0):
        graph = StreamGraph("ckpt")
        graph.source("src", topic="events", parallelism=2)
        graph.operator(
            "count", StatefulCounterLogic, 2, inputs=[("src", "hash")], stateful=True
        )
        graph.sink("out", inputs=[("count", "forward")])
        config = JobConfig(
            num_key_groups=16,
            checkpoint_interval=interval,
            exchange_interval=0.05,
            watermark_interval=0.05,
            source_idle_timeout=0.05,
        )
        return env.job(graph, config=config)

    def test_checkpoint_completes_with_offsets_and_state(self):
        env = EngineEnv()
        env.topic("events", 2)
        env.feed_sequence("events", keys=["a", "b", "c"], count=30)
        job = self.make_job(env).start()
        env.run(until=5.0)
        assert job.coordinator.has_completed()
        completed = job.coordinator.latest_completed()
        assert set(completed.offsets) == {"src[0]", "src[1]"}
        assert sum(completed.offsets.values()) == 30
        assert set(completed.checkpoints) == {"count[0]", "count[1]"}

    def test_checkpoints_are_incremental(self):
        env = EngineEnv()
        env.topic("events", 2)
        env.feed_sequence("events", keys=["a", "b", "c", "d"], count=20, nbytes=50)
        job = self.make_job(env).start()
        env.run(until=1.5)  # first checkpoint
        env.feed_sequence(
            "events", keys=["a"], count=2, start_time=2.0, nbytes=50
        )
        env.run(until=10.0)
        checkpoints = [
            c.checkpoints for c in job.coordinator.completed if c.checkpoints
        ]
        assert len(checkpoints) >= 2
        first_total = sum(c.total_bytes for c in checkpoints[0].values())
        last = job.coordinator.completed[-1]
        last_delta = sum(c.delta_bytes for c in last.checkpoints.values())
        assert first_total > 0
        assert last_delta == 0  # nothing new right before the last checkpoint

    def test_suspend_stops_triggering(self):
        env = EngineEnv()
        env.topic("events", 2)
        env.feed_sequence("events", keys=["a"], count=5)
        job = self.make_job(env).start()
        job.coordinator.suspend()
        env.run(until=5.0)
        assert not job.coordinator.has_completed()
