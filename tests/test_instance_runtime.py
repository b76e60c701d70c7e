"""Unit tests for instance-level machinery: alignment, watermarks, filters."""

import re

import pytest

from repro.common.errors import EngineError
from repro.engine.graph import StreamGraph
from repro.engine.instance import ReplayFilter
from repro.engine.operators import PassThroughLogic, StatefulCounterLogic
from repro.engine.partitioning import key_group_of
from repro.engine.records import (
    CheckpointBarrier,
    EndOfStream,
    Record,
    RecordBatch,
    Watermark,
)

from tests.engine_fixtures import EngineEnv


NUM_GROUPS = 16


class TestReplayFilter:
    def test_default_cutoff_skips_old_records(self):
        rf = ReplayFilter(NUM_GROUPS, default_cutoff=10.0)
        assert not rf.should_process(Record("k", 9.0))
        assert not rf.should_process(Record("k", 10.0))
        assert rf.should_process(Record("k", 11.0))

    def test_fresh_ranges_use_fresh_cutoff(self):
        key = "k"
        group = key_group_of(key, NUM_GROUPS)
        rf = ReplayFilter(
            NUM_GROUPS,
            default_cutoff=float("inf"),
            fresh_ranges=[(group, group + 1)],
            fresh_cutoff=5.0,
        )
        assert rf.should_process(Record(key, 6.0))
        assert not rf.should_process(Record(key, 5.0))

    def test_keys_outside_fresh_ranges_use_default(self):
        key = "k"
        group = key_group_of(key, NUM_GROUPS)
        other = (group + 1) % NUM_GROUPS
        rf = ReplayFilter(
            NUM_GROUPS,
            default_cutoff=100.0,
            fresh_ranges=[(other, other + 1)],
            fresh_cutoff=0.0,
        )
        assert not rf.should_process(Record(key, 50.0))
        assert rf.should_process(Record(key, 150.0))

    def test_infinite_default_blocks_everything(self):
        rf = ReplayFilter(NUM_GROUPS, default_cutoff=float("inf"))
        assert not rf.should_process(Record("k", 1e12))


def two_source_job(env, logic_factory=PassThroughLogic, stateful=False):
    graph = StreamGraph("alignment")
    graph.source("a", topic="a", parallelism=1)
    graph.source("b", topic="b", parallelism=1)
    graph.operator(
        "op",
        logic_factory,
        1,
        inputs=[("a", "hash"), ("b", "hash")],
        stateful=stateful,
    )
    graph.sink("out", inputs=[("op", "forward")])
    return env.job(graph)


class TestAlignment:
    def test_barrier_blocks_faster_channel_until_aligned(self):
        """Records behind an un-aligned barrier wait (epoch alignment)."""
        env = EngineEnv()
        env.topic("a", 1)
        env.topic("b", 1)
        job = two_source_job(env, StatefulCounterLogic, stateful=True).start()
        env.run(until=1.0)
        instance = job.operator_instances("op")[0]
        # Inject a barrier directly into channel a only.
        channel_a = next(c for c in instance.inputs if "a[0]" in c.name)
        channel_b = next(c for c in instance.inputs if "b[0]" in c.name)
        barrier = CheckpointBarrier(99, env.sim.now)
        channel_a.store.put(barrier)
        channel_a.store.put(
            RecordBatch([Record("after-barrier", env.sim.now, nbytes=8)])
        )
        env.run(until=2.0)
        # The post-barrier record must not have been processed yet.
        assert instance.records_processed == 0
        # Completing alignment on channel b releases it.
        channel_b.store.put(barrier)
        env.run(until=3.0)
        assert instance.records_processed == 1

    def test_pre_barrier_records_processed_before_alignment(self):
        env = EngineEnv()
        env.topic("a", 1)
        env.topic("b", 1)
        job = two_source_job(env, StatefulCounterLogic, stateful=True).start()
        env.run(until=1.0)
        instance = job.operator_instances("op")[0]
        channel_a = next(c for c in instance.inputs if "a[0]" in c.name)
        channel_a.store.put(RecordBatch([Record("before", env.sim.now, nbytes=8)]))
        channel_a.store.put(CheckpointBarrier(7, env.sim.now))
        env.run(until=2.0)
        assert instance.records_processed == 1

    def test_end_of_stream_terminates_instance(self):
        env = EngineEnv()
        env.topic("a", 1)
        env.topic("b", 1)
        job = two_source_job(env).start()
        env.run(until=1.0)
        instance = job.operator_instances("op")[0]
        eos = EndOfStream(env.sim.now)
        for channel in list(instance.inputs):
            channel.store.put(eos)
        env.run(until=2.0)
        assert not instance.running

    def test_detach_completes_pending_alignment(self):
        env = EngineEnv()
        env.topic("a", 1)
        env.topic("b", 1)
        job = two_source_job(env, StatefulCounterLogic, stateful=True).start()
        env.run(until=1.0)
        instance = job.operator_instances("op")[0]
        channel_a = next(c for c in instance.inputs if "a[0]" in c.name)
        channel_b = next(c for c in instance.inputs if "b[0]" in c.name)
        channel_a.store.put(CheckpointBarrier(3, env.sim.now))
        env.run(until=1.5)
        assert instance._alignments  # waiting on channel b
        instance.detach_input(channel_b)
        env.run(until=2.5)
        assert not instance._alignments


class TestChannelBoundary:
    def test_bare_record_on_a_channel_is_a_typed_error(self):
        """A channel carries batches and control events, nothing else."""
        env = EngineEnv()
        env.topic("a", 1)
        env.topic("b", 1)
        job = two_source_job(env).start()
        env.run(until=1.0)
        instance = job.operator_instances("op")[0]
        channel_a = next(c for c in instance.inputs if "a[0]" in c.name)
        channel_a.store.put(Record("bare", env.sim.now, nbytes=8))
        expected = re.escape(f"channel {channel_a.name} carried a Record;")
        with pytest.raises(EngineError, match=expected):
            env.run(until=2.0)
        assert instance.records_processed == 0


class TestWatermarkAggregation:
    def test_operator_watermark_is_min_over_channels(self):
        env = EngineEnv()
        env.topic("a", 1)
        env.topic("b", 1)
        job = two_source_job(env).start()
        env.run(until=1.0)
        instance = job.operator_instances("op")[0]
        channel_a = next(c for c in instance.inputs if "a[0]" in c.name)
        channel_b = next(c for c in instance.inputs if "b[0]" in c.name)
        channel_a.store.put(Watermark(50.0))
        env.run(until=2.0)
        assert instance.watermark == float("-inf")  # b has not reported
        channel_b.store.put(Watermark(30.0))
        env.run(until=3.0)
        assert instance.watermark == 30.0
        channel_b.store.put(Watermark(60.0))
        env.run(until=4.0)
        assert instance.watermark == 50.0

    def test_watermarks_never_regress(self):
        env = EngineEnv()
        env.topic("a", 1)
        env.topic("b", 1)
        job = two_source_job(env).start()
        env.run(until=1.0)
        instance = job.operator_instances("op")[0]
        for channel in list(instance.inputs):
            channel.store.put(Watermark(40.0))
        env.run(until=2.0)
        for channel in list(instance.inputs):
            channel.store.put(Watermark(20.0))  # late/regressing watermark
        env.run(until=3.0)
        assert instance.watermark == 40.0


class TestSourcePause:
    def test_paused_source_emits_nothing(self):
        env = EngineEnv()
        env.topic("events", 1)
        env.feed_sequence("events", keys=["k"], count=10, interval=0.0)
        graph = StreamGraph("pause")
        graph.source("src", topic="events", parallelism=1)
        graph.sink("out", inputs=[("src", "forward")])
        job = env.job(graph)
        job.deploy()
        source = job.source_instances()[0]
        source.paused = True
        job.start()
        env.run(until=2.0)
        assert source.records_emitted == 0
        source.paused = False
        env.run(until=4.0)
        assert source.records_emitted == 10

    def test_source_replay_filter_drops_at_ingest(self):
        env = EngineEnv()
        env.topic("events", 1)
        env.feed_sequence("events", keys=["k"], count=10, interval=0.0)
        graph = StreamGraph("drop")
        graph.source("src", topic="events", parallelism=1)
        graph.sink("out", inputs=[("src", "forward")])
        job = env.job(graph)
        job.deploy()
        source = job.source_instances()[0]
        source.replay_filter = ReplayFilter(16, default_cutoff=float("inf"))
        job.start()
        env.run(until=2.0)
        assert source.records_dropped == 10
        assert source.records_emitted == 0
