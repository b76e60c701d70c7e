"""Unit tests for instance-level machinery: alignment, watermarks, filters."""

import re

import pytest

from repro.common.errors import EngineError
from repro.core.api import Rhino, RhinoConfig
from repro.engine.graph import StreamGraph
from repro.engine.instance import ConsumerDrivenReplayFilter, ReplayFilter
from repro.engine.job import JobConfig
from repro.engine.operators import PassThroughLogic, StatefulCounterLogic
from repro.engine.partitioning import key_group_of
from repro.engine.records import (
    CheckpointBarrier,
    EndOfStream,
    Record,
    RecordBatch,
    Watermark,
)

from tests.engine_fixtures import EngineEnv, live_feeder


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
        channel_a.put(barrier)
        channel_a.put(
            RecordBatch([Record("after-barrier", env.sim.now, nbytes=8)])
        )
        env.run(until=2.0)
        # The post-barrier record must not have been processed yet.
        assert instance.records_processed == 0
        # Completing alignment on channel b releases it.
        channel_b.put(barrier)
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
        channel_a.put(RecordBatch([Record("before", env.sim.now, nbytes=8)]))
        channel_a.put(CheckpointBarrier(7, env.sim.now))
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
            channel.put(eos)
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
        channel_a.put(CheckpointBarrier(3, env.sim.now))
        env.run(until=1.5)
        assert instance._alignments  # waiting on channel b
        instance.detach_input(channel_b)
        env.run(until=2.5)
        assert not instance._alignments


    def aligned_env(self):
        env = EngineEnv()
        env.topic("a", 1)
        env.topic("b", 1)
        job = two_source_job(env, StatefulCounterLogic, stateful=True).start()
        env.run(until=1.0)
        instance = job.operator_instances("op")[0]
        channel_a = next(c for c in instance.inputs if "a[0]" in c.name)
        channel_b = next(c for c in instance.inputs if "b[0]" in c.name)
        return env, job, instance, channel_a, channel_b

    @staticmethod
    def row(env, key):
        return RecordBatch([Record(key, env.sim.now, nbytes=8)])

    def test_marker_blocks_its_channel_until_it_was_handled(self):
        """Every arrival blocks, the last one included: nothing behind the
        marker may overtake the handler."""
        env, _job, instance, channel_a, channel_b = self.aligned_env()
        barrier = CheckpointBarrier(5, env.sim.now)
        channel_a.put(barrier)
        channel_b.put(barrier)
        assert channel_a.blocked and channel_b.blocked  # aligned, not yet handled
        channel_b.put(self.row(env, "behind"))
        assert len(channel_b.held) == 1
        env.run(until=2.0)
        assert not channel_a.blocked and not channel_b.blocked
        assert not channel_b.held and not instance._alignments
        assert instance.records_processed == 1

    def test_second_marker_behind_the_first_reblocks_mid_drain(self):
        env, _job, instance, channel_a, channel_b = self.aligned_env()
        first = CheckpointBarrier(1, env.sim.now)
        second = CheckpointBarrier(2, env.sim.now)
        channel_a.put(first)
        channel_a.put(self.row(env, "between"))
        channel_a.put(second)
        channel_a.put(self.row(env, "after-second"))
        assert len(channel_a.held) == 3
        channel_b.put(first)
        env.run(until=2.0)
        # Released up to the second barrier, which holds the channel again.
        assert instance.records_processed == 1
        assert channel_a.blocked and len(channel_a.held) == 1
        assert list(instance._alignments) == [second.marker_id]
        channel_b.put(second)
        env.run(until=3.0)
        assert instance.records_processed == 2
        assert not channel_a.blocked and not instance._alignments

    def test_cancel_alignment_releases_and_swallows_late_copies(self):
        env, _job, instance, channel_a, channel_b = self.aligned_env()
        barrier = CheckpointBarrier(9, env.sim.now)
        channel_a.put(barrier)
        channel_a.put(self.row(env, "held"))
        env.run(until=1.5)
        assert instance.records_processed == 0
        instance.cancel_alignment(barrier.marker_id)
        assert not channel_a.blocked and not instance._alignments
        channel_b.put(barrier)  # the late copy must not block channel b
        assert not channel_b.blocked
        env.run(until=2.0)
        assert instance.records_processed == 1

    def test_detached_channel_stays_blocked_for_good(self):
        env, _job, instance, channel_a, channel_b = self.aligned_env()
        barrier = CheckpointBarrier(4, env.sim.now)
        channel_b.put(barrier)
        channel_b.put(self.row(env, "orphan"))
        instance.detach_input(channel_b)
        assert instance._alignments[barrier.marker_id]["blocked"] == []
        channel_a.put(barrier)  # completes the alignment: a is the only input
        channel_a.put(self.row(env, "live"))
        env.run(until=2.0)
        assert not instance._alignments and not channel_a.blocked
        # The release did not reopen the detached channel.
        assert channel_b.blocked and len(channel_b.held) == 1
        assert instance.records_processed == 1

    def test_stop_while_idle_does_not_swallow_the_next_wakeup(self):
        env, _job, instance, channel_a, _channel_b = self.aligned_env()
        instance.stop()  # interrupts the loop parked on its wake-up event
        env.run(until=1.5)
        instance.start()
        env.run(until=2.0)
        channel_a.put(self.row(env, "after-restart"))
        env.run(until=2.5)
        assert instance.records_processed == 1


class TestNoPerChannelProcess:
    """The gate is a method call: wiring a channel spawns nothing, so
    unwiring one leaves nothing behind (the old readers leaked here)."""

    @staticmethod
    def process_names(env):
        return sorted(p.name for p in env.sim.alive_processes())

    def scaled_job(self, env):
        graph = StreamGraph("gate")
        graph.source("src", topic="events", parallelism=2)
        graph.operator(
            "op", StatefulCounterLogic, 2, inputs=[("src", "hash")], stateful=True
        )
        graph.sink("out", inputs=[("op", "forward")])
        return env.job(graph).start()

    def test_one_process_per_instance_and_none_per_channel(self):
        env = EngineEnv()
        env.topic("events", 2)
        job = self.scaled_job(env)
        env.run(until=1.0)
        names = self.process_names(env)
        assert names == sorted(f"instance:{i.instance_id}" for i in job.instances.values())
        assert not any(name.startswith("reader:") or "->" in name for name in names)

    def test_remove_instance_leaves_no_process_behind(self):
        env = EngineEnv()
        env.topic("events", 2)
        job = self.scaled_job(env)
        env.run(until=1.0)
        job.remove_instance("op", 1)
        env.run(until=2.0)
        names = self.process_names(env)
        assert "instance:op[1]" not in names
        assert names == sorted(f"instance:{i.instance_id}" for i in job.instances.values())

    def test_replace_instance_leaves_only_the_replacement(self):
        env = EngineEnv()
        env.topic("events", 2)
        job = self.scaled_job(env)
        env.run(until=1.0)
        before = self.process_names(env)
        replacement = job.replace_instance("op", 1, env.machines[0])
        replacement.start()
        env.run(until=2.0)
        assert self.process_names(env) == before
        assert len(replacement.inputs) == 2  # rewired from both sources


class TestEventBudget:
    """Exact kernel-event counts, so a process hop per element cannot
    creep back in unnoticed.  Deterministic: no timing, no tolerance."""

    def test_alignment_fixture_event_count_is_pinned(self):
        env = EngineEnv()
        env.topic("a", 1)
        env.topic("b", 1)
        live_feeder(env, "a", ["x", "y", "z"], count=40)
        live_feeder(env, "b", ["x", "y", "z"], count=40)
        job = two_source_job(env, StatefulCounterLogic, stateful=True).start()
        env.run(until=3.0)
        assert job.operator_instances("out")[0].records_processed == 80
        # 1,927 with a reader process per channel and a Store round-trip
        # per element (c52d130); 1,004 with a fabric agent process, a
        # shipping process per flush leg, a timer per flow latency and a
        # grant event per CPU charge.
        assert env.sim.events_processed == 764
        assert not any(
            p.name.startswith("reader:") for p in env.sim.alive_processes()
        )

    def remote_batches(self, count):
        """Kernel events spent on ``count`` one-row batches sent in one
        flush over a remote channel of an otherwise idle job."""
        env = EngineEnv()
        env.topic("a", 1)
        graph = StreamGraph("budget")
        graph.source("a", topic="a", parallelism=1)
        graph.sink("out", inputs=[("a", "hash")], parallelism=2)
        job = env.job(graph).start()
        channel = job.source_instances()[0].output_routers[0].channels[1]
        assert channel.src_machine is not channel.dst_machine
        # Arm the source machine's fabric tick before measuring.
        job.fabric.send(channel, RecordBatch([Record("warm", 0.0, nbytes=8)]))
        env.run(until=1.0)
        before = env.sim.events_processed
        for i in range(count):
            job.fabric.send(channel, RecordBatch([Record(f"k{i}", 1.0, nbytes=8)]))
        env.run(until=2.0)
        assert job.operator_instances("out")[1].records_processed == 1 + count
        return env.sim.events_processed - before

    def test_remote_batch_costs_its_transfer_its_cpu_charge_and_one_event(self):
        idle = self.remote_batches(0)
        one = self.remote_batches(1) - idle
        two = self.remote_batches(2) - idle
        # A flush's flow: the solver's wake-up when its bytes drain, and
        # its landing after the latency, whose callback delivers.  Shared
        # by every batch the flush carries.
        transfer = 2
        # Machine.compute on a free core: the busy timeout, once per batch.
        cpu_charge = 1
        # Beyond those: the gate's wake-up event.  (15 and 7 with a
        # reader process per channel; 9 and 2 with a shipping process per
        # flush leg, a latency timer and a core grant event.)
        assert one == transfer + cpu_charge + 1
        # A batch landing while the gate is awake costs only its CPU charge.
        assert two - one == cpu_charge


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
        expected = re.escape(f"channel {channel_a.name} carried a Record;")
        with pytest.raises(EngineError, match=expected):
            channel_a.put(Record("bare", env.sim.now, nbytes=8))
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
        channel_a.put(Watermark(50.0))
        env.run(until=2.0)
        assert instance.watermark == float("-inf")  # b has not reported
        channel_b.put(Watermark(30.0))
        env.run(until=3.0)
        assert instance.watermark == 30.0
        channel_b.put(Watermark(60.0))
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
            channel.put(Watermark(40.0))
        env.run(until=2.0)
        for channel in list(instance.inputs):
            channel.put(Watermark(20.0))  # late/regressing watermark
        env.run(until=3.0)
        assert instance.watermark == 40.0


class SeenLog(StatefulCounterLogic):
    """A counter that records what its instance hands it, in order."""

    def open(self, ctx):
        super().open(ctx)
        self.seen = []

    def process_batch(self, batch, side=0):
        self.seen.extend(("record", r.timestamp) for r in batch.records)
        return super().process_batch(batch, side=side)

    def on_watermark(self, watermark):
        self.seen.append(("watermark", watermark.timestamp))
        return ()


class TestFrontierRestartsWithTheReplay:
    """Watermarks an instance received before it was handed key groups
    whose records a source seek re-sends say nothing about that replay:
    its frontier must not pass a replayed record because *another*
    channel caught up first."""

    def two_instance_job(self, state_load_seconds=0.02):
        env = EngineEnv(machines=3)
        env.topic("a", 1)  # empty topics: the test is the only producer
        env.topic("b", 1)
        graph = StreamGraph("restore")
        graph.source("a", topic="a", parallelism=1)
        graph.source("b", topic="b", parallelism=1)
        graph.operator(
            "op", SeenLog, 2, inputs=[("a", "hash"), ("b", "hash")], stateful=True
        )
        graph.sink("out", inputs=[("op", "forward")])
        config = JobConfig(
            num_key_groups=NUM_GROUPS,
            virtual_node_count=2,
            checkpoint_interval=0.5,
            exchange_interval=0.05,
            watermark_interval=0.1,
            source_idle_timeout=0.05,
        )
        job = env.job(graph, config=config).start()
        rhino = Rhino(
            job,
            env.cluster,
            RhinoConfig(
                scheduling_delay=0.1,
                local_fetch_seconds=0.01,
                state_load_seconds=state_load_seconds,
            ),
        ).attach()
        # op[1] has a machine to itself: killing it takes nothing else down.
        lonely = job.instance("op", 1)
        assert [i for i in job.instances.values() if i.machine is lonely.machine] == [
            lonely
        ]
        return env, job, rhino

    @staticmethod
    def channels(instance):
        return [
            next(c for c in instance.inputs if name in c.name)
            for name in ("a[0]", "b[0]")
        ]

    @staticmethod
    def replayed(key, timestamp, origin):
        record = Record(key, timestamp, nbytes=8)
        record.origin = origin
        return RecordBatch([record])

    def replay_arrives_channel_by_channel(self, env, instance, key):
        """Per channel: batches first, then the next watermark; b's first."""
        channel_a, channel_b = self.channels(instance)
        seen = instance.logic.seen
        before = len(seen)
        channel_b.put(self.replayed(key, 8.15, "b[0]"))
        channel_b.put(Watermark(8.4))
        env.run(until=env.sim.now + 0.5)
        assert seen[before:] == [("record", 8.15)]  # a's replay is still to come
        channel_a.put(self.replayed(key, 8.2, "a[0]"))
        channel_a.put(Watermark(8.4))
        env.run(until=env.sim.now + 0.5)
        assert seen[before:] == [("record", 8.15), ("record", 8.2), ("watermark", 8.4)]
        assert instance.watermark == 8.4

    def test_failure_restore(self):
        env, job, rhino = self.two_instance_job()
        victim = job.instance("op", 1)
        key = first_key(victim.state.store.owns)
        self.channels(victim)[0].put(self.replayed(key, 0.1, "a[0]"))
        env.run(until=2.0)  # checkpointed and replicated
        env.cluster.kill(victim.machine)
        recovery = rhino.reconfigure("failure", machine=victim.machine).process
        env.run(until=2.05)  # the held replacement is up, the marker is not out
        restored = job.instance("op", 1)
        assert restored is not victim
        channel_a, channel_b = self.channels(restored)
        channel_a.put(Watermark(8.3))
        channel_b.put(Watermark(8.1))
        env.sim.run(until=recovery)
        self.replay_arrives_channel_by_channel(env, restored, key)

    def test_abort_rollback(self):
        """The origin of an aborted handover re-adopts groups whose
        diverted records replay: same hazard, same rule."""
        env, job, rhino = self.two_instance_job(state_load_seconds=1.0)
        origin, target = job.instance("op", 0), job.instance("op", 1)
        env.run(until=2.0)
        handover = rhino.reconfigure("rebalance", op_name="op", moves=[(0, 1)]).process
        handover.defused = True
        env.run(until=2.5)  # the origin shipped its groups; the target is loading
        channel_a, channel_b = self.channels(origin)
        channel_a.put(Watermark(8.3))
        channel_b.put(Watermark(8.1))
        env.run(until=2.6)
        env.cluster.kill(target.machine)
        env.run(until=3.0)
        assert handover.triggered and not handover.ok
        moved = first_key(origin.replay_filter.fresh_ranges.__contains__)
        self.replay_arrives_channel_by_channel(env, origin, moved)


def first_key(in_group):
    """A key whose key group satisfies ``in_group``."""
    return next(
        k
        for k in map("k{}".format, range(100))
        if in_group(key_group_of(k, NUM_GROUPS))
    )


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

    @pytest.mark.parametrize(
        "frontier_of, emitted", [("src[0]", 6), ("elsewhere[0]", 0)]
    )
    def test_fresh_records_meet_their_own_source_frontier(self, frontier_of, emitted):
        """An abort's source filter holds, per rolled-back group, the
        rewire-time frontier of every rewired source and ``inf`` for "a
        source absent from the frontiers".  A polled record is stamped
        before it is filtered, so one this source never emitted compares
        against *its* frontier instead of reading as the absent source."""
        env = EngineEnv()
        env.topic("events", 1)
        env.feed_sequence("events", keys=["k"], count=10, interval=0.01)
        graph = StreamGraph("stamp")
        graph.source("src", topic="events", parallelism=1)
        graph.sink("out", inputs=[("src", "forward")])
        job = env.job(graph)
        job.deploy()
        source = job.source_instances()[0]
        assert source.instance_id == "src[0]"
        rolled_back = (None, {frontier_of: 0.035}, float("inf"))
        source.replay_filter = ConsumerDrivenReplayFilter(
            16, {group: [rolled_back] for group in range(16)}
        )
        job.start()
        env.run(until=2.0)
        # Timestamps 0.00 .. 0.03 were emitted before the rewire; 0.04 ..
        # 0.09 are fresh.  A source that never rewired diverted nothing.
        assert source.records_emitted == emitted
        assert source.records_dropped == 10 - emitted


class TestSourceWatermarkPacing:
    """``watermark_interval`` bounds what a source broadcasts: at most one
    watermark per interval of simulated time, however often it polls."""

    IDLE = 0.05

    def paced_source(self, interval, max_poll=64):
        env = EngineEnv()
        env.topic("events", 1)
        graph = StreamGraph("pacing")
        graph.source("src", topic="events", parallelism=1)
        graph.sink("out", inputs=[("src", "forward")])
        config = JobConfig(
            num_key_groups=NUM_GROUPS,
            exchange_interval=0.05,
            watermark_interval=interval,
            source_idle_timeout=self.IDLE,
        )
        job = env.job(graph, config=config)
        job.deploy()
        source = job.source_instances()[0]
        source.max_poll_records = max_poll
        sent = []  # (sim time, watermark timestamp), at the source
        broadcast = source.broadcast

        def spy(event):
            if isinstance(event, Watermark):
                sent.append((env.sim.now, event.timestamp))
            return broadcast(event)

        source.broadcast = spy
        return env, job, source, sent

    def watermarks_over(self, interval, seconds=4.0, tick=0.02):
        env, job, _source, sent = self.paced_source(interval)
        live_feeder(env, "events", ["k"], count=int(seconds / tick) + 50, interval=tick)
        job.start()
        env.run(until=seconds)
        return sent

    def test_caught_up_source_sends_one_watermark_per_interval(self):
        sent = self.watermarks_over(0.1)  # 200 polls, each draining the log
        assert 0.9 * 40 <= len(sent) <= 40 + 1
        gaps = [b[0] - a[0] for a, b in zip(sent, sent[1:])]
        assert min(gaps) >= 0.1

    def test_the_interval_is_a_live_knob(self):
        ratio = len(self.watermarks_over(0.1)) / len(self.watermarks_over(0.5))
        assert 4.0 <= ratio <= 6.0

    def test_final_watermark_flushes_within_an_interval_and_a_poll(self):
        env, job, source, sent = self.paced_source(1.0)
        feeder = live_feeder(env, "events", ["k"], count=30, interval=0.02)
        job.start()
        env.sim.run(until=feeder)
        last_record_at = env.sim.now
        env.run(until=last_record_at + 5.0)
        assert source.records_emitted == 30
        flushed_at, timestamp = sent[-1]
        assert timestamp == last_record_at  # live feeder: ts == append time
        assert flushed_at <= last_record_at + 1.0 + self.IDLE
        assert job.operator_instances("out")[0].watermark == timestamp

    def test_first_batch_after_a_seek_is_followed_by_its_watermark(self):
        env, job, source, sent = self.paced_source(10.0)
        env.feed_sequence("events", keys=["k"], count=10, interval=0.01)
        job.start()
        env.run(until=1.0)
        assert sent == [(sent[0][0], 0.09)]
        source.send_command("seek", 0)
        env.run(until=2.0)
        assert source.records_emitted == 20
        # Well inside the 10 s interval: the seek re-armed the pacing.
        assert [ts for _at, ts in sent] == [0.09, 0.09]
        assert 1.0 <= sent[1][0] < 1.1

    def test_zero_interval_emits_after_every_batch(self):
        env, job, source, sent = self.paced_source(0, max_poll=4)
        env.feed_sequence("events", keys=["k"], count=20, interval=0.01)
        job.start()
        env.run(until=1.0)
        assert source.records_emitted == 20
        assert len(sent) == 5


class TestSourceIdleWaiters:
    """An idle source keeps its pending wake-ups across polls: however long
    it idles, its partition and its control store each hold one waiter."""

    IDLE = 0.05

    def idle_source(self):
        env = EngineEnv()
        env.topic("events", 1)
        graph = StreamGraph("idle")
        graph.source("src", topic="events", parallelism=1)
        graph.sink("out", inputs=[("src", "forward")])
        config = JobConfig(num_key_groups=NUM_GROUPS, source_idle_timeout=self.IDLE)
        job = env.job(graph, config=config)
        job.deploy()
        source = job.source_instances()[0]
        polls = []
        try_poll = source.cursor.try_poll

        def counting(max_records):
            polls.append(env.sim.now)
            return try_poll(max_records)

        source.cursor.try_poll = counting
        job.start()
        env.run(until=50.5 * self.IDLE)
        return env, source, polls

    def test_fifty_idle_polls_hold_one_waiter_each(self):
        _env, source, polls = self.idle_source()
        assert len(polls) >= 50
        assert len(source.cursor.partition._waiters) <= 1
        assert len(source.control._nonempty_waiters) <= 1
        # ... and each pending wait carries only the current sleep's hook.
        assert len(source._data_wait.callbacks) == 1
        assert len(source._control_wait.callbacks) == 1

    def test_a_kept_wait_wakes_the_source_before_its_timer(self):
        env, source, polls = self.idle_source()
        env.feed_sequence("events", keys=["k"], count=3, start_time=env.sim.now)
        env.run(until=env.sim.now + self.IDLE / 5)
        assert source.records_emitted == 3
        source.send_command("seek", 0)  # a command wakes it too
        env.run(until=env.sim.now + self.IDLE / 5)
        assert source.records_emitted == 6
        assert polls[-1] - polls[-2] < self.IDLE / 5
