"""Tests for the structured tracing subsystem (repro.obs)."""

import gc
import json
import weakref

import pytest

from repro.common.errors import ReproError
from repro.engine.graph import StreamGraph
from repro.engine.job import JobConfig
from repro.engine.operators import StatefulCounterLogic
from repro.core.api import Rhino, RhinoConfig
from repro.obs import (
    NULL_COUNTER,
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Tracer,
    chrome_trace,
    text_timeline,
    write_chrome_trace,
)

from tests.engine_fixtures import EngineEnv, live_feeder
from tests.test_fluid_handover import fluid_scenario

KEYS = ["alpha", "bravo", "charlie", "delta"]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTracerCore:
    def test_span_records_interval_and_tags(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.span("work", track="t", kind="demo")
        clock.now = 2.5
        span.finish(bytes=7)
        assert span.start == 0.0
        assert span.end == 2.5
        assert span.duration == 2.5
        assert span.tags == {"kind": "demo", "bytes": 7}
        assert not span.is_open

    def test_explicit_start_and_end(self):
        tracer = Tracer(FakeClock())
        span = tracer.span("phase", start=1.0)
        span.finish(end=4.0)
        assert span.duration == 3.0

    def test_context_manager_nesting_sets_parents(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span("outer") as outer:
            clock.now = 1.0
            with tracer.span("middle") as middle:
                clock.now = 2.0
                with tracer.span("inner") as inner:
                    pass
        assert inner.parent is middle
        assert middle.parent is outer
        assert outer.parent is None
        assert (outer.depth, middle.depth, inner.depth) == (0, 1, 2)
        assert not any(s.is_open for s in tracer.spans)

    def test_explicit_parent_wins_over_stack(self):
        tracer = Tracer(FakeClock())
        root = tracer.span("root")
        with tracer.span("ctx"):
            child = tracer.span("child", parent=root)
        assert child.parent is root

    def test_find_by_name_prefix_and_tags(self):
        tracer = Tracer(FakeClock())
        a = tracer.span("handover.fetching", handover=1).finish(end=1.0)
        b = tracer.span("handover.loading", handover=1).finish(end=2.0)
        c = tracer.span("handover.fetching", handover=2).finish(end=3.0)
        assert tracer.find("handover.fetching") == [a, c]
        assert tracer.find(prefix="handover.") == [a, b, c]
        assert tracer.find(prefix="handover.", handover=1) == [a, b]
        assert tracer.one("handover.loading") is b
        with pytest.raises(ReproError):
            tracer.one("handover.fetching")

    def test_durations_skip_open_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.span("step").finish(end=2.0)
        tracer.span("step")  # still open
        closed = [s.duration for s in tracer.find("step") if s.end is not None]
        assert closed == [2.0]

    def test_counters_and_gauges(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.count("acks")
        clock.now = 1.0
        tracer.count("acks", 2)
        tracer.gauge("queue", 5)
        tracer.gauge("queue", 3)
        assert tracer.counters["acks"].total == 3
        assert tracer.counters["queue"].total == 3
        assert tracer.counters["acks"].samples == [(0.0, 1, 1), (1.0, 2, 3)]
        with pytest.raises(ReproError):
            tracer.gauge("acks", 1)  # kind mismatch
        with pytest.raises(ReproError):
            tracer.count("queue")

    def test_events_record_instants(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        clock.now = 4.2
        event = tracer.event("marker", track="k", cause="test")
        assert event.time == 4.2
        assert tracer.events == [event]


class TestNullTracer:
    def test_disabled_and_records_nothing(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        span = NULL_TRACER.span("anything", tag=1)
        assert span is NULL_SPAN
        assert span.finish(end=9.9) is NULL_SPAN
        with NULL_TRACER.span("ctx") as ctx:
            assert ctx is NULL_SPAN
        assert NULL_TRACER.count("n") is NULL_COUNTER
        assert NULL_TRACER.gauge("g", 1) is NULL_COUNTER
        assert NULL_TRACER.event("e") is None
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.events == []
        assert NULL_TRACER.counters == {}

    def test_singletons_are_cached(self):
        # The whole point: a disabled tracer allocates nothing per call.
        spans = {id(NULL_TRACER.span("s")) for _ in range(100)}
        counters = {id(NULL_TRACER.count("c")) for _ in range(100)}
        assert len(spans) == 1
        assert len(counters) == 1

    def test_bind_clock_is_inert(self):
        calls = []
        NULL_TRACER.bind_clock(lambda: calls.append(1))
        NULL_TRACER.span("s")
        assert calls == []


class TestChromeExport:
    def make_trace(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span("parent", track="handover", kind="failure"):
            clock.now = 1.0
            tracer.event("mark", track="handover", n=1)
            tracer.span("child", track="handover").finish(end=2.0)
            clock.now = 3.0
        tracer.count("acks", 2)
        return tracer

    def test_document_schema(self):
        doc = chrome_trace(self.make_trace())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X", "i", "C"}
        # Must be JSON-serializable as-is.
        json.dumps(doc)

    def test_span_events_use_microseconds(self):
        doc = chrome_trace(self.make_trace())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in complete}
        assert by_name["parent"]["ts"] == 0.0
        assert by_name["parent"]["dur"] == pytest.approx(3.0e6)
        assert by_name["child"]["ts"] == pytest.approx(1.0e6)
        assert by_name["child"]["dur"] == pytest.approx(1.0e6)
        assert by_name["parent"]["args"] == {"kind": "failure"}

    def test_tracks_become_named_threads(self):
        doc = chrome_trace(self.make_trace())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"main", "handover"} <= names
        handover_tid = next(
            e["tid"] for e in meta if e["args"]["name"] == "handover"
        )
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["tid"] == handover_tid for e in spans)

    def test_counter_events_carry_running_total(self):
        doc = chrome_trace(self.make_trace())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters[-1]["args"] == {"acks": 2}

    def test_nonjson_tags_are_stringified(self):
        tracer = Tracer(FakeClock())
        tracer.span("s", obj=object()).finish(end=1.0)
        doc = chrome_trace(tracer)
        json.dumps(doc)

    def test_write_chrome_trace_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        written = write_chrome_trace(self.make_trace(), str(path))
        assert written == str(path)
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["displayTimeUnit"] == "ms"

    def test_text_timeline_indents_by_depth(self):
        text = text_timeline(self.make_trace(), include_events=True)
        lines = text.splitlines()
        assert any("parent" in line for line in lines)
        child_line = next(line for line in lines if "child" in line)
        assert "  child" in child_line  # nested one level
        assert any("* mark" in line for line in lines)


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


def traced_env():
    tracer = Tracer()
    env = EngineEnv(machines=4, tracer=tracer)
    env.topic("events", 2)
    return env, tracer


def start_job(env):
    config = JobConfig(
        num_key_groups=32,
        virtual_node_count=4,
        checkpoint_interval=1.0,
        exchange_interval=0.05,
        watermark_interval=0.1,
        source_idle_timeout=0.05,
    )
    return env.job(counter_graph(), config=config).start()


def attach_rhino(env, job):
    return Rhino(
        job,
        env.cluster,
        RhinoConfig(
            replication_factor=1,
            scheduling_delay=0.1,
            local_fetch_seconds=0.01,
            state_load_seconds=0.05,
        ),
    ).attach()


class TestEngineIntegration:
    def test_simulator_binds_the_clock(self):
        env, tracer = traced_env()
        assert env.sim.tracer is tracer
        env.sim.run(until=2.5)
        assert tracer.clock() == 2.5

    def test_checkpoint_and_replication_spans(self):
        env, tracer = traced_env()
        job = start_job(env)
        rhino = attach_rhino(env, job)
        live_feeder(env, "events", KEYS, count=60, interval=0.02)
        env.run(until=5.0)
        assert job.coordinator.has_completed()
        checkpoints = tracer.find("checkpoint")
        assert checkpoints
        completed = [s for s in checkpoints if s.tags.get("status") == "completed"]
        assert completed
        hops = tracer.find("replicate.hop")
        assert hops
        assert all(h.parent is not None and h.parent.name == "replicate" for h in hops)
        assert tracer.counters["replication.checkpoints"].total == (
            rhino.replicator.stats.checkpoints_replicated
        )

    def test_handover_spans_cover_the_report(self):
        env, tracer = traced_env()
        job = start_job(env)
        rhino = attach_rhino(env, job)
        live_feeder(env, "events", KEYS, count=100, interval=0.02)
        env.run(until=3.0)
        report = env.sim.run(
            until=rhino.reconfigure("rebalance", op_name="count", moves=[(0, 1)])
        )
        root = tracer.one("handover", handover=report.handover_id)
        assert root.tags["status"] == "completed"
        assert root.duration == pytest.approx(report.total_seconds)
        sched = tracer.one("handover.scheduling", handover=report.handover_id)
        transfer = tracer.one("handover.transfer", handover=report.handover_id)
        assert sched.duration == pytest.approx(report.scheduling_seconds)
        assert sched.duration + transfer.duration == pytest.approx(root.duration)
        loading = tracer.find("handover.loading", handover=report.handover_id)
        assert max(s.duration for s in loading) == pytest.approx(report.loading_seconds)
        spans = tracer.find(prefix="handover", handover=report.handover_id)
        assert root in spans and sched in spans and transfer in spans

    def test_tracing_is_passive(self):
        def run(tracer):
            env = EngineEnv(machines=4, tracer=tracer)
            env.topic("events", 2)
            job = start_job(env)
            attach_rhino(env, job)
            live_feeder(env, "events", KEYS, count=60, interval=0.02)
            env.run(until=5.0)
            finals = {}
            for key, _t, value, _w in job.sink_results("out"):
                finals[key] = max(finals.get(key, 0), value)
            completed = [r.checkpoint_id for r in job.coordinator.completed]
            return env.sim.now, finals, completed

        traced = run(Tracer())
        plain = run(None)
        assert traced == plain


def report_values(report):
    """Every number a HandoverReport gives, by name."""
    return dict(
        report.phase_breakdown(),
        scheduling=report.scheduling_seconds,
        fetching=report.fetching_seconds,
        loading=report.loading_seconds,
        total=report.total_seconds,
    )


class TestReportsReadTheirSpans:
    """A report reads the phase spans the protocol opens: the same spans,
    and so the same numbers, whether or not a tracer records them."""

    def test_cold_rebalance_report_is_the_same_untraced(self):
        _counts, traced, _job = fluid_scenario(tracer=Tracer())
        _counts, plain, _job = fluid_scenario()
        assert traced.precopy_bytes > 0  # the target was cold
        assert traced.cutover_seconds > 0
        assert report_values(traced) == report_values(plain)

    def test_failure_recovery_report_is_the_same_untraced(self):
        (traced, _sim), (plain, _sim) = recover(Tracer()), recover(None)
        assert traced.fetching_seconds > 0 and traced.loading_seconds > 0
        assert report_values(traced) == report_values(plain)

    def test_an_untraced_report_does_not_keep_its_run_alive(self):
        report, sim = recover(None)
        gc.collect()
        assert sim() is None
        assert report.loading_seconds > 0


def recover(tracer):
    """A failure recovery's report and a weak reference to its simulator."""
    env = EngineEnv(machines=4, tracer=tracer)
    env.topic("events", 2)
    job = start_job(env)
    rhino = attach_rhino(env, job)
    live_feeder(env, "events", KEYS, count=60, interval=0.02)
    env.run(until=3.0)
    victim = job.instance("count", 1).machine
    env.cluster.kill(victim)
    recovery = rhino.reconfigure("failure", machine=victim)
    return env.sim.run(until=recovery), weakref.ref(env.sim)
