"""Unit tests for window operator logic against a fake context (no engine)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.ranges import RangeSet
from repro.engine.operators import OperatorLogic
from repro.engine.records import Record, Watermark
from repro.engine.windows import (
    SessionWindowJoin,
    SlidingWindowAggregate,
    TumblingWindowJoin,
)
from repro.storage.kvs import LSMStore


class FakeState:
    """KeyedStateBackend lookalike over a plain LSM store."""

    def __init__(self):
        self.store = LSMStore("fake")

    def get(self, group, key):
        return self.store.get(group, key)

    def put(self, group, key, value, nbytes=None):
        self.store.put(group, key, value, nbytes=nbytes)

    def append(self, group, key, element, nbytes=None):
        self.store.append(group, key, element, nbytes=nbytes)

    def delete(self, group, key):
        self.store.delete(group, key)


class FakeContext:
    def __init__(self, num_groups=16):
        self.state = FakeState()
        self.num_key_groups = num_groups

    def key_group(self, key):
        from repro.engine.partitioning import key_group_of

        return key_group_of(key, self.num_key_groups)


def open_logic(logic):
    logic.ctx = FakeContext()
    return logic


class TestSlidingWindowUnit:
    def test_single_pane_counts(self):
        logic = open_logic(SlidingWindowAggregate(size=10.0, slide=5.0))
        for i in range(4):
            list(logic.process(Record("k", 1.0 + i)))
        out = list(logic.on_watermark(Watermark(10.0)))
        # The pane [0,5) is covered by the windows ending at 5 and at 10.
        assert [(r.timestamp, r.value) for r in out] == [(5.0, 4), (10.0, 4)]

    def test_sliding_windows_overlap(self):
        logic = open_logic(SlidingWindowAggregate(size=10.0, slide=5.0))
        list(logic.process(Record("k", 2.0)))  # pane [0,5)
        list(logic.process(Record("k", 7.0)))  # pane [5,10)
        out = {r.timestamp: r.value for r in logic.on_watermark(Watermark(20.0))}
        # window ending 5 covers pane 0; ending 10 covers panes 0+5;
        # ending 15 covers panes 5,10 -> value 1.
        assert out[5.0] == 1
        assert out[10.0] == 2
        assert out[15.0] == 1

    def test_weights_accumulate(self):
        logic = open_logic(SlidingWindowAggregate(size=10.0, slide=10.0))
        list(logic.process(Record("k", 1.0, weight=500)))
        out = list(logic.on_watermark(Watermark(10.0)))
        assert out[0].value == 500

    def test_expired_panes_deleted(self):
        logic = open_logic(SlidingWindowAggregate(size=10.0, slide=5.0))
        list(logic.process(Record("k", 1.0)))
        list(logic.on_watermark(Watermark(50.0)))
        group = logic.ctx.key_group("k")
        assert logic.ctx.state.get(group, ("k", "pane", 0.0)) is None
        assert "k" not in logic.pane_keys

    def test_no_duplicate_emissions_across_watermarks(self):
        logic = open_logic(SlidingWindowAggregate(size=10.0, slide=5.0))
        list(logic.process(Record("k", 2.0)))
        first = list(logic.on_watermark(Watermark(10.0)))
        second = list(logic.on_watermark(Watermark(10.0)))
        list(logic.process(Record("k", 12.0)))
        third = list(logic.on_watermark(Watermark(20.0)))
        emitted = [(r.timestamp, r.value) for r in first + second + third]
        assert len(emitted) == len(set(emitted))

    def test_size_must_be_multiple_of_slide(self):
        with pytest.raises(ValueError):
            SlidingWindowAggregate(size=10.0, slide=3.0)

    def test_rebuild_restores_pane_index(self):
        logic = open_logic(SlidingWindowAggregate(size=10.0, slide=5.0))
        list(logic.process(Record("k", 2.0)))
        saved_state = logic.ctx.state
        fresh = SlidingWindowAggregate(size=10.0, slide=5.0)
        fresh.ctx = logic.ctx
        fresh.rebuild([(0, 16)])
        assert fresh.pane_keys == {"k": {0.0}}


class TestTumblingJoinUnit:
    def test_join_counts_pairs(self):
        logic = open_logic(TumblingWindowJoin(size=10.0))
        for i in range(3):
            list(logic.process(Record("k", 1.0 + i), side=0))
        for i in range(2):
            list(logic.process(Record("k", 1.0 + i), side=1))
        out = list(logic.on_watermark(Watermark(10.0)))
        assert len(out) == 1
        assert out[0].weight == 6  # 3 x 2

    def test_unmatched_key_emits_nothing(self):
        logic = open_logic(TumblingWindowJoin(size=10.0))
        list(logic.process(Record("left-only", 1.0), side=0))
        assert list(logic.on_watermark(Watermark(20.0))) == []

    def test_windows_fire_in_order(self):
        logic = open_logic(TumblingWindowJoin(size=10.0))
        for window in (0.0, 10.0, 20.0):
            list(logic.process(Record("k", window + 1.0), side=0))
            list(logic.process(Record("k", window + 2.0), side=1))
        out = list(logic.on_watermark(Watermark(30.0)))
        assert [r.timestamp for r in out] == [10.0, 20.0, 30.0]

    def test_watermark_does_not_fire_open_window(self):
        logic = open_logic(TumblingWindowJoin(size=10.0))
        list(logic.process(Record("k", 1.0), side=0))
        list(logic.process(Record("k", 1.0), side=1))
        assert list(logic.on_watermark(Watermark(9.0))) == []
        assert 0.0 in logic.windows

    def test_state_deleted_after_fire(self):
        logic = open_logic(TumblingWindowJoin(size=10.0))
        list(logic.process(Record("k", 1.0), side=0))
        list(logic.process(Record("k", 1.0), side=1))
        list(logic.on_watermark(Watermark(10.0)))
        group = logic.ctx.key_group("k")
        assert logic.ctx.state.get(group, ("k", 0, 0.0)) is None
        assert logic.ctx.state.get(group, ("k", 1, 0.0)) is None

    def test_rebuild_restores_window_index(self):
        logic = open_logic(TumblingWindowJoin(size=10.0))
        list(logic.process(Record("k", 3.0), side=0))
        fresh = TumblingWindowJoin(size=10.0)
        fresh.ctx = logic.ctx
        fresh.rebuild([(0, 16)])
        assert fresh.windows == {0.0: {"k"}}


class TestSessionJoinUnit:
    def test_session_closes_after_gap(self):
        logic = open_logic(SessionWindowJoin(gap=5.0))
        list(logic.process(Record("k", 1.0), side=0))
        list(logic.process(Record("k", 2.0), side=1))
        assert list(logic.on_watermark(Watermark(6.0))) == []  # gap not passed
        out = list(logic.on_watermark(Watermark(7.1)))
        assert len(out) == 1
        assert out[0].weight == 1

    def test_activity_extends_session(self):
        logic = open_logic(SessionWindowJoin(gap=5.0))
        list(logic.process(Record("k", 1.0), side=0))
        list(logic.process(Record("k", 4.0), side=1))
        list(logic.process(Record("k", 8.0), side=0))  # extends
        assert list(logic.on_watermark(Watermark(9.0))) == []
        out = list(logic.on_watermark(Watermark(13.5)))
        assert len(out) == 1
        assert out[0].weight == 2  # 2 left x 1 right

    def test_silence_starts_new_session(self):
        logic = open_logic(SessionWindowJoin(gap=5.0))
        list(logic.process(Record("k", 1.0), side=0))
        list(logic.process(Record("k", 1.0), side=1))
        list(logic.on_watermark(Watermark(10.0)))  # closes session 1
        list(logic.process(Record("k", 20.0), side=0))
        list(logic.process(Record("k", 20.0), side=1))
        out = list(logic.on_watermark(Watermark(30.0)))
        assert len(out) == 1

    def test_state_deleted_on_close(self):
        logic = open_logic(SessionWindowJoin(gap=5.0))
        list(logic.process(Record("k", 1.0), side=0))
        list(logic.on_watermark(Watermark(10.0)))
        group = logic.ctx.key_group("k")
        assert logic.ctx.state.get(group, ("k", 0, 1.0)) is None
        assert "k" not in logic.sessions


# -- the watermark skip bound: same outputs, same state ops, fewer visits --


class FullWalk(SlidingWindowAggregate):
    """The reference: every watermark visits every key with a live pane."""

    def on_watermark(self, watermark):
        outputs = []
        for key in list(self.pane_keys):
            outputs.extend(self._fire_key(key, watermark.timestamp))
        return outputs


class RecordingState(FakeState):
    """A FakeState that logs every call the logic makes on it."""

    def __init__(self):
        super().__init__()
        self.log = []

    def get(self, group, key):
        self.log.append(("get", group, key))
        return super().get(group, key)

    def put(self, group, key, value, nbytes=None):
        self.log.append(("put", group, key, value, nbytes))
        super().put(group, key, value, nbytes=nbytes)

    def delete(self, group, key):
        self.log.append(("delete", group, key))
        super().delete(group, key)


def open_recording(logic):
    logic.ctx = FakeContext()
    logic.ctx.state = RecordingState()
    return logic


#: Timestamps are quarter-slide ticks, so they land on and between slide
#: boundaries; record ticks are independent of the watermark's progress, so
#: late records -- and brand-new keys whose pane is already behind the
#: watermark -- come up by themselves.
ticks = st.integers(0, 60)
events = st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.sampled_from("abc"), ticks),
        st.tuples(
            st.just("migrate-in"), st.sampled_from("abcd"), ticks, st.none() | ticks
        ),
        st.tuples(st.just("watermark"), st.integers(0, 6)),  # ticks forward
        st.tuples(st.just("rebuild")),
    ),
    max_size=50,
)
grids = st.sampled_from([(10.0, 5.0), (1.5, 0.5), (5.0, 2.5), (0.3, 0.3)])


class TestWatermarkSkip:
    @settings(max_examples=150, deadline=None)
    @given(grids, events)
    def test_same_outputs_and_state_ops_as_the_full_walk(self, grid, script):
        size, slide = grid
        logics = [
            open_recording(FullWalk(size, slide)),
            open_recording(SlidingWindowAggregate(size, slide)),
        ]
        fired = [[], []]
        watermark = 0
        for kind, *args in script + [("watermark", 200)]:
            if kind == "watermark":
                watermark += args[0]
            for logic, outputs in zip(logics, fired):
                if kind == "record":
                    list(logic.process(Record(args[0], args[1] * slide / 4)))
                elif kind == "migrate-in":
                    # A pane arrives by handover, with or without the
                    # emission frontier of an origin whose watermark ran
                    # ahead: written below the logic, indexed from the store.
                    key, timestamp, frontier = args
                    group = logic.ctx.key_group(key)
                    pane_start = (timestamp * slide / 4 // slide) * slide
                    store = logic.ctx.state.store
                    store.put(group, (key, "pane", pane_start), 1)
                    if frontier is not None:
                        store.put(group, (key, "emitted", 0), frontier * slide)
                    logic.absorb([(group, group + 1)])
                elif kind == "rebuild":
                    logic.rebuild([(0, logic.ctx.num_key_groups)])
                else:
                    # Mark the log, so an effect that lands at a later
                    # watermark than the reference's is a difference.
                    logic.ctx.state.log.append(("watermark", watermark))
                    out = logic.on_watermark(Watermark(watermark * slide / 4))
                    outputs.append([(r.key, r.timestamp, r.value) for r in out])
        assert fired[0] == fired[1]
        assert logics[0].ctx.state.log == logics[1].ctx.state.log
        assert not logics[1].pane_keys  # the last watermark closed everything

    def test_fire_key_visits_are_bounded_by_obligations(self, monkeypatch):
        visits = []
        fire_key = SlidingWindowAggregate._fire_key

        def counted(self, key, wm):
            visits.append(key)
            return fire_key(self, key, wm)

        monkeypatch.setattr(SlidingWindowAggregate, "_fire_key", counted)
        logic = open_logic(SlidingWindowAggregate(size=10.0, slide=5.0))
        for key in "abc":
            list(logic.process(Record(key, 11.0)))  # pane [10, 15)
        for below in (11.0, 14.0, 14.0):
            assert logic.on_watermark(Watermark(below)) == []
        assert visits == []
        out = logic.on_watermark(Watermark(15.0))  # crosses the window end 15
        assert [(r.key, r.timestamp) for r in out] == [("a", 15.0), ("b", 15.0), ("c", 15.0)]
        assert visits == ["a", "b", "c"]
        assert logic.on_watermark(Watermark(19.0)) == []
        assert visits == ["a", "b", "c"]
        # A brand-new key whose pane is already behind the watermark fires
        # at the very next one.
        list(logic.process(Record("late", 2.0)))
        out = logic.on_watermark(Watermark(19.0))
        assert [(r.key, r.timestamp) for r in out] == [("late", 5.0), ("late", 10.0)]
        assert visits == ["a", "b", "c"] + ["a", "b", "c", "late"]
