"""One instance's replay rule, as a state machine over its range table.

Sim-free: a stateful ``OperatorInstance`` with no simulator handles one
delivered record at a time (no CPU charge, no downstream).  The steps
adopt a key-group range with a frontier, hand a released range back
(a rollback's re-adoption), release a range, deliver a source's next
record, and rewind a source.  A source delivers its partition in
position order, and an adoption rewinds every source to just past the
frontier it brings (a restore's replay, or a handover's post-marker
stream), a hand-back to just past what the range had processed (the
rollback's replay): the channel delivers a prefix, which is what the
rule relies on.

The invariant, checked on every delivery: a record is processed at most
once per ownership of its range, and it is dropped only when that
ownership already processed it or the frontier the range was adopted
with covers it.  A record of a group the instance does not own is never
processed.
"""

from types import SimpleNamespace

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.engine.instance import Frontier, OperatorInstance
from repro.engine.operators import LogicalOperator, OperatorLogic
from repro.engine.partitioning import key_group_of
from repro.engine.records import Record, RecordBatch

NUM_GROUPS = 8
ORIGINS = ("a", "b")
#: One key per key group.
KEY_OF = {}
for _i in range(1000):
    KEY_OF.setdefault(key_group_of(f"k{_i}", NUM_GROUPS), f"k{_i}")
assert len(KEY_OF) == NUM_GROUPS

CHANNEL = SimpleNamespace(input_index=0)  # any delivered record has one


def group_at(origin, position):
    """The key group of the record at ``position`` of ``origin``'s log."""
    return (position * 5 + 3 * ORIGINS.index(origin)) % NUM_GROUPS


class Recorder(OperatorLogic):
    def __init__(self):
        self.processed = []

    def process_batch(self, batch, side=0):
        self.processed.extend(batch.records)
        return ()


ranges = st.tuples(
    st.integers(0, NUM_GROUPS - 1), st.integers(1, NUM_GROUPS)
).filter(lambda r: r[0] < r[1])


class RangeTableMachine(RuleBasedStateMachine):
    @initialize(initial=ranges)
    def deploy(self, initial):
        op = LogicalOperator("op", Recorder, 1, stateful=True, cpu_per_record=0)
        job = SimpleNamespace(
            config=SimpleNamespace(num_key_groups=NUM_GROUPS), misroute_handler=None
        )
        self.instance = OperatorInstance(None, job, op, 0, None, [initial])
        self.cursor = dict.fromkeys(ORIGINS, 0)
        #: group -> the current ownership: (covered, processed) where
        #: ``covered`` is the adopted frontier, ``processed`` what this
        #: ownership processed; None when not owned.
        self.owner = dict.fromkeys(range(NUM_GROUPS))
        for group in range(*initial):
            self.owner[group] = ({}, set())
        #: Ranges released, with the ownerships a rollback hands back.
        self.released = []

    def owned(self, lo, hi):
        return all(self.owner[g] is not None for g in range(lo, hi))

    def unowned(self, lo, hi):
        return all(self.owner[g] is None for g in range(lo, hi))

    @rule(span=ranges, data=st.data())
    def adopt_with_a_frontier(self, span, data):
        lo, hi = span
        if not self.unowned(lo, hi):
            return
        frontier = {}
        for origin in ORIGINS:
            position = data.draw(st.integers(-1, self.cursor[origin] - 1))
            if position >= 0:
                frontier[origin] = position
            # The replay (or post-marker stream) starts just past it.
            self.cursor[origin] = min(self.cursor[origin], position + 1)
        self.instance.progress.take([(lo, hi)], Frontier([(lo, hi, frontier)]))
        self.instance.adopt_groups([(lo, hi)])
        self.released = [r for r in self.released if r[1] <= lo or hi <= r[0]]
        for group in range(lo, hi):
            self.owner[group] = (dict(frontier), set())

    @precondition(lambda self: self.released)
    @rule(data=st.data())
    def hand_a_released_range_back(self, data):
        lo, hi, ownerships = self.released.pop(
            data.draw(st.integers(0, len(self.released) - 1))
        )
        if not self.unowned(lo, hi):
            return
        self.instance.adopt_groups([(lo, hi)])
        for group, ownership in zip(range(lo, hi), ownerships):
            self.owner[group] = ownership
        # The rollback replays what was diverted while the range was away:
        # every source rewinds to just past what the range had processed.
        for origin in ORIGINS:
            reached = min(
                max([covered.get(origin, -1)] + [p for o, p in done if o == origin])
                for covered, done in ownerships
            )
            self.cursor[origin] = min(self.cursor[origin], reached + 1)

    @rule(span=ranges)
    def release(self, span):
        lo, hi = span
        if not self.owned(lo, hi):
            return
        self.instance.release_groups([(lo, hi)])
        self.released.append((lo, hi, [self.owner[g] for g in range(lo, hi)]))
        for group in range(lo, hi):
            self.owner[group] = None

    @rule(origin=st.sampled_from(ORIGINS))
    def deliver(self, origin):
        position = self.cursor[origin]
        self.cursor[origin] += 1
        group = group_at(origin, position)
        record = Record(KEY_OF[group], 0.0, origin=origin, position=position)
        logic = self.instance.logic
        before = len(logic.processed)
        for _ in self.instance._handle_batch(CHANNEL, RecordBatch([record])):
            raise AssertionError("a sim-free delivery never waits")
        processed = len(logic.processed) > before
        ownership = self.owner[group]
        if ownership is None:
            assert not processed, (origin, position, group)
            return
        covered, done = ownership
        expected = position > covered.get(origin, -1) and (origin, position) not in done
        assert processed == expected, (origin, position, group, covered, done)
        if processed:
            done.add((origin, position))

    @rule(origin=st.sampled_from(ORIGINS), data=st.data())
    def rewind(self, origin, data):
        self.cursor[origin] = data.draw(st.integers(0, self.cursor[origin]))

    @invariant()
    def ownership_is_the_stores(self):
        if not hasattr(self, "instance"):
            return
        store = self.instance.state
        for group in range(NUM_GROUPS):
            assert store.owns(group) == (self.owner[group] is not None)


RangeTableMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=60, deadline=None
)
TestRangeTable = RangeTableMachine.TestCase
