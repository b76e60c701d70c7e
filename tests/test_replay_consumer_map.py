"""The source replay filter's consumer map, built from key-group ranges.

``rollback.consumer_filter`` builds the map from each assignment's owner
runs and the ``fresh`` range list.  The oracle below builds it the way
the map is defined: key group by key group, one consumer per stateful
operator whose owning instance exists and holds state, the last
``fresh`` entry covering the group in place of that instance's live
progress.  Both are compared consumer for consumer, and the filter's
verdicts against the oracle's, on random assignments.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.rollback import consumer_filter
from repro.engine.instance import Frontier
from repro.engine.partitioning import KeyGroupAssignment, key_group_of
from repro.engine.records import Record

NUM_GROUPS = 48
OPS = ("join", "count", "window")
ORIGINS = ("a", "b", None)
KEYS = [f"k{i}" for i in range(160)]

#: Shared ``fresh`` frontiers; the map must hold these very objects.
FRESH_POOL = (
    Frontier({"a": 3.0}, float("inf")),
    Frontier({}, 4.0),
    Frontier({"a": 1.0, "b": 6.0}, float("-inf")),
)

progress = st.dictionaries(
    st.sampled_from(["a", "b"]), st.integers(0, 8).map(float), max_size=2
)
# An instance either holds state, exists with ``state`` None, or is missing.
instance_kind = st.sampled_from(["stateful", "stateless", "missing"])


@st.composite
def jobs(draw):
    assignments = {}
    instances = {}
    for op_name in OPS[: draw(st.integers(1, len(OPS)))]:
        parallelism = draw(st.integers(1, 4))
        assignment = KeyGroupAssignment(NUM_GROUPS, parallelism)
        for _ in range(draw(st.integers(0, 6))):
            lo = draw(st.integers(0, NUM_GROUPS - 1))
            hi = draw(st.integers(lo + 1, NUM_GROUPS))
            # An owner index past the parallelism has no instance.
            assignment.reassign(lo, hi, draw(st.integers(0, parallelism)))
        assignments[op_name] = assignment
        for index in range(parallelism + 1):
            kind = draw(instance_kind)
            if kind != "missing":
                instances[(op_name, index)] = SimpleNamespace(
                    state=object() if kind == "stateful" else None,
                    origin_progress=draw(progress),
                )
    fresh = []
    for _ in range(draw(st.integers(0, 6))):
        lo = draw(st.integers(0, NUM_GROUPS - 1))
        hi = draw(st.integers(lo + 1, NUM_GROUPS))
        fresh.append(
            (draw(st.sampled_from(OPS)), lo, hi, draw(st.sampled_from(FRESH_POOL)))
        )
    job = SimpleNamespace(
        config=SimpleNamespace(num_key_groups=NUM_GROUPS),
        assignments=assignments,
        instances=instances,
    )
    return job, fresh


def per_group_consumers(job, fresh):
    """The oracle: {group: [consumer, ...]}, one group at a time."""
    fresh_of = {}
    for op_name, lo, hi, frontier in fresh:
        for group in range(lo, hi):
            fresh_of[(op_name, group)] = frontier  # a later entry wins
    consumers = {}
    for op_name, assignment in job.assignments.items():
        for group in range(NUM_GROUPS):
            instance = job.instances.get((op_name, assignment.owner_of(group)))
            if instance is None or instance.state is None:
                continue
            frontier = fresh_of.get((op_name, group))
            if frontier is None:
                frontier = Frontier(instance.origin_progress, float("-inf"))
            consumers.setdefault(group, []).append(frontier)
    return consumers


def identity(frontier):
    """A fresh frontier is itself; a live one is the progress dict it reads."""
    if any(frontier is pooled for pooled in FRESH_POOL):
        return ("fresh", id(frontier))
    return ("live", id(frontier.by_origin), frontier.floor)


def consumers_in(source_filter, group):
    for lo, hi, consumers in source_filter.segments:
        if lo <= group < hi:
            return consumers
    return []


@settings(max_examples=200, deadline=None)
@given(case=jobs(), records=st.lists(
    st.tuples(st.sampled_from(KEYS), st.integers(0, 9), st.sampled_from(ORIGINS)),
    max_size=30,
))
def test_the_range_built_map_equals_the_per_group_one(case, records):
    job, fresh = case
    source_filter = consumer_filter(job, fresh, epoch=1.0)
    expected = per_group_consumers(job, fresh)

    bounds = [(lo, hi) for lo, hi, _consumers in source_filter.segments]
    assert bounds == sorted(bounds)
    assert all(hi <= next_lo for (_, hi), (next_lo, _) in zip(bounds, bounds[1:]))
    for group in range(NUM_GROUPS):
        assert [identity(f) for f in consumers_in(source_filter, group)] == [
            identity(f) for f in expected.get(group, [])
        ]

    for key, timestamp, origin in records:
        record = Record(key, float(timestamp), origin=origin)
        group = key_group_of(key, NUM_GROUPS)
        wanted = any(not f.seen(record) for f in expected.get(group, []))
        assert source_filter.should_process(record) == wanted


def test_survivors_share_one_live_frontier_per_instance():
    """An instance owning two runs is consulted through one Frontier."""
    assignment = KeyGroupAssignment(NUM_GROUPS, 2)
    assignment.reassign(8, 16, 1)  # instance 0 now owns [0, 8) and [16, 24)
    first, second = (
        SimpleNamespace(state=object(), origin_progress={"a": 2.0}) for _ in range(2)
    )
    job = SimpleNamespace(
        config=SimpleNamespace(num_key_groups=NUM_GROUPS),
        assignments={"count": assignment},
        instances={("count", 0): first, ("count", 1): second},
    )
    segments = consumer_filter(job, [], epoch=None).segments
    assert [(lo, hi) for lo, hi, _ in segments] == [(0, 8), (8, 16), (16, 24), (24, 48)]
    (_, _, [a]), (_, _, [b]), (_, _, [c]), (_, _, [d]) = segments
    assert a is c and b is d and a is not b
    assert a.by_origin is first.origin_progress
    assert b.by_origin is second.origin_progress
