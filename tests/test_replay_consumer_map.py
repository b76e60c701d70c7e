"""The source's replay check, asked of each key group's current owners.

``instance.seen_by_owners`` finds a record's owner in every assignment
and asks that owner's range frontier (a bisect over its segments).  The
oracle below answers the way the check is defined: key group by key
group, one owner per operator whose instance exists and holds state, its
segments scanned one by one.  Both are compared on random assignments,
random range frontiers and random stamped records.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.engine.instance import Frontier, seen_by_owners
from repro.engine.partitioning import KeyGroupAssignment, key_group_of
from repro.engine.records import Record

NUM_GROUPS = 48
OPS = ("join", "count", "window")
ORIGINS = ("a", "b", None)
KEYS = [f"k{i}" for i in range(160)]

progress = st.dictionaries(st.sampled_from(["a", "b"]), st.integers(0, 8), max_size=2)
# An instance either holds state, exists with ``state`` None, or is missing.
instance_kind = st.sampled_from(["stateful", "stateless", "missing"])


@st.composite
def frontiers(draw):
    """Disjoint ascending segments over part of the key-group space."""
    cuts = sorted(draw(st.sets(st.integers(0, NUM_GROUPS), max_size=8)))
    segments = []
    for lo, hi in zip(cuts, cuts[1:]):
        if draw(st.booleans()):
            segments.append((lo, hi, draw(progress)))
    return Frontier(segments)


@st.composite
def jobs(draw):
    assignments = {}
    instances = {}
    for op_name in OPS[: draw(st.integers(0, len(OPS)))]:
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
                    progress=draw(frontiers()),
                )
    return SimpleNamespace(
        config=SimpleNamespace(num_key_groups=NUM_GROUPS),
        assignments=assignments,
        instances=instances,
    )


def oracle(job, record):
    """Shipped unless the group has a stateful owner and every one has
    seen the record, reading each owner's segments one by one."""
    group = key_group_of(record.key, NUM_GROUPS)
    verdicts = []
    for op_name, assignment in job.assignments.items():
        instance = job.instances.get((op_name, assignment.owner_of(group)))
        if instance is None or instance.state is None:
            continue
        held = [p for lo, hi, p in instance.progress.segments if lo <= group < hi]
        verdicts.append(
            bool(held)
            and record.position is not None
            and record.position <= held[0].get(record.origin, -1)
        )
    return bool(verdicts) and all(verdicts)


@settings(max_examples=200, deadline=None)
@given(
    job=jobs(),
    records=st.lists(
        st.tuples(
            st.sampled_from(KEYS),
            st.one_of(st.none(), st.integers(0, 9)),
            st.sampled_from(ORIGINS),
        ),
        max_size=30,
    ),
)
def test_the_range_built_map_equals_the_per_group_one(job, records):
    for key, position, origin in records:
        record = Record(key, 0.0, origin=origin, position=position)
        assert seen_by_owners(job, record) == oracle(job, record)


def test_owners_are_consulted_live_range_by_range():
    """An instance owning two runs answers for each from its own range's
    map, including progress made after the question was first asked."""
    assignment = KeyGroupAssignment(NUM_GROUPS, 2)
    assignment.reassign(8, 16, 1)  # instance 0 now owns [0, 8) and [16, 24)
    low, high = {"a": 2}, {"a": 2}
    first = SimpleNamespace(
        state=object(), progress=Frontier([(0, 8, low), (16, 24, high)])
    )
    second = SimpleNamespace(state=object(), progress=Frontier([(8, 24, {"a": 9})]))
    job = SimpleNamespace(
        config=SimpleNamespace(num_key_groups=NUM_GROUPS),
        assignments={"count": assignment},
        instances={("count", 0): first, ("count", 1): second},
    )
    in_low = next(k for k in KEYS if key_group_of(k, NUM_GROUPS) < 8)
    in_high = next(k for k in KEYS if 16 <= key_group_of(k, NUM_GROUPS) < 24)
    in_second = next(k for k in KEYS if 8 <= key_group_of(k, NUM_GROUPS) < 16)

    def at(key):
        return Record(key, 0.0, origin="a", position=5)

    assert not seen_by_owners(job, at(in_low))
    assert not seen_by_owners(job, at(in_high))
    assert seen_by_owners(job, at(in_second))
    low["a"] = 5
    assert seen_by_owners(job, at(in_low))
    assert not seen_by_owners(job, at(in_high))
