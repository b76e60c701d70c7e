"""Consistent hashing with key groups and virtual nodes (R2 of §3.4).

Keys hash into a fixed space of *key groups* (the paper and our default:
2^15).  Each operator instance is assigned a contiguous key-group range;
the range is further subdivided into a fixed number of *virtual nodes* (the
paper's best setting: 4), which are the finest granularity a handover can
migrate.  Reassigning a virtual node moves its key groups -- and therefore
its records and state -- to another instance without touching the rest.
"""

from itertools import groupby

from repro.common.errors import EngineError
from repro.common.ranges import RangeSet
from repro.common.rng import stable_hash

#: The paper's configuration: "we use 2^15 key groups" (§5.1.3).
DEFAULT_KEY_GROUPS = 2**15

#: "and 4 virtual nodes ... as these values lead to best performance".
DEFAULT_VIRTUAL_NODES = 4


def key_group_of(key, num_groups=DEFAULT_KEY_GROUPS):
    """Map a key to its key group with a deterministic hash."""
    return stable_hash(key) % num_groups


def split_key_groups(num_groups, parallelism):
    """Contiguous key-group ranges per instance (Flink-style assignment).

    >>> split_key_groups(8, 3)
    [(0, 3), (3, 6), (6, 8)]
    """
    if parallelism <= 0:
        raise EngineError("parallelism must be positive")
    ranges = []
    for index in range(parallelism):
        lo = (index * num_groups) // parallelism
        hi = ((index + 1) * num_groups) // parallelism
        ranges.append((lo, hi))
    return ranges


def virtual_nodes(lo, hi, count=DEFAULT_VIRTUAL_NODES):
    """Split a key-group range into ``count`` virtual-node sub-ranges.

    >>> virtual_nodes(0, 8, 4)
    [(0, 2), (2, 4), (4, 6), (6, 8)]
    """
    if lo >= hi:
        raise EngineError(f"empty key-group range [{lo}, {hi})")
    width = hi - lo
    nodes = []
    for index in range(count):
        n_lo = lo + (index * width) // count
        n_hi = lo + ((index + 1) * width) // count
        if n_lo < n_hi:
            nodes.append((n_lo, n_hi))
    return nodes


class KeyGroupAssignment:
    """A mutable mapping of every key group to an owning instance index.

    The routing tables of upstream operators consult this; a handover
    *rewires channels* by calling :meth:`reassign` for the migrated virtual
    node, after which records of those key groups flow to the target
    instance (§4.1.2 step 3, first routine).
    """

    #: Cached maximal ``(lo, hi, owner)`` runs of ``_owner``; ``None`` until
    #: first asked for and again after every :meth:`reassign`.
    _runs = None

    def __init__(self, num_groups, parallelism):
        self.num_groups = num_groups
        self._owner = []
        for index, (lo, hi) in enumerate(split_key_groups(num_groups, parallelism)):
            self._owner.extend([index] * (hi - lo))
        self.parallelism = parallelism

    @classmethod
    def from_ranges(cls, num_groups, ranges_by_instance):
        """Build from explicit {instance_index: [(lo, hi), ...]} ranges."""
        assignment = cls.__new__(cls)
        assignment.num_groups = num_groups
        assignment._owner = [None] * num_groups
        for index, ranges in ranges_by_instance.items():
            for lo, hi in ranges:
                for group in range(lo, hi):
                    assignment._owner[group] = index
        if any(owner is None for owner in assignment._owner):
            raise EngineError("ranges do not cover the key-group space")
        assignment.parallelism = len(ranges_by_instance)
        return assignment

    def owner_of(self, group):
        """Instance index owning a key group."""
        return self._owner[group]

    def route_key(self, key):
        """Instance index a key routes to."""
        return self._owner[key_group_of(key, self.num_groups)]

    def reassign(self, lo, hi, new_owner):
        """Move key groups [lo, hi) to ``new_owner``."""
        if not 0 <= lo < hi <= self.num_groups:
            raise EngineError(f"invalid key-group range [{lo}, {hi})")
        self._owner[lo:hi] = [new_owner] * (hi - lo)
        self._runs = None

    def owner_runs(self):
        """Maximal ``(lo, hi, owner)`` runs in group order: one pass over
        the key groups, cached until the next :meth:`reassign`.  The list
        is shared; callers must not mutate it."""
        runs = self._runs
        if runs is None:
            runs = self._runs = []
            lo = 0
            for owner, members in groupby(self._owner):
                hi = lo + len(list(members))
                runs.append((lo, hi, owner))
                lo = hi
        return runs

    def ranges_of(self, instance_index):
        """The RangeSet of key groups owned by ``instance_index``."""
        return RangeSet(
            (lo, hi)
            for lo, hi, owner in self.owner_runs()
            if owner == instance_index
        )

    def owners(self):
        """The set of instance indexes owning at least one group."""
        return {owner for _lo, _hi, owner in self.owner_runs()}

    def group_counts(self):
        """{instance_index: number of owned key groups}."""
        counts = {}
        for lo, hi, owner in self.owner_runs():
            counts[owner] = counts.get(owner, 0) + hi - lo
        return counts

    def copy(self):
        """An independent copy (the run cache is shared until either side
        reassigns, which replaces its own reference only)."""
        clone = KeyGroupAssignment.__new__(KeyGroupAssignment)
        clone.num_groups = self.num_groups
        clone._owner = list(self._owner)
        clone.parallelism = self.parallelism
        clone._runs = self._runs
        return clone
