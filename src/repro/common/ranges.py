"""Sets of disjoint half-open integer ranges.

Key-group ownership (which key groups an operator instance serves, which
virtual nodes a handover migrates) is represented as a :class:`RangeSet` of
half-open ``[lo, hi)`` ranges over the key-group space.
"""

import bisect


class RangeSet:
    """A set of non-overlapping half-open integer ranges, kept normalized.

    >>> rs = RangeSet([(0, 10)])
    >>> rs.remove(4, 6)
    >>> sorted(rs)
    [(0, 4), (6, 10)]
    >>> 3 in rs, 5 in rs
    (True, False)
    """

    __slots__ = ("_ranges",)

    def __init__(self, ranges=()):
        self._ranges = []
        for lo, hi in ranges:
            self.add(lo, hi)

    def add(self, lo, hi):
        """Add ``[lo, hi)``, merging with adjacent/overlapping ranges."""
        if lo >= hi:
            return
        merged = []
        inserted = False
        for r_lo, r_hi in self._ranges:
            if r_hi < lo or r_lo > hi:
                if r_lo > hi and not inserted:
                    merged.append((lo, hi))
                    inserted = True
                merged.append((r_lo, r_hi))
            else:
                lo = min(lo, r_lo)
                hi = max(hi, r_hi)
        if not inserted:
            merged.append((lo, hi))
        merged.sort()
        self._ranges = merged

    def remove(self, lo, hi):
        """Remove ``[lo, hi)`` from the set."""
        if lo >= hi:
            return
        result = []
        for r_lo, r_hi in self._ranges:
            if r_hi <= lo or r_lo >= hi:
                result.append((r_lo, r_hi))
                continue
            if r_lo < lo:
                result.append((r_lo, lo))
            if r_hi > hi:
                result.append((hi, r_hi))
        self._ranges = result

    def __contains__(self, value):
        index = bisect.bisect_right(self._ranges, (value, float("inf"))) - 1
        if index < 0:
            return False
        lo, hi = self._ranges[index]
        return lo <= value < hi

    def intersects(self, lo, hi):
        """True if any value of ``[lo, hi)`` is in the set."""
        return any(r_lo < hi and lo < r_hi for r_lo, r_hi in self._ranges)

    def intersection(self, lo, hi):
        """The sub-ranges of the set falling inside ``[lo, hi)``."""
        out = []
        for r_lo, r_hi in self._ranges:
            i_lo, i_hi = max(r_lo, lo), min(r_hi, hi)
            if i_lo < i_hi:
                out.append((i_lo, i_hi))
        return out

    def __iter__(self):
        return iter(self._ranges)

    def __len__(self):
        return len(self._ranges)

    def __bool__(self):
        return bool(self._ranges)

    def __eq__(self, other):
        if not isinstance(other, RangeSet):
            return NotImplemented
        return self._ranges == other._ranges

    def span(self):
        """Total number of integers covered."""
        return sum(hi - lo for lo, hi in self._ranges)

    def copy(self):
        """An independent copy."""
        clone = RangeSet()
        clone._ranges = list(self._ranges)
        return clone

    def __repr__(self):
        inner = ", ".join(f"[{lo},{hi})" for lo, hi in self._ranges)
        return f"RangeSet({inner})"
