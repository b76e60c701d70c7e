"""Immutable sorted string tables.

A point lookup visits every run it cannot rule out, so the store derives
the key's order key and bloom seeds once, as a :class:`Probe`, and every
table and slice answers ``lookup(probe)``; ``get(group, key)`` builds the
probe for callers holding a single table.
"""

import bisect
import itertools
import zlib

from repro.common.errors import CorruptionError
from repro.common.ranges import RangeSet
from repro.storage.kvs.bloom import BloomFilter, KeyHash
from repro.storage.kvs.memtable import TOMBSTONE, order_key

_table_ids = itertools.count(1)


def _serialized(group, text):
    """``repr((group, key))`` rebuilt from ``text = repr(key)``."""
    return f"({group!r}, {text})"


class Probe(KeyHash):
    """One point lookup's key: a single ``repr(key)`` yields the order key
    and, through the composite's serialization, the bloom seeds.
    """

    __slots__ = ("composite", "order")

    def __init__(self, group, key):
        text = repr(key)
        self.composite = (group, key)
        self.order = (group, text)
        KeyHash.__init__(self, _serialized(group, text))


def _block_crc32(keys, entries):
    """CRC32 over a canonical serialization of the table's entries.

    ``repr`` is the store's stable serialization (see ``order_key``); the
    tombstone sentinel is mapped to a fixed token because its default repr
    embeds a memory address.
    """
    crc = 0
    for composite, entry in zip(keys, entries):
        value = "<tombstone>" if entry.value is TOMBSTONE else entry.value
        fragment = repr((composite, entry.kind, entry.seq, entry.nbytes, value))
        crc = zlib.crc32(fragment.encode("utf-8"), crc)
    return crc


class SSTable:
    """An immutable, sorted run of entries with a bloom filter.

    Tables are shared structures: a checkpoint, a replica, and a live store
    may all reference the same SSTable object (mirroring hard-linked SST
    files on disk).  Nothing mutates a table after construction.
    """

    __slots__ = (
        "table_id",
        "keys",
        "entries",
        "_order",
        "size_bytes",
        "group_bytes",
        "bloom",
        "min_key",
        "max_key",
        "max_seq",
        "crc32",
    )

    def __init__(self, items, table_id=None):
        """``items``: iterable of ((group, key), Entry), sorted by order_key."""
        self.table_id = table_id if table_id is not None else next(_table_ids)
        self.keys = [composite for composite, _entry in items]
        self.entries = [entry for _composite, entry in items]
        self._order = [
            entry.order if entry.order is not None else order_key(composite)
            for composite, entry in zip(self.keys, self.entries)
        ]
        self.size_bytes = sum(e.nbytes for e in self.entries)
        self.group_bytes = {}
        for (group, _key), entry in zip(self.keys, self.entries):
            self.group_bytes[group] = self.group_bytes.get(group, 0) + entry.nbytes
        self.bloom = BloomFilter(len(self.keys) or 1)
        for group, text in self._order:  # the repr cached at write time
            self.bloom.add(KeyHash(_serialized(group, text)))
        self.min_key = self.keys[0] if self.keys else None
        self.max_key = self.keys[-1] if self.keys else None
        #: Newest sequence number in the run -- lets dirty-chunk tracking
        #: skip whole tables older than a migration cutoff.
        self.max_seq = max((e.seq for e in self.entries), default=0)
        #: Block checksum sealed at construction (the table is immutable).
        self.crc32 = _block_crc32(self.keys, self.entries)

    def verify(self):
        """Recompute the block checksum; raises on mismatch.

        Returns the checksum so callers can chain it into manifests.
        """
        actual = _block_crc32(self.keys, self.entries)
        if actual != self.crc32:
            raise CorruptionError(
                f"SSTable #{self.table_id}: block checksum mismatch "
                f"(stored={self.crc32:#010x} computed={actual:#010x})"
            )
        return self.crc32

    def __len__(self):
        return len(self.keys)

    def get(self, group, key):
        """Point lookup; returns the Entry or None."""
        return self.lookup(Probe(group, key))

    def lookup(self, probe):
        """Point lookup of a pre-derived :class:`Probe`; the Entry or None."""
        orders = self._order
        if not orders:
            return None
        order = probe.order
        # Range pruning: a composite outside [min, max] cannot be in the
        # run, so skip it before paying the bloom probe.
        if order < orders[0] or order > orders[-1]:
            return None
        if probe not in self.bloom:
            return None
        index = bisect.bisect_left(orders, order)
        if index < len(orders) and self.keys[index] == probe.composite:
            return self.entries[index]
        return None

    def iter_groups(self, lo, hi):
        """Yield ((group, key), Entry) for entries with lo <= group < hi."""
        start = bisect.bisect_left(self._order, (lo, ""))
        for index in range(start, len(self.keys)):
            group = self.keys[index][0]
            if group >= hi:
                break
            yield self.keys[index], self.entries[index]

    def bytes_in_groups(self, lo, hi):
        """Modeled bytes of entries whose key group falls in [lo, hi)."""
        return sum(
            nbytes for group, nbytes in self.group_bytes.items() if lo <= group < hi
        )

    def dirty_bytes_in_groups(self, lo, hi, since_seq):
        """Bytes in [lo, hi) written after sequence number ``since_seq``."""
        if self.max_seq <= since_seq:
            return 0
        total = 0
        start = bisect.bisect_left(self._order, (lo, ""))
        for index in range(start, len(self.keys)):
            if self.keys[index][0] >= hi:
                break
            entry = self.entries[index]
            if entry.seq > since_seq:
                total += entry.nbytes
        return total

    def items(self):
        """((group, key), Entry) pairs in table order."""
        return zip(self.keys, self.entries)

    def __repr__(self):
        return f"<SSTable #{self.table_id} n={len(self.keys)} {self.size_bytes} B>"


class GroupSlice:
    """A read view of an SSTable restricted to key-group ranges.

    Handover targets ingest migrated tables through this view (RocksDB's
    *ranged* external-SST ingestion): the underlying file is shared as-is
    (hard-linked), but only the migrated key groups are visible.  Without
    the restriction, stale entries the origin's files still hold for
    groups it dropped in an earlier handover would shadow newer values the
    target already owns -- dropping a group is metadata-only, so the bytes
    stay in the file until compaction.
    """

    __slots__ = ("table", "ranges")

    def __init__(self, table, ranges):
        self.table = table
        self.ranges = RangeSet(ranges)

    @property
    def table_id(self):
        """The underlying table's id (slices share the file)."""
        return self.table.table_id

    @property
    def size_bytes(self):
        """Modeled bytes of the visible (in-range) entries."""
        return sum(self.table.bytes_in_groups(lo, hi) for lo, hi in self.ranges)

    @property
    def crc32(self):
        """The underlying table's checksum (slices share the file)."""
        return self.table.crc32

    @property
    def max_seq(self):
        """The underlying table's newest sequence number."""
        return self.table.max_seq

    def verify(self):
        """Verify the shared file; raises CorruptionError on mismatch."""
        return self.table.verify()

    def add_ranges(self, ranges):
        """Widen the view (the same file ingested for more vnodes)."""
        for lo, hi in ranges:
            self.ranges.add(lo, hi)

    def get(self, group, key):
        """Point lookup; returns the Entry or None."""
        return self.lookup(Probe(group, key))

    def lookup(self, probe):
        """Point lookup of a pre-derived :class:`Probe`; the Entry or None."""
        if probe.composite[0] not in self.ranges:
            return None
        return self.table.lookup(probe)

    def iter_groups(self, lo, hi):
        """Yield ((group, key), Entry) for visible entries in [lo, hi)."""
        for r_lo, r_hi in self.ranges.intersection(lo, hi):
            yield from self.table.iter_groups(r_lo, r_hi)

    def bytes_in_groups(self, lo, hi):
        """Modeled bytes of visible entries whose group falls in [lo, hi)."""
        return sum(
            self.table.bytes_in_groups(r_lo, r_hi)
            for r_lo, r_hi in self.ranges.intersection(lo, hi)
        )

    def dirty_bytes_in_groups(self, lo, hi, since_seq):
        """Visible bytes in [lo, hi) written after ``since_seq``."""
        return sum(
            self.table.dirty_bytes_in_groups(r_lo, r_hi, since_seq)
            for r_lo, r_hi in self.ranges.intersection(lo, hi)
        )

    def items(self):
        """((group, key), Entry) pairs of the visible entries."""
        for lo, hi in self.ranges:
            yield from self.table.iter_groups(lo, hi)

    def __len__(self):
        return sum(1 for _ in self.items())

    def __repr__(self):
        return f"<GroupSlice #{self.table_id} ranges={list(self.ranges)}>"
