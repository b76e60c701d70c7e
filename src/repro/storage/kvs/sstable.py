"""Immutable sorted string tables.

A point lookup visits every run it cannot rule out, so the store derives
the key's order key and filter hash once, as a :class:`Probe`, and every
table and slice answers ``lookup(probe)``; ``get(group, key)`` builds the
probe for callers holding a single table.

A table is sealed in one pass over its items: index, sizes, filter bits
(``BloomFilter.add_composites``) and block checksum (``_block_crc32``) all
come from the ``(group, repr(key))`` order key cached at write time.
"""

import bisect
import itertools
import zlib

from repro.common.errors import CorruptionError, StorageError
from repro.common.ranges import RangeSet
from repro.storage.kvs.bloom import BloomFilter, KeyHash
from repro.storage.kvs.memtable import TOMBSTONE, order_key

_table_ids = itertools.count(1)
#: Entries joined per ``zlib.crc32`` call: bounds a seal's transient text.
_CRC_CHUNK = 256


class Probe(KeyHash):
    """One point lookup's key: a single ``repr(key)`` yields the order key
    and, through the composite's serialization, the filter's ``(h, mask)``.
    """

    __slots__ = ("composite", "order")

    def __init__(self, group, key):
        text = repr(key)
        self.composite = (group, key)
        self.order = (group, text)
        KeyHash.__init__(self, f"({group!r}, {text})")  # repr((group, key))


def _block_crc32(orders, entries):
    """CRC32 over a canonical serialization of the table's entries:
    ``repr((composite, kind, seq, nbytes, value))`` per entry, rebuilt
    around the ``(group, repr(key))`` pairs ``orders`` yields.

    ``repr`` is the store's stable serialization (see ``order_key``); the
    tombstone sentinel is mapped to a fixed token because its default repr
    embeds a memory address.  ``crc32(a + b) == crc32(b, crc32(a))``, so
    chaining chunks gives the checksum of the per-entry chain.
    """
    crc = 0
    rows = zip(orders, entries)
    while True:
        fragments = [
            f"(({group!r}, {text}), {entry.kind!r}, {entry.seq!r}, {entry.nbytes!r}, "
            f"{'<tombstone>' if entry.value is TOMBSTONE else entry.value!r})"
            for (group, text), entry in itertools.islice(rows, _CRC_CHUNK)
        ]
        if not fragments:
            return crc
        crc = zlib.crc32("".join(fragments).encode("utf-8"), crc)


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
        """``items``: iterable of ((group, key), Entry), strictly increasing
        in ``order_key``; consumed once."""
        self.table_id = table_id if table_id is not None else next(_table_ids)
        self.keys = keys = []
        self.entries = entries = []
        self._order = orders = []
        self.group_bytes = group_bytes = {}
        size_bytes = max_seq = 0
        for composite, entry in items:
            order = entry.order  # the repr cached at write time
            if order is None:
                order = order_key(composite)
            if orders and not orders[-1] < order:  # bisect lookups would miss
                raise StorageError(
                    f"SSTable #{self.table_id}: items not strictly increasing "
                    f"in order_key: {composite!r} after {keys[-1]!r}"
                )
            keys.append(composite)
            entries.append(entry)
            orders.append(order)
            group = order[0]
            size_bytes += entry.nbytes
            group_bytes[group] = group_bytes.get(group, 0) + entry.nbytes
            if entry.seq > max_seq:
                max_seq = entry.seq
        self.size_bytes = size_bytes
        self.bloom = BloomFilter(len(keys) or 1)
        self.bloom.add_composites(orders)
        self.min_key = keys[0] if keys else None
        self.max_key = keys[-1] if keys else None
        #: Newest sequence number in the run -- lets dirty-chunk tracking
        #: skip whole tables older than a migration cutoff.
        self.max_seq = max_seq
        #: Block checksum sealed at construction (the table is immutable),
        #: from the cached text; ``verify`` re-serializes the keys.
        self.crc32 = _block_crc32(orders, entries)

    def verify(self):
        """Recompute the block checksum; raises on mismatch.

        Returns the checksum so callers can chain it into manifests.
        """
        actual = _block_crc32(map(order_key, self.keys), self.entries)
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
