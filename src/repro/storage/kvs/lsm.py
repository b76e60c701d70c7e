"""The LSM store: memtable + sorted runs + incremental checkpoints."""

import itertools

from repro.common.errors import StorageError
from repro.common.ranges import RangeSet
from repro.storage.kvs.memtable import (
    Entry,
    MemTable,
    PUT,
    DELETE,
    MERGE,
    TOMBSTONE,
    item_order,
    order_key,
)
from repro.storage.kvs.sstable import GroupSlice, Probe, SSTable
from repro.storage.kvs.checkpoint import Checkpoint, CheckpointManifest


class CompactionResult:
    """I/O accounting of one compaction, charged to disks by the caller."""

    __slots__ = ("read_bytes", "write_bytes", "new_table", "removed_tables")

    def __init__(self, read_bytes, write_bytes, new_table, removed_tables):
        self.read_bytes = read_bytes
        self.write_bytes = write_bytes
        self.new_table = new_table
        self.removed_tables = removed_tables


class LSMStore:
    """One operator instance's keyed state backend.

    Keys are addressed as ``(key_group, key)``.  The store *owns* a set of
    key groups (its assigned virtual nodes); ownership can shrink or grow
    during handovers without touching the immutable tables -- dropping a
    virtual node is a metadata operation, exactly like deleting a RocksDB
    key range by adjusting ownership rather than rewriting files.
    """

    def __init__(
        self,
        name,
        memtable_limit=64 * 1024 * 1024,
        compaction_trigger=8,
        owned=None,
    ):
        self.name = name
        self.memtable_limit = memtable_limit
        self.compaction_trigger = compaction_trigger
        self.memtable = MemTable()
        self.tables = []  # oldest first
        self.uncheckpointed = []  # tables not yet captured by a checkpoint
        self.owned = owned.copy() if owned is not None else None
        #: Memoized per-group ownership verdicts; ownership changes only
        #: at handovers, so the hot-path RangeSet lookup caches perfectly.
        self._owns_cache = {}
        self._seq = 0
        self.last_checkpoint_id = None

    # -- ownership -----------------------------------------------------------

    def owns(self, group):
        """True when this store serves the key group."""
        if self.owned is None:
            return True
        cached = self._owns_cache.get(group)
        if cached is None:
            cached = self._owns_cache[group] = group in self.owned
        return cached

    def _check_owned(self, group):
        if not self.owns(group):
            raise StorageError(
                f"store {self.name}: key group {group} is not owned"
            )

    def adopt_groups(self, lo, hi):
        """Take ownership of key groups [lo, hi) (handover target side)."""
        if self.owned is None:
            return
        self.owned.add(lo, hi)
        self._owns_cache.clear()

    def drop_groups(self, lo, hi):
        """Release key groups [lo, hi); returns the modeled bytes released.

        Entries of dropped groups in the immutable tables stay in place (a
        later compaction discards them); memtable entries are evicted now.
        """
        released = self.bytes_in_groups(lo, hi)
        if self.owned is None:
            self.owned = RangeSet([(0, 2**62)])
        self.owned.remove(lo, hi)
        self._owns_cache.clear()
        for composite in [
            c for c in self.memtable.entries if lo <= c[0] < hi
        ]:
            entry = self.memtable.entries.pop(composite)
            self.memtable.size_bytes -= entry.nbytes
        return released

    def owned_ranges(self):
        """Owned key-group ranges, or None when unrestricted."""
        if self.owned is None:
            return None
        return list(self.owned)

    # -- writes ----------------------------------------------------------------

    def put(self, group, key, value, nbytes=None):
        """Write a key-value pair."""
        self._check_owned(group)
        self._seq += 1
        self.memtable.put(group, key, value, self._seq, nbytes)

    def put_batch(self, items):
        """Write a batch of ``(group, key, value, nbytes)`` rows at once.

        One ownership check per distinct group and one memtable call for
        the whole batch; sequence numbers are assigned per row exactly as
        ``put`` would, so state contents are bit-identical to the
        per-record path.
        """
        if not items:
            return
        if self.owned is not None:
            for group in {item[0] for item in items}:
                self._check_owned(group)
        first_seq = self._seq + 1
        self._seq += len(items)
        self.memtable.put_batch(items, first_seq)

    def delete(self, group, key):
        """Delete a key (tombstone until compaction)."""
        self._check_owned(group)
        self._seq += 1
        self.memtable.delete(group, key, self._seq)

    def append(self, group, key, element, nbytes=None):
        """The append state-update pattern (window joins, NBQ8/NBQX)."""
        self._check_owned(group)
        self._seq += 1
        self.memtable.append(group, key, element, self._seq, nbytes)

    # -- reads ----------------------------------------------------------------

    def get(self, group, key):
        """Resolved value for (group, key), or None if absent/deleted.

        The value may be the stored object itself: treat it as read-only.
        """
        if not self.owns(group):
            return None
        operands = []  # newest-first MERGE lists
        entry = self.memtable.get(group, key)
        base, stopped = self._inspect(entry, operands)
        if not stopped and self.tables:
            probe = Probe(group, key)  # the key, derived once for all runs
            for table in reversed(self.tables):
                entry = table.lookup(probe)
                if entry is None:
                    continue
                base, stopped = self._inspect(entry, operands)
                if stopped:
                    break
        return self._fold(base, operands)

    @staticmethod
    def _inspect(entry, operands):
        """Collect merge operands; report (base, found_base_or_tombstone)."""
        if entry is None:
            return None, False
        if entry.kind == PUT:
            return entry.value, True
        if entry.kind == DELETE:
            return TOMBSTONE, True
        operands.append(entry.value)
        return None, False

    @staticmethod
    def _fold(base, operands):
        if base is TOMBSTONE:
            base = None
        if not operands:
            return base
        merged = []
        if base is not None:
            merged.extend(base if isinstance(base, list) else [base])
        for operand_list in reversed(operands):  # oldest merge first
            merged.extend(operand_list)
        return merged

    def __contains__(self, composite):
        group, key = composite
        return self.get(group, key) is not None

    # -- flush / compaction ------------------------------------------------------

    @property
    def needs_flush(self):
        """True when the memtable exceeds its write-buffer limit."""
        return self.memtable.size_bytes >= self.memtable_limit

    def flush(self):
        """Freeze the memtable into a new SSTable; returns it (or None).

        The caller charges the table's ``size_bytes`` as a disk write.
        """
        if not self.memtable.entries:
            return None
        table = SSTable(self.memtable.sorted_items())
        self.memtable.clear()
        self.tables.append(table)
        self.uncheckpointed.append(table)
        return table

    @property
    def needs_compaction(self):
        """True when the run count reaches the compaction trigger."""
        return len(self.tables) >= self.compaction_trigger

    def compact(self):
        """Full merge of all tables into one canonical run.

        Drops shadowed versions, tombstones, and entries of unowned key
        groups.  Returns a :class:`CompactionResult` for I/O charging.
        """
        if len(self.tables) <= 1:
            return None
        inputs = list(self.tables)
        read_bytes = sum(t.size_bytes for t in inputs)
        resolved = {}
        unrestricted = self.owned is None  # per store, not per entry
        for table in inputs:  # oldest -> newest so newer entries shadow
            for composite, entry in table.items():
                if not (unrestricted or self.owns(composite[0])):
                    continue
                if entry.kind == MERGE:
                    previous = resolved.get(composite)
                    if previous is not None and previous.kind in (PUT, MERGE):
                        merged = _clone_merge(previous)
                        merged.value.extend(entry.value)
                        merged.nbytes += entry.nbytes
                        merged.seq = entry.seq
                        resolved[composite] = merged
                    else:
                        resolved[composite] = _clone_merge(entry)
                else:
                    resolved[composite] = entry
        items = sorted(
            (
                (composite, entry)
                for composite, entry in resolved.items()
                if entry.kind != DELETE
            ),
            key=item_order,
        )
        new_table = SSTable(items)
        self.tables = [new_table]
        merged = set(map(id, inputs))
        self.uncheckpointed = [t for t in self.uncheckpointed if id(t) not in merged]
        self.uncheckpointed.append(new_table)
        return CompactionResult(read_bytes, new_table.size_bytes, new_table, inputs)

    # -- checkpoints --------------------------------------------------------------

    def checkpoint(self, checkpoint_id, now=0.0):
        """Create an incremental checkpoint.

        Returns ``(checkpoint, flushed_table)``; ``flushed_table`` (possibly
        None) is the table produced by the synchronous flush, which the
        caller charges as a disk write.
        """
        flushed = self.flush()
        manifest = CheckpointManifest(
            [t.table_id for t in self.tables], self.total_bytes
        )
        checkpoint = Checkpoint(
            checkpoint_id,
            self.name,
            manifest,
            delta_tables=list(self.uncheckpointed),
            full_tables=list(self.tables),
            created_at=now,
        )
        self.uncheckpointed = []
        self.last_checkpoint_id = checkpoint_id
        return checkpoint, flushed

    def ingest_tables(self, tables, ranges=None):
        """Add externally produced tables (a handover's migrated state).

        Ingested tables count as new data for the next incremental
        checkpoint, mirroring RocksDB's external-SST ingestion.  With
        ``ranges`` (the moved key-group ranges) each table is ingested as
        a :class:`GroupSlice` view: the origin's files may still hold
        entries for groups it dropped in an earlier handover, and since
        ingested tables rank newest on the read path, an unrestricted
        ingest would let those stale entries shadow values this store
        already owns.
        """
        existing = {t.table_id: t for t in self.tables}
        for table in tables:
            table.verify()  # ranged ingest checksums every foreign file
            # Later writes must outrank the ingested entries, or dirty
            # tracking (since_seq) would read them as older than the ingest.
            self._seq = max(self._seq, table.max_seq)
            current = existing.get(table.table_id)
            if current is None:
                view = GroupSlice(table, ranges) if ranges is not None else table
                self.tables.append(view)
                self.uncheckpointed.append(view)
                existing[view.table_id] = view
            elif ranges is not None and isinstance(current, GroupSlice):
                current.add_ranges(ranges)

    def restore(self, tables, owned=None):
        """Install ``tables`` as the live set (checkpoint restore).

        Restoring is metadata-only -- the hard-link/manifest processing that
        keeps "state loading" at ~1.5 s in Table 1 regardless of size.
        """
        for table in tables:
            table.verify()  # a corrupt replica must not restore silently
            # Writes after the restore must outrank the restored entries.
            self._seq = max(self._seq, table.max_seq)
        self.memtable.clear()
        self.tables = list(tables)
        self.uncheckpointed = []
        self.owned = owned.copy() if owned is not None else None
        self._owns_cache.clear()

    # -- sizes -----------------------------------------------------------------

    @property
    def total_bytes(self):
        """Modeled bytes of owned state (memtable + tables)."""
        total = self.memtable.size_bytes
        for table in self.tables:
            total += self._owned_table_bytes(table)
        return total

    def _owned_table_bytes(self, table):
        if self.owned is None:
            return table.size_bytes
        return sum(
            table.bytes_in_groups(lo, hi) for lo, hi in self.owned
        )

    def bytes_in_groups(self, lo, hi):
        """Modeled bytes currently held for key groups [lo, hi)."""
        ranges = [(lo, hi)] if self.owned is None else self.owned.intersection(lo, hi)
        total = 0
        for r_lo, r_hi in ranges:
            total += sum(
                e.nbytes
                for c, e in self.memtable.entries.items()
                if r_lo <= c[0] < r_hi
            )
            for table in self.tables:
                total += table.bytes_in_groups(r_lo, r_hi)
        return total

    @property
    def current_seq(self):
        """The newest assigned sequence number (the migration cutoff)."""
        return self._seq

    def dirty_bytes_in_groups(self, lo, hi, since_seq):
        """Owned bytes in [lo, hi) written after sequence ``since_seq``.

        The fluid handover's dirty-chunk estimate: what a delta round (or
        the cutover barrier) still has to ship after a snapshot taken at
        ``since_seq``.  A compaction merging old and new entries keeps the
        newest sequence per key, so the estimate stays an upper bound of
        the truly-new bytes (never an undercount).
        """
        return sum(self.dirty_bytes_by_group([(lo, hi)], since_seq).values())

    def dirty_bytes_by_group(self, ranges, since_seq):
        """{group: owned bytes written after ``since_seq``} over the
        disjoint key-group ``ranges``: one pass over the memtable and one
        scan of each table per owned sub-range, not one call per group."""
        if self.owned is not None:
            ranges = [r for lo, hi in ranges for r in self.owned.intersection(lo, hi)]
        scanned = RangeSet(ranges)
        spans = list(scanned)
        sizes = {}
        if not spans:
            return sizes
        lo, hi = spans[0][0], spans[-1][1]
        for (group, _key), entry in self.memtable.entries.items():
            if lo <= group < hi and entry.seq > since_seq and group in scanned:
                sizes[group] = sizes.get(group, 0) + entry.nbytes
        for table in self.tables:
            for lo, hi in spans:
                for group, nbytes in table.dirty_bytes_by_group(
                    lo, hi, since_seq
                ).items():
                    sizes[group] = sizes.get(group, 0) + nbytes
        return sizes

    # -- migration helpers -------------------------------------------------------

    def extract_groups(self, lo, hi, since_seq=None):
        """Materialize resolved (group, key, value) for key groups [lo, hi).

        Used by the Megaphone baseline (which migrates resolved key-value
        pairs), by the window operators rebuilding their index, and by
        tests asserting state equivalence after a handover.  Rows come in
        ``(group, repr(key))`` order, owned groups only.

        The full range is one merging pass, as RocksDB's merging iterator
        answers a range read: the memtable's in-range entries, then each
        run's ``iter_groups`` from newest to oldest (the order ``get``
        visits them), keeping per key the MERGE operands seen so far until
        a PUT or DELETE ends it -- no bloom probe and no point lookup per
        key.  With ``since_seq`` only keys *touched* after that sequence
        number are emitted (delta extraction): a delta touches few keys,
        so each is resolved across all levels with ``get`` instead.

        Values are the stored objects, not copies: treat them as read-only
        (``ingest_pairs`` copies lists before they enter another store).
        """
        if since_seq is not None:
            return self._extract_touched(lo, hi, since_seq)
        owns, inspect = self.owns, self._inspect
        spans = [(lo, hi)] if self.owned is None else self.owned.intersection(lo, hi)
        newest_first = itertools.chain(
            (
                (composite, entry)
                for composite, entry in self.memtable.entries.items()
                if lo <= composite[0] < hi and owns(composite[0])
            ),
            (
                item
                for table in reversed(self.tables)
                for span_lo, span_hi in spans
                for item in table.iter_groups(span_lo, span_hi)
            ),
        )
        found = {}  # composite -> [order, base, stopped, operands newest first]
        for composite, entry in newest_first:
            row = found.get(composite)
            if row is None:
                operands = []
                base, stopped = inspect(entry, operands)
                order = entry.order or order_key(composite)
                found[composite] = [order, base, stopped, operands]
            elif not row[2]:
                row[1], row[2] = inspect(entry, row[3])
        fold = self._fold
        out = []
        for (group, key), (_order, base, _stopped, operands) in sorted(
            found.items(), key=lambda item: item[1][0]
        ):
            value = fold(base, operands)
            if value is not None:
                out.append((group, key, value))
        return out

    def _extract_touched(self, lo, hi, since_seq):
        """Delta extraction: every owned key in [lo, hi) written after
        ``since_seq``, resolved with one ``get`` each."""
        composites = set()
        for composite, entry in self.memtable.entries.items():
            if lo <= composite[0] < hi and entry.seq > since_seq:
                composites.add(composite)
        for table in self.tables:
            if table.max_seq <= since_seq:
                continue
            for composite, entry in table.iter_groups(lo, hi):
                if entry.seq > since_seq:
                    composites.add(composite)
        out = []
        for group, key in sorted(composites, key=order_key):
            if not self.owns(group):
                continue
            value = self.get(group, key)
            if value is not None:
                out.append((group, key, value))
        return out

    def ingest_pairs(self, pairs, nbytes_per_pair=None):
        """Bulk-load resolved (group, key, value) pairs (Megaphone restore).

        A list value is stored as a copy: it may be another store's own
        object (``extract_groups`` hands out stored values, shared with
        sealed tables and checkpoints), and a later ``append`` here grows a
        memtable PUT's list in place.
        """
        for group, key, value in pairs:
            if isinstance(value, list):
                value = list(value)
            self.put(group, key, value, nbytes=nbytes_per_pair)

    def __repr__(self):
        return (
            f"<LSMStore {self.name}: {len(self.tables)} tables, "
            f"{self.total_bytes} B>"
        )


def _clone_merge(entry):
    value = list(entry.value) if entry.kind == MERGE else (
        list(entry.value) if isinstance(entry.value, list) else [entry.value]
    )
    return Entry(MERGE, value, entry.seq, entry.nbytes, order=entry.order)
