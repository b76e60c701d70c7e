"""Unit and property tests for the LSM store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import StorageError
from repro.common.ranges import RangeSet
from repro.storage.kvs import LSMStore
from repro.storage.kvs.bloom import BloomFilter
from repro.storage.kvs.memtable import PUT, Entry, order_key
from repro.storage.kvs.sstable import GroupSlice, SSTable


@pytest.fixture
def store():
    return LSMStore("s0", memtable_limit=10_000, compaction_trigger=4)


class TestReadWrite:
    def test_put_get(self, store):
        store.put(1, "k", "v")
        assert store.get(1, "k") == "v"

    def test_get_missing_returns_none(self, store):
        assert store.get(1, "nope") is None

    def test_overwrite(self, store):
        store.put(1, "k", "old")
        store.put(1, "k", "new")
        assert store.get(1, "k") == "new"

    def test_delete(self, store):
        store.put(1, "k", "v")
        store.delete(1, "k")
        assert store.get(1, "k") is None

    def test_read_through_flushed_table(self, store):
        store.put(1, "k", "v")
        store.flush()
        assert store.get(1, "k") == "v"

    def test_newer_memtable_shadows_table(self, store):
        store.put(1, "k", "old")
        store.flush()
        store.put(1, "k", "new")
        assert store.get(1, "k") == "new"

    def test_delete_shadows_flushed_put(self, store):
        store.put(1, "k", "v")
        store.flush()
        store.delete(1, "k")
        assert store.get(1, "k") is None

    def test_contains(self, store):
        store.put(1, "k", "v")
        assert (1, "k") in store
        assert (1, "z") not in store


class TestAppendPattern:
    def test_append_builds_list(self, store):
        store.append(1, "k", "a")
        store.append(1, "k", "b")
        assert store.get(1, "k") == ["a", "b"]

    def test_append_across_flushes_preserves_order(self, store):
        store.append(1, "k", "a")
        store.flush()
        store.append(1, "k", "b")
        store.flush()
        store.append(1, "k", "c")
        assert store.get(1, "k") == ["a", "b", "c"]

    def test_append_onto_put_base(self, store):
        store.put(1, "k", ["base"])
        store.flush()
        store.append(1, "k", "x")
        assert store.get(1, "k") == ["base", "x"]

    def test_delete_resets_append_chain(self, store):
        store.append(1, "k", "a")
        store.flush()
        store.delete(1, "k")
        store.flush()
        store.append(1, "k", "b")
        assert store.get(1, "k") == ["b"]


class TestFlushAndCompaction:
    def test_flush_empty_returns_none(self, store):
        assert store.flush() is None

    def test_needs_flush_threshold(self):
        store = LSMStore("s", memtable_limit=100)
        store.put(1, "k", "v", nbytes=50)
        assert not store.needs_flush
        store.put(1, "j", "w", nbytes=60)
        assert store.needs_flush

    def test_flush_returns_table_with_bytes(self, store):
        store.put(1, "k", "v", nbytes=123)
        table = store.flush()
        assert table.size_bytes == 123
        assert store.tables == [table]

    def test_compaction_merges_tables(self, store):
        for i in range(4):
            store.put(1, f"k{i}", i, nbytes=10)
            store.flush()
        assert store.needs_compaction
        result = store.compact()
        assert len(store.tables) == 1
        assert result.read_bytes == 40
        assert result.write_bytes == 40
        assert all(store.get(1, f"k{i}") == i for i in range(4))

    def test_compaction_drops_shadowed_versions(self, store):
        store.put(1, "k", "old", nbytes=100)
        store.flush()
        store.put(1, "k", "new", nbytes=10)
        store.flush()
        result = store.compact()
        assert result.write_bytes == 10
        assert store.get(1, "k") == "new"

    def test_compaction_drops_tombstones(self, store):
        store.put(1, "k", "v", nbytes=50)
        store.flush()
        store.delete(1, "k")
        store.flush()
        store.compact()
        assert store.total_bytes == 0
        assert store.get(1, "k") is None

    def test_compaction_merges_append_chains(self, store):
        store.append(1, "k", "a", nbytes=5)
        store.flush()
        store.append(1, "k", "b", nbytes=5)
        store.flush()
        store.compact()
        assert store.get(1, "k") == ["a", "b"]

    def test_compaction_with_single_table_is_noop(self, store):
        store.put(1, "k", "v")
        store.flush()
        assert store.compact() is None


class TestCheckpoints:
    def test_checkpoint_captures_delta_only(self, store):
        store.put(1, "a", 1, nbytes=10)
        first, _ = store.checkpoint(1)
        store.put(1, "b", 2, nbytes=20)
        second, _ = store.checkpoint(2)
        assert first.delta_bytes == 10
        assert second.delta_bytes == 20
        assert second.total_bytes == 30

    def test_checkpoint_flushes_memtable(self, store):
        store.put(1, "a", 1, nbytes=10)
        checkpoint, flushed = store.checkpoint(1)
        assert flushed is not None
        assert store.memtable.size_bytes == 0
        assert checkpoint.manifest.table_ids == (flushed.table_id,)

    def test_checkpoint_after_compaction_ships_new_table(self, store):
        for i in range(2):
            store.put(1, f"k{i}", i, nbytes=10)
            store.flush()
        store.checkpoint(1)
        store.compact()
        checkpoint, _ = store.checkpoint(2)
        # Compaction output counts as new data to replicate.
        assert checkpoint.delta_bytes == 20
        assert len(checkpoint.manifest.table_ids) == 1

    def test_empty_checkpoint(self, store):
        checkpoint, flushed = store.checkpoint(1)
        assert flushed is None
        assert checkpoint.delta_bytes == 0
        assert checkpoint.total_bytes == 0

    def test_restore_from_checkpoint_tables(self, store):
        store.put(1, "a", "x", nbytes=10)
        store.put(2, "b", "y", nbytes=10)
        checkpoint, _ = store.checkpoint(1)

        replica = LSMStore("s0-replica")
        replica.restore(checkpoint.full_tables)
        assert replica.get(1, "a") == "x"
        assert replica.get(2, "b") == "y"
        assert replica.total_bytes == 20

    @pytest.mark.parametrize("install", ("restore", "ingest_tables"))
    def test_writes_after_restore_or_ingest_outrank_installed_tables(
        self, store, install
    ):
        # A handover target later becomes a fluid-handover origin: a write
        # made after the install must read as dirty against a cutoff taken
        # before it, and the installed rows must not.
        for i in range(5):
            store.put(1, f"k{i}", i, nbytes=10)
        checkpoint, _ = store.checkpoint(1)

        fresh = LSMStore("fresh")
        getattr(fresh, install)(checkpoint.full_tables)
        cutoff = fresh.current_seq
        assert cutoff == store.current_seq
        fresh.put(1, "new", "v", nbytes=7)
        assert fresh.dirty_bytes_in_groups(0, 8, since_seq=cutoff) == 7
        assert fresh.extract_groups(0, 8, since_seq=cutoff) == [(1, "new", "v")]


class TestRangedIngest:
    def test_ingest_restricted_to_moved_ranges(self):
        # An origin's files keep entries of groups it dropped earlier; a
        # ranged ingest must not let them shadow the target's own values.
        origin = LSMStore("origin", owned=RangeSet([(0, 8)]))
        origin.put(3, "k", "stale", nbytes=10)
        origin.put(5, "m", "moved", nbytes=10)
        origin.flush()
        origin.drop_groups(0, 4)  # group 3 gone, bytes stay in the file

        target = LSMStore("target", owned=RangeSet([(0, 4)]))
        target.put(3, "k", "fresh", nbytes=10)
        target.adopt_groups(4, 8)
        target.ingest_tables(origin.tables, ranges=[(4, 8)])
        assert target.get(5, "m") == "moved"
        assert target.get(3, "k") == "fresh"

    def test_unrestricted_ingest_keeps_old_behavior(self):
        origin = LSMStore("origin")
        origin.put(3, "k", "new", nbytes=10)
        origin.flush()
        target = LSMStore("target")
        target.put(3, "k", "old", nbytes=10)
        target.flush()
        target.ingest_tables(origin.tables)
        assert target.get(3, "k") == "new"

    def test_reingesting_same_table_widens_the_view(self):
        origin = LSMStore("origin")
        origin.put(1, "a", "x", nbytes=10)
        origin.put(5, "b", "y", nbytes=10)
        origin.flush()
        target = LSMStore("target")
        target.ingest_tables(origin.tables, ranges=[(0, 4)])
        assert target.get(5, "b") is None
        target.ingest_tables(origin.tables, ranges=[(4, 8)])
        assert len(target.tables) == 1  # same file, wider slice
        assert target.get(1, "a") == "x"
        assert target.get(5, "b") == "y"

    def test_slice_accounting_counts_only_visible_bytes(self):
        origin = LSMStore("origin")
        origin.put(1, "a", "x", nbytes=10)
        origin.put(5, "b", "y", nbytes=30)
        origin.flush()
        target = LSMStore("target")
        target.ingest_tables(origin.tables, ranges=[(4, 8)])
        assert target.tables[0].size_bytes == 30
        assert target.total_bytes == 30
        assert target.bytes_in_groups(0, 4) == 0

    def test_compaction_resolves_slices_into_plain_tables(self):
        origin = LSMStore("origin")
        origin.put(3, "k", "stale", nbytes=10)
        origin.put(5, "m", "moved", nbytes=10)
        origin.flush()
        target = LSMStore("target")
        target.put(3, "k", "fresh", nbytes=10)
        target.flush()
        target.ingest_tables(origin.tables, ranges=[(4, 8)])
        target.compact()
        assert len(target.tables) == 1
        assert target.get(3, "k") == "fresh"
        assert target.get(5, "m") == "moved"


class TestOwnership:
    def make_store(self):
        return LSMStore("s", owned=RangeSet([(0, 8)]))

    def test_write_to_unowned_group_rejected(self):
        store = self.make_store()
        with pytest.raises(StorageError):
            store.put(9, "k", "v")

    def test_read_of_unowned_group_is_none(self):
        store = self.make_store()
        store.put(3, "k", "v")
        store.drop_groups(0, 8)
        assert store.get(3, "k") is None

    def test_drop_groups_returns_released_bytes(self):
        store = self.make_store()
        store.put(1, "a", "x", nbytes=10)
        store.put(5, "b", "y", nbytes=20)
        store.flush()
        released = store.drop_groups(4, 8)
        assert released == 20
        assert store.total_bytes == 10

    def test_drop_groups_evicts_memtable_entries(self):
        store = self.make_store()
        store.put(5, "b", "y", nbytes=20)
        store.drop_groups(4, 8)
        assert store.memtable.size_bytes == 0

    def test_adopt_then_write(self):
        store = self.make_store()
        store.adopt_groups(8, 16)
        store.put(12, "k", "v")
        assert store.get(12, "k") == "v"

    def test_compaction_discards_unowned_entries(self):
        store = self.make_store()
        store.put(1, "a", "x", nbytes=10)
        store.flush()
        store.put(5, "b", "y", nbytes=20)
        store.flush()
        store.drop_groups(4, 8)
        store.compact()
        assert store.tables[0].size_bytes == 10

    def test_bytes_in_groups(self):
        store = self.make_store()
        store.put(1, "a", "x", nbytes=10)
        store.put(6, "b", "y", nbytes=30)
        store.flush()
        store.put(6, "c", "z", nbytes=5)
        assert store.bytes_in_groups(0, 4) == 10
        assert store.bytes_in_groups(4, 8) == 35

    def test_extract_groups_resolves_values(self):
        store = self.make_store()
        store.append(2, "k", "a")
        store.flush()
        store.append(2, "k", "b")
        store.put(6, "j", "v")
        extracted = store.extract_groups(0, 8)
        assert extracted == [(2, "k", ["a", "b"]), (6, "j", "v")]

    def test_ingest_pairs(self):
        source = self.make_store()
        source.put(2, "k", "v")
        target = LSMStore("t", owned=RangeSet([(0, 8)]))
        target.ingest_pairs(source.extract_groups(0, 8))
        assert target.get(2, "k") == "v"

    def test_migrated_list_does_not_alias_the_origins_table(self):
        # extract_groups hands out the origin's stored list; an append on
        # the target must not grow it inside the origin's sealed table.
        origin = LSMStore("origin")
        origin.put(1, "k", ["a"])
        origin.flush()
        origin.checkpoint(1)
        target = LSMStore("target")
        target.ingest_pairs(origin.extract_groups(0, 8))
        target.append(1, "k", "b")
        assert target.get(1, "k") == ["a", "b"]
        assert origin.get(1, "k") == ["a"]
        origin.tables[0].verify()


# -- property-based: the store behaves like a dict under random operations --

#: The key shapes the engine writes: plain record keys, sliding-window
#: panes and emission frontiers, join sides.  A small pool, so operations
#: collide on keys.
KEYS = [
    "a",
    "b7",
    0,
    3,
    ("a", "pane", 10.0),
    ("a", "pane", 20.0),
    ("a", "emitted", 0),
    (3, 0, 3600.0),
    (3, 1, 3600.0),
]
GROUPS = 8
HALF = GROUPS // 2


def writes(kinds):
    return st.lists(
        st.tuples(
            st.sampled_from(kinds),
            st.integers(0, GROUPS - 1),  # group
            st.sampled_from(KEYS),
            st.integers(0, 100),  # value payload
        ),
        max_size=60,
    )


operations = writes(["put", "delete", "append", "flush", "compact"])


def apply(store, model, op, group, key, value):
    """One operation on the store and on its dict oracle."""
    if op == "put":
        store.put(group, key, value, nbytes=10)
        model[(group, key)] = value
    elif op == "delete":
        store.delete(group, key)
        model.pop((group, key), None)
    elif op == "append":
        store.append(group, key, value, nbytes=10)
        existing = model.get((group, key))
        if existing is None:
            model[(group, key)] = [value]
        elif isinstance(existing, list):
            model[(group, key)] = existing + [value]
        else:
            model[(group, key)] = [existing, value]
    elif op == "flush":
        store.flush()
    elif op == "compact":
        store.compact()


def extracted(model, lo=0, hi=GROUPS):
    """What ``extract_groups(lo, hi)`` returns for a store holding ``model``."""
    return sorted(
        ((g, k, v) for (g, k), v in model.items() if lo <= g < hi),
        key=lambda row: (row[0], repr(row[1])),
    )


def assert_reads(store, model):
    for group in range(GROUPS):
        for key in KEYS:
            assert store.get(group, key) == model.get((group, key)), (group, key)


class TestModelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(operations)
    def test_store_matches_model(self, ops):
        store = LSMStore("model-test", memtable_limit=200, compaction_trigger=3)
        model = {}
        for op in ops:
            apply(store, model, *op)
        assert_reads(store, model)

    @settings(max_examples=40, deadline=None)
    @given(operations)
    def test_checkpoint_restore_roundtrip(self, ops):
        store = LSMStore("ckpt-test", memtable_limit=200, compaction_trigger=3)
        model = {}
        for op in ops:
            apply(store, model, *op)
        checkpoint, _ = store.checkpoint(1)
        restored = LSMStore("restored")
        restored.restore(checkpoint.full_tables)
        assert_reads(restored, model)

    @settings(max_examples=60, deadline=None)
    @given(
        operations,
        st.integers(0, 60),
        st.tuples(st.integers(0, HALF), st.integers(0, HALF)).map(sorted),
        writes(["put", "delete", "append", "flush"]),
    )
    def test_migration_paths_match_model(self, ops, cut_at, moved, later_ops):
        """Extraction (full and delta), ranged ingest into a second store,
        ownership changes and checkpoint + restore into a third, all against
        the dict oracle -- with every read of the second and third store
        walking at least three runs, one of them a GroupSlice."""
        origin = LSMStore("origin")
        model, touched = {}, set()
        apply(origin, model, "put", 0, "seed", 0)  # there is a run to ship
        origin.flush()
        cutoff = origin.current_seq
        for index, op in enumerate(ops):
            if index == cut_at:
                cutoff, touched = origin.current_seq, set()
            apply(origin, model, *op)
            if op[0] in ("put", "delete", "append"):
                touched.add(op[1:3])
        lo, hi = moved
        assert_reads(origin, model)
        assert origin.extract_groups(lo, hi) == extracted(model, lo, hi)
        delta = {c: v for c, v in model.items() if c in touched}
        assert origin.extract_groups(0, GROUPS, since_seq=cutoff) == extracted(delta)

        # An earlier handover gave the upper half to the target, which has
        # written its own values there since (two runs); the origin's files
        # keep their stale entries for those groups.
        origin.flush()
        origin.drop_groups(HALF, GROUPS)
        model = {c: v for c, v in model.items() if c[0] < HALF}
        target = LSMStore("target", owned=RangeSet([(HALF, GROUPS)]))
        target_model = {}
        for value, key in enumerate(KEYS):
            apply(target, target_model, "put", HALF + value % HALF, key, -value)
            if value in (3, len(KEYS) - 1):
                target.flush()

        # This handover: [lo, hi) moves as slices of the origin's files.
        target.adopt_groups(lo, hi)
        target.ingest_tables(origin.tables, ranges=[(lo, hi)])
        origin.drop_groups(lo, hi)
        target_model.update({c: v for c, v in model.items() if lo <= c[0] < hi})
        model = {c: v for c, v in model.items() if not lo <= c[0] < hi}
        assert_reads(origin, model)
        assert origin.extract_groups(0, GROUPS) == extracted(model)

        ingested_at = target.current_seq
        written = set()
        for op in later_ops:
            if op[0] == "flush":
                target.flush()
            elif target.owns(op[1]):
                apply(target, target_model, *op)
                written.add(op[1:3])
            else:
                with pytest.raises(StorageError):
                    apply(target, {}, *op)
        assert len(target.tables) >= 3
        assert any(isinstance(table, GroupSlice) for table in target.tables)
        assert_reads(target, target_model)
        assert target.extract_groups(0, GROUPS) == extracted(target_model)
        delta = {c: target_model[c] for c in written if c in target_model}
        assert target.extract_groups(0, GROUPS, since_seq=ingested_at) == extracted(
            delta
        )

        checkpoint, _ = target.checkpoint(1)
        third = LSMStore("third")
        third.restore(checkpoint.full_tables, owned=RangeSet(target.owned_ranges()))
        assert len(third.tables) >= 3
        assert_reads(third, target_model)
        assert third.extract_groups(0, GROUPS) == extracted(target_model)


# -- the merging range read against the per-key lookups it replaced --------


def extract_by_lookup(store, lo, hi):
    """``extract_groups(lo, hi)`` as it was before the merging pass: collect
    every composite the memtable and the runs hold in [lo, hi), then
    resolve each owned one with a point ``get``."""
    composites = {c for c in store.memtable.entries if lo <= c[0] < hi}
    for table in store.tables:
        composites.update(c for c, _entry in table.iter_groups(lo, hi))
    out = []
    for group, key in sorted(composites, key=order_key):
        if store.owns(group):
            value = store.get(group, key)
            if value is not None:
                out.append((group, key, value))
    return out


group_ranges = st.tuples(st.integers(0, GROUPS), st.integers(0, GROUPS)).map(sorted)


def layered_store(base, compacted, donor_ops, ingested, hole, top):
    """A store whose reads cross every kind of run: a table compacted while
    ``compacted`` was unowned, donor files ingested as slices of
    ``ingested`` (one of them built without cached order keys), tables of
    later writes, a memtable, and a ``hole`` dropped after all of them so
    the lower runs keep entries the store no longer owns.  A PUT -> MERGE
    and a DELETE -> append chain on ``chain`` span several runs."""
    store = LSMStore("layered", owned=RangeSet([(0, GROUPS)]))
    scratch = {}
    store.put(compacted[0] % GROUPS, "seed", 0, nbytes=10)
    store.flush()
    for op in base:
        apply(store, scratch, *op)
    store.put(HALF, "seed", 1, nbytes=10)
    store.flush()
    store.drop_groups(*compacted)
    assert store.compact() is not None
    store.adopt_groups(*compacted)
    chain = hole[1] % GROUPS  # outside the hole, which is at most HALF wide
    store.put(chain, "chain", 1, nbytes=10)
    store.delete(chain, "gone")
    store.flush()

    donor = LSMStore("donor")
    donor.put(ingested[0] % GROUPS, "donor", 0, nbytes=10)
    for op in donor_ops:
        apply(donor, scratch, *op)
    donor.flush()
    seq = donor.current_seq
    rows = [(group, key) for group in range(0, GROUPS, 3) for key in KEYS[:4]]
    plain = SSTable(
        sorted(
            ((c, Entry(PUT, -c[0], seq + i, 10)) for i, c in enumerate(rows)),
            key=lambda item: order_key(item[0]),
        )
    )
    store.ingest_tables(donor.tables + [plain], ranges=[ingested])

    store.append(chain, "chain", 2, nbytes=10)
    store.append(chain, "gone", 3, nbytes=10)
    store.flush()
    store.drop_groups(*hole)
    for op in top:
        if op[0] == "flush" or store.owns(op[1]):
            apply(store, scratch, *op)
    store.append(chain, "chain", 4, nbytes=10)
    return store


class TestMergingExtraction:
    @settings(max_examples=80, deadline=None)
    @given(
        writes(["put", "delete", "append", "flush"]),
        group_ranges,
        writes(["put", "delete", "append", "flush"]),
        group_ranges,
        st.tuples(st.integers(0, GROUPS), st.integers(0, HALF)).map(
            lambda r: (r[0], min(GROUPS, r[0] + r[1]))
        ),
        writes(["put", "delete", "append", "flush"]),
        group_ranges,
    )
    def test_merge_matches_per_key_lookups(
        self, base, compacted, donor_ops, ingested, hole, top, read
    ):
        store = layered_store(base, compacted, donor_ops, ingested, hole, top)
        assert len(store.tables) >= 3 and store.memtable.entries
        assert any(isinstance(table, GroupSlice) for table in store.tables)
        for lo, hi in (read, (0, GROUPS)):
            assert store.extract_groups(lo, hi) == extract_by_lookup(store, lo, hi)

    def test_a_range_read_probes_no_filter_and_calls_no_get(self, monkeypatch):
        store = layered_store(
            [("put", g, k, g) for g in range(GROUPS) for k in KEYS[:3]],
            (1, 2),
            [("append", g, "a", g) for g in range(GROUPS)],
            (2, 6),
            (5, 7),
            [("put", g, "b7", -g) for g in range(GROUPS)],
        )
        cutoff = store.current_seq - 3
        calls = {"probe": 0, "get": []}
        contains, get = BloomFilter.__contains__, LSMStore.get

        def counted_contains(self, key):
            calls["probe"] += 1
            return contains(self, key)

        def counted_get(self, group, key):
            calls["get"].append((group, key))
            return get(self, group, key)

        monkeypatch.setattr(BloomFilter, "__contains__", counted_contains)
        monkeypatch.setattr(LSMStore, "get", counted_get)
        assert store.extract_groups(0, GROUPS)
        assert calls == {"probe": 0, "get": []}

        touched = sorted(
            (c for c, e in store.memtable.entries.items() if e.seq > cutoff),
            key=order_key,
        )
        assert len(touched) == 3
        store.extract_groups(0, GROUPS, since_seq=cutoff)
        assert calls["get"] == touched
