"""Unit and property tests for bloom filter, memtable, and SSTable."""

import hashlib
import zlib

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import StorageError
from repro.storage.kvs import BloomFilter, MemTable, SSTable
from repro.storage.kvs.bloom import K, MASKS, KeyHash
from repro.storage.kvs.memtable import (
    PUT,
    DELETE,
    MERGE,
    TOMBSTONE,
    Entry,
    order_key,
)
from repro.storage.kvs.sstable import Probe

#: The key shapes the engine writes: plain record keys, sliding-window
#: panes ``(key, "pane", start)`` and join sides ``(key, side, start)``.
record_keys = st.one_of(st.text(max_size=8), st.integers(-(2**40), 2**40))
state_keys = st.one_of(
    record_keys,
    st.tuples(record_keys, st.just("pane"), st.floats(0, 1e6, allow_nan=False)),
    st.tuples(record_keys, st.integers(0, 1), st.floats(0, 1e6, allow_nan=False)),
)
composites = st.tuples(st.integers(0, 2**15), state_keys)


def mixed_composites(lo, hi):
    """Five distinct composites, one per engine key shape, for each ``i``
    in ``[lo, hi)``."""
    out = []
    for i in range(lo, hi):
        group = (i * 37) % 512
        out += [
            (group, f"user-{i}"),
            (group, i * 1001),
            (group, (f"k{i}", "pane", 10.0 * i)),
            (group, (i, 0, 3600.0 * i)),
            (group, (f"k{i}", "emitted", 0)),
        ]
    return out


def filter_digest(bloom):
    """SHA-256 of a filter's words."""
    return hashlib.sha256(bloom._words.tobytes()).hexdigest()


#: SHA-256 of the filter words after adding ``PINNED_COMPOSITES`` to a
#: ``BloomFilter(50)``, re-pinned when the filter became blocked (one word
#: per key); the same change re-pinned ``PINNED_TABLE_BITS_SHA256``.
PINNED_COMPOSITES = mixed_composites(0, 10)
PINNED_BITS_SHA256 = "43cacf65cd5ec076c2c149c7bfbd0249e132a7369760821e3786ccf5e4842702"
#: SHA-256 of ``MASKS.tobytes()``: a moved mask moves every false positive.
PINNED_MASKS_SHA256 = "5b99df56fcc6055946f773918e7fdf555506b4d0f2c0b7c94d71f036ec119e6b"


class TestBloomFilter:
    def test_added_keys_are_found(self):
        bloom = BloomFilter(100)
        for i in range(100):
            bloom.add(("g", i))
        assert all(("g", i) in bloom for i in range(100))

    def test_false_positive_rate_is_reasonable(self):
        """Ledger-style int keys: measured at or under the configured rate."""
        bloom = BloomFilter(1000, false_positive_rate=0.01)
        for i in range(1000):
            bloom.add(i)
        false_positives = sum(1 for i in range(1000, 11000) if i in bloom)
        assert false_positives / 10000 <= 0.01

    @given(st.lists(st.integers(), max_size=200))
    def test_no_false_negatives(self, keys):
        bloom = BloomFilter(max(len(keys), 1))
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            BloomFilter(10, false_positive_rate=1.5)

    @given(st.lists(composites, max_size=40), st.lists(composites, max_size=40))
    def test_raw_key_and_prehashed_key_agree(self, added, probed):
        raw, hashed = BloomFilter(40), BloomFilter(40)
        for composite in added:
            raw.add(composite)
            hashed.add(KeyHash(repr(composite)))
        assert raw._words == hashed._words and raw.count == hashed.count
        for composite in added + probed:
            assert (composite in raw) == (KeyHash(repr(composite)) in raw)
        assert all(KeyHash(repr(composite)) in raw for composite in added)

    def test_no_false_negatives_over_mixed_shapes(self):
        keys = mixed_composites(0, 1000)
        assert len(set(keys)) == 5000
        bloom = BloomFilter(len(keys))
        for composite in keys:
            bloom.add(composite)
        assert all(composite in bloom for composite in keys)

    def test_false_positive_rate_within_configured(self):
        """The engine's mixed key shapes: measured at or under 1 %."""
        bloom = BloomFilter(2000, false_positive_rate=0.01)
        for composite in mixed_composites(0, 400):
            bloom.add(composite)
        absent = mixed_composites(400, 2400)
        assert len(absent) == 10000
        false_positives = sum(1 for composite in absent if composite in bloom)
        assert false_positives / len(absent) <= 0.01

    @given(st.lists(composites, max_size=60, unique=True))
    def test_no_false_negatives_through_every_insert_path(self, keys):
        by_add, by_bulk = BloomFilter(len(keys)), BloomFilter(len(keys))
        for composite in keys:
            by_add.add(composite)
        by_bulk.add_composites([order_key(composite) for composite in keys])
        table = build_sstable([(composite, 0) for composite in keys])
        for composite in keys:
            assert composite in by_add and composite in by_bulk
            assert composite in table.bloom
            assert table.get(*composite).value == 0

    def test_every_mask_sets_k_bits(self):
        assert K == 6 and len(MASKS) == 4096 == 1 << (32 - 20)
        assert all(0 <= mask < 1 << 64 and bin(mask).count("1") == K for mask in MASKS)
        assert len(set(MASKS)) == len(MASKS)
        assert hashlib.sha256(MASKS.tobytes()).hexdigest() == PINNED_MASKS_SHA256

    def test_filter_words_match_the_pinned_digest(self):
        assert len(PINNED_COMPOSITES) == len(set(PINNED_COMPOSITES)) == 50
        bloom = BloomFilter(len(PINNED_COMPOSITES))
        for composite in PINNED_COMPOSITES:
            bloom.add(composite)
        assert filter_digest(bloom) == PINNED_BITS_SHA256
        # ... and an SSTable, which feeds its filter from the cached order
        # keys instead of the composites, sets the very same words.
        table = build_sstable([(composite, 0) for composite in PINNED_COMPOSITES])
        assert table.bloom._words == bloom._words


class TestMemTable:
    def test_put_get(self):
        table = MemTable()
        table.put(1, "k", "v", seq=1)
        assert table.get(1, "k").value == "v"

    def test_put_overwrites_and_adjusts_size(self):
        table = MemTable()
        table.put(1, "k", "v", seq=1, nbytes=100)
        table.put(1, "k", "w", seq=2, nbytes=40)
        assert table.size_bytes == 40
        assert len(table) == 1

    def test_delete_records_tombstone(self):
        table = MemTable()
        table.put(1, "k", "v", seq=1)
        table.delete(1, "k", seq=2)
        assert table.get(1, "k").kind == DELETE

    def test_append_onto_put_extends_value(self):
        table = MemTable()
        table.put(1, "k", ["a"], seq=1, nbytes=10)
        table.append(1, "k", "b", seq=2, nbytes=5)
        entry = table.get(1, "k")
        assert entry.kind == PUT
        assert entry.value == ["a", "b"]
        assert entry.nbytes == 15

    def test_append_without_base_records_merge(self):
        table = MemTable()
        table.append(1, "k", "x", seq=1)
        table.append(1, "k", "y", seq=2)
        entry = table.get(1, "k")
        assert entry.kind == MERGE
        assert entry.value == ["x", "y"]

    def test_sorted_items_order(self):
        table = MemTable()
        table.put(2, "b", 1, seq=1)
        table.put(1, "z", 2, seq=2)
        table.put(1, "a", 3, seq=3)
        keys = [composite for composite, _ in table.sorted_items()]
        assert keys == [(1, "a"), (1, "z"), (2, "b")]

    def test_clear(self):
        table = MemTable()
        table.put(1, "k", "v", seq=1)
        table.clear()
        assert len(table) == 0 and table.size_bytes == 0


def build_sstable(pairs):
    """pairs: list of ((group, key), value)."""
    memtable = MemTable()
    for seq, ((group, key), value) in enumerate(pairs, start=1):
        memtable.put(group, key, value, seq=seq, nbytes=10)
    return SSTable(memtable.sorted_items())


class TestSSTable:
    def test_point_lookup(self):
        table = build_sstable([((1, "a"), "x"), ((2, "b"), "y")])
        assert table.get(1, "a").value == "x"
        assert table.get(2, "b").value == "y"
        assert table.get(1, "b") is None

    def test_size_and_group_bytes(self):
        table = build_sstable([((1, "a"), "x"), ((1, "b"), "y"), ((5, "c"), "z")])
        assert table.size_bytes == 30
        assert table.group_bytes == {1: 20, 5: 10}

    def test_bytes_in_groups(self):
        table = build_sstable([((1, "a"), "x"), ((3, "b"), "y"), ((7, "c"), "z")])
        assert table.bytes_in_groups(0, 4) == 20
        assert table.bytes_in_groups(4, 100) == 10
        assert table.bytes_in_groups(8, 9) == 0

    def test_iter_groups_respects_range(self):
        table = build_sstable(
            [((1, "a"), 1), ((2, "b"), 2), ((3, "c"), 3), ((9, "d"), 4)]
        )
        found = [composite for composite, _ in table.iter_groups(2, 4)]
        assert found == [(2, "b"), (3, "c")]

    def test_min_max_key(self):
        table = build_sstable([((4, "m"), 1), ((1, "a"), 2)])
        assert table.min_key == (1, "a")
        assert table.max_key == (4, "m")

    def test_unique_ids(self):
        first = build_sstable([((1, "a"), 1)])
        second = build_sstable([((1, "a"), 1)])
        assert first.table_id != second.table_id

    def test_one_shot_iterator_builds_the_same_table(self):
        pairs = pinned_table_items()
        from_list, from_iter = SSTable(list(pairs)), SSTable(iter(pairs))
        assert len(from_iter) == len(from_iter.entries) == 60
        for field in SSTable.__slots__:
            if field == "bloom":
                assert from_iter.bloom._words == from_list.bloom._words
            elif field != "table_id":
                assert getattr(from_iter, field) == getattr(from_list, field), field
        group, key = pairs[0][0]
        assert from_iter.get(group, key) is pairs[0][1]

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda pairs: pairs[::-1],
            lambda pairs: pairs[:3] + pairs[1:],  # a duplicated composite
            lambda pairs: pairs[:5] + [pairs[4]] + pairs[5:],
        ],
        ids=["reversed", "overlapping", "adjacent-duplicate"],
    )
    def test_input_not_strictly_increasing_raises(self, mangle):
        pairs = mangle(pinned_table_items()[:8])
        with pytest.raises(StorageError, match=r"SSTable #77: .*strictly increasing") as info:
            SSTable(pairs, table_id=77)
        orders = [order_key(composite) for composite, _entry in pairs]
        first_bad = next(i for i in range(1, len(pairs)) if orders[i] <= orders[i - 1])
        assert repr(pairs[first_bad][0]) in str(info.value)
        assert repr(pairs[first_bad - 1][0]) in str(info.value)

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 10), st.integers(0, 50)),
            st.integers(),
            max_size=50,
        )
    )
    def test_lookup_matches_dict(self, data):
        table = build_sstable(sorted(data.items()))
        for (group, key), value in data.items():
            assert table.get(group, key).value == value


# -- the seal oracle: what one SSTable's checksum and filter bits must be ----

#: Key shapes beyond the engine's: negative and multi-digit ints, floats,
#: text whose ``repr`` escapes (quotes, backslashes, non-ASCII), nested tuples.
wild_keys = st.recursive(
    st.one_of(
        st.integers(-(2**70), 2**70),
        st.floats(allow_nan=False),
        st.text(st.sampled_from("ab'\"\\\n\u00e9\u4e2d\U0001f600"), max_size=6),
        st.text(max_size=6),
    ),
    lambda children: st.one_of(st.tuples(children), st.tuples(children, children)),
    max_leaves=4,
)
scalars = st.one_of(
    st.none(), st.integers(), st.floats(allow_nan=False), st.text(max_size=6)
)
#: One drawn entry: group, key, kind, payload, seq, nbytes (int or float),
#: and whether ``Entry.order`` was cached at write time.
seal_rows = st.tuples(
    st.integers(0, 2**15),
    wild_keys,
    st.sampled_from([PUT, DELETE, MERGE]),
    st.one_of(scalars, st.lists(scalars, max_size=3)),
    st.integers(1, 2**40),
    st.one_of(st.integers(0, 10**6), st.floats(0, 1e6)),
    st.booleans(),
)


def seal_items(rows):
    """Strictly ordered ``(composite, Entry)`` pairs from ``seal_rows``
    draws; a later row with the same order key replaces the earlier."""
    unique = {}
    for group, key, kind, payload, seq, nbytes, cached in rows:
        composite = (group, key)
        order = order_key(composite)
        if kind == DELETE:
            value = TOMBSTONE
        elif kind == MERGE and not isinstance(payload, list):
            value = [payload]
        else:
            value = payload
        entry = Entry(kind, value, seq, nbytes, order if cached else None)
        unique[order] = (composite, entry)
    return [unique[order] for order in sorted(unique)]


def reference_crc32(items):
    """The block checksum's definition, kept here: ``zlib.crc32`` chained
    per entry over ``repr`` of the canonical entry tuple."""
    crc = 0
    for composite, entry in items:
        value = "<tombstone>" if entry.value is TOMBSTONE else entry.value
        fragment = repr((composite, entry.kind, entry.seq, entry.nbytes, value))
        crc = zlib.crc32(fragment.encode("utf-8"), crc)
    return crc


def assert_sealed_like_reference(items):
    table = SSTable(list(items))
    assert table.crc32 == reference_crc32(items)
    assert table.verify() == table.crc32
    bloom = BloomFilter(len(items) or 1)  # per-key ``add``: the reference
    for composite, _entry in items:
        bloom.add(composite)
    assert table.bloom._words == bloom._words
    assert table.bloom.nwords == bloom.nwords
    assert table.bloom.count == bloom.count == len(items)
    return table


def pinned_table_items():
    """A committed 60-entry table: five key shapes, all three kinds, int
    and float sizes, escaped text values, every third entry uncached."""
    items = []
    for i, composite in enumerate(sorted(mixed_composites(10, 22), key=order_key)):
        kind = (PUT, MERGE, PUT, DELETE)[i % 4]
        if kind == DELETE:
            value = TOMBSTONE
        elif kind == MERGE:
            value = [f"e{i}", i, i / 4]
        else:
            value = (f"v'{i}\"", "caf\u00e9\\", -i, 0.5 * i)[i % 4 :: 2]
        nbytes = 100 + 7 * i if i % 5 else 12.5 * i
        order = None if i % 3 == 0 else order_key(composite)
        items.append((composite, Entry(kind, value, 1000 - 3 * i, nbytes, order)))
    return items


#: ``crc32`` of ``SSTable(pinned_table_items())``, captured at ``0059559``,
#: before a table was sealed in one pass, and the SHA-256 of its filter
#: words, re-pinned when the filter became blocked (the checksum did not move).
PINNED_TABLE_CRC32 = 0x4CEA8CE1
PINNED_TABLE_BITS_SHA256 = "3511ac4bdc486c3e104b03af4c6ab2076a951b87bcce9d2448d6b4df3d8249ad"


class TestSealOracle:
    @given(st.lists(seal_rows, max_size=40))
    def test_checksum_and_filter_bits_match_the_reference(self, rows):
        assert_sealed_like_reference(seal_items(rows))

    def test_empty_table(self):
        table = assert_sealed_like_reference([])
        assert table.crc32 == 0 and not any(table.bloom._words)

    def test_pinned_table_checksum_and_filter_bits(self):
        items = pinned_table_items()
        assert len(items) == 60
        assert {entry.kind for _composite, entry in items} == {PUT, DELETE, MERGE}
        table = assert_sealed_like_reference(items)
        assert table.crc32 == PINNED_TABLE_CRC32
        assert filter_digest(table.bloom) == PINNED_TABLE_BITS_SHA256

    @pytest.mark.parametrize("count", [1, 255, 256, 257, 511, 512, 513, 1000])
    def test_tables_longer_than_one_checksum_chunk(self, count):
        """The checksum is chained across chunks of joined fragments; the
        seams (256 entries) must not show."""
        rows = []
        for i in range(count):
            group, key = mixed_composites(i, i + 1)[i % 5]
            payload = [f"\u00e9{i}"] if i % 7 == 0 else i * 0.5
            kind = (PUT, PUT, MERGE, DELETE)[i % 4]
            rows.append((group, key, kind, payload, i + 1, 64 + i % 9, i % 2 == 0))
        items = seal_items(rows)
        assert len(items) == count
        assert_sealed_like_reference(items)


class TestProbe:
    @given(composites)
    def test_one_repr_yields_order_key_and_seeds(self, composite):
        group, key = composite
        probe = Probe(group, key)
        h = zlib.crc32(repr(composite).encode("utf-8"))
        assert probe.composite == composite
        assert probe.order == order_key(composite)
        assert (probe.h, probe.mask) == (h, MASKS[h >> 20])

    @given(st.one_of(st.integers(), st.text(max_size=4), st.none()), state_keys)
    def test_composite_serialization_is_the_tuple_repr(self, group, key):
        assert f"({group!r}, {repr(key)})" == repr((group, key))

    @given(
        st.dictionaries(composites, st.integers(), max_size=30),
        st.lists(composites, max_size=10),
    )
    def test_get_is_a_wrapper_over_the_probe_lookup(self, data, others):
        table = build_sstable(list(data.items()))
        for group, key in list(data) + others:
            found = table.lookup(Probe(group, key))
            assert table.get(group, key) is found
            expected = data.get((group, key))
            assert (found.value if found is not None else None) == expected


class TestOrderKeyCache:
    def test_flush_order_unchanged_by_cache(self):
        """sorted_items() with cached order keys equals sorting with
        order_key() computed from scratch -- heterogeneous key types."""
        from repro.storage.kvs.memtable import order_key

        table = MemTable()
        keys = ["z", "a", (1, 2), (1, 1), 42, 7, "m", (0,), 0, "0"]
        for seq, key in enumerate(keys):
            table.put(seq % 3, key, f"v{seq}", seq=seq)
        cached = [composite for composite, _ in table.sorted_items()]
        scratch = sorted(table.entries, key=order_key)
        assert cached == scratch

    def test_order_cached_at_write_time(self):
        from repro.storage.kvs.memtable import order_key

        table = MemTable()
        table.put(3, ("composite", 9), "v", seq=1)
        entry = table.get(3, ("composite", 9))
        assert entry.order == order_key((3, ("composite", 9)))

    def test_overwrite_and_append_preserve_cached_order(self):
        from repro.storage.kvs.memtable import order_key

        table = MemTable()
        table.put(1, "k", "v", seq=1)
        table.put(1, "k", "w", seq=2)  # overwrite reuses cached order
        table.append(1, "k", "x", seq=3)  # in-place merge keeps it
        assert table.get(1, "k").order == order_key((1, "k"))

    def test_item_order_falls_back_for_bulk_entries(self):
        """Entries built outside a MemTable (bulk load) have no cache."""
        from repro.storage.kvs.memtable import Entry, item_order, order_key

        entry = Entry(PUT, "v", 1, 10)
        assert entry.order is None
        assert item_order(((2, "k"), entry)) == order_key((2, "k"))


class TestEstimateSizeFastPath:
    def test_modeled_sizes_unchanged_for_corpus(self):
        """The fast path returns exactly what the generic branch computes."""
        import sys

        from repro.storage.kvs.memtable import TOMBSTONE, estimate_size

        def reference(value):
            # The pre-optimization implementation, verbatim.
            if value is None or value is TOMBSTONE:
                return 8
            if isinstance(value, (bytes, bytearray, str)):
                return len(value) + 16
            if isinstance(value, (list, tuple)):
                return 16 + sum(reference(v) for v in value)
            if isinstance(value, dict):
                return 16 + sum(
                    reference(k) + reference(v) for k, v in value.items()
                )
            return max(16, sys.getsizeof(value) if hasattr(sys, "getsizeof") else 16)

        corpus = [
            None,
            TOMBSTONE,
            0,
            1,
            -1,
            2**29,
            -(2**29),
            2**30,  # beyond the one-digit fast path
            2**64,
            True,
            False,
            0.0,
            3.14,
            -2.5e300,
            "",
            "short",
            "x" * 1000,
            b"bytes",
            bytearray(b"ba"),
            [1, 2.0, "three"],
            (4, None),
            {"k": 1, 2: "v"},
            {"nested": {"a": [1, (2.0, "s")]}},
            object(),
        ]
        for value in corpus:
            assert estimate_size(value) == reference(value), repr(value)

    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.integers(),
                st.floats(allow_nan=False),
                st.text(max_size=30),
                st.binary(max_size=30),
                st.booleans(),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=5),
                st.dictionaries(st.text(max_size=5), children, max_size=4),
            ),
            max_leaves=20,
        )
    )
    def test_modeled_sizes_unchanged_property(self, value):
        import sys

        from repro.storage.kvs.memtable import estimate_size

        def reference(v):
            if v is None:
                return 8
            if isinstance(v, (bytes, bytearray, str)):
                return len(v) + 16
            if isinstance(v, (list, tuple)):
                return 16 + sum(reference(x) for x in v)
            if isinstance(v, dict):
                return 16 + sum(reference(k) + reference(x) for k, x in v.items())
            return max(16, sys.getsizeof(v))

        assert estimate_size(value) == reference(value)
