"""The in-memory write buffer of the LSM store."""

import sys

#: Entry kinds.
PUT = 0
DELETE = 1
MERGE = 2  # append-merge operator (the paper's "append state update pattern")

#: Sentinel stored as the value of deletions.
TOMBSTONE = object()
#: Modeled size of a tombstone entry.
TOMBSTONE_BYTES = 8


def order_key(composite):
    """Total order over (group, key) composites of heterogeneous key types.

    A real LSM compares serialized key bytes; ``repr`` is our stable
    serialization, so tuples, strings, and integers coexist in one run.
    """
    group, key = composite
    return (group, repr(key))


def item_order(item):
    """Sort key for a ``(composite, Entry)`` pair.

    Prefers the order key cached on the entry at write time; entries built
    outside a :class:`MemTable` (bulk loads) fall back to computing it.
    """
    order = item[1].order
    return order if order is not None else order_key(item[0])


class Entry:
    """One versioned record in a memtable or SSTable.

    ``nbytes`` is the *modeled* size of the entry.  Weighted records used by
    the large-state experiments inflate it; functional tests use real value
    sizes.  MERGE entries hold a list of appended elements that a read (or a
    compaction) folds into the base value.

    ``order`` caches :func:`order_key` of the entry's composite key, set
    once at write time so flushes and compactions sort without calling
    ``repr`` per comparison.
    """

    __slots__ = ("kind", "value", "seq", "nbytes", "order")

    def __init__(self, kind, value, seq, nbytes, order=None):
        self.kind = kind
        self.value = value
        self.seq = seq
        self.nbytes = nbytes
        self.order = order

    def __repr__(self):
        kind = {PUT: "PUT", DELETE: "DEL", MERGE: "MERGE"}[self.kind]
        return f"<Entry {kind} seq={self.seq} nbytes={self.nbytes}>"


#: Interpreter-probed constants for the ``estimate_size`` fast path.  They
#: reproduce exactly what the generic ``sys.getsizeof`` branch would return,
#: so modeled sizes are unchanged -- just without a call per put.  Ints with
#: a single 30-bit digit all share one size; zero is special-cased because
#: CPython stores it with no digits.
_HAS_GETSIZEOF = hasattr(sys, "getsizeof")
_INT_SIZE = max(16, sys.getsizeof(1)) if _HAS_GETSIZEOF else 16
_INT_ZERO_SIZE = max(16, sys.getsizeof(0)) if _HAS_GETSIZEOF else 16
_FLOAT_SIZE = max(16, sys.getsizeof(0.0)) if _HAS_GETSIZEOF else 16
_ONE_DIGIT_INT = 2**30 - 1


def estimate_size(value):
    """A cheap size estimate for values without an explicit ``nbytes``."""
    # Exact-type fast paths for the NEXMark hot loop (ints, floats, short
    # strings); subclasses like bool fall through to the generic branches
    # below, which match the original behavior bit-for-bit.
    tp = type(value)
    if tp is str or tp is bytes:
        return len(value) + 16
    if tp is int:
        if -_ONE_DIGIT_INT <= value <= _ONE_DIGIT_INT:
            return _INT_SIZE if value else _INT_ZERO_SIZE
    elif tp is float:
        return _FLOAT_SIZE
    if value is None or value is TOMBSTONE:
        return 8
    if isinstance(value, (bytes, bytearray, str)):
        return len(value) + 16
    if isinstance(value, (list, tuple)):
        return 16 + sum(estimate_size(v) for v in value)
    if isinstance(value, dict):
        return 16 + sum(
            estimate_size(k) + estimate_size(v) for k, v in value.items()
        )
    return max(16, sys.getsizeof(value) if _HAS_GETSIZEOF else 16)


class MemTable:
    """A mutable map of (key_group, key) -> Entry with byte accounting.

    Writes coalesce in place (RocksDB semantics: newest version wins in the
    active memtable; merge operands accumulate).
    """

    def __init__(self):
        self.entries = {}
        self.size_bytes = 0

    def __len__(self):
        return len(self.entries)

    def put(self, group, key, value, seq, nbytes=None):
        """Write a key-value pair."""
        nbytes = estimate_size(value) if nbytes is None else nbytes
        self._replace((group, key), Entry(PUT, value, seq, nbytes))

    def put_batch(self, items, first_seq):
        """Write ``(group, key, value, nbytes)`` items with consecutive seqs.

        Row i gets sequence number ``first_seq + i``, so the resulting
        entries are indistinguishable from ``put`` called once per row --
        the batched data plane amortizes the per-call overhead, not the
        versioning.
        """
        entries = self.entries
        seq = first_seq
        size_delta = 0
        for group, key, value, nbytes in items:
            if nbytes is None:
                nbytes = estimate_size(value)
            composite = (group, key)
            entry = Entry(PUT, value, seq, nbytes)
            old = entries.get(composite)
            if old is not None:
                size_delta -= old.nbytes
                entry.order = old.order
            else:
                entry.order = order_key(composite)
            entries[composite] = entry
            size_delta += nbytes
            seq += 1
        self.size_bytes += size_delta

    def delete(self, group, key, seq):
        """Delete a key (tombstone until compaction)."""
        self._replace((group, key), Entry(DELETE, TOMBSTONE, seq, TOMBSTONE_BYTES))

    def append(self, group, key, element, seq, nbytes=None):
        """Merge-append ``element`` onto the key's value."""
        nbytes = estimate_size(element) if nbytes is None else nbytes
        composite = (group, key)
        existing = self.entries.get(composite)
        if existing is not None and existing.kind == PUT:
            if isinstance(existing.value, list):
                existing.value.append(element)
            else:
                existing.value = [existing.value, element]
            existing.seq = seq
            existing.nbytes += nbytes
            self.size_bytes += nbytes
        elif existing is not None and existing.kind == MERGE:
            existing.value.append(element)
            existing.seq = seq
            existing.nbytes += nbytes
            self.size_bytes += nbytes
        elif existing is not None and existing.kind == DELETE:
            # Append after delete starts a fresh list; recording a MERGE
            # instead would resurrect older values from the tables below.
            self._replace(composite, Entry(PUT, [element], seq, nbytes))
        else:
            # No base in the memtable (it may live in an SSTable): record a
            # merge operand to be folded at read/compaction time.
            self._replace(composite, Entry(MERGE, [element], seq, nbytes))

    def get(self, group, key):
        """Resolved value for the key, or None."""
        return self.entries.get((group, key))

    def _replace(self, composite, entry):
        old = self.entries.get(composite)
        if old is not None:
            self.size_bytes -= old.nbytes
            entry.order = old.order
        else:
            entry.order = order_key(composite)
        self.entries[composite] = entry
        self.size_bytes += entry.nbytes

    def sorted_items(self):
        """Entries sorted by composite key, ready for an SSTable.

        Uses the order key cached at write time -- flushing never calls
        ``repr`` per comparison.
        """
        return sorted(self.entries.items(), key=lambda item: item[1].order)

    def clear(self):
        """Discard all entries and reset byte accounting."""
        self.entries.clear()
        self.size_bytes = 0
