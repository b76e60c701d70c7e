"""A bloom filter for SSTable point lookups.

The paper configures RocksDB with bloom filters for point lookups
(§5.1.3); SSTables here do the same so negative lookups rarely touch the
sorted data.  Standard construction: a bit array of ``m`` bits and ``k``
hash functions derived by double hashing (Kirsch & Mitzenmacher).

A point lookup visits every run it cannot rule out, so the two hashing
seeds are a property of the *key*, not of the filter: :class:`KeyHash`
derives them once from the key's serialization and every filter on the
read path reuses them.
"""

import math
import zlib


class KeyHash:
    """The double-hashing seeds of one key: ``h1`` = CRC32 and ``h2`` =
    Adler-32 (never 0) of ``text``, the key's ``repr``, over one UTF-8
    encoding.
    """

    __slots__ = ("h1", "h2")

    def __init__(self, text):
        data = text.encode("utf-8")
        self.h1 = zlib.crc32(data)
        self.h2 = zlib.adler32(data) or 1


class BloomFilter:
    """A fixed-size bloom filter.

    ``expected_items`` and ``false_positive_rate`` size the bit array with
    the textbook formulas m = -n ln p / (ln 2)^2 and k = (m/n) ln 2.
    Guarantees no false negatives.

    ``add`` and ``in`` take a raw key or its pre-hashed :class:`KeyHash`;
    both address the same bits, and so does ``add_composites``, the bulk
    insert a table is sealed with.
    """

    def __init__(self, expected_items, false_positive_rate=0.01):
        expected_items = max(1, expected_items)
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in (0, 1)")
        nbits = int(
            math.ceil(-expected_items * math.log(false_positive_rate) / (math.log(2) ** 2))
        )
        self.nbits = max(8, nbits)
        self.nhashes = max(1, int(round((self.nbits / expected_items) * math.log(2))))
        self._bits = bytearray((self.nbits + 7) // 8)
        self.count = 0

    def add(self, key):
        """Insert a key."""
        hashed = key if isinstance(key, KeyHash) else KeyHash(repr(key))
        bits, nbits = self._bits, self.nbits
        pos, step = hashed.h1, hashed.h2
        for _ in range(self.nhashes):
            bit = pos % nbits
            bits[bit >> 3] |= 1 << (bit & 7)
            pos += step
        self.count += 1

    def add_composites(self, orders):
        """Bulk ``add`` of the ``(group, key)`` composites given as a list of
        ``(group, repr(key))``: hashes ``repr((group, key))`` rebuilt from
        that text, :class:`KeyHash`'s seeds and ``add``'s walk inlined.
        """
        bits, nbits = self._bits, self.nbits
        hashes = range(self.nhashes)
        for group, text in orders:
            data = f"({group!r}, {text})".encode("utf-8")
            pos, step = zlib.crc32(data), zlib.adler32(data) or 1
            for _ in hashes:
                bit = pos % nbits
                bits[bit >> 3] |= 1 << (bit & 7)
                pos += step
        self.count += len(orders)

    def __contains__(self, key):
        hashed = key if isinstance(key, KeyHash) else KeyHash(repr(key))
        bits, nbits = self._bits, self.nbits
        pos, step = hashed.h1, hashed.h2
        for _ in range(self.nhashes):
            bit = pos % nbits
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
            pos += step
        return True

    @property
    def size_bytes(self):
        """Size of the bit array in bytes."""
        return len(self._bits)

    def __repr__(self):
        return f"<BloomFilter bits={self.nbits} k={self.nhashes} n={self.count}>"
