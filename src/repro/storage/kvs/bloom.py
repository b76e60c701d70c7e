"""A cache-local bloom filter for SSTable point lookups.

The paper configures RocksDB with bloom filters for point lookups
(§5.1.3); SSTables here do the same so negative lookups rarely touch the
sorted data.  The filter is *blocked*, like RocksDB's newer full filters
(Putze, Sanders & Singler, "Cache-, Hash- and Space-Efficient Bloom
Filters", 2007): all ``K`` bits of a key fall in one 64-bit word, so adding
a key is one OR and testing it one AND and compare.

One CRC32 ``h`` of the key's ``repr`` places the key: the word is
``h % nwords`` and the bits are ``MASKS[h >> 20]``.  A point lookup visits
every run it cannot rule out, so ``(h, mask)`` is a property of the *key*,
not of the filter: :class:`KeyHash` derives it once and every filter on the
read path reuses it.
"""

import math
import zlib
from array import array

#: Bits a key sets in its word.
K = 6
_WORD_MASK = (1 << 64) - 1


def _build_masks():
    """The 4,096 ``K``-bit masks the top 12 bits of a 32-bit hash select:
    64 base masks of ``K`` distinct bits drawn from a 64-bit LCG (Knuth's
    MMIX constants, top six bits), each at all 64 rotations of the word.
    A rotation keeps the bit count, and two rotations of one base share
    about as many bits as two random masks.
    """
    bases, state = [], 0
    for _ in range(64):
        mask = bits = 0
        while bits < K:
            state = (state * 6364136223846793005 + 1442695040888963407) & _WORD_MASK
            bit = 1 << (state >> 58)
            if not mask & bit:
                mask |= bit
                bits += 1
        bases.append(mask)
    return array(
        "Q",
        [
            (base << shift | base >> (64 - shift)) & _WORD_MASK
            for base in bases
            for shift in range(64)
        ],
    )


#: A key's bits within its word, indexed by ``crc32 >> 20`` (32 KB packed;
#: a tuple of 4,096 int objects would hold ~190 KB for the whole run).
MASKS = _build_masks()


class KeyHash:
    """Where one key lives in any filter: ``h``, the CRC32 of ``text`` (the
    key's ``repr``) over one UTF-8 encoding, and ``mask = MASKS[h >> 20]``.
    """

    __slots__ = ("h", "mask")

    def __init__(self, text):
        self.h = h = zlib.crc32(text.encode("utf-8"))
        self.mask = MASKS[h >> 20]


class BloomFilter:
    """A fixed-size blocked bloom filter.

    ``expected_items`` and ``false_positive_rate`` size it at 1.5x the
    textbook bits m = -n ln p / (ln 2)^2: packing a key's bits into one word
    costs false positives, and the headroom buys them back (~14.4 bits per
    key at 1 %).  Guarantees no false negatives.

    ``add`` and ``in`` take a raw key or its pre-hashed :class:`KeyHash`;
    both address the same word and bits, and so does ``add_composites``,
    the bulk insert a table is sealed with.
    """

    def __init__(self, expected_items, false_positive_rate=0.01):
        expected_items = max(1, expected_items)
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in (0, 1)")
        nbits = -expected_items * math.log(false_positive_rate) / (math.log(2) ** 2)
        self.nwords = max(1, math.ceil(1.5 * nbits / 64))
        self._words = array("Q", bytes(8 * self.nwords))
        self.count = 0

    def add(self, key):
        """Insert a key."""
        hashed = key if isinstance(key, KeyHash) else KeyHash(repr(key))
        self._words[hashed.h % self.nwords] |= hashed.mask
        self.count += 1

    def add_composites(self, orders):
        """Bulk ``add`` of the ``(group, key)`` composites given as a list of
        ``(group, repr(key))``: hashes ``repr((group, key))`` rebuilt from
        that text, :class:`KeyHash`'s derivation inlined.
        """
        words, nwords, masks, crc32 = self._words, self.nwords, MASKS, zlib.crc32
        for group, text in orders:
            h = crc32(f"({group!r}, {text})".encode("utf-8"))
            words[h % nwords] |= masks[h >> 20]
        self.count += len(orders)

    def __contains__(self, key):
        hashed = key if isinstance(key, KeyHash) else KeyHash(repr(key))
        mask = hashed.mask
        return self._words[hashed.h % self.nwords] & mask == mask

    @property
    def size_bytes(self):
        """Size of the filter words in bytes."""
        return 8 * self.nwords

    def __repr__(self):
        return f"<BloomFilter words={self.nwords} k={K} n={self.count}>"
