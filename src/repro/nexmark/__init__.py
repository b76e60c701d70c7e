"""The NEXMark benchmark workload (§5.1.2).

NEXMark simulates a real-time auction platform with three logical streams:
new-person events (206 B), auction events (269 B), and bid events (32 B).
The reproduction uses the paper's three workloads:

* **NBQ5** -- sliding-window aggregation over bids (60 s window, 10 s
  slide): small state, read-modify-write updates.
* **NBQ8** -- 12-hour tumbling-window join of persons and auctions:
  append-only state that grows to terabytes.
* **NBQX** -- four session-window joins (30/60/90/120 min gaps) plus a
  4-hour tumbling join over auctions and bids: many mid-sized states with
  append and delete patterns.
"""

from repro.nexmark.events import (
    PERSON_BYTES,
    AUCTION_BYTES,
    BID_BYTES,
)
from repro.nexmark.generator import (
    DiurnalRate,
    FlashCrowdRate,
    HotKeys,
    KeyDistribution,
    NexmarkGenerator,
    StreamSpec,
    TriangularRate,
    UniformKeys,
    ZipfKeys,
)
from repro.nexmark.queries import nbq5, nbq8, nbqx

__all__ = [
    "PERSON_BYTES",
    "AUCTION_BYTES",
    "BID_BYTES",
    "NexmarkGenerator",
    "StreamSpec",
    "TriangularRate",
    "DiurnalRate",
    "FlashCrowdRate",
    "KeyDistribution",
    "UniformKeys",
    "ZipfKeys",
    "HotKeys",
    "nbq5",
    "nbq8",
    "nbqx",
]
