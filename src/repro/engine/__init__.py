"""A scale-out streaming dataflow engine (the host SPE).

This is the Flink stand-in that Rhino attaches to.  It satisfies the host
system requirements of §3.4:

* **R1 streaming dataflow paradigm** -- batch-at-a-time processing (a
  :class:`RecordBatch` is the only data element a channel carries) with control
  events (checkpoint barriers, handover markers, watermarks) flowing
  along FIFO channels from the sources between batches.
* **R2 consistent hashing with virtual nodes** -- keys hash to one of 2^15
  key groups; contiguous key-group ranges are assigned to operator
  instances and subdivided into virtual nodes, the finest reconfiguration
  granularity.
* **R3 mutable state** -- every stateful instance owns an embedded LSM
  store with incremental checkpoints (see :mod:`repro.storage.kvs`).
"""

from repro.engine.records import (
    Record,
    RecordBatch,
    Watermark,
    CheckpointBarrier,
    AlignedMarker,
    EndOfStream,
)
from repro.engine.partitioning import (
    KeyGroupAssignment,
    key_group_of,
    split_key_groups,
    virtual_nodes,
    DEFAULT_KEY_GROUPS,
)

__all__ = [
    "Record",
    "RecordBatch",
    "Watermark",
    "CheckpointBarrier",
    "AlignedMarker",
    "EndOfStream",
    "KeyGroupAssignment",
    "key_group_of",
    "split_key_groups",
    "virtual_nodes",
    "DEFAULT_KEY_GROUPS",
    "StreamGraph",
    "Job",
]


def __getattr__(name):
    # StreamGraph/Job import the whole runtime; load them on demand.
    if name == "StreamGraph":
        from repro.engine.graph import StreamGraph

        return StreamGraph
    if name == "Job":
        from repro.engine.job import Job

        return Job
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
