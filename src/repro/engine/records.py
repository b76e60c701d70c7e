"""Stream elements: records, record batches, watermarks, and markers.

The *unit of transfer* on the data plane is the :class:`RecordBatch` --
routers partition whole batches, the exchange fabric ships one element
per batch, and operator instances drain their channels batch-at-a-time.
A :class:`Record` is a row of a batch, never a stream element of its own.
"""


class Record:
    """One stream record r = (k, t, a) following Fernandez et al.'s model.

    * ``key`` -- the partitioning key (hashes to a key group).
    * ``timestamp`` -- event-time creation timestamp (any order: replay
      deduplication reads ``position``, never event time).
    * ``value`` -- the record's attributes.
    * ``nbytes`` -- modeled wire/state size of the record.
    * ``weight`` -- how many identical real-world records this simulated
      record stands for.  Functional tests use weight=1; the TB-scale
      experiments inflate weight so modeled state bytes match the paper's
      scale while simulated record counts stay small.
    """

    __slots__ = ("key", "timestamp", "value", "nbytes", "weight", "origin", "position")

    def __init__(
        self, key, timestamp, value=None, nbytes=32, weight=1, origin=None, position=None
    ):
        self.key = key
        self.timestamp = timestamp
        self.value = value
        self.nbytes = nbytes
        self.weight = weight
        #: The source instance that emitted the record, and the record's
        #: offset in that source's log partition.  A source emits its
        #: partition in offset order and a channel delivers a prefix, so
        #: (origin, position) gives an exact progress frontier for replay
        #: deduplication ("ignore seen records", §4.1.2).
        self.origin = origin
        self.position = position

    @property
    def total_bytes(self):
        """Modeled bytes including the records this one stands for."""
        return self.nbytes * self.weight

    def __repr__(self):
        return f"<Record k={self.key!r} t={self.timestamp:.3f}>"


class RecordBatch:
    """An ordered run of records shipped and processed as one unit.

    The batch is the data plane's unit of transfer (the ``RefBundle`` of
    Ray Data's pull-based operators): one fabric element, one credit
    check, one gate-queue entry, and one ``process_batch`` call per batch
    instead of per record.  Alongside the row view (``records``) the batch
    carries columnar-ish batch-level metadata computed once at build time:

    * ``nbytes`` -- total modeled wire bytes (credit accounting is in
      bytes per batch);
    * ``total_weight`` -- sum of record weights (CPU is charged once per
      batch).

    **Marker alignment rule:** a batch holds records only -- watermarks
    and aligned markers are always separate stream elements, so a batch
    never straddles a checkpoint barrier or handover marker and epoch
    alignment (§4.1.1) is untouched by batching.

    Batches are immutable after construction; producers that need a
    subset build a new batch over the filtered rows.
    """

    __slots__ = ("records", "nbytes", "total_weight")

    def __init__(self, records):
        self.records = records
        nbytes = 0
        weight = 0
        for record in records:
            nbytes += record.nbytes
            weight += record.weight
        self.nbytes = nbytes
        self.total_weight = weight

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def keys(self):
        """Column view: the records' partitioning keys, in row order."""
        return [record.key for record in self.records]

    @property
    def total_bytes(self):
        """Modeled bytes including the records each row stands for."""
        return sum(record.total_bytes for record in self.records)

    def __repr__(self):
        return f"<RecordBatch n={len(self.records)} nbytes={self.nbytes}>"


def element_record_count(element):
    """Records represented by one stream element (1 for control events)."""
    return len(element) if isinstance(element, RecordBatch) else 1


class ControlEvent:
    """Base class for non-record stream elements."""

    __slots__ = ("timestamp",)

    nbytes = 64  # control events are small and fixed-size

    def __init__(self, timestamp):
        self.timestamp = timestamp


class Watermark(ControlEvent):
    """Event-time progress: no record older than ``timestamp`` will follow."""

    __slots__ = ()

    def __repr__(self):
        return f"<Watermark {self.timestamp:.3f}>"


class AlignedMarker(ControlEvent):
    """A control event subject to channel alignment.

    When an instance receives an aligned marker on one inbound channel it
    buffers that channel until the same marker (same ``marker_id``) has
    arrived on *all* inbound channels -- the epoch alignment of Carbone et
    al. used by both checkpoint barriers and Rhino's handover markers
    (§4.1.1 "Epoch alignment").
    """

    __slots__ = ()

    @property
    def marker_id(self):
        """Unique alignment key of this marker."""
        raise NotImplementedError

class CheckpointBarrier(AlignedMarker):
    """Triggers an epoch-consistent snapshot (§2.2.1)."""

    __slots__ = ("checkpoint_id",)

    def __init__(self, checkpoint_id, timestamp):
        super().__init__(timestamp)
        self.checkpoint_id = checkpoint_id

    @property
    def marker_id(self):
        """Unique alignment key of this marker."""
        return ("checkpoint", self.checkpoint_id)

    def __repr__(self):
        return f"<Barrier ckpt={self.checkpoint_id} t={self.timestamp:.3f}>"


class EndOfStream(AlignedMarker):
    """Terminates the query once aligned on every channel."""

    __slots__ = ()

    @property
    def marker_id(self):
        """Unique alignment key of this marker."""
        return ("end-of-stream",)

    def __repr__(self):
        return "<EndOfStream>"
