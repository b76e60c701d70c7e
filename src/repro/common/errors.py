"""Exception hierarchy for the whole reproduction.

Every package raises subclasses of :class:`ReproError`, so callers can catch
at the granularity they care about (e.g. ``except StorageError``).
"""


class ReproError(Exception):
    """Base class for all errors raised by this project."""


class SimulationError(ReproError):
    """Misuse of the discrete-event kernel (e.g. running a dead process)."""


class OutOfMemoryError(ReproError):
    """A machine ran out of modeled main memory.

    Raised by :meth:`repro.cluster.machine.Machine.allocate_memory`.  The
    Megaphone baseline hits this above ~500 GB of total state, reproducing
    the paper's observation (Table 1, "Out-of-Memory").
    """

    def __init__(self, machine, requested, available):
        self.machine = machine
        self.requested = requested
        self.available = available
        super().__init__(
            f"machine {machine!s}: requested {requested} B "
            f"but only {available} B of memory are free"
        )


class StorageError(ReproError):
    """Errors from the KVS, DFS, or durable log."""


class CorruptionError(StorageError):
    """A checksum mismatch on read: the stored bytes are not the bytes
    that were written.

    Raised by :meth:`repro.storage.kvs.sstable.SSTable.verify` and
    :meth:`repro.storage.kvs.checkpoint.CheckpointManifest.verify` when a
    CRC32 recomputation disagrees with the checksum captured at
    construction.  Restore paths verify-on-read so a corrupted replica or
    migrated table fails loudly instead of silently feeding wrong state
    into a handover.
    """


class EngineError(ReproError):
    """Errors from the streaming dataflow engine."""


class ProtocolError(ReproError):
    """Violations of the Rhino handover or replication protocols."""


class StaleEpochError(ProtocolError):
    """A control-plane command carried a deposed leader's epoch.

    Raised by :meth:`repro.core.quorum.ControlGroup.check_fence`: the stale
    command is rejected before anything is mutated, which is what makes
    retried commands exactly-once across leader changes.
    """
