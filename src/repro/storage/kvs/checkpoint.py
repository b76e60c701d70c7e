"""Checkpoint metadata for the LSM store.

An *incremental* checkpoint captures the SSTables created since the
previous checkpoint (``delta_tables``) together with a manifest of the
whole live set.  Restoring needs the union of delta tables across the
checkpoint chain, which replicas accumulate in a
:class:`repro.core.replication.ReplicaStore`.
"""

import zlib

from repro.common.errors import CorruptionError


class CheckpointManifest:
    """The live SSTable set of a store at checkpoint time."""

    __slots__ = ("table_ids", "total_bytes", "crc32")

    def __init__(self, table_ids, total_bytes):
        self.table_ids = tuple(table_ids)
        self.total_bytes = total_bytes
        #: Checksum over the manifest body, sealed at construction.
        self.crc32 = self._compute_crc32()

    def _compute_crc32(self):
        return zlib.crc32(repr((self.table_ids, self.total_bytes)).encode("utf-8"))

    def verify(self):
        """Recompute the manifest checksum; raises on mismatch."""
        actual = self._compute_crc32()
        if actual != self.crc32:
            raise CorruptionError(
                f"checkpoint manifest: checksum mismatch "
                f"(stored={self.crc32:#010x} computed={actual:#010x})"
            )
        return self.crc32

    def __repr__(self):
        return f"<Manifest {len(self.table_ids)} tables {self.total_bytes} B>"


class Checkpoint:
    """One (incremental) checkpoint of one store.

    * ``delta_tables``: SSTables new since the previous checkpoint -- the
      bytes that actually move during Rhino's proactive replication.
    * ``manifest``: ids of every live table, so a holder of all deltas can
      reconstruct the exact state.
    * ``full_tables``: resolved live tables (set when the producer still has
      them; used for local restore and for DFS uploads).
    """

    __slots__ = (
        "checkpoint_id",
        "store_name",
        "manifest",
        "delta_tables",
        "full_tables",
        "created_at",
        "frontier",
    )

    def __init__(
        self, checkpoint_id, store_name, manifest, delta_tables, full_tables, created_at
    ):
        self.checkpoint_id = checkpoint_id
        self.store_name = store_name
        self.manifest = manifest
        self.delta_tables = list(delta_tables)
        self.full_tables = list(full_tables)
        self.created_at = created_at
        #: The producing instance's replay frontier at snapshot time
        #: (``repro.engine.instance.Frontier``): what a restore of this
        #: checkpoint has already processed.
        self.frontier = None

    @property
    def delta_bytes(self):
        """Bytes of the tables new since the previous checkpoint."""
        return sum(t.size_bytes for t in self.delta_tables)

    @property
    def total_bytes(self):
        """Total modeled bytes held."""
        return self.manifest.total_bytes

    def __repr__(self):
        return (
            f"<Checkpoint {self.checkpoint_id} of {self.store_name}: "
            f"delta={self.delta_bytes} B total={self.total_bytes} B>"
        )
