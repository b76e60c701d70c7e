"""Checkpoint persistence strategies.

The engine snapshots state locally (incremental LSM checkpoints); *where*
the snapshot's delta bytes go is the strategy:

* :class:`LocalCheckpointStorage` -- nowhere (tests; also the substrate of
  Rhino, which layers its own chain replication on top).
* :class:`DFSCheckpointStorage` -- each new SSTable is uploaded once to the
  DFS (Flink + HDFS of §5.1.1); restore reads the manifest's live tables
  back, paying block locality.
"""


class LocalCheckpointStorage:
    """Keep checkpoints on the producing worker only."""

    def persist(self, instance, checkpoint):
        """Persist a checkpoint's deltas; returns a Process or None."""
        return None  # nothing to do; local tables already on disk


class DFSCheckpointStorage:
    """Upload incremental checkpoints to the distributed file system.

    Each delta SSTable becomes one DFS file written from the instance's
    machine (first replica local, per HDFS placement).  A full restore
    reads every live table of the manifest -- remote blocks cross the
    network, which is the dominant "state fetching" cost of Table 1.
    """

    def __init__(self, sim, dfs, prefix="/checkpoints"):
        self.sim = sim
        self.dfs = dfs
        self.prefix = prefix
        self.uploaded_bytes = 0
        #: (bytes, seconds) per non-empty persist, for transfer-speed
        #: comparisons against Rhino's replication (Figure 5 discussion).
        self.persist_timings = []

    def table_path(self, store_name, table_id):
        """The storage path of one SSTable file."""
        return f"{self.prefix}/{store_name}/table-{table_id}"

    def persist(self, instance, checkpoint):
        """Returns a Process uploading the checkpoint's delta tables."""
        return self.sim.process(
            self._persist(instance, checkpoint),
            name=f"dfs-persist:{checkpoint.store_name}#{checkpoint.checkpoint_id}",
        )

    def _persist(self, instance, checkpoint):
        started = self.sim.now
        span = self.sim.tracer.span(
            "checkpoint.persist",
            track="checkpoint",
            checkpoint=checkpoint.checkpoint_id,
            instance=checkpoint.store_name,
        )
        uploaded = 0
        for table in checkpoint.delta_tables:
            path = self.table_path(checkpoint.store_name, table.table_id)
            if not self.dfs.exists(path):
                self.uploaded_bytes += table.size_bytes
                uploaded += table.size_bytes
                yield self.dfs.write(path, table.size_bytes, instance.machine)
        span.finish(bytes=uploaded)
        if uploaded:
            self.persist_timings.append((uploaded, self.sim.now - started))

    def fetch(self, machine, checkpoint):
        """Returns a Process reading every live table of ``checkpoint`` to
        ``machine``; its value is the number of bytes fetched."""
        return self.sim.process(
            self._fetch(machine, checkpoint),
            name=f"dfs-fetch:{checkpoint.store_name}#{checkpoint.checkpoint_id}",
        )

    def _fetch(self, machine, checkpoint):
        span = self.sim.tracer.span(
            "dfs.fetch",
            track="checkpoint",
            checkpoint=checkpoint.checkpoint_id,
            instance=checkpoint.store_name,
            machine=machine.name,
        )
        fetched = 0
        for table in checkpoint.full_tables:
            path = self.table_path(checkpoint.store_name, table.table_id)
            if self.dfs.exists(path):
                fetched += yield self.dfs.read(path, machine, parallelism=8)
        span.finish(bytes=fetched)
        return fetched
