"""Checkpoint storage: where a job's incremental checkpoints become durable.

The engine snapshots state locally (incremental LSM checkpoints); the
job's ``checkpoint_storage`` decides where each snapshot's bytes go.
Every storage has ``persist(instance, checkpoint)`` (the Process the
checkpoint's completion waits for, or None) and ``persist_timings``
((bytes, seconds) per non-empty persist).  A storage Rhino runs on also
has, for one instance's state (its ``store_name``):

* ``hand_over(instance, checkpoint, plan, execution, dirty)`` -- a
  generator behind a handover's barrier that makes the origin's
  checkpoint fetchable by the plan's target; returns the bytes moved,
  None if the target was lost;
* ``restore_point(coordinator, store_name, machine)`` -- the newest
  durable checkpoint a failure recovery onto ``machine`` restores, with
  the ``frontier`` and ``checkpoint_id`` its replay starts from;
* ``fetch(machine, checkpoint)`` -- an event whose value is the bytes
  moved to put the checkpoint's tables on ``machine`` (``fetch_source``
  names it in the target's ``handover.fetching`` span);
* ``holds(machine, store_name)`` -- whether ``machine`` needs no copy
  before it can take the state over;
* ``install(instance, checkpoint)`` -- a preloaded checkpoint, persisted
  in zero simulated time.

Table 1's Rhino-vs-RhinoDFS gap is the difference between the two that
do: :class:`DFSCheckpointStorage` (block-centric DFS files, also Flink +
HDFS of §5.1.1) and ``repro.core.replication.ReplicaChains`` (state-centric
chains, §4.2), which ``Rhino.attach`` installs on a job that keeps its
checkpoints where they were taken (:class:`LocalCheckpointStorage`).
"""

from repro.common.errors import ProtocolError


class LocalCheckpointStorage:
    """Keep checkpoints on the producing worker only."""

    #: Nothing is persisted, so nothing is timed.
    persist_timings = ()

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

    fetch_source = "dfs"

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

    def hand_over(self, instance, checkpoint, plan, execution, dirty):
        """Upload the checkpoint; any target reads it from the DFS."""
        yield self.persist(instance, checkpoint)
        return checkpoint.delta_bytes

    def restore_point(self, coordinator, store_name, machine):
        """From the newest completed checkpoint that covers the store (one
        completed after the failure excludes the dead instance)."""
        for record in reversed(coordinator.completed):
            checkpoint = record.checkpoints.get(store_name)
            if checkpoint is not None:
                return checkpoint
        raise ProtocolError(f"no completed checkpoint covers {store_name}")

    def holds(self, machine, store_name):
        """Always: every machine reads every checkpoint from the DFS."""
        return True

    def install(self, instance, checkpoint):
        """Register the live tables as files the instance's machine wrote."""
        for table in checkpoint.full_tables:
            path = self.table_path(checkpoint.store_name, table.table_id)
            if not self.dfs.exists(path):
                self.dfs.register(path, table.size_bytes, instance.machine)

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
