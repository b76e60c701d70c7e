"""Preloading: install hours of prior execution in zero simulated time.

The paper's large-state experiments first run NBQ8 "until it reaches the
desired state size" (§5.2.1) -- hours of wall-clock that decide nothing
about the measured recovery.  Preloading installs the same end state
directly:

* per-instance keyed state (synthetic SSTables spread across the
  instance's virtual nodes, with the requested modeled bytes),
* a completed coordinator checkpoint referencing those tables,
* the checkpoint's persistence artifacts, which the job's checkpoint
  storage installs itself -- replica-store holdings for Rhino, DFS files
  for Flink/RhinoDFS -- with disk occupancy charged but no simulated
  transfer (it happened "in the past"),
* source offsets so replay after a failure starts from the checkpoint.

Everything after the preload (the failure, the handover, the fetches) runs
through the ordinary simulation paths.
"""

from repro.engine.coordinator import CompletedCheckpoint
from repro.storage.kvs.memtable import Entry, PUT
from repro.storage.kvs.sstable import SSTable

#: The id of the completed checkpoint a preload registers: the one before
#: the run's first.
PRELOAD_CHECKPOINT_ID = 0


def build_synthetic_table(instance, nbytes, entries_per_vnode=4):
    """One SSTable covering an instance's owned ranges with ``nbytes``."""
    ranges = instance.state.owned_ranges()
    if ranges is None:
        ranges = [(0, instance.job.config.num_key_groups)]
    groups = []
    for lo, hi in ranges:
        width = hi - lo
        count = min(width, max(1, entries_per_vnode))
        for i in range(count):
            groups.append(lo + (i * width) // count)
    if not groups:
        return None
    per_entry = max(1, int(nbytes // len(groups)))
    items = []
    for seq, group in enumerate(sorted(groups), start=1):
        key = (group, f"preload-{group}")
        items.append((key, Entry(PUT, seq, seq, per_entry)))
    return SSTable(items)


def preload_state(
    job,
    op_name,
    total_bytes,
    storage=None,
    entries_per_vnode=4,
):
    """Install ``total_bytes`` of state for ``op_name`` plus a completed
    checkpoint, which ``storage`` (a checkpoint storage, see
    ``engine/checkpointing.py``) records as persisted when given.

    Returns the :class:`CompletedCheckpoint` record registered with the
    coordinator.
    """
    instances = job.stateful_instances(op_name)
    now = job.sim.now
    record = CompletedCheckpoint(PRELOAD_CHECKPOINT_ID, triggered_at=now)
    record.completed_at = now
    per_instance = total_bytes // max(1, len(instances))
    for instance in instances:
        table = build_synthetic_table(
            instance, per_instance, entries_per_vnode=entries_per_vnode
        )
        if table is None:
            continue
        instance.state.ingest_tables([table])
        instance.state.uncheckpointed = []
        instance.machine.pick_disk().used += table.size_bytes
        checkpoint, _flushed = instance.state.checkpoint(
            PRELOAD_CHECKPOINT_ID, now=now
        )
        checkpoint.delta_tables = [table]  # the artifact that was persisted
        checkpoint.frontier = instance.frontier()
        record.checkpoints[instance.instance_id] = checkpoint
        if storage is not None:
            storage.install(instance, checkpoint)
    for source in job.source_instances():
        record.offsets[source.instance_id] = source.cursor.offset
    job.coordinator.completed.append(record)
    job.coordinator._next_id = max(job.coordinator._next_id, PRELOAD_CHECKPOINT_ID)
    return record

