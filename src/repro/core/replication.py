"""State-centric replication: replica stores and the chain replicator.

Implements §4.2 phase 2.  After every completed incremental checkpoint of
an instance, the replicator ships the checkpoint's *delta* SSTables along
the instance's replica chain.  Blocks are pipelined (a member forwards a
block while still writing the previous one to disk), credit-based flow
control bounds in-flight bytes, and the tail's disk write acknowledges the
chain end-to-end.

Every chain member keeps a :class:`ReplicaStore`: the live SSTable set of
each origin instance it replicates, updated to the latest manifest.  Upon
a handover to a worker in the replica group, the target's state is already
local -- fetching degenerates to hard-linking (Table 1's 0.2 s).
"""

from collections import Counter

from repro.common.errors import ProtocolError
from repro.common.units import split_bytes
from repro.core import fluid
from repro.core.flow_control import CreditLease, CreditWindow
from repro.sim.flows import TransferFailed
from repro.storage.kvs.checkpoint import Checkpoint, CheckpointManifest


class ReplicaHolding:
    """One origin store's replicated state on one worker."""

    __slots__ = (
        "store_name",
        "tables",
        "manifest",
        "checkpoint_id",
        "frontier",
    )

    def __init__(self, store_name):
        self.store_name = store_name
        self.tables = {}  # table_id -> SSTable
        self.manifest = None
        self.checkpoint_id = None
        #: The replay frontier of the held checkpoint.
        self.frontier = None

    @property
    def bytes_held(self):
        """Modeled bytes of replicated tables held."""
        return sum(t.size_bytes for t in self.tables.values())

    def live_tables(self):
        """The tables of the latest manifest, in manifest order."""
        if self.manifest is None:
            return []
        return [self.tables[tid] for tid in self.manifest.table_ids]

    @property
    def is_complete(self):
        """True when every table of the manifest is present."""
        if self.manifest is None:
            return False
        return all(tid in self.tables for tid in self.manifest.table_ids)

    def verify(self):
        """Checksum the manifest and every live table.

        Raises :class:`~repro.common.errors.CorruptionError` on the first
        mismatch; a corrupt replica must never seed a handover or repair.
        """
        if self.manifest is not None:
            self.manifest.verify()
        for table in self.live_tables():
            table.verify()


class ReplicaStore:
    """All secondary copies held by one worker."""

    def __init__(self, machine):
        self.machine = machine
        self.holdings = {}  # store_name -> ReplicaHolding

    def ingest(self, checkpoint):
        """Apply one incremental checkpoint; returns bytes garbage-collected."""
        holding = self.holdings.setdefault(
            checkpoint.store_name, ReplicaHolding(checkpoint.store_name)
        )
        for table in checkpoint.delta_tables:
            holding.tables[table.table_id] = table
        live_ids = set(checkpoint.manifest.table_ids)
        dropped = [tid for tid in holding.tables if tid not in live_ids]
        freed = 0
        for tid in dropped:
            freed += holding.tables.pop(tid).size_bytes
        holding.manifest = checkpoint.manifest
        holding.checkpoint_id = checkpoint.checkpoint_id
        holding.frontier = checkpoint.frontier
        if freed and self.machine.alive:
            self.machine.disk_free(freed)
        return freed

    def ingest_full(self, store_name, tables, manifest, checkpoint_id, frontier):
        """Install a full copy (bulk transfer during repair/scale-out)."""
        holding = self.holdings.setdefault(store_name, ReplicaHolding(store_name))
        holding.tables = {t.table_id: t for t in tables}
        holding.manifest = manifest
        holding.checkpoint_id = checkpoint_id
        holding.frontier = frontier

    def holding_of(self, store_name):
        """The complete replica holding for a store, or ProtocolError."""
        holding = self.holdings.get(store_name)
        if holding is None or not holding.is_complete:
            raise ProtocolError(
                f"worker {self.machine.name} holds no complete replica "
                f"of {store_name}"
            )
        holding.verify()
        return holding

    def drop(self, store_name):
        """Forget one holding and free its disk bytes (it left the chain)."""
        self.machine.disk_free(self.holdings.pop(store_name).bytes_held)

    def has_complete(self, store_name):
        """True when the worker holds a complete replica of the store."""
        holding = self.holdings.get(store_name)
        return holding is not None and holding.is_complete

    def wipe(self):
        """Forget every holding (the worker restarted with wiped disks).

        Disk accounting is not touched: the machine's disks were already
        zeroed by the restart itself.
        """
        self.holdings.clear()

    @property
    def total_bytes(self):
        """Total modeled bytes held."""
        return sum(h.bytes_held for h in self.holdings.values())


class ReplicationStats:
    """Counters for reports and the Figure 5 bench."""

    def __init__(self):
        self.checkpoints_replicated = 0
        self.bytes_replicated = 0
        self.last_duration = 0.0
        #: (delta_bytes, seconds) per non-empty replication.
        self.timings = []


class ChainReplicator:
    """Ships incremental checkpoints along replica chains, each block
    through the cluster's one block stream and its retry policy."""

    def __init__(
        self,
        sim,
        cluster,
        block_size=64 * 1024 * 1024,
        credit_window_bytes=256 * 1024 * 1024,
        topology="chain",
    ):
        if topology not in ("chain", "star"):
            raise ProtocolError(f"unknown replication topology {topology!r}")
        self.sim = sim
        self.cluster = cluster
        #: "chain" pipelines blocks member-to-member (the paper's choice,
        #: §4.2: parallel replication with high network throughput);
        #: "star" has the origin send to every member directly -- the
        #: ablation showing why chain replication was chosen.
        self.topology = topology
        self.block_size = block_size
        self.stores = {}  # machine -> ReplicaStore
        self._credits = {}  # origin machine -> CreditWindow
        self._credit_window_bytes = credit_window_bytes
        self.stats = ReplicationStats()
        #: Replications in flight per (store_name, member): such a member
        #: lacks nothing a repair copy should ship, its delta is on its way.
        self.shipping = Counter()

    def store_on(self, machine):
        """The (lazily created) replica store of a machine."""
        store = self.stores.get(machine)
        if store is None:
            store = self.stores[machine] = ReplicaStore(machine)
        return store

    def _credit_for(self, origin):
        credit = self._credits.get(origin)
        if credit is None:
            credit = self._credits[origin] = CreditWindow(
                self.sim, self._credit_window_bytes
            )
        return credit

    # -- incremental replication ---------------------------------------------

    def replicate(self, origin_machine, chain, checkpoint):
        """Returns a Process replicating ``checkpoint``'s delta along
        ``chain`` and ingesting it at every member."""
        keys = [(checkpoint.store_name, member) for member in chain]
        process = self.sim.process(
            self._replicate(origin_machine, list(chain), checkpoint),
            name=f"replicate:{checkpoint.store_name}#{checkpoint.checkpoint_id}",
        )
        self.shipping.update(keys)
        process.callbacks.append(lambda _process: self.shipping.subtract(keys))
        return process

    def _replicate(self, origin, chain, checkpoint):
        started = self.sim.now
        tracer = self.sim.tracer
        span = tracer.span(
            "replicate",
            track="replication",
            instance=checkpoint.store_name,
            checkpoint=checkpoint.checkpoint_id,
            bytes=checkpoint.delta_bytes,
            chain=len(chain),
        )
        if chain and checkpoint.delta_bytes > 0:
            # Credit is acquired per block and released once the block is
            # durable; a failed stream's lease returns what it still holds.
            options = dict(
                tag="replication",
                lease=CreditLease(self._credit_for(origin)),
                hop_span=lambda src, dst, nbytes: tracer.span(
                    "replicate.hop",
                    track="replication",
                    parent=span,
                    src=src.name,
                    dst="disk" if dst is None else dst.name,
                    bytes=nbytes,
                ),
            )
            blocks = split_bytes(checkpoint.delta_bytes, self.block_size)
            if self.topology == "star":
                # Every replica fed from the origin's own NIC.
                legs = [
                    self.sim.process(
                        self.cluster.chunked_transfer(
                            origin,
                            member,
                            blocks,
                            describe="replicate-star",
                            **options,
                        ).run()
                    )
                    for member in chain
                ]
                yield self.sim.all_of(legs)
            else:
                yield from self.cluster.chunked_transfer(
                    origin, chain, blocks, describe="replicate", **options
                ).run()
        for member in chain:
            self.store_on(member).ingest(checkpoint)
        self.stats.checkpoints_replicated += 1
        self.stats.bytes_replicated += checkpoint.delta_bytes * len(chain)
        self.stats.last_duration = self.sim.now - started
        if checkpoint.delta_bytes > 0:
            self.stats.timings.append((checkpoint.delta_bytes, self.stats.last_duration))
        span.finish()
        if tracer.enabled:
            tracer.count("replication.checkpoints")
            tracer.count("replication.bytes", checkpoint.delta_bytes * len(chain))
        return self.stats.last_duration

    # -- repair copy (started by the reconcile pass only) -----------------------

    def is_current(self, machine, primary):
        """The lineage rule: ``machine`` holds a complete replica of the live
        ``primary`` at its latest checkpoint.  Only such a holding seeds a
        repair copy or counts toward a restored chain (a delta means
        nothing off its base, §4.2); a pre-copy's tuple id never matches."""
        holding = self.store_on(machine).holdings.get(primary.instance_id)
        return (
            holding is not None
            and holding.is_complete
            and holding.checkpoint_id == primary.state.store.last_checkpoint_id
        )

    def bulk_copy(self, primary, target):
        """Returns a Process bringing ``target``'s replica of the live
        ``primary`` instance to the primary's latest checkpoint: from a
        current holding, else from the primary itself (flushed, read off
        its disk), shipping only the tables the target lacks."""
        current = [
            machine
            for machine in self.stores
            if machine.alive
            and machine is not target
            and self.is_current(machine, primary)
        ]
        return self.sim.process(
            self._bulk_copy(primary, current[0] if current else None, target),
            name=f"bulk-copy:{primary.instance_id}",
        )

    def _bulk_copy(self, primary, source, target):
        store_name = primary.instance_id
        from_primary = source is None
        if from_primary:
            source = primary.machine
            store = primary.state.store
            flushed = store.flush()
            if flushed is not None:
                yield source.disk_write(flushed.size_bytes, tag="repair-flush")
            tables = list(store.tables)
            frontier = primary.frontier()
            manifest = CheckpointManifest(
                [t.table_id for t in tables], sum(t.size_bytes for t in tables)
            )
            checkpoint_id = store.last_checkpoint_id
        else:
            holding = self.store_on(source).holding_of(store_name)
            tables, manifest = holding.live_tables(), holding.manifest
            checkpoint_id, frontier = holding.checkpoint_id, holding.frontier
        replica = self.store_on(target)
        held = replica.holdings.get(store_name) or ReplicaHolding(store_name)
        base = held.checkpoint_id  # a delta ingested meanwhile moves it
        lacking = sum(t.size_bytes for t in tables if t.table_id not in held.tables)
        yield from self.cluster.chunked_transfer(
            source,
            target,
            split_bytes(lacking, self.block_size),
            tag="replica-repair",
            describe="bulk-copy",
            read_source=from_primary,
            hop_span=lambda src, dst, nbytes: self.sim.tracer.span(
                "replicate.bulk",
                track="replication",
                instance=store_name,
                src=src.name,
                dst=dst.name,
                bytes=nbytes,
            ),
        ).run()
        landed = replica.holdings.get(store_name)
        if landed is not None and landed.checkpoint_id != base:
            # A delta landed while the copy ran.  It is based on the copied
            # checkpoint: fill in the tables its manifest names rather than
            # roll the holding back under it.
            live = set(landed.manifest.table_ids)
            landed.tables.update((t.table_id, t) for t in tables if t.table_id in live)
        else:
            replica.ingest_full(store_name, tables, manifest, checkpoint_id, frontier)
        return lacking


class ReplicaChains:
    """Rhino's replica chains as the job's checkpoint storage (contract in
    ``engine/checkpointing.py``): holdings on each instance's chain, §4.2."""

    fetch_source = "local"

    def __init__(self, rhino):
        self.rhino = rhino
        #: (delta bytes, seconds) per non-empty replication.
        self.persist_timings = rhino.replicator.stats.timings

    def persist(self, instance, checkpoint):
        """Start replicating along the instance's live chain; returns None,
        so the checkpoint completes without waiting (the reconcile pass
        repairs a failed hop)."""
        rhino = self.rhino
        if instance.machine.alive:
            if instance.instance_id not in rhino.replication_manager.groups:
                rhino._place_replica_groups()
            group = rhino.replication_manager.group_of(instance.instance_id)
            chain = [m for m in group.chain if m.alive]
            if chain:
                rhino.replicator.replicate(
                    instance.machine, chain, checkpoint
                ).defused = True
        return None

    def hand_over(self, instance, checkpoint, plan, execution, dirty):
        """Ship what the target lacks into its holding; ``dirty`` is what
        the ranges dirtied since a pre-copy (None without one)."""
        target_machine = plan.target_machine
        # An intra-worker move ships nothing: tables are shared on disk.
        if target_machine is instance.machine:
            return 0
        # What crosses the barrier is what the target lacks: the dirty
        # remainder when a pre-copied holding is (still) there -- it
        # vanishes if the target restarted with wiped disks -- the
        # checkpoint's delta on a replica holder, else everything.
        replica = self.rhino.replicator.store_on(target_machine)
        precopied = dirty is not None and instance.instance_id in replica.holdings
        replica.ingest(checkpoint)
        tag = "handover-migration"
        cutover_span = None
        if precopied:
            transferred = dirty
            tag = "handover-cutover"
            cutover_span = self.rhino.sim.tracer.span(
                "handover.cutover",
                track="handover",
                parent=execution.root_span,
                handover=execution.handover_id,
                instance=instance.instance_id,
                bytes=transferred,
                **plan.trace_tags(),
            )
        elif replica.has_complete(instance.instance_id):
            transferred = checkpoint.delta_bytes
        else:
            transferred = checkpoint.total_bytes
        # With those bytes shipped the holding is the checkpoint.
        replica.ingest_full(
            instance.instance_id,
            checkpoint.full_tables,
            checkpoint.manifest,
            checkpoint.checkpoint_id,
            checkpoint.frontier,
        )
        if transferred > 0:
            # Chunk-granular: a retry after a transient fault resends one
            # chunk; the target writes the total once.
            try:
                yield from self.rhino.job.cluster.chunked_transfer(
                    instance.machine,
                    target_machine,
                    split_bytes(transferred, fluid.CHUNK_BYTES),
                    tag=tag,
                    write=False,
                ).run()
                yield target_machine.disk_write(transferred, tag="handover-migration")
            except TransferFailed:
                # The target died (or stayed unreachable past the retry
                # budget): the origin keeps its state and the abort
                # rollback re-adopts the vnodes.
                if cutover_span is not None:
                    cutover_span.finish(status="port-failed")
                return None
        if cutover_span is not None:
            cutover_span.finish()
        return transferred

    def restore_point(self, coordinator, store_name, machine):
        """The complete holding on ``machine`` (else ProtocolError)."""
        holding = self.rhino.replicator.store_on(machine).holding_of(store_name)
        tables = holding.live_tables()
        checkpoint = Checkpoint(
            holding.checkpoint_id, store_name, holding.manifest, (), tables, None
        )
        checkpoint.frontier = holding.frontier
        return checkpoint

    def fetch(self, machine, checkpoint):
        """Hard-link the local tables (Table 1's 0.2 s): no bytes move."""
        return self.rhino.sim.timeout(self.rhino.config.local_fetch_seconds, 0)

    def holds(self, machine, store_name):
        """Whether ``machine`` holds a complete replica of the store."""
        return self.rhino.replicator.store_on(machine).has_complete(store_name)

    def install(self, instance, checkpoint):
        """A holding on every chain member, its delta charged to disk."""
        rhino = self.rhino
        for member in rhino.replication_manager.group_of(instance.instance_id).chain:
            rhino.replicator.store_on(member).ingest_full(
                instance.instance_id,
                checkpoint.full_tables,
                checkpoint.manifest,
                checkpoint.checkpoint_id,
                checkpoint.frontier,
            )
            member.pick_disk().used += checkpoint.delta_bytes
