"""The Megaphone baseline: fluid, fine-grained, in-memory state migration.

Megaphone (Hoffmann et al., VLDB 2019) migrates operator state bin by bin,
multiplexed with data processing, but keeps *all* state in main memory --
"the lack of memory management to support state migration" is what makes
it run out of memory above ~500 GB in the paper's benchmark (§3.1,
Table 1).  This model reproduces both behaviours:

* **Memory pressure** -- every instance's state bytes are charged against
  its machine's main memory; exceeding it raises
  :class:`repro.common.errors.OutOfMemoryError` (Table 1's "Out-of-Memory"
  rows).
* **Fluid migration** -- a reconfiguration walks the origin's populated
  key-group bins: serialize (CPU) -> transfer (network) -> deserialize
  (CPU) -> reroute that bin.  Bins migrate while processing continues, so
  latency rises for the duration of the migration instead of stalling
  completely (Figure 4g-i's 10-24 s plateau).
"""

from repro.common.errors import OutOfMemoryError, ProtocolError
from repro.common.ranges import RangeSet
from repro.engine.partitioning import key_group_of
from repro.engine.records import RecordBatch

#: Per-step scheduling cost (Megaphone "spends the majority of time to
#: schedule migrations" for many small bins).
SCHEDULE_OVERHEAD = 0.002
#: State bytes -> resident memory multiplier.
MEMORY_OVERHEAD = 1.0


class MegaphoneConfig:
    """Megaphone model tunables."""

    def __init__(
        self,
        serialize_throughput=400e6,
        deserialize_throughput=300e6,
        bin_batch_groups=8,
    ):
        #: Bytes/second one core serializes state at (Rust + Abomonation).
        self.serialize_throughput = serialize_throughput
        self.deserialize_throughput = deserialize_throughput
        #: Key groups migrated per fluid step.
        self.bin_batch_groups = bin_batch_groups


class MegaphoneReport:
    """Outcome of one Megaphone migration."""

    def __init__(self):
        self.triggered_at = None
        self.completed_at = None
        self.migrated_bytes = 0
        self.bins_migrated = 0
        self.out_of_memory = False

    @property
    def total_seconds(self):
        """Trigger-to-completion duration in seconds (None while running)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.triggered_at

    def __repr__(self):
        status = "OOM" if self.out_of_memory else "ok"
        return (
            f"<MegaphoneReport {status}: {self.migrated_bytes} B in "
            f"{self.bins_migrated} bins>"
        )


class Megaphone:
    """Attachable Megaphone runtime: memory accounting + fluid migration."""

    def __init__(self, job, cluster, config=None):
        self.job = job
        self.cluster = cluster
        self.sim = job.sim
        self.config = config or MegaphoneConfig()
        self._accounted = {}  # instance_id -> bytes charged to memory
        self._monitor = None
        self.failed = None  # OutOfMemoryError once state no longer fits
        self.reports = []

    # -- memory model --------------------------------------------------------

    def attach(self, monitor_interval=1.0):
        """Start charging state bytes against machine memory and install
        the in-flight record rerouting of Megaphone's migrator operators."""
        self._monitor = self.sim.process(
            self._memory_monitor(monitor_interval), name="megaphone-memory"
        )
        self.job.misroute_handler = self._reroute_record
        return self

    def _reroute_record(self, instance, record):
        """Hand an in-flight record of a migrated bin to its new owner."""
        op_name = instance.op.name
        assignment = self.job.assignments.get(op_name)
        if assignment is None:
            return
        group = key_group_of(record.key, self.job.config.num_key_groups)
        owner = self.job.instances.get((op_name, assignment.owner_of(group)))
        if owner is not None and owner is not instance and owner.machine.alive:
            owner.enqueue("batch", None, RecordBatch([record]))

    def _memory_monitor(self, interval):
        while self.failed is None:
            yield self.sim.timeout(interval)
            try:
                self.account_memory()
            except OutOfMemoryError as error:
                self._fail(error)
                return

    def account_memory(self):
        """Charge/refresh each instance's state footprint; may raise OOM."""
        for instance in self.job.stateful_instances():
            if not instance.machine.alive:
                continue
            footprint = int(instance.state.total_bytes * MEMORY_OVERHEAD)
            accounted = self._accounted.get(instance.instance_id, 0)
            if footprint > accounted:
                instance.machine.allocate_memory(footprint - accounted)
                self._accounted[instance.instance_id] = footprint
            elif footprint < accounted:
                instance.machine.free_memory(accounted - footprint)
                self._accounted[instance.instance_id] = footprint

    def _fail(self, error):
        """Out of memory: the worker process dies (the paper's observation:
        executions above 500 GB terminated with an OOM error)."""
        self.failed = error
        self.job.stop()

    # -- fluid migration --------------------------------------------------------

    def migrate(self, op_name, moves):
        """Migrate the populated bins of each (origin, target) pair.

        ``moves`` is a list of (origin_index, target_index, share) where
        ``share`` is the fraction of the origin's key groups to move.
        Returns a Process yielding a :class:`MegaphoneReport`.
        """
        return self.sim.process(
            self._migrate(op_name, moves), name=f"megaphone-migrate:{op_name}"
        )

    def _migrate(self, op_name, moves):
        report = MegaphoneReport()
        report.triggered_at = self.sim.now
        if self.failed is not None:
            report.out_of_memory = True
            report.completed_at = self.sim.now
            self.reports.append(report)
            raise ProtocolError("Megaphone is down (out of memory)")
        assignment = self.job.assignments[op_name]
        for origin_index, target_index, share in moves:
            origin = self.job.instance(op_name, origin_index)
            target = self.job.instance(op_name, target_index)
            ranges = list(assignment.ranges_of(origin_index))
            groups = [g for lo, hi in ranges for g in range(lo, hi)]
            to_move = groups[: int(len(groups) * share)]
            batch = max(1, self.config.bin_batch_groups)
            for start in range(0, len(to_move), batch):
                bins = to_move[start : start + batch]
                yield from self._migrate_bins(
                    origin, target, bins, assignment, report
                )
        report.completed_at = self.sim.now
        self.reports.append(report)
        return report

    def _migrate_bins(self, origin, target, bins, assignment, report):
        config = self.config
        yield self.sim.timeout(SCHEDULE_OVERHEAD)
        # Every per-range call below covers a contiguous run of the bins.
        runs = list(RangeSet((group, group + 1) for group in bins))
        nbytes = sum(origin.state.bytes_in_groups(lo, hi) for lo, hi in runs)
        pairs = []
        for lo, hi in runs:
            pairs.extend(origin.state.extract_groups(lo, hi))
        if nbytes > 0:
            # Serialize on the origin, move, deserialize on the target.
            yield from origin.machine.compute(nbytes / config.serialize_throughput)
            yield self.cluster.transfer(
                origin.machine, target.machine, nbytes, tag="megaphone-migration"
            )
            yield from target.machine.compute(nbytes / config.deserialize_throughput)
        for lo, hi in runs:
            origin.state.drop_groups(lo, hi)
            target.state.adopt_groups(lo, hi)
        per_pair = nbytes // len(pairs) if pairs else 0
        target.state.ingest_pairs(pairs, nbytes_per_pair=max(1, per_pair))
        target.logic.absorb(runs)
        # The origin's window/session indexes must forget the moved bins,
        # or a later watermark would fire against state it no longer owns.
        remaining = origin.state.owned_ranges()
        origin.logic.rebuild(remaining if remaining is not None else [])
        # Reroute the migrated bins at every upstream producer.
        for runtime in self.job.edge_runtimes(downstream=origin.op.name):
            for router in runtime.routers.values():
                for lo, hi in runs:
                    router.reassign(lo, hi, target.index)
        for lo, hi in runs:
            assignment.reassign(lo, hi, target.index)
        report.migrated_bytes += nbytes
        report.bins_migrated += len(bins)
