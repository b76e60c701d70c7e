"""Operator logic: the user-defined (or built-in) processing behaviour.

A :class:`LogicalOperator` describes one vertex of the query; each of its
``parallelism`` physical instances runs one :class:`OperatorLogic` object.
Logic objects see the world through an :class:`InstanceContext` -- keyed
state, key-group math, and the simulated clock.

**The interface is batch-at-a-time**: the instance pulls one
:class:`~repro.engine.records.RecordBatch` off its gate queue and calls
:meth:`OperatorLogic.process_batch` once per batch.  A logic whose
semantics are per record (windows, joins, sessions) defines
:meth:`OperatorLogic.process` instead and inherits the row-by-row
``process_batch``.
"""

from repro.engine.records import Record, RecordBatch
from repro.engine.partitioning import key_group_of


class LogicalOperator:
    """One vertex of the logical query graph."""

    def __init__(
        self,
        name,
        logic_factory,
        parallelism,
        stateful=False,
        cpu_per_record=2e-6,
        measure_latency=False,
    ):
        self.name = name
        self.logic_factory = logic_factory
        self.parallelism = parallelism
        self.stateful = stateful
        self.cpu_per_record = cpu_per_record
        self.measure_latency = measure_latency

    def __repr__(self):
        return f"<Operator {self.name} p={self.parallelism}>"


class InstanceContext:
    """What an OperatorLogic can touch."""

    def __init__(self, instance):
        self.instance = instance
        self.state = instance.state
        self.num_key_groups = instance.job.config.num_key_groups

    @property
    def now(self):
        """Current simulated time."""
        return self.instance.sim.now

    def key_group(self, key):
        """The key group of a key under this job's partitioning."""
        return key_group_of(key, self.num_key_groups)


class OperatorLogic:
    """Base class for per-instance processing logic.

    The pull-based operator lifecycle:

    1. ``open(ctx)`` binds the logic to its instance;
    2. the instance *pulls* one batch at a time off its gate queue and
       calls ``process_batch(batch, side)`` -- **the primary interface**;
       implementations return an iterable of output records (or a
       :class:`RecordBatch`), emitted downstream as one batch;
    3. ``on_watermark`` reacts to event-time progress between batches;
    4. ``rebuild``/``absorb`` reconstruct in-memory auxiliary indexes
       from keyed state after a restore or handover.

    The default ``process_batch`` iterates the batch and delegates row by
    row to ``process``: the window, join and session logics
    (:mod:`repro.engine.windows`) are written per record and unit-tested
    that way.  Override ``process_batch`` to amortize Python per-record
    overhead (state lookups, output assembly) across the batch; a logic
    that does so needs no ``process``.
    """

    def open(self, ctx):
        """Bind the logic to its instance context."""
        self.ctx = ctx

    def process_batch(self, batch, side=0):
        """Consume one batch; returns an iterable of output records.

        The default delegates to per-record :meth:`process`, preserving
        row order.
        """
        outputs = []
        process = self.process
        for record in batch.records:
            outputs.extend(process(record, side=side))
        return outputs

    def process(self, record, side=0):
        """Consume one record; yields any output records."""
        return ()

    def on_watermark(self, watermark):
        """React to event-time progress; yields output records."""
        return ()

    def rebuild(self, group_ranges):
        """Fully re-derive auxiliary indexes for the key groups given.

        Discards any existing index first; used after a full restore and
        on the shrinking side of a migration.
        """
        self.absorb(group_ranges)

    def absorb(self, group_ranges):
        """Incrementally index the key groups in ``group_ranges``.

        Keeps existing index entries; used by a migration *target* that
        adopts additional virtual nodes next to its own state.
        """


class MapLogic(OperatorLogic):
    """Stateless 1-to-1 transformation."""

    def __init__(self, fn):
        self.fn = fn

    def process_batch(self, batch, side=0):
        """Transform every row of the batch in one pass."""
        fn = self.fn
        return [
            Record(r.key, r.timestamp, fn(r.value), nbytes=r.nbytes, weight=r.weight)
            for r in batch.records
        ]


class FilterLogic(OperatorLogic):
    """Stateless predicate filter."""

    def __init__(self, predicate):
        self.predicate = predicate

    def process_batch(self, batch, side=0):
        """Filter the batch's rows in one pass."""
        predicate = self.predicate
        return [r for r in batch.records if predicate(r.value)]


class PassThroughLogic(OperatorLogic):
    """Identity (useful as a routing/measurement stage)."""

    def process_batch(self, batch, side=0):
        """Forward the batch object untouched (zero-copy identity)."""
        return batch


class CollectSinkLogic(OperatorLogic):
    """Terminal operator: keeps a bounded sample of its results."""

    #: Results kept; later ones are dropped.
    keep = 10_000

    def __init__(self):
        self.results = []

    def process_batch(self, batch, side=0):
        """Sample rows while under the cap."""
        records = batch.records
        room = self.keep - len(self.results)
        if room > 0:
            self.results.extend(
                (r.key, r.timestamp, r.value, r.weight) for r in records[:room]
            )
        return ()


class StatefulCounterLogic(OperatorLogic):
    """A minimal keyed counter: the read-modify-write pattern in isolation.

    Used by tests and the quickstart example: state equivalence after
    migrations is easy to assert on counters.
    """

    cpu_per_record = 1e-6

    def process_batch(self, batch, side=0):
        """Batched read-modify-write: one state lookup per distinct key.

        Repeated keys inside the batch read from a local cache instead of
        the LSM store; every intermediate version is still written through
        :meth:`~repro.engine.state.KeyedStateBackend.put_batch`, so the
        state entries (values, sequence numbers, byte accounting) are
        those of one ``put`` per row.
        """
        state = self.ctx.state
        key_group = self.ctx.key_group
        outputs = []
        puts = []
        cache = {}
        for record in batch.records:
            group = key_group(record.key)
            composite = (group, record.key)
            current = cache.get(composite)
            if current is None:
                current = state.get(group, record.key) or 0
            updated = current + record.weight
            cache[composite] = updated
            puts.append((group, record.key, updated, record.nbytes))
            outputs.append(
                Record(record.key, record.timestamp, updated, nbytes=16, weight=record.weight)
            )
        state.put_batch(puts)
        return outputs
