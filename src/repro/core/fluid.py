"""Fluid state handover: what moves before the barrier.

Megaphone-style migration (PAPERS.md) bounds the latency spike of a
reconfiguration by moving state in small chunks while the origin keeps
processing, instead of shipping one bulk copy behind the alignment
barrier.  A handover onto a *cold* target (a live worker on another
machine that holds no complete replica of the origin) runs
:func:`precopy` first; every other handover has nothing to pre-copy and
goes straight to the barrier.

* :func:`plan_chunks` splits a plan's migrated key-group ranges into
  :class:`StateChunk` units -- per key group by default, packed up to a
  byte cap, with oversized single groups split into sub-chunks.
* :func:`precopy` snapshots each cold plan's origin, ships the snapshot
  in chunks over parallel streams, and runs bounded delta catch-up
  rounds; its :class:`PrecopyOutcome` tells the barrier how little is
  left to ship.

The Handover Manager runs the barrier protocol itself; see
``handover_manager.py``.
"""

from repro.common.errors import SimulationError
from repro.core import migration
from repro.core.handover import HandoverAborted
from repro.sim.flows import TransferFailed
from repro.storage.kvs.checkpoint import Checkpoint, CheckpointManifest

#: Concurrent migration streams per plan during pre-copy/delta.
PARALLEL_STREAMS = 4
#: Maximum delta catch-up rounds before taking the barrier anyway.
DELTA_ROUNDS = 3
#: Transfer-chunk byte cap, before the barrier and across it (per key
#: group by default; one group larger than the cap splits into sub-chunks).
CHUNK_BYTES = 64 * 1024 * 1024
#: Stop catching up once the remaining dirty bytes drop to this (the rest
#: ships under the barrier).
DELTA_THRESHOLD_BYTES = 1 * 1024 * 1024


class StateChunk:
    """One unit of migrated state: key groups [lo, hi), ``nbytes`` big.

    When a single key group exceeds the chunk cap it is split into
    ``parts`` sub-chunks (``part`` = 0-based index) -- the
    sub-key-group granularity of "Towards Fine-Grained Scalability"
    (PAPERS.md), here for transfer scheduling only: ownership still
    moves per key group.
    """

    __slots__ = ("lo", "hi", "nbytes", "part", "parts")

    def __init__(self, lo, hi, nbytes, part=0, parts=1):
        self.lo = lo
        self.hi = hi
        self.nbytes = nbytes
        self.part = part
        self.parts = parts

    def __repr__(self):
        sub = f" {self.part + 1}/{self.parts}" if self.parts > 1 else ""
        return f"<StateChunk [{self.lo},{self.hi}){sub} {self.nbytes} B>"


def plan_chunks(sizes_by_group, ranges, chunk_bytes):
    """Split key-group ``ranges`` into transfer chunks of <= ``chunk_bytes``.

    ``sizes_by_group`` maps group -> modeled bytes (absent = empty).
    Contiguous groups are greedily packed into one chunk until the cap;
    a single group larger than the cap becomes ``ceil(size / cap)``
    sub-chunks of near-equal size.  Every range is covered: a range of
    only-empty groups still yields one zero-byte chunk, so chunk-granular
    acks always account for the full moved span.
    """
    if chunk_bytes <= 0:
        raise SimulationError(f"chunk_bytes must be > 0, got {chunk_bytes}")
    chunks = []
    for lo, hi in ranges:
        open_lo = None
        open_bytes = 0
        for group in range(lo, hi):
            size = sizes_by_group.get(group, 0)
            if size > chunk_bytes:
                if open_lo is not None:
                    chunks.append(StateChunk(open_lo, group, open_bytes))
                    open_lo = None
                    open_bytes = 0
                parts = -(-size // chunk_bytes)
                base = size // parts
                remainder = size - base * parts
                for part in range(parts):
                    chunks.append(
                        StateChunk(
                            group,
                            group + 1,
                            base + (1 if part < remainder else 0),
                            part=part,
                            parts=parts,
                        )
                    )
                continue
            if open_lo is None:
                open_lo = group
            elif open_bytes + size > chunk_bytes:
                chunks.append(StateChunk(open_lo, group, open_bytes))
                open_lo = group
                open_bytes = 0
            open_bytes += size
        if open_lo is not None:
            chunks.append(StateChunk(open_lo, hi, open_bytes))
    return chunks


def snapshot_sizes(tables, ranges):
    """{group: modeled bytes} of the groups of the disjoint ``ranges`` in
    the snapshot ``tables``: one scan per table and range, not one call
    per group."""
    sizes = {}
    for lo, hi in ranges:
        for table in tables:
            for group, nbytes in table.bytes_by_group(lo, hi).items():
                sizes[group] = sizes.get(group, 0) + nbytes
    return sizes


class PrecopyOutcome:
    """One plan's background-phase accounting, consumed at cutover.

    ``cutoff_seq`` is the origin store's sequence number as of the last
    shipped snapshot: everything at or below it is already on the target,
    so the cutover barrier ships only bytes dirtied after it.
    """

    __slots__ = (
        "cutoff_seq",
        "precopy_bytes",
        "precopy_chunks",
        "precopy_seconds",
        "delta_bytes",
        "delta_rounds",
        "delta_seconds",
    )

    def __init__(self):
        self.cutoff_seq = 0
        self.precopy_bytes = 0
        self.precopy_chunks = 0
        self.precopy_seconds = 0.0
        self.delta_bytes = 0
        self.delta_rounds = 0
        self.delta_seconds = 0.0

    def __repr__(self):
        return (
            f"<PrecopyOutcome precopy={self.precopy_bytes} B/"
            f"{self.precopy_chunks} chunks "
            f"delta={self.delta_bytes} B/{self.delta_rounds} rounds>"
        )


# -- pre-copy / delta catch-up (runs before the barrier) ---------------------


def precopy(rhino, handover_id, plans, root):
    """Chunked background pre-copy plus bounded delta catch-up.

    Runs one background process per plan whose target is cold: snapshot
    the origin's state, ship it in chunks over parallel streams while the
    origin keeps processing, then repeatedly ship what was dirtied since
    the previous snapshot until the remainder is small (or the round
    budget is spent, or the dirty set stops shrinking).  Returns
    ``({id(plan): PrecopyOutcome}, started)``; a plan without an outcome
    (nothing to pre-copy, or degraded by a transfer failure) ships
    whatever its target lacks at the barrier, and ``started`` says
    whether any background phase ran at all.

    Nothing is pre-copied for failure recovery (the origin is dead; state
    restores from the checkpoint storage), a same-machine move (tables are
    shared on disk), or a target the job's checkpoint storage says holds
    the origin's state (a complete replica: proactive replication already
    paid, only the last delta is missing; or a DFS every machine reads).
    """
    sim, job = rhino.sim, rhino.job
    if plans[0].reason == migration.FAILURE:
        return {}, False
    run = _Precopy(rhino, handover_id, root)
    cold = []  # (origin, plan) of every plan whose target is cold
    for plan in plans:
        origin = job.instances.get((plan.op_name, plan.origin_index))
        target_machine = plan.target_machine
        if (
            origin is None
            or getattr(origin, "state", None) is None
            or not origin.machine.alive
            or target_machine is None
            or target_machine is origin.machine
            or not target_machine.alive
            or job.checkpoint_storage.holds(target_machine, origin.instance_id)
        ):
            continue
        cold.append((origin, plan))
    if not cold:
        return {}, False
    yield sim.all_of(
        [
            sim.process(
                run.plan(plan, origin),
                name=f"handover-precopy:{origin.instance_id}",
            )
            for origin, plan in cold
        ]
    )
    # Pre-copy is best-effort (a degraded plan ships everything at the
    # barrier), but a participant of *any* plan -- cold or not -- that
    # died meanwhile can no longer complete the protocol at all, and the
    # execution is not registered yet for on_machine_failure to abort it:
    # abort now, before the coordinator is suspended, so the
    # re-plan-and-retry loop picks a live target.
    for plan in plans:
        origin = job.instances.get((plan.op_name, plan.origin_index))
        for machine in (origin and origin.machine, plan.target_machine):
            if machine is not None and not machine.alive:
                raise HandoverAborted(handover_id, machine)
    return run.outcomes, True


class _Precopy:
    """One handover's background phase: what all its plans' streams share."""

    def __init__(self, rhino, handover_id, root):
        self.rhino = rhino
        self.sim = rhino.sim
        self.handover_id = handover_id
        self.root = root
        #: id(plan) -> PrecopyOutcome of the plans that did not degrade.
        self.outcomes = {}

    def plan(self, plan, origin):
        sim, handover_id = self.sim, self.handover_id
        store = origin.state
        target_machine = plan.target_machine
        replica = self.rhino.replicator.store_on(target_machine)
        span = sim.tracer.span(
            "handover.precopy",
            track="handover",
            parent=self.root,
            handover=handover_id,
            instance=origin.instance_id,
            **plan.trace_tags(),
        )
        outcome = PrecopyOutcome()
        started = sim.now
        try:
            # Snapshot: freeze the memtable so the shipped set is a
            # consistent prefix (everything at or below cutoff_seq); the
            # origin keeps writing into a fresh memtable meanwhile.
            cutoff_seq, tables, frontier = yield from _snapshot_origin(
                origin, "handover-precopy"
            )
            # Only the migrating ranges are pre-copied: a rebalance that
            # moves half the origin's virtual nodes must not pay to ship
            # the half that stays behind.
            ranges = [(lo, hi) for lo, hi in plan.vnodes]
            sizes = snapshot_sizes(tables, ranges)
            chunks = plan_chunks(sizes, ranges, CHUNK_BYTES)
            shipped = yield from self.ship(
                origin.machine, target_machine, chunks, span, "precopy"
            )
            # Install the snapshot only after its bytes landed: a kill
            # mid-stream must not leave a holding claiming state the
            # target never received.
            replica.ingest_full(
                store.name,
                tables,
                CheckpointManifest([t.table_id for t in tables], shipped),
                ("precopy", handover_id, plan.origin_index),
                frontier,
            )
            outcome.cutoff_seq = cutoff_seq
            outcome.precopy_bytes = shipped
            outcome.precopy_chunks = len(chunks)
            outcome.precopy_seconds = sim.now - started
            delta_started = sim.now
            prev_dirty = None
            for round_no in range(1, DELTA_ROUNDS + 1):
                dirty_sizes = store.dirty_bytes_by_group(ranges, outcome.cutoff_seq)
                total_dirty = sum(dirty_sizes.values())
                # Termination rule: the remainder is small enough for the
                # barrier, or catch-up stopped gaining on the write rate.
                if total_dirty <= DELTA_THRESHOLD_BYTES:
                    break
                if prev_dirty is not None and total_dirty >= prev_dirty:
                    break
                prev_dirty = total_dirty
                delta_span = sim.tracer.span(
                    "handover.delta",
                    track="handover",
                    parent=span,
                    handover=handover_id,
                    instance=origin.instance_id,
                    round=round_no,
                    dirty_bytes=total_dirty,
                )
                cutoff_seq, tables, frontier = yield from _snapshot_origin(
                    origin, "handover-delta"
                )
                chunks = plan_chunks(dirty_sizes, ranges, CHUNK_BYTES)
                shipped = yield from self.ship(
                    origin.machine, target_machine, chunks, delta_span, "delta"
                )
                _install_delta_snapshot(
                    sim,
                    replica,
                    store.name,
                    tables,
                    ("precopy", handover_id, plan.origin_index, round_no),
                    frontier,
                )
                outcome.cutoff_seq = cutoff_seq
                outcome.delta_bytes += shipped
                outcome.delta_rounds = round_no
                delta_span.finish(bytes=shipped)
            outcome.delta_seconds = sim.now - delta_started
            self.outcomes[id(plan)] = outcome
            span.finish(
                bytes=outcome.precopy_bytes + outcome.delta_bytes,
                chunks=outcome.precopy_chunks,
                rounds=outcome.delta_rounds,
            )
        except TransferFailed:
            # Degraded: a stream failed past the retry budget (dead or
            # unreachable peer).  No outcome is recorded -- the barrier ships
            # everything the target lacks (or the handover aborts if the peer
            # actually died; precopy() checks liveness).
            span.finish(status="degraded")

    def ship(self, src, dst, chunks, parent, phase):
        """Move ``chunks`` from ``src`` to ``dst`` over parallel streams,
        one ``handover.chunk`` span per chunk.  A chunk failing past its
        retries stops the stream and re-raises -- the caller degrades the
        plan.  Returns shipped bytes.
        """
        tracer = self.sim.tracer
        chunks = [chunk for chunk in chunks if chunk.nbytes > 0]
        return (
            yield from self.rhino.cluster.chunked_transfer(
                src,
                dst,
                [chunk.nbytes for chunk in chunks],
                tag=f"handover-{phase}",
                streams=PARALLEL_STREAMS,
                block_span=lambda index, stream: tracer.span(
                    "handover.chunk",
                    track="handover",
                    parent=parent,
                    handover=self.handover_id,
                    phase=phase,
                    stream=stream,
                    lo=chunks[index].lo,
                    hi=chunks[index].hi,
                    bytes=chunks[index].nbytes,
                ),
            ).run()
        )


def _snapshot_origin(origin, tag):
    """Freeze the origin's memtable; returns (seq, tables, frontier).

    Everything is captured synchronously at the flush instant -- the
    disk charge for the flushed run happens after, so records the
    origin processes while the write is in flight land beyond the
    returned sequence number and frontier (in the next snapshot's delta).
    """
    store = origin.state
    if not origin.machine.alive:
        raise TransferFailed(f"origin {origin.machine.name} is dead")
    cutoff_seq = store.current_seq
    frontier = origin.frontier()
    flushed = store.flush()
    tables = list(store.tables)
    if flushed is not None:
        yield origin.machine.disk_write(flushed.size_bytes, tag=tag)
    return cutoff_seq, tables, frontier


def _install_delta_snapshot(sim, replica, store_name, tables, checkpoint_id, frontier):
    """Advance a pre-copy holding to a newer origin snapshot."""
    holding = replica.holdings.get(store_name)
    held = set(holding.tables) if holding is not None else set()
    fresh = [t for t in tables if t.table_id not in held]
    total = sum(t.size_bytes for t in tables)
    checkpoint = Checkpoint(
        checkpoint_id,
        store_name,
        CheckpointManifest([t.table_id for t in tables], total),
        delta_tables=fresh,
        full_tables=list(tables),
        created_at=sim.now,
    )
    checkpoint.frontier = frontier
    replica.ingest(checkpoint)
