"""Physical operator instances: input gates, alignment, processing loops.

Each logical operator runs as ``parallelism`` instances.  An instance:

* receives elements from its inbound channels by direct call
  (:meth:`OperatorInstance.add_input`) into one gate queue (batches keep
  per-channel FIFO order); a :class:`RecordBatch` is the only data element
  a channel carries -- the main loop drains everything ready in one
  activation and calls ``OperatorLogic.process_batch`` once per batch;
* performs **epoch alignment** for :class:`AlignedMarker` subclasses --
  when a marker arrives on one channel, that channel is blocked (records
  buffer in the channel) until the marker has arrived on every inbound
  channel *and* has been acted upon, exactly once (§4.1.1);
* charges CPU per processed record, maintains keyed state, and emits
  outputs through per-edge routers.

Rhino's handover protocol plugs in through ``job.marker_handlers``: the
engine aligns any marker type, then dispatches to the registered handler.
"""

from bisect import bisect_right
from collections import deque

from repro.common.errors import EngineError
from repro.sim.kernel import Interrupt
from repro.sim.resources import Store
from repro.engine.operators import InstanceContext
from repro.engine.partitioning import key_group_of
from repro.engine.records import (
    AlignedMarker,
    CheckpointBarrier,
    EndOfStream,
    RecordBatch,
    Watermark,
)
from repro.engine.state import KeyedStateBackend

#: Records a source takes from its log partition per poll (one batch).
MAX_POLL_RECORDS = 64


class Frontier:
    """Replay progress per key-group range ("ignore seen records", §4.1.2).

    ``segments`` are disjoint ``(lo, hi, progress)`` key-group ranges in
    ascending order; ``progress`` maps an origin (a source partition) to
    the log position of the newest record of that range processed from it.
    A source emits its partition in position order and a channel delivers
    a prefix, so every record of the range at or behind that position was
    processed, or was covered by the frontier the range was adopted with.
    No two segments share a progress map.
    """

    __slots__ = ("segments", "_starts")

    def __init__(self, segments=()):
        self.segments = list(segments)
        self._starts = [lo for lo, _hi, _progress in self.segments]

    def progress_of(self, group):
        """The progress map of ``group``'s range (None: no range holds it)."""
        index = bisect_right(self._starts, group) - 1
        if index >= 0:
            _lo, hi, progress = self.segments[index]
            if group < hi:
                return progress
        return None

    def seen(self, record, group):
        """True when ``record``, of key group ``group``, lies at or behind
        this frontier."""
        progress = self.progress_of(group)
        return (
            progress is not None
            and record.position is not None
            and record.position <= progress.get(record.origin, -1)
        )

    def take(self, ranges, other):
        """Give each ``(lo, hi)`` of ``ranges`` a copy of ``other``'s
        progress there (an empty map where ``other`` holds none)."""
        for lo, hi in ranges:
            pieces = []
            cursor = lo
            for p_lo, p_hi, progress in other.segments:
                p_lo, p_hi = max(p_lo, lo), min(p_hi, hi)
                if p_lo >= p_hi:
                    continue
                if cursor < p_lo:
                    pieces.append((cursor, p_lo, {}))
                pieces.append((p_lo, p_hi, dict(progress)))
                cursor = p_hi
            if cursor < hi:
                pieces.append((cursor, hi, {}))
            kept = []
            for s_lo, s_hi, progress in self.segments:
                if s_hi <= lo or hi <= s_lo:
                    kept.append((s_lo, s_hi, progress))
                    continue
                # A split keeps one map per piece: each piece advances alone.
                if s_lo < lo:
                    kept.append((s_lo, lo, progress))
                if hi < s_hi:
                    kept.append((hi, s_hi, dict(progress) if s_lo < lo else progress))
            self.segments = sorted(kept + pieces, key=lambda segment: segment[0])
            self._starts = [s_lo for s_lo, _hi, _progress in self.segments]

    def copy(self):
        """A snapshot: the same ranges over copied progress maps."""
        return Frontier((lo, hi, dict(progress)) for lo, hi, progress in self.segments)


def seen_by_owners(job, record):
    """True when ``record``'s key group has a stateful owner, and every
    current owner, over every keyed operator, has processed the record --
    or adopted a frontier covering it (a failure's replacement holds the
    frontier it will restore).  With no owner, nobody can tell."""
    group = key_group_of(record.key, job.config.num_key_groups)
    owned = False
    for op_name, assignment in job.assignments.items():
        owner = job.instances.get((op_name, assignment.owner_of(group)))
        if owner is not None and owner.state is not None:
            if not owner.progress.seen(record, group):
                return False
            owned = True
    return owned


class InstanceBase:
    """Common machinery of source and operator instances."""

    def __init__(self, sim, job, op, index, machine):
        self.sim = sim
        self.job = job
        self.op = op
        self.index = index
        self.machine = machine
        self.instance_id = f"{op.name}[{index}]"
        self.output_routers = []
        self.running = False
        self._main_process = None

    def add_output_router(self, router):
        """Attach a per-edge output router."""
        self.output_routers.append(router)

    def emit_batch(self, batch):
        """Process generator: route one batch downstream, honoring credit."""
        waits = []
        for router in self.output_routers:
            waits.extend(router.emit_batch(batch))
        for wait in waits:
            if not wait.triggered:
                yield wait

    def emit(self, records):
        """Process generator: route records downstream as one batch."""
        records = records if isinstance(records, list) else list(records)
        if records:
            yield from self.emit_batch(RecordBatch(records))

    def broadcast(self, control_event):
        """Process generator: send a control event on every output channel."""
        waits = []
        for router in self.output_routers:
            waits.extend(router.broadcast(control_event))
        for wait in waits:
            if not wait.triggered:
                yield wait

    def start(self):
        """Start the background process; returns it."""
        self._main_process = self.sim.process(
            self._guarded_run(), name=f"instance:{self.instance_id}"
        )
        self.machine.register_process(self._main_process)
        return self._main_process

    def _guarded_run(self):
        try:
            yield from self._run()
        except Interrupt:
            self.running = False

    def stop(self):
        """Stop the background process (no-op if not running)."""
        self.running = False
        if self._main_process is not None and self._main_process.is_alive:
            self._main_process.defused = True
            self._main_process.interrupt("stop")
        self._main_process = None

    def _run(self):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.instance_id} on {self.machine.name}>"


class OperatorInstance(InstanceBase):
    """A (possibly stateful) non-source instance."""

    def __init__(self, sim, job, op, index, machine, owned_ranges=None):
        super().__init__(sim, job, op, index, machine)
        self.logic = op.logic_factory()
        self.inputs = []
        #: The gate: (kind, channel, payload) entries ready for the main
        #: loop.  Unbounded; backpressure lives in blocked channels.
        self._gate = deque()
        self._wakeup = None  # pending event while the main loop idles
        self._channel_watermarks = {}
        self._watermark = float("-inf")
        self._alignments = {}
        self._cancelled_markers = set()
        self.state = None
        if op.stateful:
            self.state = KeyedStateBackend(
                sim,
                machine,
                name=self.instance_id,
                owned_ranges=owned_ranges,
            )
        self.records_processed = 0
        self.weighted_records_processed = 0
        self.records_misrouted = 0
        #: Replay progress of every key-group range this stateful instance
        #: owns: a record it has seen there is a duplicate and skipped.
        self.progress = None
        if op.stateful:
            if owned_ranges is None:
                owned_ranges = [(0, job.config.num_key_groups)]
            self.progress = Frontier((lo, hi, {}) for lo, hi in owned_ranges)
        #: Records created at or before this simulated time were measured
        #: in their original epoch: reprocessing them after a recovery or a
        #: rollback is recovery work, not end-to-end latency.
        self.replay_epoch = None
        #: True while this instance awaits a state restore (a replacement
        #: spawned after a failure): it drops records, forwards barriers,
        #: and neither snapshots nor acknowledges -- an empty snapshot
        #: would poison the replicas of the state it is about to receive.
        self.restoring = False

    # -- inputs -----------------------------------------------------------

    def attach_input(self, channel):
        """Wire an inbound channel; it delivers through :meth:`add_input`."""
        self.inputs.append(channel)
        self._channel_watermarks[channel] = float("-inf")

    def detach_input(self, channel):
        """Remove a channel (its upstream died or was rewired away)."""
        if channel not in self._channel_watermarks:
            return
        self.inputs.remove(channel)
        self._channel_watermarks.pop(channel, None)
        channel.block()  # for good: nothing it still carries is delivered
        for alignment in self._alignments.values():
            alignment["pending"].discard(channel)
            if channel in alignment["blocked"]:
                alignment["blocked"].remove(channel)
            # The detach may complete an in-flight alignment.
            if not alignment["pending"] and not alignment["enqueued"]:
                alignment["enqueued"] = True
                self.enqueue("marker", None, alignment["marker"])

    def add_input(self, channel, element):
        """Accept one element from ``channel`` (called by ``Channel.put``).

        Only enqueues -- the main loop does the processing -- so a local
        send can never recurse into operator logic.
        """
        if isinstance(element, RecordBatch):
            self.enqueue("batch", channel, element)
        elif isinstance(element, AlignedMarker):
            self._marker_arrived(channel, element)
        elif isinstance(element, Watermark):
            self._channel_watermarks[channel] = max(
                self._channel_watermarks[channel], element.timestamp
            )
            self._maybe_advance_watermark()
        else:
            raise EngineError(
                f"channel {channel.name} carried a"
                f" {type(element).__name__}; a channel carries only"
                " RecordBatch, Watermark and AlignedMarker elements"
            )

    def enqueue(self, kind, channel, payload):
        """Append to the gate queue and wake the main loop if it idles."""
        self._gate.append((kind, channel, payload))
        wakeup = self._wakeup
        if wakeup is not None:
            self._wakeup = None
            wakeup.succeed()

    def restart_frontier(self):
        """Forget every channel's watermark (``watermark`` stays monotone).

        For an instance handed key groups whose records a source ``seek``
        is about to re-send: what its channels reported says nothing about
        that replay.  Inside a marker handler the aligned channels are
        blocked, so each then delivers replayed batches before a watermark.
        """
        for channel in self._channel_watermarks:
            self._channel_watermarks[channel] = float("-inf")

    def _maybe_advance_watermark(self):
        candidate = min(self._channel_watermarks.values())
        if candidate > self._watermark:
            self._watermark = candidate
            self.enqueue("watermark", None, Watermark(candidate))

    def cancel_alignment(self, marker_id):
        """Abort an in-flight alignment (its checkpoint was aborted).

        Late copies of the marker are swallowed; blocked channels resume.
        Without this, barriers of a checkpoint whose participant died
        would block their channels forever.
        """
        self._cancelled_markers.add(marker_id)
        self._release_alignment(marker_id)

    def _marker_arrived(self, channel, marker):
        """Block ``channel`` until the marker was seen on every input and
        handled (or cancelled); the last arrival enqueues it."""
        if marker.marker_id in self._cancelled_markers:
            return  # swallow: every instance was told to cancel
        alignment = self._alignments.get(marker.marker_id)
        if alignment is None:
            alignment = {
                "pending": set(self.inputs),
                "blocked": [],  # in arrival order, released in that order
                "marker": marker,
                "enqueued": False,
            }
            self._alignments[marker.marker_id] = alignment
        channel.block()
        alignment["blocked"].append(channel)
        alignment["pending"].discard(channel)
        if not alignment["pending"] and not alignment["enqueued"]:
            alignment["enqueued"] = True
            self.enqueue("marker", None, marker)

    def _release_alignment(self, marker_id):
        alignment = self._alignments.pop(marker_id, None)
        if alignment is not None:
            for channel in alignment["blocked"]:
                channel.release()

    # -- main loop ------------------------------------------------------------

    def _run(self):
        self.logic.open(InstanceContext(self))
        if self.state is not None and self.state.store.tables:
            # Starting over restored state (a restart-based recovery):
            # re-derive the logic's in-memory indexes from keyed state.
            ranges = self.state.owned_ranges()
            if ranges is None:
                ranges = [(0, self.job.config.num_key_groups)]
            self.logic.rebuild(ranges)
        self.running = True
        gate = self._gate
        while self.running:
            if not gate:
                self._wakeup = self.sim.event()
                yield self._wakeup
                continue
            kind, channel, payload = gate.popleft()
            if kind == "batch":
                yield from self._handle_batch(channel, payload)
            elif kind == "watermark":
                yield from self._handle_watermark(payload)
            elif kind == "marker":
                yield from self._handle_marker(payload)

    def _handle_batch(self, channel, batch):
        """Drain one inbound batch: filter, process, charge CPU once.

        Replay deduplication and ownership checks are per record (their
        semantics are per-record); the logic call, the CPU charge and the
        downstream emission happen once per batch.
        """
        records = batch.records
        if self.state is not None:
            if self.restoring:
                return  # the replay after the restore re-sends these
            records, advanced = self._admit(records, channel is not None)
            if not records:
                return
        work = batch if records is batch.records else RecordBatch(records)
        side = channel.input_index if channel is not None else 0
        outputs = self.logic.process_batch(work, side=side)
        cost = work.total_weight * self.op.cpu_per_record
        if cost > 0:
            yield from self.machine.compute(cost)
        self.records_processed += len(records)
        self.weighted_records_processed += work.total_weight
        if self.state is not None:
            # Processed: each admitted record moves its range's frontier.
            for record, progress in zip(records, advanced):
                if progress is not None:
                    progress[record.origin] = record.position
        if self.op.measure_latency:
            now = self.sim.now
            sample = self.job.metrics.sample_latency
            op_name = self.op.name
            for record in records:
                if not self._is_recovery_reprocessing(record):
                    sample(now, now - record.timestamp, op_name, record.weight)
        if outputs:
            if not isinstance(outputs, RecordBatch):
                outputs = RecordBatch(
                    outputs if isinstance(outputs, list) else list(outputs)
                )
            if len(outputs):
                yield from self.emit_batch(outputs)
        if self.state is not None and self.state.store.needs_flush:
            yield from self.state.maintenance()

    def _admit(self, records, delivered):
        """The records of ``records`` this instance processes -- those of a
        key group it owns that its range's frontier has not seen -- and,
        for each, the progress map its processing advances (None: none).

        A record a channel did not deliver (a migrator hands it over
        directly) is out of position order: it is neither checked nor
        counted.
        """
        owns = self.state.store.owns
        progress_of = self.progress.progress_of
        num_groups = self.job.config.num_key_groups
        misroute = self.job.misroute_handler
        admitted = []
        advanced = []
        admit, advance = admitted.append, advanced.append
        # A batch's rows hit few distinct key groups; look each group's
        # range up once for the length of this batch.
        ranges = {}
        for record in records:
            group = key_group_of(record.key, num_groups)
            progress = ranges.get(group)
            if progress is None:
                if not owns(group):
                    if misroute is not None:
                        # Transient misrouting: Megaphone's fluid migration
                        # hands the record to its new owner; otherwise (an
                        # aborted handover's epoch boundary) it is dropped
                        # and recovered by the abort's replay.
                        misroute(self, record)
                    else:
                        self.records_misrouted += 1
                    continue
                progress = progress_of(group)
                if progress is None:
                    progress = {}  # owned with no range frontier (a Megaphone bin)
                ranges[group] = progress
            position = record.position
            if position is None or not delivered:
                advance(None)
            elif position > progress.get(record.origin, -1):
                advance(progress)
            else:
                continue  # seen: a replayed duplicate
            admit(record)
        return admitted, advanced

    def _is_recovery_reprocessing(self, record):
        """Replayed records were measured in their original epoch; their
        reprocessing is recovery work, not end-to-end latency."""
        return self.replay_epoch is not None and record.timestamp <= self.replay_epoch

    def _handle_watermark(self, watermark):
        outputs = list(self.logic.on_watermark(watermark))
        if outputs:
            yield from self.emit(outputs)
        yield from self.broadcast(Watermark(watermark.timestamp))
        if self.state is not None and (
            self.state.store.needs_flush or self.state.store.needs_compaction
        ):
            yield from self.state.maintenance()

    def _handle_marker(self, marker):
        if isinstance(marker, CheckpointBarrier):
            yield from self._handle_barrier(marker)
        elif isinstance(marker, EndOfStream):
            yield from self.broadcast(marker)
            self.running = False
        else:
            handler = self.job.marker_handlers.get(type(marker))
            if handler is None:
                yield from self.broadcast(marker)  # pass-through
            else:
                yield from handler(self, marker)
        self._release_alignment(marker.marker_id)

    def _handle_barrier(self, barrier):
        # Forward first so downstream alignment overlaps our snapshot.
        yield from self.broadcast(barrier)
        on_barrier = getattr(self.logic, "on_barrier", None)
        if on_barrier is not None:
            on_barrier(barrier.checkpoint_id)
        if self.restoring:
            return
        checkpoint = None
        if self.state is not None:
            checkpoint = yield from self.state.checkpoint(barrier.checkpoint_id)
            checkpoint.frontier = self.frontier()
        self.job.coordinator.ack_checkpoint(
            barrier.checkpoint_id, self, checkpoint=checkpoint
        )

    # -- introspection --------------------------------------------------------

    def frontier(self):
        """A snapshot of this instance's replay frontier, range by range."""
        return self.progress.copy()

    @property
    def watermark(self):
        """The instance's current event-time watermark."""
        return self._watermark

    def owned_ranges(self):
        """Owned key-group ranges, or None when unrestricted."""
        if self.state is None:
            return None
        return self.state.owned_ranges()

    def adopt_groups(self, ranges):
        """Take over the key-group ``ranges`` and index them (a handover
        target, or an origin a rollback hands its groups back to, which
        resumes their replay progress where it released them)."""
        for lo, hi in ranges:
            self.state.adopt_groups(lo, hi)
        self.logic.absorb(ranges)

    def release_groups(self, ranges):
        """Give up the key-group ``ranges`` (a handover origin, or a target
        a rollback takes them from); returns the modeled bytes released.
        Their replay progress stays, split off the ranges it still owns."""
        self.progress.take(ranges, self.progress)
        released = sum(self.state.drop_groups(lo, hi) for lo, hi in ranges)
        remaining = self.state.owned_ranges()
        self.logic.rebuild(remaining if remaining is not None else [])
        return released


class SourceCommand:
    """A control-plane message to a source instance."""

    CHECKPOINT = "checkpoint"
    MARKER = "marker"
    SEEK = "seek"
    STOP = "stop"

    def __init__(self, kind, payload=None):
        self.kind = kind
        self.payload = payload


class SourceInstance(InstanceBase):
    """A source: consumes one log partition, emits records and watermarks.

    At most one watermark per ``watermark_interval`` simulated seconds,
    however often it polls; ``idle_timeout`` is only the idle poll period
    (the last watermark follows its records within the sum of the two).

    The coordinator (and Rhino's Handover Manager) talk to sources through
    a control queue: checkpoint triggers and handover markers are injected
    into the dataflow between record batches, giving the record-at-a-time
    injection point of R1 (§3.4).
    """

    def __init__(
        self,
        sim,
        job,
        op,
        index,
        machine,
        cursor,
        watermark_interval=1.0,
        idle_timeout=0.2,
        rate_limit=None,
    ):
        super().__init__(sim, job, op, index, machine)
        self.cursor = cursor
        self.control = Store(sim)
        self.max_poll_records = MAX_POLL_RECORDS
        self.watermark_interval = watermark_interval
        self.idle_timeout = idle_timeout
        #: Maximum sustainable consumption in bytes/second (None = no cap).
        #: Bounds how fast upstream-backup replay can drain lag: the SPE
        #: catches up at its sustainable throughput, not instantly.
        self.rate_limit = rate_limit
        #: Partition end at the last seek: a record before it may be a
        #: replay, and one every owner of its key group has seen is dropped
        #: at ingest (Rhino replays only for the recovered partition;
        #: survivors' traffic is not re-shipped through the dataflow).
        self._replay_end = 0
        self.records_dropped = 0
        #: A paused source only serves control commands (markers, seeks);
        #: replacements spawn paused so no records flow before the
        #: handover marker sets their offsets.
        self.paused = False
        self._last_watermark = float("-inf")
        self._last_emitted_ts = float("-inf")
        self._watermark_due_at = float("-inf")
        self.records_emitted = 0
        #: An idle poll's pending wake-ups, kept across polls: a fresh pair
        #: per poll would pile up in the partition's and the control store's
        #: waiter lists until the next append or command.
        self._data_wait = None
        self._control_wait = None

    def send_command(self, kind, payload=None):
        """Enqueue a control-plane command for the source loop."""
        self.control.put(SourceCommand(kind, payload))

    def _run(self):
        self.running = True
        while self.running:
            while len(self.control):
                command = (yield self.control.get())
                yield from self._handle_command(command)
                if not self.running:
                    return
            if self.paused:
                yield from self._idle(watch_log=False)
                continue
            batch = self.cursor.try_poll(self.max_poll_records)
            if batch:
                yield from self._emit_batch(batch)
            else:
                yield from self._emit_watermark()
                yield from self._idle(watch_log=True)

    def _idle(self, watch_log):
        """Sleep until a command (or, when ``watch_log``, a record) arrives
        or the idle poll period ends.

        A wait is made anew only once the last one fired; after the sleep
        its hook comes off the waits still pending, which the next idle poll
        hooks onto again.  A kept log wait stays right after a seek: the
        loop only sleeps at the partition's end, and any append fires it.
        """
        waits = []
        if watch_log:
            if self._data_wait is None or self._data_wait.triggered:
                self._data_wait = self.cursor.partition.wait_for_data(self.cursor.offset)
            waits.append(self._data_wait)
        if self._control_wait is None or self._control_wait.triggered:
            self._control_wait = self.control.when_nonempty()
        waits.append(self._control_wait)
        wake = self.sim.any_of(waits + [self.sim.timeout(self.idle_timeout)])
        yield wake
        for wait in waits:
            if wait.callbacks is not None:
                wait.callbacks.remove(wake._observe)

    def _handle_command(self, command):
        if command.kind == SourceCommand.CHECKPOINT:
            checkpoint_id = command.payload
            if not self.job.coordinator.is_pending(checkpoint_id):
                # Aborted since the trigger (a machine died at that very
                # instant): instances spawned after the abort were never
                # told to swallow this barrier and would align on it forever.
                return
            barrier = CheckpointBarrier(checkpoint_id, self.sim.now)
            yield from self.broadcast(barrier)
            self.job.coordinator.ack_checkpoint(
                checkpoint_id, self, offset=self.cursor.offset
            )
        elif command.kind == SourceCommand.MARKER:
            marker = command.payload
            handler = self.job.marker_handlers.get(type(marker))
            if handler is None:
                yield from self.broadcast(marker)
            else:
                yield from handler(self, marker)
        elif command.kind == SourceCommand.SEEK:
            self.seek(command.payload)
        elif command.kind == SourceCommand.STOP:
            self.running = False
        else:
            raise EngineError(f"unknown source command {command.kind}")

    def _emit_batch(self, batch):
        # The polled records travel downstream as ONE RecordBatch element
        # (generator batches): markers and watermarks are injected between
        # batches, so a batch never straddles a marker.
        origin = self.instance_id
        start = self.cursor.offset - len(batch)
        for position, record in enumerate(batch, start):
            record.origin = origin
            record.position = position
        if start < self._replay_end:
            replay_end, job = self._replay_end, self.job
            emitted = [
                r
                for r in batch
                if r.position >= replay_end or not seen_by_owners(job, r)
            ]
            self.records_dropped += len(batch) - len(emitted)
        else:
            emitted = batch
        cost = sum(r.weight for r in emitted) * self.op.cpu_per_record
        if cost > 0:
            yield from self.machine.compute(cost)
        if self.rate_limit and emitted:
            batch_bytes = sum(r.total_bytes for r in emitted)
            yield self.sim.timeout(batch_bytes / self.rate_limit)
        if emitted:
            yield from self.emit(emitted)
        self.records_emitted += len(emitted)
        self._last_emitted_ts = batch[-1].timestamp
        yield from self._emit_watermark()

    def _emit_watermark(self):
        """Broadcast the emitted frontier if it moved and one is due: the
        one pacing rule, tested after every batch and on every idle poll."""
        target = self._last_emitted_ts
        if self.sim.now >= self._watermark_due_at and target > self._last_watermark:
            self._last_watermark = target
            self._watermark_due_at = self.sim.now + self.watermark_interval
            yield from self.broadcast(Watermark(target))

    def seek(self, offset):
        """Rewind the source's cursor (replay from upstream backup)."""
        self.cursor.seek(offset)
        self._replay_end = self.cursor.partition.end_offset
        self._last_emitted_ts = float("-inf")
        self._last_watermark = float("-inf")
        # The replay's first batch is followed by its watermark.
        self._watermark_due_at = float("-inf")
