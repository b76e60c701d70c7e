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

from collections import deque

from repro.common.errors import EngineError
from repro.common.ranges import RangeSet
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


class ReplayFilter:
    """Deduplication of replayed records ("ignore seen records", §4.1.2).

    A record is *seen* when its (origin, timestamp) falls inside a progress
    frontier.  Timestamps are strictly increasing per source partition and
    channels deliver prefixes, so per-origin frontiers are exact; a scalar
    cutoff serves as the fallback when per-origin progress is unavailable.

    Records of the *fresh* (migrated) key groups compare against the
    restored checkpoint's frontier; everything else against the instance's
    own frontier.
    """

    __slots__ = (
        "num_groups",
        "default_cutoff",
        "origin_progress",
        "fresh_ranges",
        "fresh_cutoff",
        "fresh_origin_progress",
        "epoch",
    )

    def __init__(
        self,
        num_groups,
        default_cutoff,
        fresh_ranges=None,
        fresh_cutoff=None,
        epoch=None,
        origin_progress=None,
        fresh_origin_progress=None,
    ):
        self.num_groups = num_groups
        self.default_cutoff = default_cutoff
        self.origin_progress = origin_progress
        self.fresh_ranges = RangeSet(fresh_ranges) if fresh_ranges else None
        self.fresh_cutoff = fresh_cutoff
        self.fresh_origin_progress = fresh_origin_progress
        #: Simulated time the filter was installed: records older than this
        #: are recovery reprocessing, not live traffic, and are excluded
        #: from end-to-end latency sampling.
        self.epoch = epoch

    @staticmethod
    def _seen(record, progress, cutoff):
        if (
            progress is not None
            and record.origin is not None
            and record.origin in progress
        ):
            return record.timestamp <= progress[record.origin]
        return record.timestamp <= cutoff

    def should_process(self, record):
        """False when the record is a replay duplicate to skip."""
        if self.fresh_ranges is not None:
            group = key_group_of(record.key, self.num_groups)
            if group in self.fresh_ranges:
                return not self._seen(
                    record, self.fresh_origin_progress, self.fresh_cutoff
                )
        return not self._seen(record, self.origin_progress, self.default_cutoff)


class ConsumerDrivenReplayFilter:
    """Source-side replay filter: re-ship a record iff a consumer needs it.

    During upstream-backup replay, a record is worth re-shipping only when
    at least one consuming instance has not processed it:

    * a *survivor* needs the record when its live per-origin progress
      frontier has not passed it (the record was lost in flight);
    * a *recovered* instance needs every record newer than its restored
      checkpoint's frontier.

    Looking at live survivor frontiers keeps the filter exact and tight:
    progress only advances, and anything re-shipped unnecessarily is still
    deduplicated by the consumer's own :class:`ReplayFilter`.
    """

    __slots__ = ("num_groups", "consumers_by_group", "epoch")

    def __init__(self, num_groups, consumers_by_group, epoch=None):
        self.num_groups = num_groups
        #: group -> list of (instance, fresh_progress, fresh_cutoff);
        #: fresh_* is None for survivors (use live progress).
        self.consumers_by_group = consumers_by_group
        self.epoch = epoch

    def should_process(self, record):
        """False when the record is a replay duplicate to skip."""
        group = key_group_of(record.key, self.num_groups)
        consumers = self.consumers_by_group.get(group)
        if not consumers:
            return False  # nobody consumes this group: drop
        for instance, fresh_progress, fresh_cutoff in consumers:
            if fresh_cutoff is not None or fresh_progress is not None:
                if not ReplayFilter._seen(
                    record,
                    fresh_progress,
                    fresh_cutoff if fresh_cutoff is not None else float("-inf"),
                ):
                    return True
            else:
                seen_ts = instance.origin_progress.get(
                    record.origin, float("-inf")
                )
                if record.timestamp > seen_ts:
                    return True
        return False


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
        self.records_skipped = 0
        self.records_misrouted = 0
        self.last_record_ts = float("-inf")
        #: Exact per-source-partition progress: origin -> last processed
        #: timestamp (timestamps strictly increase per origin).
        self.origin_progress = {}
        self.replay_filter = None
        #: False while this instance awaits a state restore (a replacement
        #: spawned after a failure): it forwards barriers but must not
        #: snapshot or acknowledge -- an empty snapshot would poison the
        #: replicas of the state it is about to receive.
        self.checkpoints_enabled = True

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
        if self.replay_filter is not None:
            should_process = self.replay_filter.should_process
            kept = [r for r in records if should_process(r)]
            self.records_skipped += len(records) - len(kept)
            if not kept:
                return
            records = kept
        if self.state is not None and self.state.store.owned is not None:
            owns = self.state.store.owns
            num_groups = self.job.config.num_key_groups
            misroute = self.job.misroute_handler
            owned = []
            # A batch's rows hit few distinct key groups; memoize the
            # RangeSet lookup per group for the length of this batch.
            owns_cache = {}
            for record in records:
                group = key_group_of(record.key, num_groups)
                is_owned = owns_cache.get(group)
                if is_owned is None:
                    is_owned = owns_cache[group] = owns(group)
                if is_owned:
                    owned.append(record)
                elif misroute is not None:
                    # Transient misrouting: Megaphone's fluid migration
                    # hands the record to its new owner; otherwise (an
                    # aborted handover's epoch boundary) it is dropped and
                    # recovered by the abort's replay.
                    misroute(self, record)
                else:
                    self.records_misrouted += 1
            if not owned:
                return
            records = owned
        work = batch if records is batch.records else RecordBatch(records)
        side = channel.input_index if channel is not None else 0
        outputs = self.logic.process_batch(work, side=side)
        cost = work.total_weight * self.op.cpu_per_record
        if cost > 0:
            yield from self.machine.compute(cost)
        self.records_processed += len(records)
        self.weighted_records_processed += work.total_weight
        if work.max_timestamp > self.last_record_ts:
            self.last_record_ts = work.max_timestamp
        origin_progress = self.origin_progress
        for record in records:
            # Rows arrive in per-origin timestamp order, so the last write
            # per origin is that origin's exact frontier.
            if record.origin is not None:
                origin_progress[record.origin] = record.timestamp
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

    def _is_recovery_reprocessing(self, record):
        """Replayed records were measured in their original epoch; their
        reprocessing is recovery work, not end-to-end latency."""
        return (
            self.replay_filter is not None
            and self.replay_filter.epoch is not None
            and record.timestamp <= self.replay_filter.epoch
        )

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
        if not self.checkpoints_enabled:
            return
        checkpoint = None
        if self.state is not None:
            checkpoint = yield from self.state.checkpoint(barrier.checkpoint_id)
            checkpoint.cutoff_ts = self.last_record_ts
            checkpoint.origin_progress = dict(self.origin_progress)
        self.job.coordinator.ack_checkpoint(
            barrier.checkpoint_id,
            self,
            checkpoint=checkpoint,
            cutoff_ts=self.last_record_ts,
        )

    # -- introspection --------------------------------------------------------

    @property
    def watermark(self):
        """The instance's current event-time watermark."""
        return self._watermark

    def owned_ranges(self):
        """Owned key-group ranges, or None when unrestricted."""
        if self.state is None:
            return None
        return self.state.owned_ranges()


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
        #: Replay filter installed during fine-grained recovery: replayed
        #: records outside the migrated key ranges are dropped at ingest
        #: (Rhino replays only for the recovered partition; survivors'
        #: traffic is not re-shipped through the dataflow).
        self.replay_filter = None
        self.records_dropped = 0
        #: A paused source only serves control commands (markers, seeks);
        #: replacements spawn paused so no records flow before the
        #: handover marker establishes filters and offsets.
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
        # Stamp first: the filter reads an unstamped record as an absent source's.
        for record in batch:
            record.origin = self.instance_id
        if self.replay_filter is not None:
            emitted = [r for r in batch if self.replay_filter.should_process(r)]
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
        self._last_emitted_ts = float("-inf")
        self._last_watermark = float("-inf")
        # The replay's first batch is followed by its watermark.
        self._watermark_due_at = float("-inf")
