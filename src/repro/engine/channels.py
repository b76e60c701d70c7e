"""Inter-operator channels, routing, and the exchange fabric.

Channels are durable, bounded, FIFO streams of elements (record batches
and control events), matching the channel model of §2.1.  A channel hands
each element to its consumer by direct call and buffers only while the
consumer holds it *blocked* behind an aligned marker.  Remote
channels charge their bytes to the network through the
:class:`ExchangeFabric`, which aggregates the data-plane traffic of each
machine pair into periodic fluid flows -- so state-migration and
replication flows contend with data exchange on the NICs (the interaction
behind Figure 5) without simulating per-buffer packets.
"""

from collections import deque
from functools import partial

from repro.common.errors import EngineError
from repro.sim.flows import TransferFailed
from repro.engine.records import (
    RecordBatch,
    Watermark,
    AlignedMarker,
    element_record_count,
)

#: Default inbound depth of a channel, in batches.
DEFAULT_CAPACITY_BATCHES = 64


class Channel:
    """A FIFO stream between one producer instance and one consumer instance.

    An open channel delivers by direct call: :meth:`put` hands the element
    to the consumer's ``add_input`` and nothing is queued here.  The
    consumer blocks the channel (:meth:`block`) when an aligned marker
    arrives on it; from then on elements are *held* in arrival order -- up
    to ``capacity_batches`` of them (record batches and control events
    alike), after which ``put`` hands the shipper an event to wait on --
    until the consumer calls :meth:`release`.
    """

    def __init__(
        self,
        sim,
        name,
        src_instance,
        dst_instance,
        input_index=0,
        *,
        capacity_batches=DEFAULT_CAPACITY_BATCHES,
    ):
        self.sim = sim
        self.name = name
        self.src_instance = src_instance
        self.dst_instance = dst_instance
        self.input_index = input_index
        self.capacity_batches = capacity_batches
        self.blocked = False
        #: Elements that arrived while blocked, oldest first.
        self.held = deque()
        self._putters = deque()  # (event, element) beyond capacity

    @property
    def src_machine(self):
        """Machine of the producing instance."""
        return self.src_instance.machine

    @property
    def dst_machine(self):
        """Machine of the consuming instance."""
        return self.dst_instance.machine

    def put(self, element):
        """Deliver ``element`` in FIFO order.

        Returns ``None`` when the element was accepted (delivered, or held
        behind the marker); an event to yield on only when the channel is
        blocked *and* full -- it fires once a release made room.
        """
        if not self.blocked:
            self.dst_instance.add_input(self, element)
        elif len(self.held) < self.capacity_batches:
            self.held.append(element)
        else:
            accepted = self.sim.event()
            self._putters.append((accepted, element))
            return accepted
        return None

    def block(self):
        """Hold everything that arrives from now on (marker alignment)."""
        self.blocked = True

    def release(self):
        """Reopen the channel and deliver what queued behind the marker.

        Held elements go first, then the waiting putters' -- FIFO across
        both.  Delivery stops the moment the consumer re-blocks the channel
        (the next marker was among the held elements); putters are then
        admitted only into the room the drain made.
        """
        self.blocked = False
        held = self.held
        add_input = self.dst_instance.add_input
        while held and not self.blocked:
            add_input(self, held.popleft())
        putters = self._putters
        while putters and (not self.blocked or len(held) < self.capacity_batches):
            accepted, element = putters.popleft()
            if self.blocked:
                held.append(element)
            else:
                add_input(self, element)
            accepted.succeed()

    def __repr__(self):
        return f"<Channel {self.name}>"


class _Shipment:
    """One (source, destination) machine pair's share of a flush.

    Runs on kernel callbacks, not a process: the transfer's completion
    delivers the elements in order, a failed transfer between live
    machines re-arms a retry timer, and a blocked, full channel resumes
    delivery from the next element once it makes room.
    """

    __slots__ = ("fabric", "src", "dst", "nbytes", "items", "epoch", "unsent")

    def __init__(self, fabric, src, dst, nbytes, items):
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.items = items
        self.epoch = fabric.replay_epoch
        self.unsent = iter(items)  # delivery resumes here after a full channel
        self._send()

    def _send(self):
        transfer = self.fabric.cluster.transfer(
            self.src, self.dst, self.nbytes, tag="data-exchange"
        )
        transfer.callbacks.append(self._landed)

    def _landed(self, transfer):
        try:
            # Re-raises a failed transfer's exception; one that is not a
            # TransferFailed escapes the callback and stops the run.
            transfer.value
        except TransferFailed:
            transfer.defused = True
            if not (self.src.alive and self.dst.alive):
                # An endpoint died: the elements are lost in flight and
                # upstream backup replays them after recovery.
                self._lose()
            else:
                # Transient gray failure (partition, lossy link) between
                # two *live* machines: nobody would replay a drop here, so
                # the data plane holds the batch and retries until the
                # network heals.
                self.fabric.sim.timeout(0.25).callbacks.append(self._retry)
            return
        self._deliver()

    def _retry(self, _timer):
        fabric = self.fabric
        if fabric.replay_epoch != self.epoch and not fabric.cluster.reachable(
            self.src, self.dst
        ):
            # An upstream replay started while this batch was stuck behind
            # a partition: the replay covers its records, so delivering it
            # after the heal would duplicate them.
            self._lose()
        else:
            self._send()

    def _deliver(self, _room=None):
        fabric = self.fabric
        for channel, element in self.unsent:
            if channel.dst_machine is not None and channel.dst_machine.alive:
                full = channel.put(element)
                if full is not None:
                    full.callbacks.append(self._deliver)
                    return
            else:
                fabric.dropped_elements += element_record_count(element)
        fabric._release_credit(self.src, self.dst, self.nbytes)
        fabric._shipped(self.src)

    def _lose(self):
        self.fabric._drop(self.src, self.dst, self.items, self.nbytes)
        self.fabric._shipped(self.src)


#: Bytes one machine pair may have in flight before producers block.
CREDIT_BYTES = 256 * 1024 * 1024


class ExchangeFabric:
    """Aggregated data-plane transport between machines.

    Producers enqueue (channel, element) pairs; per source machine a tick
    flushes every ``interval`` seconds, charging one network flow per
    destination machine and then delivering the elements in order.  The
    next tick comes ``interval`` after the flush's last shipment finished.
    Ticks and shipments are kernel callbacks; the fabric runs no process.
    Local (same-machine) traffic is delivered immediately and charges
    nothing.
    Elements are :class:`RecordBatch`\\ es and control events -- one fabric
    element per batch, not per record; ``dropped_elements`` and
    :attr:`pending_elements` count the *records* inside batches so flow
    control and chaos invariants keep exact record counts.

    Backpressure: delivery blocks on a full (blocked) channel, and producers
    block once a machine pair exceeds :data:`CREDIT_BYTES` in flight --
    credit-based flow control like the paper's replication runtime uses,
    applied to the data plane.  Credit is accounted in bytes per batch.
    """

    def __init__(self, sim, cluster, interval=0.25):
        self.sim = sim
        self.cluster = cluster
        self.interval = interval
        self._pending = {}  # src_machine -> dst_machine -> [(channel, element)]
        self._pending_bytes = {}  # (src, dst) -> bytes
        self._credit_waiters = {}  # (src, dst) -> [events]
        #: Armed sources: src_machine -> shipments of its flush still out
        #: (0 while its next tick is armed).
        self._agents = {}
        self.dropped_elements = 0
        #: Bumped by :meth:`drop_unreachable`; held batches re-check
        #: reachability when they observe a newer epoch.
        self.replay_epoch = 0

    def send(self, channel, element):
        """Enqueue ``element`` on ``channel``.

        Returns ``None`` when the producer may carry on, an event to yield
        on when it must wait: the pair's in-flight bytes exceed the credit
        window, or a local channel is blocked and full.
        """
        src = channel.src_machine
        dst = channel.dst_machine
        if dst is None or not dst.alive:
            # Receiver is gone: the element is lost in flight (upstream
            # backup replays it after recovery).
            self.dropped_elements += element_record_count(element)
            return None
        if src is dst:
            return channel.put(element)
        self._pending.setdefault(src, {}).setdefault(dst, []).append(
            (channel, element)
        )
        pair = (src, dst)
        self._pending_bytes[pair] = self._pending_bytes.get(pair, 0) + element.nbytes
        if src not in self._agents:
            self._agents[src] = 0
            self._arm(src)
        if self._pending_bytes[pair] <= CREDIT_BYTES:
            return None
        credit = self.sim.event()
        self._credit_waiters.setdefault(pair, []).append(credit)
        return credit

    def _arm(self, src):
        """Schedule ``src``'s next tick, or retire it with its machine."""
        if src.alive:
            self.sim.timeout(self.interval).callbacks.append(
                partial(self._flush, src)
            )
        else:
            del self._agents[src]
            self._purge(src)

    def _flush(self, src, _tick):
        """Put everything ``src`` queued since its last flush on the wire."""
        by_dst = self._pending.get(src)
        if by_dst:
            batches = {dst: items for dst, items in by_dst.items() if items}
            for dst in batches:
                by_dst[dst] = []
            for dst, items in batches.items():
                nbytes = sum(element.nbytes for _c, element in items)
                if dst.alive and src.alive:
                    _Shipment(self, src, dst, nbytes, items)
                    self._agents[src] += 1
                else:
                    # A dead endpoint: the batch is lost in flight and
                    # upstream backup replays it after recovery.
                    self._drop(src, dst, items, nbytes)
        if not self._agents[src]:
            self._arm(src)

    def _shipped(self, src):
        """One shipment of ``src``'s flush finished (delivered or lost)."""
        self._agents[src] -= 1
        if not self._agents[src]:
            self._arm(src)

    def _drop(self, src, dst, items, nbytes):
        """Count a lost batch's records and give its credit back."""
        self.dropped_elements += sum(element_record_count(e) for _c, e in items)
        self._release_credit(src, dst, nbytes)

    def drop_unreachable(self):
        """Drop batches the network cannot currently deliver.

        Called when an upstream replay is initiated (handover abort): a
        batch parked behind a partition would otherwise be delivered
        after the heal, duplicating the records the replay re-emits.
        Batches between reachable machines are left alone -- they deliver
        promptly and consumer-side frontiers account for them.
        """
        self.replay_epoch += 1
        dropped = 0
        for src, by_dst in self._pending.items():
            for dst, items in by_dst.items():
                if items and not self.cluster.reachable(src, dst):
                    dropped += sum(element_record_count(e) for _c, e in items)
                    self._release_credit(
                        src, dst, sum(element.nbytes for _c, element in items)
                    )
                    by_dst[dst] = []
        self.dropped_elements += dropped
        return dropped

    def _purge(self, src):
        """Drop everything a dead machine's send buffers still held.

        The buffers lived in the machine's memory, so its death loses
        them; without this, elements enqueued between the last flush and
        the crash would sit in ``_pending`` forever (the tick is retired,
        and nothing re-arms it until some instance on the machine sends
        again after a restart).
        """
        by_dst = self._pending.pop(src, None)
        if not by_dst:
            return
        for dst, items in by_dst.items():
            if items:
                self.dropped_elements += sum(
                    element_record_count(e) for _c, e in items
                )
                self._release_credit(
                    src, dst, sum(element.nbytes for _c, element in items)
                )

    @property
    def pending_elements(self):
        """Records enqueued but not yet batched onto the wire.

        Counts the records *inside* queued batches, not queue entries, so
        chaos invariants and flow-control checks keep exact record counts.
        Control events (watermarks, barriers) are excluded: a healthy
        pipeline emits them forever, so counting them would make "the
        data plane drained" unobservable.
        """
        return sum(
            len(element)
            for by_dst in self._pending.values()
            for items in by_dst.values()
            for _channel, element in items
            if isinstance(element, RecordBatch)
        )

    def _release_credit(self, src, dst, nbytes):
        pair = (src, dst)
        self._pending_bytes[pair] = max(0, self._pending_bytes.get(pair, 0) - nbytes)
        waiters = self._credit_waiters.get(pair, [])
        while waiters and self._pending_bytes[pair] <= CREDIT_BYTES:
            waiter = waiters.pop(0)
            if not waiter.triggered:
                waiter.succeed()


def _waits(sent):
    """The events among ``send`` results (``None`` = nothing to wait for)."""
    return [wait for wait in sent if wait is not None]


class Router:
    """One producer instance's view of an outgoing edge.

    The unit of emission is the :class:`RecordBatch`
    (:meth:`emit_batch`): a ``hash`` edge partitions the whole batch by
    key group in one pass over its rows and ships one sub-batch per
    consumer; a ``forward`` edge ships the batch unsplit to the pinned
    consumer ``i % n``.

    * ``hash`` edges route by key group through the edge's shared
      :class:`KeyGroupAssignment` -- the handover protocol rewires
      channels by reassigning key groups there.
    * Control events (watermarks, barriers, handover markers) are broadcast
      on every channel of the edge, preserving FIFO order with batches.
    """

    def __init__(self, sim, fabric, edge, src_instance):
        self.sim = sim
        self.fabric = fabric
        self.edge = edge
        self.src_instance = src_instance
        self.channels = {}  # dst_index -> Channel
        #: Pinned consumer index for ``forward`` edges; recomputed on
        #: connect/disconnect instead of sorting the channel map per record.
        self._forward_target = None
        # Every producer keeps its *own* routing table so a handover can
        # rewire each upstream exactly at that upstream's alignment point
        # (records it emitted before its marker keep the old route).
        self.assignment = (
            edge.assignment.copy() if edge.assignment is not None else None
        )

    def reassign(self, lo, hi, new_owner):
        """Rewire key groups [lo, hi) to ``new_owner`` (handover step 3)."""
        if self.assignment is not None:
            self.assignment.reassign(lo, hi, new_owner)

    def connect(self, dst_instance, *, capacity_batches=DEFAULT_CAPACITY_BATCHES):
        """Create a channel to a consumer instance and attach it."""
        name = (
            f"{self.src_instance.instance_id}->{dst_instance.instance_id}"
            f":{self.edge.name}"
        )
        channel = Channel(
            self.sim,
            name,
            self.src_instance,
            dst_instance,
            input_index=self.edge.input_index,
            capacity_batches=capacity_batches,
        )
        self.channels[dst_instance.index] = channel
        self._forward_target = None
        dst_instance.attach_input(channel)
        return channel

    def disconnect(self, dst_index):
        """Remove the channel to a consumer index."""
        self.channels.pop(dst_index, None)
        self._forward_target = None

    def emit_batch(self, batch):
        """Route a :class:`RecordBatch`; returns the events to yield on.

        Hash edges partition the batch by key group in a single pass over
        its rows and ship one sub-batch per distinct consumer; forward
        edges ship the batch object unsplit.  Per-channel FIFO order of
        the rows is preserved.
        """
        if self.edge.partitioning == "forward":
            return _waits([self.fabric.send(self._target_channel(None), batch)])
        if self.edge.partitioning != "hash":
            raise EngineError(f"unknown partitioning {self.edge.partitioning}")
        route = self.assignment.route_key
        buckets = {}
        for record in batch.records:
            target = route(record.key)
            rows = buckets.get(target)
            if rows is None:
                buckets[target] = [record]
            else:
                rows.append(record)
        if len(buckets) == 1:
            # One consumer owns every row: ship the original batch object
            # (its metadata is already computed).
            target = next(iter(buckets))
            return _waits([self.fabric.send(self._target_channel(target), batch)])
        return _waits(
            self.fabric.send(self._target_channel(target), RecordBatch(rows))
            for target, rows in buckets.items()
        )

    def _target_channel(self, target):
        """Resolve a consumer index (None = forward pin) to its channel."""
        if target is None:
            target = self._forward_target
            if target is None:
                targets = sorted(self.channels)
                target = targets[self.src_instance.index % len(targets)]
                self._forward_target = target
        channel = self.channels.get(target)
        if channel is None:
            raise EngineError(
                f"no channel to instance {target} on edge {self.edge.name}"
            )
        return channel

    def broadcast(self, control_event):
        """Send a control event on every channel; returns events to wait on."""
        return _waits(
            self.fabric.send(channel, control_event)
            for _index, channel in sorted(self.channels.items())
        )


class Edge:
    """A logical connection between two operators."""

    def __init__(self, name, dst_op, partitioning, input_index=0, assignment=None):
        self.name = name
        self.dst_op = dst_op
        self.partitioning = partitioning
        self.input_index = input_index
        self.assignment = assignment  # KeyGroupAssignment for hash edges

    def __repr__(self):
        return f"<Edge {self.name} {self.partitioning}>"
