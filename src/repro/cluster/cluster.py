"""The cluster: a set of machines plus the shared flow scheduler."""

from collections import deque

from repro.common.errors import SimulationError
from repro.faults.retry import BLOCK_RETRY, with_retry
from repro.sim.flows import FlowScheduler, TransferFailed
from repro.sim.resources import Store
from repro.cluster.machine import Machine


class NetworkPartitioned(TransferFailed):
    """A transfer was attempted (or in flight) across a network partition."""

    def __init__(self, src, dst):
        self.src = src
        self.dst = dst
        super().__init__(f"network partition between {src.name} and {dst.name}")


class ChunkedTransfer:
    """The one way state blocks move between machines.

    Replication (chain and star), replica-repair bulk copies, the fluid
    pre-copy and the handover cutover all ship through it.  Per block:
    acquire its credit from ``lease``; read it off ``src``'s disk
    (``read_source``); transfer it under its own ``BLOCK_RETRY`` budget;
    raise :class:`TransferFailed` if the destination died while it was
    in flight; write it there (``write=False``: the caller writes the
    total once); release its credit.

    ``streams`` worker processes pull blocks off one shared queue
    (work-stealing); with ``streams=1`` the stream runs inline in the
    caller's process.  A list ``dst`` is a chain (§4.2): one origin
    worker feeds the head, and a process per member writes each block
    asynchronously while forwarding it; the tail's durable write releases
    its credit.  Retries are named ``describe`` (default: the tag), in a
    chain ``<describe>-send`` / ``<describe>-hop``.

    The first failure stops the stream: no worker starts another block,
    the lease returns all it holds, and the error is re-raised at once.
    Spans stay the caller's: ``hop_span(src, dst, nbytes)`` opens one per
    worker and member (``dst`` None at the tail), finished with the bytes
    it moved; ``block_span(index, stream)`` one per block.
    """

    def __init__(
        self,
        cluster,
        src,
        dst,
        blocks,
        tag,
        describe=None,
        lease=None,
        read_source=False,
        write=True,
        streams=1,
        hop_span=None,
        block_span=None,
    ):
        chain = isinstance(dst, list)
        if chain and streams != 1:
            raise SimulationError("a chain transfer has one sending worker")
        self.cluster = cluster
        self.src = src
        self.dst = dst
        self.first = dst[0] if chain else dst
        self.blocks = [int(size) for size in blocks]
        self.tag = tag
        describe = describe or tag
        self.send_describe = f"{describe}-send" if chain else describe
        self.hop_describe = f"{describe}-hop"
        self.lease = lease
        self.read_source = read_source
        self.write = write
        self.streams = streams
        self.hop_span = hop_span
        self.block_span = block_span
        #: Block handoff queues in front of each chain member.
        self.queues = [Store(cluster.sim) for _ in dst] if chain else None
        self.stopped = False

    def run(self):
        """Ship every block; ``yield from`` it.  Returns the bytes moved."""
        sim = self.cluster.sim
        queue = deque(enumerate(self.blocks))
        try:
            if self.streams == 1 and self.queues is None:
                yield from self._worker(queue, 0)
            else:
                workers = [
                    sim.process(self._worker(queue, n), name=f"{self.tag}-stream{n}")
                    for n in range(min(self.streams, len(queue)))
                ]
                if self.queues is not None:
                    workers += [
                        sim.process(self._member(position))
                        for position in range(len(self.dst))
                    ]
                if workers:
                    yield sim.all_of(workers)
        except Exception:
            self.stopped = True
            if self.lease is not None:
                self.lease.close()
            raise
        return sum(self.blocks)

    def _worker(self, queue, stream):
        """Ship blocks off ``queue`` to ``dst`` (the chain's head) until it
        is empty or the stream stopped."""
        span = self.hop_span and self.hop_span(self.src, self.first, sum(self.blocks))
        moved = 0
        while queue and not self.stopped:
            index, size = queue.popleft()
            block_span = self.block_span and self.block_span(index, stream)
            try:
                if self.lease is not None:
                    yield self.lease.acquire(size)
                if self.read_source:
                    yield self.src.disk_read(size, tag=self.tag)
                yield from self._transfer(
                    self.src, self.first, size, self.send_describe
                )
                if self.queues is not None:
                    yield self.queues[0].put(size)
                else:
                    yield from self._store(self.first, size)
            except TransferFailed:
                # Sibling workers take no further block from now on.
                self.stopped = True
                if block_span:
                    block_span.finish(status="failed")
                raise
            if block_span:
                block_span.finish()
            moved += size
        if self.stopped:
            return
        if span:
            span.finish(bytes=moved)
        if self.queues is not None:
            yield self.queues[0].put(None)

    def _member(self, position):
        """Chain member ``position``: store each block, forward it on."""
        member = self.dst[position]
        successor = self.dst[position + 1] if position + 1 < len(self.dst) else None
        span = self.hop_span and self.hop_span(member, successor, 0)
        moved = 0
        writes = []
        while True:
            size = yield self.queues[position].get()
            if size is None:
                break
            moved += size
            if successor is None:
                yield from self._store(member, size)
            else:
                # Store asynchronously while forwarding to the successor.
                writes.append(self._land(member, size))
                yield from self._transfer(member, successor, size, self.hop_describe)
                yield self.queues[position + 1].put(size)
        if successor is not None:
            yield self.queues[position + 1].put(None)
        for write in writes:
            # ``processed``, not ``triggered``: a write is triggered when its
            # bytes drain but lands only after its port's extra latency.
            if not write.processed:
                yield write
        if span:
            span.finish(bytes=moved)

    def _transfer(self, src, dst, size, describe):
        return with_retry(
            self.cluster.sim,
            lambda: self.cluster.transfer(src, dst, size, tag=self.tag),
            BLOCK_RETRY,
            describe=describe,
        )

    def _land(self, machine, size):
        """The block is on ``machine``: its disk write, once it is known
        the machine outlived the transfer."""
        if not machine.alive:
            raise TransferFailed(f"{machine.name} died as a block landed")
        if self.write:
            return machine.disk_write(size, tag=self.tag)
        return None

    def _store(self, machine, size):
        """Land the block durably on ``machine``, then release its credit."""
        write = self._land(machine, size)
        if write is not None:
            yield write
        if self.lease is not None:
            self.lease.release(size)


class Cluster:
    """A named set of machines sharing one simulator and flow scheduler.

    Machine-to-machine transfers cross the sender's NIC egress and the
    receiver's NIC ingress; max-min fair sharing between concurrent flows
    then yields the bandwidth arithmetic of the paper's testbed.

    Beyond the clean fail-stop :meth:`kill`, the cluster injects *gray*
    failures: :meth:`partition`/:meth:`heal` split the network into
    mutually unreachable groups, :meth:`slow_link`/:meth:`lossy_link`
    degrade NICs, and :meth:`stall_disk` freezes disk heads.  All of them
    are reversible and deterministic.
    """

    def __init__(self, sim, scheduler=None):
        self.sim = sim
        self.scheduler = scheduler or FlowScheduler(sim)
        self.machines = {}
        #: machine name -> partition group index; empty = fully connected.
        self._partition = {}

    def add_machine(self, name, **kwargs):
        """Create and register one machine."""
        if name in self.machines:
            raise SimulationError(f"duplicate machine name {name}")
        machine = Machine(self.sim, self.scheduler, name, **kwargs)
        self.machines[name] = machine
        return machine

    def add_machines(self, count, prefix="worker", **kwargs):
        """Add ``count`` homogeneous machines named ``{prefix}-{i}``."""
        return [self.add_machine(f"{prefix}-{i}", **kwargs) for i in range(count)]

    def __getitem__(self, name):
        return self.machines[name]

    def __iter__(self):
        return iter(self.machines.values())

    def __len__(self):
        return len(self.machines)

    def alive_machines(self):
        """Machines currently alive."""
        return [m for m in self.machines.values() if m.alive]

    # -- network -----------------------------------------------------------

    def transfer(self, src, dst, nbytes, tag=None):
        """Move ``nbytes`` from machine ``src`` to machine ``dst``.

        Local transfers (src is dst) are free of network cost and complete
        immediately: they model intra-process handoff, not loopback TCP.
        Transfers across an active partition fail immediately with
        :class:`NetworkPartitioned`.
        """
        if src is dst:
            return self.scheduler.transfer(0, [], tag=tag)
        if not self.reachable(src, dst):
            event = self.sim.event()
            event.fail(NetworkPartitioned(src, dst))
            return event
        latency = max(src.network_latency, dst.network_latency)
        return self.scheduler.transfer(
            nbytes, [src.nic_out, dst.nic_in], latency=latency, tag=tag
        )

    def chunked_transfer(self, src, dst, blocks, **options):
        """A block stream of ``blocks`` (byte sizes) from ``src`` to ``dst``
        (a machine, or a replica chain); see :class:`ChunkedTransfer`."""
        return ChunkedTransfer(self, src, dst, blocks, **options)

    def reachable(self, src, dst):
        """True when no partition separates ``src`` from ``dst``."""
        if src is dst or not self._partition:
            return True
        return self._partition.get(src.name, -1) == self._partition.get(dst.name, -1)

    # -- failure injection ---------------------------------------------------

    def kill(self, machine):
        """Terminate one VM (the failure injection of §5.2)."""
        if isinstance(machine, str):
            machine = self.machines[machine]
        machine.fail()
        return machine

    def restart(self, machine, wipe_disks=False):
        """Bring a failed machine back into service.

        ``wipe_disks=True`` models a replacement VM: the machine rejoins
        with empty local storage and must be re-replicated onto.
        """
        if isinstance(machine, str):
            machine = self.machines[machine]
        machine.restart(wipe_disks=wipe_disks)
        return machine

    def partition(self, groups):
        """Split the network into mutually unreachable machine groups.

        ``groups`` is an iterable of machine collections (machines or
        names).  Machines not listed in any group form one extra implicit
        group of their own.  In-flight flows crossing a group boundary
        fail immediately with :class:`NetworkPartitioned`.  Transfers
        *within* a group are unaffected.  Replaces any prior partition.
        """
        mapping = {}
        for index, group in enumerate(groups):
            for member in group:
                machine = self.machines[member] if isinstance(member, str) else member
                if machine.name in mapping:
                    raise SimulationError(
                        f"machine {machine.name} listed in two partition groups"
                    )
                mapping[machine.name] = index
        implicit = len(mapping) and len(mapping) < len(self.machines)
        if implicit:
            extra = max(mapping.values()) + 1
            for name in self.machines:
                mapping.setdefault(name, extra)
        self._partition = mapping
        self._sever_cross_partition_flows()
        return self

    def heal(self):
        """Remove the active partition; all machines reconnect."""
        self._partition = {}
        return self

    def _sever_cross_partition_flows(self):
        port_owner = {}
        for machine in self.machines.values():
            port_owner[machine.nic_out] = machine
            port_owner[machine.nic_in] = machine

        def crosses(ports):
            owners = [port_owner[p] for p in ports if p in port_owner]
            return any(
                not self.reachable(a, b) for a in owners for b in owners if a is not b
            )

        def make_exception(flow):
            owners = [port_owner[p] for p in flow.ports if p in port_owner]
            return NetworkPartitioned(owners[0], owners[-1])

        return self.scheduler.fail_flows_matching(crosses, make_exception)

    def slow_link(self, *machines, scale=0.1, extra_latency=0.0):
        """Degrade the NIC of each machine (both directions)."""
        touched = []
        for machine in machines:
            if isinstance(machine, str):
                machine = self.machines[machine]
            machine.nic_in.degrade(capacity_scale=scale, extra_latency=extra_latency)
            machine.nic_out.degrade(capacity_scale=scale, extra_latency=extra_latency)
            touched += (machine.nic_in, machine.nic_out)
        self.scheduler.reallocate(touched)
        return self

    def lossy_link(self, *machines, probability=0.05):
        """Make each machine's NIC drop new flows with ``probability``."""
        for machine in machines:
            if isinstance(machine, str):
                machine = self.machines[machine]
            machine.nic_in.degrade(loss_probability=probability)
            machine.nic_out.degrade(loss_probability=probability)
        return self

    def heal_link(self, *machines):
        """Restore each machine's NIC to full health."""
        touched = []
        for machine in machines:
            if isinstance(machine, str):
                machine = self.machines[machine]
            machine.nic_in.restore()
            machine.nic_out.restore()
            touched += (machine.nic_in, machine.nic_out)
        self.scheduler.reallocate(touched)
        return self

    def stall_disk(self, machine, scale=0.0):
        """Freeze (or throttle) every disk head of ``machine``.

        With the default ``scale=0.0`` in-flight disk I/O stops making
        progress but does not fail — the signature of a hung device.
        """
        if isinstance(machine, str):
            machine = self.machines[machine]
        touched = []
        for disk in machine.disks:
            disk.read_port.degrade(capacity_scale=scale)
            disk.write_port.degrade(capacity_scale=scale)
            touched += (disk.read_port, disk.write_port)
        self.scheduler.reallocate(touched)
        return self

    def heal_disk(self, machine):
        """Restore every disk head of ``machine`` to full speed."""
        if isinstance(machine, str):
            machine = self.machines[machine]
        touched = []
        for disk in machine.disks:
            disk.read_port.restore()
            disk.write_port.restore()
            touched += (disk.read_port, disk.write_port)
        self.scheduler.reallocate(touched)
        return self
