"""The cluster: a set of machines plus the shared flow scheduler."""

from repro.common.errors import SimulationError
from repro.sim.flows import FlowScheduler, TransferFailed
from repro.cluster.machine import Machine


class NetworkPartitioned(TransferFailed):
    """A transfer was attempted (or in flight) across a network partition."""

    def __init__(self, src, dst):
        self.src = src
        self.dst = dst
        super().__init__(f"network partition between {src.name} and {dst.name}")


class ChunkedTransfer:
    """A resumable machine-to-machine transfer split into chunks.

    An all-at-once :meth:`Cluster.transfer` that fails mid-flight (slow
    link exhausting a timeout, a transient partition) restarts from zero
    on retry, burning the whole byte count against the retry budget.  A
    chunked transfer commits progress per chunk: each :meth:`process`
    call starts -- or, on a later call, *resumes* -- at the first
    unfinished chunk, so a retry resends only what is still pending.

    Use with :func:`repro.faults.retry.with_retry`, whose attempt factory
    makes a fresh process per attempt::

        xfer = cluster.chunked_transfer(src, dst, [b1, b2, ...], tag=...)
        yield from with_retry(sim, xfer.process, policy)
    """

    __slots__ = ("cluster", "src", "dst", "pending", "moved", "tag")

    def __init__(self, cluster, src, dst, chunk_sizes, tag=None):
        self.cluster = cluster
        self.src = src
        self.dst = dst
        self.pending = [int(size) for size in chunk_sizes]
        self.moved = 0
        self.tag = tag

    @property
    def remaining_bytes(self):
        """Bytes not yet acknowledged (what a retry would resend)."""
        return sum(self.pending)

    @property
    def done(self):
        """True once every chunk has been delivered."""
        return not self.pending

    def process(self):
        """A fresh Process resuming at the first unfinished chunk."""
        return self.cluster.sim.process(self._run(), name="chunked-transfer")

    def _run(self):
        while self.pending:
            yield self.cluster.transfer(
                self.src, self.dst, self.pending[0], tag=self.tag
            )
            self.moved += self.pending.pop(0)
        return self.moved


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

    def chunked_transfer(self, src, dst, chunk_sizes, tag=None):
        """A resumable transfer of ``chunk_sizes`` (see ChunkedTransfer)."""
        return ChunkedTransfer(self, src, dst, chunk_sizes, tag=tag)

    def reachable(self, src, dst):
        """True when no partition separates ``src`` from ``dst``."""
        if src is dst or not self._partition:
            return True
        return self._partition.get(src.name, -1) == self._partition.get(dst.name, -1)

    @property
    def partitioned(self):
        """True while a network partition is active."""
        return bool(self._partition)

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
