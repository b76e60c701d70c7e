"""A simulated worker machine (VM)."""

from repro.common.errors import OutOfMemoryError, SimulationError
from repro.sim.flows import Port
from repro.sim.resources import Resource


class Disk:
    """A local SSD with independent read and write bandwidth.

    The paper's VMs carry two local NVMe SSDs; state checkpointing,
    replication, and DFS traffic all contend on these.
    """

    def __init__(self, name, read_bandwidth, write_bandwidth, capacity):
        self.name = name
        self.read_port = Port(f"{name}.read", read_bandwidth)
        self.write_port = Port(f"{name}.write", write_bandwidth)
        self.capacity = capacity
        self.used = 0

    def __repr__(self):
        return f"<Disk {self.name} used={self.used}/{self.capacity}>"


class Machine:
    """A worker VM: processing cores, memory, one NIC, local disks.

    Processes that belong to the machine (operator instances, replication
    runtime) register themselves via :meth:`register_process` so a failure
    can interrupt them.
    """

    def __init__(
        self,
        sim,
        scheduler,
        name,
        cores=8,
        memory=64 * 1024**3,
        nic_bandwidth=1.25 * 1e9,
        disks=2,
        disk_read_bandwidth=400 * 1e6,
        disk_write_bandwidth=280 * 1e6,
        disk_capacity=375 * 1024**3,
        network_latency=0.0005,
    ):
        self.sim = sim
        self.scheduler = scheduler
        self.name = name
        self.cores = Resource(sim, cores)
        self.core_count = cores
        self.memory = memory
        self.memory_used = 0
        self.nic_in = Port(f"{name}.nic.in", nic_bandwidth)
        self.nic_out = Port(f"{name}.nic.out", nic_bandwidth)
        self.network_latency = network_latency
        self.disks = [
            Disk(f"{name}.disk{i}", disk_read_bandwidth, disk_write_bandwidth, disk_capacity)
            for i in range(disks)
        ]
        self.alive = True
        self.cpu_busy_seconds = 0.0
        self._processes = []
        self._next_disk = 0
        self._failure_listeners = []
        self._restart_listeners = []

    # -- memory ---------------------------------------------------------

    def allocate_memory(self, nbytes):
        """Reserve ``nbytes`` of main memory or raise OutOfMemoryError."""
        if nbytes < 0:
            raise SimulationError("negative memory allocation")
        if self.memory_used + nbytes > self.memory:
            raise OutOfMemoryError(self, nbytes, self.memory - self.memory_used)
        self.memory_used += nbytes

    def free_memory(self, nbytes):
        """Release previously allocated memory bytes."""
        self.memory_used = max(0, self.memory_used - nbytes)

    # -- CPU --------------------------------------------------------------

    def compute(self, seconds):
        """Process generator: occupy one core for ``seconds`` of CPU time.

        A free core is taken in place; only a busy machine makes the
        caller wait for a grant event.
        """
        if seconds <= 0:
            return
        if not self.cores.try_acquire():
            grant = self.cores.request()
            try:
                yield grant
            except BaseException:
                # Interrupted at the wait point.  If the slot was already
                # granted it must go back; if still queued, withdraw the
                # request — otherwise a later release would hand a slot to
                # a dead waiter and the core would leak.
                if grant.ok:
                    self.cores.release()
                else:
                    self.cores.cancel(grant)
                raise
        try:
            yield self.sim.timeout(seconds)
            self.cpu_busy_seconds += seconds
        finally:
            self.cores.release()

    # -- disk I/O ---------------------------------------------------------

    def pick_disk(self):
        """Round-robin across local disks (mimics striped local storage)."""
        disk = self.disks[self._next_disk % len(self.disks)]
        self._next_disk += 1
        return disk

    def disk_write(self, nbytes, tag=None):
        """Returns a completion event for writing ``nbytes`` to local disk."""
        self._check_alive()
        disk = self.pick_disk()
        disk.used += nbytes
        return self.scheduler.transfer(
            nbytes, [disk.write_port], tag=tag or f"{self.name}.disk-write"
        )

    def disk_read(self, nbytes, tag=None):
        """Returns a completion event for reading ``nbytes`` from local disk."""
        self._check_alive()
        disk = self.pick_disk()
        return self.scheduler.transfer(
            nbytes, [disk.read_port], tag=tag or f"{self.name}.disk-read"
        )

    def disk_free(self, nbytes):
        """Release ``nbytes`` of disk space (checkpoint garbage collection)."""
        remaining = nbytes
        for disk in self.disks:
            released = min(disk.used, remaining)
            disk.used -= released
            remaining -= released
            if remaining <= 0:
                break

    # -- lifecycle ----------------------------------------------------------

    def register_process(self, process):
        """Track a process for interruption on machine failure."""
        self._processes.append(process)

    def on_failure(self, callback):
        """Register ``callback(machine)`` to run when this machine dies.

        Registering the same callback twice is a no-op, so re-wiring after
        a restart cannot double-fire listeners on the next failure.
        """
        if callback not in self._failure_listeners:
            self._failure_listeners.append(callback)

    def on_restart(self, callback):
        """Register ``callback(machine, wiped)`` to run on restart."""
        if callback not in self._restart_listeners:
            self._restart_listeners.append(callback)

    def fail(self):
        """Kill the machine: processes dead, ports down, transfers failed.

        Local processes are interrupted *before* the ports fail so they
        die cleanly instead of observing their own I/O collapse.
        """
        if not self.alive:
            return
        self.alive = False
        for process in self._processes:
            if process.is_alive:
                process.defused = True
                process.interrupt(("machine-failure", self.name))
        self._processes.clear()
        self.scheduler.fail_ports(self.ports())
        for listener in list(self._failure_listeners):
            listener(self)

    def restart(self, wipe_disks=False):
        """Bring a failed machine back (fresh memory, ports enabled).

        Idempotent: restarting an alive machine is a no-op.  With
        ``wipe_disks=True`` the machine rejoins with empty local disks
        (total loss, e.g. a replacement VM); otherwise locally persisted
        state survives the crash.  Restart listeners registered via
        :meth:`on_restart` are notified with ``(machine, wiped)``.
        """
        if self.alive:
            return
        self.alive = True
        self.memory_used = 0
        self.cpu_busy_seconds = 0.0
        self._next_disk = 0
        if wipe_disks:
            for disk in self.disks:
                disk.used = 0
        for port in self.ports():
            self.scheduler.enable_port(port)
            port.restore()
        for listener in list(self._restart_listeners):
            listener(self, wipe_disks)

    def ports(self):
        """Every port of this machine (NIC directions and disk heads)."""
        ports = [self.nic_in, self.nic_out]
        for disk in self.disks:
            ports.extend([disk.read_port, disk.write_port])
        return ports

    def _check_alive(self):
        if not self.alive:
            raise SimulationError(f"I/O on dead machine {self.name}")

    def __repr__(self):
        status = "up" if self.alive else "DOWN"
        return f"<Machine {self.name} {status}>"

    def __str__(self):
        return self.name
