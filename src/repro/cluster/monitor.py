"""Periodic sampling of cluster resource utilization (for Figure 5).

The monitor runs as a simulation process and samples, per interval:

* CPU: busy core-seconds accumulated since the previous sample, as a
  fraction of available core-seconds.
* Memory: bytes in use.
* Network: bytes moved through NIC ports since the previous sample.
* Disk: bytes moved through disk ports since the previous sample.
"""


class Sample:
    """One utilization sample for the whole cluster."""

    __slots__ = (
        "time",
        "cpu_fraction",
        "memory_bytes",
        "network_rate",
        "disk_rate",
        "alive_machines",
    )

    def __init__(
        self,
        time,
        cpu_fraction,
        memory_bytes,
        network_rate,
        disk_rate,
        alive_machines=0,
    ):
        self.time = time
        self.cpu_fraction = cpu_fraction
        self.memory_bytes = memory_bytes
        self.network_rate = network_rate
        self.disk_rate = disk_rate
        self.alive_machines = alive_machines

    def __repr__(self):
        return (
            f"<Sample t={self.time:.0f}s cpu={self.cpu_fraction:.2f} "
            f"mem={self.memory_bytes} net={self.network_rate:.0f} B/s "
            f"disk={self.disk_rate:.0f} B/s alive={self.alive_machines}>"
        )


class ResourceMonitor:
    """Samples aggregate utilization of a set of machines."""

    def __init__(self, sim, cluster, machines=None, interval=10.0):
        self.sim = sim
        self.cluster = cluster
        self.machines = machines if machines is not None else list(cluster)
        self.interval = interval
        self.samples = []
        self._last_cpu = 0.0
        self._last_net = 0.0
        self._last_disk = 0.0
        self._process = None

    def start(self):
        """Start the background process; returns it."""
        self._process = self.sim.process(self._run(), name="resource-monitor")
        return self._process

    def stop(self):
        """Stop the background process (no-op if not running)."""
        if self._process is not None and self._process.is_alive:
            self._process.defused = True
            self._process.interrupt("monitor-stop")
            self._process = None

    def _run(self):
        while True:
            yield self.sim.timeout(self.interval)
            self.samples.append(self.sample())

    def sample(self):
        """Take one utilization sample right now."""
        alive = [m for m in self.machines if m.alive]
        total_cores = sum(m.core_count for m in alive) or 1

        cpu_now = sum(m.cpu_busy_seconds for m in alive)
        net_now = self._port_bytes(m.nic_in for m in alive) + self._port_bytes(
            m.nic_out for m in alive
        )
        disk_now = self._port_bytes(
            port
            for m in alive
            for d in m.disks
            for port in (d.read_port, d.write_port)
        )

        cpu_fraction = max(0.0, cpu_now - self._last_cpu) / (
            total_cores * self.interval
        )
        network_rate = max(0.0, net_now - self._last_net) / self.interval
        disk_rate = max(0.0, disk_now - self._last_disk) / self.interval
        self._last_cpu = cpu_now
        self._last_net = net_now
        self._last_disk = disk_now

        memory_bytes = sum(m.memory_used for m in alive)
        result = Sample(
            self.sim.now,
            min(cpu_fraction, 1.0),
            memory_bytes,
            network_rate,
            disk_rate,
            alive_machines=len(alive),
        )
        tracer = self.sim.tracer
        if tracer.enabled:
            # Publish into the shared trace registry so utilization shows
            # up on the same timeline as handover / replication spans.
            tracer.gauge("cluster.cpu_fraction", result.cpu_fraction)
            tracer.gauge("cluster.memory_bytes", result.memory_bytes)
            tracer.gauge("cluster.network_rate", result.network_rate)
            tracer.gauge("cluster.disk_rate", result.disk_rate)
            tracer.gauge("cluster.alive_machines", result.alive_machines)
        return result

    def _port_bytes(self, ports):
        table = self.cluster.scheduler.port_bytes
        return sum(table.get(port, 0.0) for port in ports)

    # -- summaries -----------------------------------------------------------

    def mean(self, field, start=None, end=None):
        """Mean of the sample field over [start, end]."""
        values = [
            getattr(s, field)
            for s in self.samples
            if (start is None or s.time >= start) and (end is None or s.time <= end)
        ]
        return sum(values) / len(values) if values else 0.0

    def peak(self, field, end=None):
        """Maximum of the sample field up to ``end``."""
        values = [
            getattr(s, field)
            for s in self.samples
            if end is None or s.time <= end
        ]
        return max(values) if values else 0.0


class FailureDetector:
    """Heartbeat-based failure suspicion with a timeout.

    A ``machine.alive`` flip is a *perfect* oracle; real coordinators only
    see missed heartbeats, and a partitioned-but-healthy worker looks
    exactly like a dead one.  The detector pings every watched machine
    from ``home`` (the coordinator's vantage point) each
    ``heartbeat_interval``; a machine whose last successful heartbeat is
    older than ``suspicion_timeout`` becomes *suspected*.  Suspicion is
    revocable: when heartbeats resume (partition healed, machine
    restarted) the machine is un-suspected and ``on_unsuspect`` fires.

    Callbacks::

        detector.on_suspect.append(lambda machine: ...)
        detector.on_unsuspect.append(lambda machine: ...)

    ``history`` records ``(time, machine_name, event)`` tuples
    (``"suspect"`` / ``"unsuspect"``) for MTTR analysis.
    """

    def __init__(
        self,
        sim,
        cluster,
        machines=None,
        home=None,
        heartbeat_interval=0.5,
        suspicion_timeout=1.5,
    ):
        self.sim = sim
        self.cluster = cluster
        self.machines = machines if machines is not None else list(cluster)
        self.home = home
        self.heartbeat_interval = heartbeat_interval
        self.suspicion_timeout = suspicion_timeout
        self.on_suspect = []
        self.on_unsuspect = []
        #: name -> machine, insertion-ordered (deterministic iteration).
        self._suspected = {}
        self._last_ok = {m.name: sim.now for m in self.machines}
        self.history = []
        self._process = None

    def start(self):
        """Start the heartbeat loop; returns its process."""
        self._process = self.sim.process(self._run(), name="failure-detector")
        return self._process

    def stop(self):
        """Stop the heartbeat loop (no-op if not running)."""
        if self._process is not None and self._process.is_alive:
            self._process.defused = True
            self._process.interrupt("detector-stop")
            self._process = None

    def suspected(self):
        """Currently suspected machines, in suspicion order."""
        return list(self._suspected.values())

    def _heartbeat_ok(self, machine):
        if not machine.alive:
            return False
        if self.home is not None and not self.cluster.reachable(self.home, machine):
            return False
        return True

    def _run(self):
        while True:
            yield self.sim.timeout(self.heartbeat_interval)
            now = self.sim.now
            for machine in self.machines:
                if self._heartbeat_ok(machine):
                    self._last_ok[machine.name] = now
                    if machine.name in self._suspected:
                        del self._suspected[machine.name]
                        self._note(machine, "unsuspect")
                        for callback in list(self.on_unsuspect):
                            callback(machine)
                elif (
                    now - self._last_ok[machine.name] >= self.suspicion_timeout
                    and machine.name not in self._suspected
                ):
                    self._suspected[machine.name] = machine
                    self._note(machine, "suspect")
                    for callback in list(self.on_suspect):
                        callback(machine)
            if self.sim.tracer.enabled:
                self.sim.tracer.gauge("cluster.suspected_machines", len(self._suspected))

    def _note(self, machine, event):
        self.history.append((self.sim.now, machine.name, event))
        if self.sim.tracer.enabled:
            self.sim.tracer.event(
                f"detector.{event}", track="chaos", machine=machine.name
            )
