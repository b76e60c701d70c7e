"""Unit tests for the cluster model (machines, disks, failures, monitor)."""

import pytest

from repro.common.errors import OutOfMemoryError, SimulationError
from repro.sim import Simulator, Interrupt
from repro.sim.flows import FlowScheduler, PortFailed
from repro.cluster import Cluster, ResourceMonitor


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def cluster(sim):
    return Cluster(sim)


def make_machine(cluster, name="m0", **kwargs):
    defaults = dict(
        cores=4,
        memory=1000,
        nic_bandwidth=100.0,
        disks=2,
        disk_read_bandwidth=50.0,
        disk_write_bandwidth=25.0,
        disk_capacity=10_000,
        network_latency=0.0,
    )
    defaults.update(kwargs)
    return cluster.add_machine(name, **defaults)


class TestMemory:
    def test_allocate_and_free(self, cluster):
        machine = make_machine(cluster)
        machine.allocate_memory(600)
        assert machine.memory_used == 600
        machine.free_memory(200)
        assert machine.memory_used == 400

    def test_over_allocation_raises(self, cluster):
        machine = make_machine(cluster)
        machine.allocate_memory(900)
        with pytest.raises(OutOfMemoryError) as excinfo:
            machine.allocate_memory(200)
        assert excinfo.value.available == 100

    def test_free_never_goes_negative(self, cluster):
        machine = make_machine(cluster)
        machine.free_memory(50)
        assert machine.memory_used == 0


class TestCompute:
    def test_compute_takes_cpu_time(self, sim, cluster):
        machine = make_machine(cluster)
        process = sim.process(machine.compute(3.0))
        sim.run()
        assert sim.now == 3.0
        assert machine.cpu_busy_seconds == 3.0
        assert process.ok

    def test_cores_limit_concurrency(self, sim, cluster):
        machine = make_machine(cluster, cores=2)

        def task():
            yield sim.process(machine.compute(1.0))

        for _ in range(4):
            sim.process(task())
        sim.run()
        # 4 one-second tasks on 2 cores: 2 seconds of wall-clock.
        assert sim.now == 2.0


class TestDiskIO:
    def test_write_duration_and_space_accounting(self, sim, cluster):
        machine = make_machine(cluster)
        event = machine.disk_write(250.0)
        sim.run(until=event)
        assert sim.now == pytest.approx(10.0)  # 250 B at 25 B/s
        assert sum(d.used for d in machine.disks) == 250.0

    def test_reads_round_robin_across_disks(self, sim, cluster):
        machine = make_machine(cluster)
        first = machine.disk_read(500.0)
        second = machine.disk_read(500.0)
        done = sim.all_of([first, second])
        sim.run(until=done)
        # Two disks at 50 B/s each serve one read each: 10 s, not 20 s.
        assert sim.now == pytest.approx(10.0)

    def test_disk_free_releases_space(self, sim, cluster):
        machine = make_machine(cluster)
        event = machine.disk_write(400.0)
        sim.run(until=event)
        machine.disk_free(150.0)
        assert sum(d.used for d in machine.disks) == 250.0


class TestNetworkTransfers:
    def test_transfer_limited_by_nic(self, sim, cluster):
        src = make_machine(cluster, "src")
        dst = make_machine(cluster, "dst")
        event = cluster.transfer(src, dst, 1000.0)
        sim.run(until=event)
        assert sim.now == pytest.approx(10.0)  # 1000 B at 100 B/s

    def test_two_senders_share_receiver_ingress(self, sim, cluster):
        src_a = make_machine(cluster, "a")
        src_b = make_machine(cluster, "b")
        dst = make_machine(cluster, "dst")
        first = cluster.transfer(src_a, dst, 500.0)
        second = cluster.transfer(src_b, dst, 500.0)
        done = sim.all_of([first, second])
        sim.run(until=done)
        # Receiver NIC at 100 B/s is the bottleneck: 1000 B take 10 s.
        assert sim.now == pytest.approx(10.0)

    def test_local_transfer_is_free(self, sim, cluster):
        machine = make_machine(cluster)
        event = cluster.transfer(machine, machine, 10**9)
        sim.run(until=event)
        assert sim.now == 0.0

    def test_network_latency_applies(self, sim, cluster):
        src = make_machine(cluster, "src", network_latency=0.5)
        dst = make_machine(cluster, "dst", network_latency=0.5)
        event = cluster.transfer(src, dst, 100.0)
        sim.run(until=event)
        assert sim.now == pytest.approx(1.5)


class TestFailure:
    def test_kill_fails_inflight_transfer(self, sim, cluster):
        src = make_machine(cluster, "src")
        dst = make_machine(cluster, "dst")

        def proc():
            try:
                yield cluster.transfer(src, dst, 10_000.0)
            except PortFailed:
                return "failed"

        process = sim.process(proc())

        def killer():
            yield sim.timeout(1.0)
            cluster.kill("dst")

        sim.process(killer())
        sim.run(until=process)
        assert process.value == "failed"

    def test_kill_interrupts_registered_processes(self, sim, cluster):
        machine = make_machine(cluster)

        def worker():
            try:
                yield sim.timeout(1000.0)
            except Interrupt as interrupt:
                return interrupt.cause

        worker_process = sim.process(worker())
        machine.register_process(worker_process)

        def killer():
            yield sim.timeout(2.0)
            cluster.kill(machine)

        sim.process(killer())
        sim.run(until=worker_process)
        assert worker_process.value == ("machine-failure", "m0")

    def test_failure_listener_invoked(self, sim, cluster):
        machine = make_machine(cluster)
        observed = []
        machine.on_failure(lambda m: observed.append(m.name))
        cluster.kill(machine)
        assert observed == ["m0"]

    def test_io_on_dead_machine_rejected(self, cluster):
        machine = make_machine(cluster)
        machine.fail()
        with pytest.raises(SimulationError):
            machine.disk_write(10)

    def test_restart_restores_ports(self, sim, cluster):
        src = make_machine(cluster, "src")
        dst = make_machine(cluster, "dst")
        cluster.kill(dst)
        cluster.restart(dst)
        event = cluster.transfer(src, dst, 100.0)
        sim.run(until=event)
        assert sim.now == pytest.approx(1.0)

    def test_alive_machines_excludes_dead(self, cluster):
        make_machine(cluster, "a")
        make_machine(cluster, "b")
        cluster.kill("a")
        assert [m.name for m in cluster.alive_machines()] == ["b"]


class TestMonitor:
    def test_monitor_tracks_network_rate(self, sim, cluster):
        src = make_machine(cluster, "src")
        dst = make_machine(cluster, "dst")
        monitor = ResourceMonitor(sim, cluster, interval=1.0)
        monitor.start()
        cluster.transfer(src, dst, 500.0)
        sim.run(until=10.0)
        # 500 B moved in the first 5 s through 2 NIC ports = 1000 port-bytes.
        assert sum(s.network_rate for s in monitor.samples) == pytest.approx(1000.0)

    def test_monitor_tracks_cpu(self, sim, cluster):
        machine = make_machine(cluster, cores=4)
        monitor = ResourceMonitor(sim, cluster, interval=1.0)
        monitor.start()
        sim.process(machine.compute(2.0))
        sim.run(until=4.0)
        # 2 busy core-seconds out of 4 cores * 4 s = 12.5% mean utilization.
        assert monitor.mean("cpu_fraction") == pytest.approx(2.0 / 16.0)

    def test_monitor_stop(self, sim, cluster):
        make_machine(cluster)
        monitor = ResourceMonitor(sim, cluster, interval=1.0)
        monitor.start()
        sim.run(until=3.0)
        monitor.stop()
        count = len(monitor.samples)
        sim.run(until=10.0)
        assert len(monitor.samples) == count
