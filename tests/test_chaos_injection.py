"""Unit tests for the fault-injection layer: degraded ports, partitions,
stalled disks, lossy links, crash-restart, retry policies, and the
heartbeat failure detector."""

import pytest

from repro.common.errors import SimulationError
from repro.common.rng import make_rng
from repro.sim import Simulator, Interrupt
from repro.sim.flows import FlowLost, FlowScheduler, PortFailed, TransferFailed
from repro.cluster import Cluster, FailureDetector, NetworkPartitioned, ResourceMonitor
from repro.faults import (
    ALL_KINDS,
    BLOCK_RETRY,
    ChaosController,
    FaultEvent,
    FaultPlan,
    RetryPolicy,
    with_retry,
)


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


def run_transfer(sim, cluster, src, dst, nbytes):
    result = {}

    def proc():
        try:
            yield cluster.transfer(src, dst, nbytes)
            result["done_at"] = sim.now
        except TransferFailed as exc:
            result["error"] = exc

    process = sim.process(proc())
    process.defused = True
    sim.run()
    return result


class TestDegradedPorts:
    def test_slow_link_scales_capacity(self, sim, cluster):
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        cluster.slow_link(b, scale=0.1)
        assert b.nic_in.degraded
        assert b.nic_in.effective_capacity == pytest.approx(10.0)
        result = run_transfer(sim, cluster, a, b, 100)
        assert result["done_at"] == pytest.approx(10.0)  # 100 B at 10 B/s

    def test_heal_link_restores_full_speed(self, sim, cluster):
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        cluster.slow_link(b, scale=0.1)
        cluster.heal_link(b)
        assert not b.nic_in.degraded
        result = run_transfer(sim, cluster, a, b, 100)
        assert result["done_at"] == pytest.approx(1.0)

    def test_slow_link_applies_mid_flight(self, sim, cluster):
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        result = {}

        def proc():
            yield cluster.transfer(a, b, 100)
            result["done_at"] = sim.now

        sim.process(proc())
        sim.run(until=0.5)  # 50 bytes done at full speed
        cluster.slow_link(b, scale=0.5)
        sim.run()
        # Remaining 50 bytes at 50 B/s: 0.5 + 1.0.
        assert result["done_at"] == pytest.approx(1.5)

    def test_extra_latency_adds_to_transfer(self, sim, cluster):
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        cluster.slow_link(b, scale=1.0, extra_latency=0.25)
        result = run_transfer(sim, cluster, a, b, 100)
        assert result["done_at"] == pytest.approx(1.25)

    def test_degrade_validates_arguments(self, sim, cluster):
        machine = make_machine(cluster)
        with pytest.raises(SimulationError):
            machine.nic_in.degrade(capacity_scale=-0.5)
        with pytest.raises(SimulationError):
            machine.nic_in.degrade(loss_probability=1.5)


class TestLossyLinks:
    def test_loss_draws_only_with_rng_installed(self, sim, cluster):
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        cluster.lossy_link(b, probability=1.0)
        # Without an installed loss stream, losses never fire (clean runs
        # make zero RNG draws).
        result = run_transfer(sim, cluster, a, b, 100)
        assert "error" not in result

    def test_certain_loss_fails_flow(self, sim, cluster):
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        cluster.scheduler.loss_rng = make_rng(7, "loss")
        cluster.lossy_link(b, probability=1.0)
        result = run_transfer(sim, cluster, a, b, 100)
        assert isinstance(result["error"], FlowLost)

    def test_loss_is_seed_deterministic(self):
        outcomes = []
        for _attempt in range(2):
            sim = Simulator()
            cluster = Cluster(sim)
            a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
            cluster.scheduler.loss_rng = make_rng(3, "loss")
            cluster.lossy_link(b, probability=0.5)
            drops = []
            for i in range(20):
                result = run_transfer(sim, cluster, a, b, 10)
                drops.append("error" in result)
            outcomes.append(drops)
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])


class TestPartitions:
    def test_reachability_and_implicit_group(self, cluster):
        a, b, c = (make_machine(cluster, n) for n in "abc")
        cluster.partition([[a, b]])
        assert cluster.reachable(a, b)
        assert not cluster.reachable(a, c)  # c falls in the implicit group
        cluster.heal()
        assert cluster.reachable(a, c)

    def test_transfer_across_partition_fails(self, sim, cluster):
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        cluster.partition([[a], [b]])
        result = run_transfer(sim, cluster, a, b, 100)
        assert isinstance(result["error"], NetworkPartitioned)

    def test_in_flight_flow_severed(self, sim, cluster):
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        result = {}

        def proc():
            try:
                yield cluster.transfer(a, b, 100)
            except NetworkPartitioned as exc:
                result["error"] = exc
                result["at"] = sim.now

        process = sim.process(proc())
        process.defused = True
        sim.run(until=0.5)
        cluster.partition([[a], [b]])
        sim.run()
        assert result["at"] == pytest.approx(0.5)

    def test_intra_group_flows_survive(self, sim, cluster):
        a, b, c = (make_machine(cluster, n) for n in "abc")
        result = {}

        def proc():
            yield cluster.transfer(a, b, 100)
            result["done_at"] = sim.now

        sim.process(proc())
        sim.run(until=0.5)
        cluster.partition([[a, b], [c]])
        sim.run()
        assert result["done_at"] == pytest.approx(1.0)

    def test_duplicate_membership_rejected(self, cluster):
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        with pytest.raises(SimulationError):
            cluster.partition([[a, b], [a]])


class TestStalledDisks:
    def test_stall_freezes_and_heal_resumes(self, sim, cluster):
        machine = make_machine(cluster)
        result = {}

        def proc():
            yield machine.disk_write(50)  # 25 B/s -> 2 s clean
            result["done_at"] = sim.now

        sim.process(proc())
        sim.run(until=1.0)  # halfway
        cluster.stall_disk(machine)
        sim.run(until=5.0)
        assert "done_at" not in result  # hung, not failed
        cluster.heal_disk(machine)
        sim.run()
        # 1 s of progress + 4 s stalled + 1 s remaining.
        assert result["done_at"] == pytest.approx(6.0)


class TestCrashRestart:
    def test_restart_reverses_fail(self, sim, cluster):
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        cluster.kill(b)
        assert not b.alive
        assert isinstance(run_transfer(sim, cluster, a, b, 100)["error"], PortFailed)
        cluster.restart(b)
        assert b.alive
        start = sim.now
        result = run_transfer(sim, cluster, a, b, 100)
        assert result["done_at"] == pytest.approx(start + 1.0)

    def test_kill_restart_kill(self, sim, cluster):
        """Regression: a second kill after a restart must behave like the
        first (ports fail again, compute slots poisoned again)."""
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        cluster.kill(b)
        cluster.restart(b)
        cluster.kill(b)
        assert not b.alive
        assert isinstance(run_transfer(sim, cluster, a, b, 100)["error"], PortFailed)
        cluster.restart(b)
        assert run_transfer(sim, cluster, a, b, 100).get("error") is None

    def test_fail_and_restart_are_idempotent(self, cluster):
        machine = make_machine(cluster)
        machine.restart()  # restart of an alive machine: no-op
        assert machine.alive
        machine.fail()
        machine.fail()
        assert not machine.alive
        machine.restart()
        machine.restart()
        assert machine.alive

    def test_wiped_restart_zeroes_disks(self, sim, cluster):
        machine = make_machine(cluster)
        sim.run(until=machine.disk_write(100))
        assert sum(d.used for d in machine.disks) == 100
        cluster.kill(machine)
        cluster.restart(machine, wipe_disks=True)
        assert sum(d.used for d in machine.disks) == 0

    def test_intact_restart_keeps_disks(self, sim, cluster):
        machine = make_machine(cluster)
        sim.run(until=machine.disk_write(100))
        cluster.kill(machine)
        cluster.restart(machine)
        assert sum(d.used for d in machine.disks) == 100

    def test_restart_listeners_see_wipe_flag(self, cluster):
        machine = make_machine(cluster)
        seen = []
        machine.on_restart(lambda m, wiped: seen.append((m.name, wiped)))
        machine.fail()
        machine.restart(wipe_disks=True)
        machine.fail()
        machine.restart()
        assert seen == [("m0", True), ("m0", False)]

    def test_compute_interrupt_releases_core_slot(self, sim, cluster):
        """Regression: interrupting a process parked on a full core queue
        must not leak the slot it was granted (or waiting on)."""
        machine = make_machine(cluster, cores=1)
        holder = sim.process(machine.compute(5.0))
        waiter = sim.process(machine.compute(1.0))
        sim.run(until=1.0)
        waiter.defused = True
        waiter.interrupt("cancelled")
        sim.run(until=6.0)
        late = sim.process(machine.compute(1.0))
        sim.run()
        assert holder.ok and late.ok
        assert sim.now == pytest.approx(7.0)


class TestRetryPolicy:
    def test_delays_are_exponential_and_capped(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1, max_delay=0.3)
        assert [policy.delay(i) for i in (1, 2, 3, 4)] == pytest.approx(
            [0.1, 0.2, 0.3, 0.3]
        )

    def test_the_block_policy_outlasts_a_fault_of_one_and_a_half_seconds(self):
        """Six tries, backoff doubling from 50 ms: a block fails for good
        only after 1.55 s of backoff, in every deployment."""
        assert BLOCK_RETRY.attempts == 6
        delays = [BLOCK_RETRY.delay(i) for i in range(1, BLOCK_RETRY.attempts)]
        assert delays == pytest.approx([0.05, 0.1, 0.2, 0.4, 0.8])
        assert sum(delays) == pytest.approx(1.55)

    def test_with_retry_recovers_from_transient_failure(self, sim, cluster):
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        policy = RetryPolicy(attempts=4, base_delay=0.5, max_delay=2.0)
        cluster.partition([[a], [b]])
        result = {}

        def healer():
            yield sim.timeout(0.7)
            cluster.heal()

        def proc():
            yield from with_retry(
                sim, lambda: cluster.transfer(a, b, 100), policy
            )
            result["done_at"] = sim.now

        sim.process(healer())
        sim.process(proc())
        sim.run()
        # Attempt 1 at t=0 fails; retry after 0.5 fails; retry after
        # 1.0 more (t=1.5, healed) succeeds in 1 s.
        assert result["done_at"] == pytest.approx(2.5)

    def test_with_retry_exhausts_and_raises(self, sim, cluster):
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        cluster.partition([[a], [b]])
        policy = RetryPolicy(attempts=2, base_delay=0.1, max_delay=2.0)
        result = {}

        def proc():
            try:
                yield from with_retry(sim, lambda: cluster.transfer(a, b, 1), policy)
            except NetworkPartitioned:
                result["raised_at"] = sim.now

        process = sim.process(proc())
        process.defused = True
        sim.run()
        assert result["raised_at"] == pytest.approx(0.1)

    def test_no_retry_is_single_shot(self, sim, cluster):
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        cluster.partition([[a], [b]])
        policy = RetryPolicy(attempts=1, base_delay=0.1, max_delay=2.0)
        tries = []

        def attempt():
            tries.append(sim.now)
            return cluster.transfer(a, b, 1)

        process = sim.process(with_retry(sim, attempt, policy))
        process.defused = True
        sim.run()
        assert not process.ok and tries == [0.0]


class TestFailureDetector:
    def test_suspects_dead_machine_then_unsuspects_on_restart(self, sim, cluster):
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        detector = FailureDetector(
            cluster.sim, cluster, heartbeat_interval=0.5, suspicion_timeout=1.0
        )
        detector.start()
        sim.run(until=2.0)
        assert not detector.suspected()
        cluster.kill(b)
        sim.run(until=4.0)
        assert detector.suspected() == [b]
        cluster.restart(b)
        sim.run(until=5.0)
        assert not detector.suspected()
        events = [(name, event) for _t, name, event in detector.history]
        assert events == [("b", "suspect"), ("b", "unsuspect")]

    def test_partition_looks_like_death_from_home(self, sim, cluster):
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        detector = FailureDetector(
            cluster.sim,
            cluster,
            home=a,
            heartbeat_interval=0.5,
            suspicion_timeout=1.0,
        )
        detector.start()
        cluster.partition([[a], [b]])
        sim.run(until=2.0)
        assert detector.suspected() == [b]
        assert b.alive  # false suspicion: the machine is fine
        cluster.heal()
        sim.run(until=3.0)
        assert detector.suspected() == []

    def test_callbacks_fire(self, sim, cluster):
        _a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        detector = FailureDetector(
            cluster.sim, cluster, heartbeat_interval=0.5, suspicion_timeout=1.0
        )
        calls = []
        detector.on_suspect.append(lambda m: calls.append(("suspect", m.name)))
        detector.on_unsuspect.append(lambda m: calls.append(("unsuspect", m.name)))
        detector.start()
        cluster.kill(b)
        sim.run(until=2.0)
        cluster.restart(b)
        sim.run(until=3.0)
        assert calls == [("suspect", "b"), ("unsuspect", "b")]


class TestMonitorUnderFailures:
    def test_sample_skips_dead_machines(self, sim, cluster):
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        monitor = ResourceMonitor(sim, cluster, interval=1.0)
        monitor.start()
        sim.run(until=1.5)
        cluster.kill(b)
        sim.run(until=2.5)
        first, second = monitor.samples[0], monitor.samples[1]
        assert first.alive_machines == 2
        assert second.alive_machines == 1
        cluster.restart(b)
        sim.run(until=3.5)
        assert monitor.samples[2].alive_machines == 2

    def test_alive_machines_gauge_emitted(self, cluster):
        from repro.obs.tracer import Tracer

        sim = Simulator(tracer=Tracer())
        cluster = Cluster(sim)
        make_machine(cluster, "a")
        monitor = ResourceMonitor(sim, cluster, interval=1.0)
        monitor.start()
        sim.run(until=2.5)
        gauge = sim.tracer.counters["cluster.alive_machines"]
        assert [value for _t, value, _total in gauge.samples] == [1, 1]


class TestFaultPlan:
    def test_events_validated_and_sorted(self):
        with pytest.raises(SimulationError):
            FaultEvent(-1.0, "partition", ["a"], 1.0)
        with pytest.raises(SimulationError):
            FaultEvent(1.0, "meteor-strike", ["a"], 1.0)
        plan = FaultPlan(
            [
                FaultEvent(5.0, "partition", ["a"], 1.0),
                FaultEvent(2.0, "disk-stall", ["b"], 2.0),
            ],
            seed=9,
        )
        assert [e.time for e in plan.events] == [2.0, 5.0]
        assert plan.horizon == pytest.approx(6.0)
        assert plan.kinds == ["disk-stall", "partition"]  # schedule order

    def test_generate_is_deterministic_and_respects_protect(self):
        names = ["w-0", "w-1", "w-2", "w-3"]
        one = FaultPlan.generate(11, names, count=6, protect=("w-0",))
        two = FaultPlan.generate(11, names, count=6, protect=("w-0",))
        assert [
            (e.time, e.kind, e.targets, e.duration, e.params) for e in one.events
        ] == [(e.time, e.kind, e.targets, e.duration, e.params) for e in two.events]
        assert all("w-0" not in e.targets for e in one.events)
        other = FaultPlan.generate(12, names, count=6, protect=("w-0",))
        assert [(e.time, e.kind) for e in one.events] != [
            (e.time, e.kind) for e in other.events
        ]

    def test_generated_events_are_sequential(self):
        plan = FaultPlan.generate(4, ["w-0", "w-1", "w-2"], count=8)
        clock = 0.0
        for event in plan.events:
            assert event.time >= clock
            clock = event.time + event.duration
        assert set(plan.kinds) <= set(ALL_KINDS)


class TestChaosController:
    def test_injects_and_reverts_in_order(self, sim, cluster):
        a, b = make_machine(cluster, "a"), make_machine(cluster, "b")
        plan = FaultPlan(
            [
                FaultEvent(1.0, "crash-restart", ["b"], 2.0, {"wipe": False}),
                FaultEvent(4.0, "partition", ["b"], 1.0),
            ],
            seed=2,
        )
        controller = ChaosController(sim, cluster, plan)
        controller.start()
        sim.run(until=2.0)
        assert not b.alive and controller.active
        sim.run(until=3.5)
        assert b.alive
        sim.run(until=4.5)
        assert not cluster.reachable(a, b)
        sim.run(until=6.0)
        assert cluster.reachable(a, b)
        assert controller.done and not controller.active
        assert [(kind, action) for _t, kind, _targets, action in controller.log] == [
            ("crash-restart", "inject"),
            ("crash-restart", "revert"),
            ("partition", "inject"),
            ("partition", "revert"),
        ]

    def test_installs_seeded_loss_stream(self, sim, cluster):
        make_machine(cluster, "a")
        plan = FaultPlan([FaultEvent(1.0, "lossy-link", ["a"], 1.0)], seed=5)
        assert cluster.scheduler.loss_rng is None
        ChaosController(sim, cluster, plan)
        assert cluster.scheduler.loss_rng is not None

    def test_start_twice_rejected(self, sim, cluster):
        make_machine(cluster, "a")
        plan = FaultPlan([FaultEvent(1.0, "disk-stall", ["a"], 1.0)], seed=5)
        controller = ChaosController(sim, cluster, plan)
        controller.start()
        with pytest.raises(SimulationError):
            controller.start()


class TestAliveProcessRegistry:
    def test_tracks_only_live_processes(self, sim):
        def short():
            yield sim.timeout(1.0)

        def long():
            yield sim.timeout(10.0)

        sim.process(short(), name="short")
        survivor = sim.process(long(), name="long")
        sim.run(until=2.0)
        alive = sim.alive_processes()
        assert alive == [survivor]
