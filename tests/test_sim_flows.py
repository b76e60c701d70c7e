"""Unit tests for the max-min fair flow scheduler."""

import pytest

from repro.sim import Simulator, Port, FlowScheduler
from repro.sim.flows import PortFailed


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def scheduler(sim):
    return FlowScheduler(sim)


def run_transfer(sim, scheduler, nbytes, ports, latency=0.0):
    event = scheduler.transfer(nbytes, ports, latency=latency)
    sim.run(until=event)
    return sim.now


class TestSingleFlow:
    def test_duration_is_size_over_capacity(self, sim, scheduler):
        port = Port("nic", 100.0)
        finished_at = run_transfer(sim, scheduler, 1000.0, [port])
        assert finished_at == pytest.approx(10.0)

    def test_bottleneck_is_slowest_port(self, sim, scheduler):
        fast = Port("fast", 1000.0)
        slow = Port("slow", 10.0)
        finished_at = run_transfer(sim, scheduler, 100.0, [fast, slow])
        assert finished_at == pytest.approx(10.0)

    def test_latency_added_after_drain(self, sim, scheduler):
        port = Port("nic", 100.0)
        finished_at = run_transfer(sim, scheduler, 100.0, [port], latency=0.5)
        assert finished_at == pytest.approx(1.5)

    def test_zero_byte_transfer_takes_latency_only(self, sim, scheduler):
        finished_at = run_transfer(sim, scheduler, 0, [], latency=0.25)
        assert finished_at == pytest.approx(0.25)

    def test_finished_flow_lands_after_its_latency_in_one_event(
        self, sim, scheduler
    ):
        event = scheduler.transfer(100.0, [Port("nic", 100.0)], latency=0.5)
        sim.run(until=1.2)
        # Drained at 1.0 (the solver's wake-up, the only event so far):
        # triggered, but its waiters resume only once the latency passed.
        assert sim.events_processed == 1
        assert event.triggered and not event.processed
        sim.run()
        assert event.processed and sim.now == pytest.approx(1.5)
        assert sim.events_processed == 2  # the landing itself, no timer


class TestFairSharing:
    def test_two_flows_share_port_equally(self, sim, scheduler):
        port = Port("nic", 100.0)
        first = scheduler.transfer(500.0, [port])
        second = scheduler.transfer(500.0, [port])
        sim.run(until=first)
        # Both share 50 B/s: each 500 B flow takes 10 s.
        assert sim.now == pytest.approx(10.0)
        sim.run(until=second)
        assert sim.now == pytest.approx(10.0)

    def test_short_flow_finishes_then_long_flow_speeds_up(self, sim, scheduler):
        port = Port("nic", 100.0)
        long_flow = scheduler.transfer(1000.0, [port])
        short_flow = scheduler.transfer(100.0, [port])
        sim.run(until=short_flow)
        # Shared at 50 B/s until 100 B drain: t = 2 s.
        assert sim.now == pytest.approx(2.0)
        sim.run(until=long_flow)
        # Long flow moved 100 B by t=2, then 900 B at full 100 B/s.
        assert sim.now == pytest.approx(11.0)

    def test_late_arrival_slows_down_existing_flow(self, sim, scheduler):
        port = Port("nic", 100.0)
        first = scheduler.transfer(1000.0, [port])

        def late():
            yield sim.timeout(5.0)
            second = scheduler.transfer(250.0, [port])
            yield second
            return sim.now

        late_process = sim.process(late())
        sim.run(until=late_process)
        # Second flow gets 50 B/s from t=5: 250 B take 5 s.
        assert late_process.value == pytest.approx(10.0)
        sim.run(until=first)
        # First: 500 B by t=5, 250 B more at 50 B/s until t=10, 250 B at 100.
        assert sim.now == pytest.approx(12.5)

    def test_max_min_respects_multiple_bottlenecks(self, sim, scheduler):
        # Flow A uses only port X; flows B and C share port Y; all cross Z.
        port_x = Port("x", 100.0)
        port_y = Port("y", 40.0)
        port_z = Port("z", 1000.0)
        flow_a = scheduler.transfer(300.0, [port_x, port_z])
        scheduler.transfer(1000.0, [port_y, port_z])
        scheduler.transfer(1000.0, [port_y, port_z])
        # B and C are limited to 20 B/s each by Y; A gets min(100, remaining Z).
        sim.run(until=flow_a)
        assert sim.now == pytest.approx(3.0)

    def test_allocation_is_work_conserving_on_single_port(self, sim, scheduler):
        port = Port("nic", 100.0)
        done = [scheduler.transfer(200.0, [port]) for _ in range(4)]
        for event in done:
            sim.run(until=event)
        # 800 B through a 100 B/s port: exactly 8 s regardless of sharing.
        assert sim.now == pytest.approx(8.0)


class TestPortFailure:
    def test_failing_port_fails_inflight_transfer(self, sim, scheduler):
        port = Port("nic", 100.0)

        def proc():
            try:
                yield scheduler.transfer(1000.0, [port])
            except PortFailed:
                return ("failed", sim.now)

        process = sim.process(proc())

        def killer():
            yield sim.timeout(3.0)
            scheduler.fail_ports([port])

        sim.process(killer())
        sim.run(until=process)
        assert process.value == ("failed", 3.0)

    def test_transfer_on_disabled_port_fails_immediately(self, sim, scheduler):
        port = Port("nic", 100.0)
        scheduler.fail_ports([port])

        def proc():
            try:
                yield scheduler.transfer(10.0, [port])
            except PortFailed:
                return "rejected"

        process = sim.process(proc())
        sim.run(until=process)
        assert process.value == "rejected"

    def test_unrelated_flow_survives_port_failure(self, sim, scheduler):
        healthy = Port("ok", 100.0)
        doomed = Port("bad", 100.0)
        survivor = scheduler.transfer(500.0, [healthy])
        victim = scheduler.transfer(500.0, [doomed])
        victim.defused = True

        def killer():
            yield sim.timeout(1.0)
            scheduler.fail_ports([doomed])

        sim.process(killer())
        sim.run(until=survivor)
        assert sim.now == pytest.approx(5.0)


class TestAccounting:
    def test_port_bytes_accumulate(self, sim, scheduler):
        port = Port("nic", 100.0)
        event = scheduler.transfer(400.0, [port])
        sim.run(until=event)
        assert scheduler.port_bytes[port] == pytest.approx(400.0)

    def test_port_rate_reports_current_allocation(self, sim, scheduler):
        port = Port("nic", 100.0)
        scheduler.transfer(1000.0, [port])
        scheduler.transfer(1000.0, [port])
        assert scheduler.port_rate(port) == pytest.approx(100.0)

    def test_active_flows_snapshot(self, sim, scheduler):
        port = Port("nic", 100.0)
        scheduler.transfer(1000.0, [port], tag="replication")
        flows = scheduler.active_flows()
        assert len(flows) == 1
        tag, remaining, rate = flows[0]
        assert tag == "replication"
        assert remaining == pytest.approx(1000.0)
        assert rate == pytest.approx(100.0)


class TestIncrementalEngine:
    def test_kernel_queue_stays_bounded_by_active_flows(self, sim, scheduler):
        """Regression: the old engine leaked one Timeout per reallocation.

        A long chain of arrivals and completions must not accumulate stale
        wake-up entries; the kernel queue and the scheduler's due-time heap
        stay O(active flows) throughout.
        """
        port = Port("nic", 1e6)
        high_water = {"queue": 0, "heap": 0}

        def churn():
            for round_no in range(100):
                events = [
                    scheduler.transfer(1e4 * (1 + i + round_no), [port])
                    for i in range(5)
                ]
                yield sim.all_of(events)
                high_water["queue"] = max(high_water["queue"], len(sim._queue))
                high_water["heap"] = max(
                    high_water["heap"], len(scheduler._kernel_heap)
                )

        sim.process(churn())
        sim.run()
        # 5 concurrent flows -> a handful of live entries, never hundreds.
        assert high_water["queue"] <= 20
        assert high_water["heap"] <= 6
        assert not scheduler.active_flows()

    def test_same_instant_burst_coalesces_to_one_solve(self, sim, scheduler):
        """N same-timestamp transfers trigger a single water-filling pass."""
        solves = {"count": 0}
        original = scheduler._waterfill

        def counting(flows):
            solves["count"] += 1
            return original(flows)

        scheduler._waterfill = counting
        port = Port("nic", 1e6)

        def burst():
            events = [scheduler.transfer(1e5, [port]) for _ in range(50)]
            yield sim.all_of(events)

        sim.process(burst())
        sim.run()
        # One coalesced solve for the burst.  All 50 finish at the same
        # instant and leave the port empty, so their re-solve has no
        # component to water-fill.
        assert solves["count"] == 1

    def test_component_local_solve_leaves_other_components_untouched(
        self, sim, scheduler
    ):
        """Two new flows on port B re-solve B's component, never port A's."""
        port_a = Port("a", 1e6)
        port_b = Port("b", 1e6)
        scheduler.transfer(1e6, [port_a], tag="a-flow")
        sim.run(until=0.1)
        solved = []
        original = scheduler._waterfill

        def recording(flows):
            solved.append(sorted(f.tag for f in flows))
            return original(flows)

        scheduler._waterfill = recording
        pair = [scheduler.transfer(1e5, [port_b], tag=f"b{i}") for i in range(2)]
        sim.run(until=0.15)
        assert solved == [["b0", "b1"]]  # port A's flow was never re-solved
        assert {tag: rate for tag, _left, rate in scheduler.active_flows()} == {
            "a-flow": 1e6,
            "b0": 5e5,
            "b1": 5e5,
        }
        sim.run(until=pair[1])
        # Alone on B, a flow is a one-flow component: it takes the whole
        # port, and port A's flow is still not re-solved.
        solved.clear()
        scheduler.transfer(1e5, [port_b], tag="lone")
        assert scheduler.port_rate(port_b) == 1e6
        assert scheduler.port_rate(port_a) == 1e6
        assert solved == [["lone"]]

    def test_queries_flush_pending_solve_mid_instant(self, sim, scheduler):
        """active_flows()/port_rate() see current rates before instant end."""
        port = Port("nic", 100.0)
        scheduler.transfer(1000.0, [port])
        assert scheduler.port_rate(port) == pytest.approx(100.0)
        scheduler.transfer(1000.0, [port])
        flows = scheduler.active_flows()
        assert sorted(rate for _tag, _remaining, rate in flows) == [50.0, 50.0]

    def test_batched_port_failure_matches_sequential(self, sim):
        """One fail_ports() call fails the same flows as one call per port."""
        logs = []
        for batched in (False, True):
            s = Simulator()
            scheduler = FlowScheduler(s)
            ports = [Port(f"p{i}", 100.0) for i in range(3)]
            events = [
                scheduler.transfer(1e4, [ports[i], ports[(i + 1) % 3]])
                for i in range(3)
            ]
            for event in events:
                event.defused = True
            if batched:
                scheduler.fail_ports(ports[:2])
            else:
                scheduler.fail_ports([ports[0]])
                scheduler.fail_ports([ports[1]])
            s.run()
            logs.append([(e.ok, type(e._exception).__name__) for e in events])
        assert logs[0] == logs[1]
        assert logs[0] == [(False, "PortFailed")] * 3
