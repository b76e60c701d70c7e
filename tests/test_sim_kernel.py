"""Unit tests for the discrete-event kernel."""

import pytest

from repro.common.errors import SimulationError
from repro.sim import Simulator, Interrupt
from repro.sim.kernel import ProcessKilled


@pytest.fixture
def sim():
    return Simulator()


class TestClockAndTimeouts:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        sim.timeout(5.0)
        sim.run()
        assert sim.now == 5.0

    def test_run_until_time_stops_early(self, sim):
        sim.timeout(10.0)
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_run_until_sets_clock_even_without_events(self, sim):
        sim.run(until=7.5)
        assert sim.now == 7.5

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_negative_event_delay_rejected(self, sim):
        # Scheduling into the past would run the clock backwards.
        sim.run(until=2.0)
        with pytest.raises(SimulationError, match="negative"):
            sim.event().succeed(delay=-1.0)
        with pytest.raises(SimulationError, match="negative"):
            sim.event().fail(ValueError("late"), delay=-1.0)
        sim.run()
        assert sim.now == 2.0

    def test_timeout_carries_value(self, sim):
        timeout = sim.timeout(1.0, value="payload")
        sim.run()
        assert timeout.value == "payload"

    def test_same_instant_fifo_order(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in range(5):
            sim.process(proc(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestProcesses:
    def test_process_return_value(self, sim):
        def proc():
            yield sim.timeout(2.0)
            return 42

        process = sim.process(proc())
        sim.run()
        assert process.value == 42

    def test_sequential_waits_accumulate_time(self, sim):
        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            return sim.now

        process = sim.process(proc())
        sim.run()
        assert process.value == 3.0

    def test_wait_on_another_process(self, sim):
        def child():
            yield sim.timeout(3.0)
            return "child-result"

        def parent():
            result = yield sim.process(child())
            return result, sim.now

        process = sim.process(parent())
        sim.run()
        assert process.value == ("child-result", 3.0)

    def test_wait_on_already_finished_process(self, sim):
        def child():
            yield sim.timeout(1.0)
            return "done"

        child_process = sim.process(child())

        def parent():
            yield sim.timeout(5.0)
            result = yield child_process
            return result

        parent_process = sim.process(parent())
        sim.run()
        assert parent_process.value == "done"

    def test_uncaught_exception_propagates_to_run(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        sim.process(proc())
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_waiter_handles_child_failure(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        def parent():
            try:
                yield sim.process(child())
            except ValueError:
                return "handled"

        parent_process = sim.process(parent())
        sim.run()
        assert parent_process.value == "handled"

    def test_yielding_non_event_fails_process(self, sim):
        def proc():
            yield 42

        process = sim.process(proc())
        process.defused = True
        sim.run()
        assert not process.ok

    def test_run_until_event(self, sim):
        def proc():
            yield sim.timeout(4.0)
            return "x"

        process = sim.process(proc())
        sim.timeout(100.0)  # later noise event
        value = sim.run(until=process)
        assert value == "x"
        assert sim.now == 4.0


class TestInterrupts:
    def test_interrupt_wakes_process_early(self, sim):
        def victim():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, sim.now)

        victim_process = sim.process(victim())

        def killer():
            yield sim.timeout(2.0)
            victim_process.interrupt("failure")

        sim.process(killer())
        sim.run()
        assert victim_process.value == ("interrupted", "failure", 2.0)

    def test_unhandled_interrupt_kills_process(self, sim):
        def victim():
            yield sim.timeout(100.0)

        victim_process = sim.process(victim())
        victim_process.defused = True

        def killer():
            yield sim.timeout(1.0)
            victim_process.interrupt("die")

        sim.process(killer())
        sim.run()
        assert not victim_process.ok
        with pytest.raises(ProcessKilled):
            victim_process.value

    def test_interrupting_dead_process_raises(self, sim):
        def proc():
            yield sim.timeout(1.0)

        process = sim.process(proc())
        sim.run()
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_process_survives_interrupt_and_continues(self, sim):
        def victim():
            total = 0
            try:
                yield sim.timeout(50.0)
            except Interrupt:
                total += 1
            yield sim.timeout(1.0)
            return total, sim.now

        victim_process = sim.process(victim())

        def killer():
            yield sim.timeout(3.0)
            victim_process.interrupt()

        sim.process(killer())
        sim.run()
        assert victim_process.value == (1, 4.0)


class TestConditions:
    def test_all_of_collects_values(self, sim):
        def proc():
            results = yield sim.all_of([sim.timeout(1, "a"), sim.timeout(3, "b")])
            return results, sim.now

        process = sim.process(proc())
        sim.run()
        assert process.value == (["a", "b"], 3.0)

    def test_all_of_empty_list(self, sim):
        def proc():
            results = yield sim.all_of([])
            return results

        process = sim.process(proc())
        sim.run()
        assert process.value == []

    def test_any_of_returns_first(self, sim):
        def proc():
            slow = sim.timeout(10, "slow")
            fast = sim.timeout(2, "fast")
            winner = yield sim.any_of([slow, fast])
            return winner.value, sim.now

        process = sim.process(proc())
        sim.run(until=process)
        assert process.value == ("fast", 2.0)

    def test_any_of_with_already_triggered_event(self, sim):
        event = sim.event()
        event.succeed("ready")

        def proc():
            winner = yield sim.any_of([event, sim.timeout(5)])
            return winner.value

        process = sim.process(proc())
        sim.run(until=process)
        assert process.value == "ready"

    def test_all_of_propagates_failure(self, sim):
        def failing():
            yield sim.timeout(1.0)
            raise RuntimeError("bad")

        def proc():
            try:
                yield sim.all_of([sim.process(failing()), sim.timeout(10)])
            except RuntimeError:
                return "caught"

        process = sim.process(proc())
        sim.run(until=process)
        assert process.value == "caught"


class TestEvents:
    def test_double_succeed_rejected(self, sim):
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_value_of_untriggered_event_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            event.value

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_manual_event_signaling_between_processes(self, sim):
        gate = sim.event()
        log = []

        def waiter():
            value = yield gate
            log.append(("woke", value, sim.now))

        def signaler():
            yield sim.timeout(6.0)
            gate.succeed("go")

        sim.process(waiter())
        sim.process(signaler())
        sim.run()
        assert log == [("woke", "go", 6.0)]


class TestAbsoluteTimeEvents:
    def test_at_fires_at_exact_absolute_time(self, sim):
        log = []
        due = 0.1 + 0.2  # deliberately not representable "nicely"
        sim.at(due).callbacks.append(lambda e: log.append(sim.now))
        sim.run()
        assert log == [due]  # exact: no now + delta round-trip

    def test_at_rejects_past_times(self, sim):
        def proc():
            yield sim.timeout(5.0)
            with pytest.raises(SimulationError):
                sim.at(1.0)

        sim.process(proc())
        sim.run()

    def test_at_carries_value(self, sim):
        log = []

        def proc():
            value = yield sim.at(2.0, value="tick")
            log.append((sim.now, value))

        sim.process(proc())
        sim.run()
        assert log == [(2.0, "tick")]


class TestEndOfInstantHooks:
    def test_hook_runs_after_last_event_of_instant(self, sim):
        log = []

        def proc(tag):
            yield sim.timeout(1.0)
            log.append(tag)
            sim.at_instant_end(lambda: log.append(f"eoi-{tag}"))

        sim.process(proc("a"))
        sim.process(proc("b"))
        sim.run()
        # Both same-instant events run before either hook fires.
        assert log == ["a", "b", "eoi-a", "eoi-b"]

    def test_hook_runs_before_clock_advances(self, sim):
        times = []

        def proc():
            yield sim.timeout(1.0)
            sim.at_instant_end(lambda: times.append(sim.now))
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        assert times == [1.0]

    def test_hook_scheduling_same_instant_work_runs_before_later_hooks(self, sim):
        log = []

        def hook():
            log.append(("hook", sim.now))
            event = sim.event()
            event.callbacks.append(lambda e: log.append(("event", sim.now)))
            event.succeed()
            sim.at_instant_end(lambda: log.append(("hook2", sim.now)))

        def proc():
            yield sim.timeout(3.0)
            sim.at_instant_end(hook)

        sim.process(proc())
        sim.run()
        assert log == [("hook", 3.0), ("event", 3.0), ("hook2", 3.0)]

    def test_hooks_run_when_queue_drains(self, sim):
        log = []
        sim.at_instant_end(lambda: log.append(sim.now))
        sim.run()
        assert log == [0.0]

    def test_hooks_run_under_run_until_event(self, sim):
        log = []
        gate = sim.event()

        def proc():
            yield sim.timeout(1.0)
            sim.at_instant_end(lambda: log.append("eoi"))
            yield sim.timeout(1.0)
            gate.succeed("done")

        sim.process(proc())
        assert sim.run(until=gate) == "done"
        assert log == ["eoi"]

    def test_events_processed_counter(self, sim):
        before = sim.events_processed

        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        assert sim.events_processed > before


class TestDispatch:
    """``run(until=time)`` and ``run(until=event)`` dispatch the same
    events, in the same order, with the same count."""

    @staticmethod
    def _model(sim, log):
        """Same-instant ties, an end-of-instant hook that schedules at its
        own instant while later events wait, a failure a waiter handles and
        one nobody does.  Returns the model's last event."""

        def record(label):
            log.append((sim.now, label))

        def hook():
            record("hook")
            event = sim.event()
            event.callbacks.append(lambda _event: record("hook-event"))
            event.succeed()

        def ticker(tag):
            yield sim.timeout(1.0)
            record(tag)
            if tag == "a":
                sim.at_instant_end(hook)

        def catcher():
            failure = sim.event()
            failure.fail(ValueError("handled"), delay=2.0)
            try:
                yield failure
            except ValueError:
                record("caught")

        def last():
            yield sim.timeout(4.0)
            record("last")

        sim.timeout(2.0).callbacks.append(lambda _event: record("tick"))
        for tag in ("a", "b"):
            sim.process(ticker(tag))
        sim.process(catcher())
        sim.event().fail(RuntimeError("unhandled"), delay=3.0)
        return sim.process(last())

    @pytest.mark.parametrize(
        "drive",
        [
            lambda sim, _end: sim.run(until=10.0),
            lambda sim, end: sim.run(until=end),
        ],
        ids=["until-time", "until-event"],
    )
    def test_run_until_time_and_until_event_dispatch_alike(self, drive):
        sim = Simulator()
        log = []
        end = self._model(sim, log)
        with pytest.raises(RuntimeError, match="unhandled"):
            drive(sim, end)
        assert log[-1] == (2.0, "caught")
        drive(sim, end)
        assert log == [
            (1.0, "a"),
            (1.0, "b"),
            (1.0, "hook"),
            (1.0, "hook-event"),
            (2.0, "tick"),
            (2.0, "caught"),
            (4.0, "last"),
        ]
        assert end.processed
        assert sim.events_processed == 15
