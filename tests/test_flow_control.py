"""Unit tests for the credit window."""

import pytest

from repro.common.errors import ProtocolError
from repro.sim import Simulator
from repro.core.flow_control import CreditWindow


@pytest.fixture
def sim():
    return Simulator()


class TestCreditWindow:
    def test_grants_within_window(self, sim):
        window = CreditWindow(sim, 100)
        assert window.acquire(60).triggered
        assert window.acquire(40).triggered
        assert window.in_flight == 100

    def test_blocks_beyond_window(self, sim):
        window = CreditWindow(sim, 100)
        window.acquire(80)
        blocked = window.acquire(30)
        assert not blocked.triggered
        window.release(80)
        assert blocked.triggered

    def test_oversized_request_allowed_on_empty_window(self, sim):
        window = CreditWindow(sim, 100)
        assert window.acquire(500).triggered

    def test_oversized_request_waits_until_empty(self, sim):
        window = CreditWindow(sim, 100)
        window.acquire(50)
        big = window.acquire(500)
        assert not big.triggered
        window.release(50)
        assert big.triggered

    def test_fifo_no_overtaking(self, sim):
        window = CreditWindow(sim, 100)
        window.acquire(90)
        first = window.acquire(50)  # blocked: 90 + 50 > 100
        second = window.acquire(5)  # would fit, but must queue behind first
        assert not first.triggered
        assert not second.triggered
        window.release(90)
        assert first.triggered
        assert second.triggered  # 50 + 5 <= 100, granted after first

    def test_release_grants_multiple_waiters(self, sim):
        window = CreditWindow(sim, 100)
        window.acquire(100)
        waiters = [window.acquire(30) for _ in range(3)]
        window.release(100)
        assert all(w.triggered for w in waiters)

    def test_invalid_window_rejected(self, sim):
        with pytest.raises(ProtocolError):
            CreditWindow(sim, 0)

    def test_throughput_bounded_by_credit(self, sim):
        """In-flight bytes never exceed the window under churn."""
        window = CreditWindow(sim, 100)
        granted = []

        def worker(i):
            yield window.acquire(40)
            granted.append(i)
            assert window.in_flight <= 100
            yield sim.timeout(1.0)
            window.release(40)

        for i in range(10):
            sim.process(worker(i))
        sim.run()
        assert sorted(granted) == list(range(10))
