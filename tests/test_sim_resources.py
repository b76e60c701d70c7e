"""Unit tests for Resource (semaphore) and Store (bounded FIFO queue)."""

import pytest

from repro.common.errors import SimulationError
from repro.sim import Simulator, Resource, Store
from repro.sim.resources import StoreClosed


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, 0)

    def test_grants_up_to_capacity_immediately(self, sim):
        resource = Resource(sim, 2)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        assert first.triggered and second.triggered
        assert not third.triggered

    def test_release_wakes_fifo_waiter(self, sim):
        resource = Resource(sim, 1)
        order = []

        def worker(tag, hold):
            yield resource.request()
            order.append((tag, sim.now))
            yield sim.timeout(hold)
            resource.release()

        sim.process(worker("a", 5.0))
        sim.process(worker("b", 1.0))
        sim.process(worker("c", 1.0))
        sim.run()
        assert order == [("a", 0.0), ("b", 5.0), ("c", 6.0)]

    def test_try_acquire_takes_a_free_slot_without_an_event(self, sim):
        resource = Resource(sim, 2)
        assert resource.try_acquire()
        assert resource.in_use == 1
        sim.run()
        assert sim.events_processed == 0

    def test_try_acquire_refuses_when_full(self, sim):
        resource = Resource(sim, 1)
        assert resource.try_acquire()
        assert not resource.try_acquire()
        assert resource.in_use == 1
        resource.release()
        assert resource.try_acquire()

    def test_try_acquire_never_overtakes_a_queued_waiter(self, sim):
        resource = Resource(sim, 1)
        assert resource.try_acquire()
        first, second = resource.request(), resource.request()
        resource.release()  # handed to ``first``, not freed
        assert first.triggered and not second.triggered
        assert not resource.try_acquire()
        resource.release()
        assert second.triggered
        assert not resource.try_acquire()
        resource.release()
        assert resource.try_acquire()

    def test_release_without_request_raises(self, sim):
        resource = Resource(sim, 1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_available_accounting(self, sim):
        resource = Resource(sim, 3)
        resource.request()
        resource.request()
        assert resource.available == 1
        resource.release()
        assert resource.available == 2


class TestStore:
    def test_put_get_fifo(self, sim):
        store = Store(sim)
        results = []

        def producer():
            for i in range(3):
                yield store.put(i)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                results.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert results == [0, 1, 2]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        log = []

        def consumer():
            item = yield store.get()
            log.append((item, sim.now))

        def producer():
            yield sim.timeout(4.0)
            yield store.put("x")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert log == [("x", 4.0)]

    def test_put_blocks_at_capacity(self, sim):
        store = Store(sim, capacity=1)
        log = []

        def producer():
            yield store.put("a")
            log.append(("put-a", sim.now))
            yield store.put("b")
            log.append(("put-b", sim.now))

        def consumer():
            yield sim.timeout(3.0)
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert log == [("put-a", 0.0), ("put-b", 3.0)]

    def test_direct_handoff_respects_waiting_consumer(self, sim):
        store = Store(sim, capacity=1)
        received = []

        def consumer(tag):
            item = yield store.get()
            received.append((tag, item))

        sim.process(consumer("first"))
        sim.process(consumer("second"))

        def producer():
            yield store.put(1)
            yield store.put(2)

        sim.process(producer())
        sim.run()
        assert received == [("first", 1), ("second", 2)]

    def test_drain_returns_all_items(self, sim):
        store = Store(sim)
        for i in range(4):
            store.put(i)
        sim.run()
        assert store.drain() == [0, 1, 2, 3]
        assert len(store) == 0

    def test_closed_store_rejects_put(self, sim):
        store = Store(sim)
        store.close()
        with pytest.raises(SimulationError):
            store.put(1)

    def test_closed_store_fails_pending_get(self, sim):
        store = Store(sim)

        def consumer():
            try:
                yield store.get()
            except StoreClosed:
                return "closed"

        process = sim.process(consumer())

        def closer():
            yield sim.timeout(1.0)
            store.close()

        sim.process(closer())
        sim.run()
        assert process.value == "closed"

    def test_closed_store_drains_remaining_items_first(self, sim):
        store = Store(sim)
        store.put("leftover")
        store.close()

        def consumer():
            item = yield store.get()
            return item

        process = sim.process(consumer())
        sim.run()
        assert process.value == "leftover"
