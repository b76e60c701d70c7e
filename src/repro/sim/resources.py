"""Blocking resources for simulation processes.

* :class:`Resource` -- a counting semaphore (e.g. CPU slots of a machine).
* :class:`Store` -- a bounded FIFO queue with blocking put/get (the
  foundation of inter-operator channels).
"""

from collections import deque

from repro.common.errors import SimulationError


class Resource:
    """A counting semaphore with FIFO granting.

    Usage inside a process::

        grant = yield resource.request()
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, sim, capacity):
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters = deque()

    @property
    def available(self):
        """Currently unused capacity."""
        return self.capacity - self.in_use

    def try_acquire(self):
        """Take a free slot in place, without an event; False when full.

        A free slot means no live waiter is queued (:meth:`release` hands
        a slot straight to the oldest live waiter instead of freeing it),
        so taking it cannot overtake anyone: FIFO granting holds.
        """
        if self.in_use < self.capacity:
            self.in_use += 1
            return True
        return False

    def request(self):
        """Returns an event that succeeds when a slot is granted."""
        event = self.sim.event()
        if self.try_acquire():
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self):
        """Release one slot; hands it to the oldest live waiter if any."""
        if self.in_use <= 0:
            raise SimulationError("release() without a matching request()")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.triggered:  # cancelled waiter
                continue
            waiter.succeed(self)
            return
        self.in_use -= 1

    def cancel(self, request_event):
        """Withdraw a pending request (e.g. on interrupt)."""
        if not request_event.triggered:
            request_event.defused = True
            request_event.fail(SimulationError("request cancelled"))


class Store:
    """A bounded FIFO queue with blocking ``put`` and ``get``.

    ``put`` returns an event that succeeds once the item is enqueued (which
    may block while the store is at capacity); ``get`` returns an event that
    succeeds with the oldest item.
    """

    def __init__(self, sim, capacity=float("inf")):
        if capacity <= 0:
            raise SimulationError("Store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items = deque()
        self._getters = deque()
        self._putters = deque()  # (event, item)
        self._nonempty_waiters = []
        self._closed = False

    def __len__(self):
        return len(self.items)

    @property
    def is_full(self):
        """True at capacity."""
        return len(self.items) >= self.capacity

    def put(self, item):
        """Enqueue ``item``; the returned event succeeds when accepted."""
        if self._closed:
            raise SimulationError("put() on a closed Store")
        event = self.sim.event()
        if not self.is_full or self._getters:
            self._deliver(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        self._notify_nonempty()
        return event

    def _deliver(self, item):
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            getter.succeed(item)
            return
        self.items.append(item)

    def get(self):
        """Dequeue the oldest item; the returned event succeeds with it."""
        event = self.sim.event()
        if self.items:
            event.succeed(self.items.popleft())
            self._admit_putters()
        elif self._closed:
            event.fail(StoreClosed())
            event.defused = True
        else:
            self._getters.append(event)
        return event

    def _admit_putters(self):
        while self._putters and not self.is_full:
            putter, item = self._putters.popleft()
            if putter.triggered:
                continue
            self.items.append(item)
            putter.succeed()

    def when_nonempty(self):
        """Event that fires once the store holds at least one item.

        Unlike ``get`` it does not consume; multiple waiters all fire.
        """
        event = self.sim.event()
        if self.items:
            event.succeed()
        else:
            self._nonempty_waiters.append(event)
        return event

    def _notify_nonempty(self):
        waiters = self._nonempty_waiters
        if waiters:
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed()
            waiters.clear()

    def close(self):
        """Close the store: pending and future gets fail with StoreClosed
        once drained; puts are rejected immediately.
        """
        self._closed = True
        if not self.items:
            while self._getters:
                getter = self._getters.popleft()
                if not getter.triggered:
                    getter.defused = True
                    getter.fail(StoreClosed())

    def drain(self):
        """Remove and return all queued items without blocking."""
        items = list(self.items)
        self.items.clear()
        self._admit_putters()
        return items


class StoreClosed(SimulationError):
    """Raised to getters of a closed, drained Store."""

    def __init__(self):
        super().__init__("store closed")
