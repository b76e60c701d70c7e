"""Blocking resources for simulation processes.

* :class:`Resource` -- a counting semaphore (e.g. CPU slots of a machine).
* :class:`Store` -- an unbounded FIFO queue with a blocking get (a
  source's control commands, the replication hop queues).
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
    """An unbounded FIFO queue with a blocking ``get``.

    ``put`` enqueues at once (its event has already succeeded); ``get``
    returns an event that succeeds with the oldest item.
    """

    def __init__(self, sim):
        self.sim = sim
        self.items = deque()
        self._getters = deque()
        self._nonempty_waiters = []

    def __len__(self):
        return len(self.items)

    def put(self, item):
        """Enqueue ``item``; returns an event that has already succeeded."""
        event = self.sim.event()
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                break
        else:
            self.items.append(item)
        event.succeed()
        self._notify_nonempty()
        return event

    def get(self):
        """Dequeue the oldest item; the returned event succeeds with it."""
        event = self.sim.event()
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event

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
