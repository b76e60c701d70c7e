"""Credit-based flow control for the replication runtime.

The paper uses credit-based flow control (Kung et al.) for application-
level congestion control of replica transfers (§4.2 phase 2): a sender may
only have ``window_bytes`` of unacknowledged data in flight per chain, so
replication never floods the NICs that data exchange and DFS traffic also
use.
"""

from collections import deque

from repro.common.errors import ProtocolError


class CreditWindow:
    """A byte-granularity credit window.

    Processes ``yield window.acquire(nbytes)`` before sending and call
    ``release(nbytes)`` when the receiver acknowledges.  Grants are FIFO.
    A single request larger than the window is allowed on an empty window
    (it would otherwise never be satisfiable).
    """

    def __init__(self, sim, window_bytes):
        if window_bytes <= 0:
            raise ProtocolError("credit window must be positive")
        self.sim = sim
        self.window_bytes = window_bytes
        self.in_flight = 0
        self._waiters = deque()  # (event, nbytes)

    @property
    def available(self):
        """Currently unused capacity."""
        return max(0, self.window_bytes - self.in_flight)

    def acquire(self, nbytes):
        """Event that fires once ``nbytes`` of credit is granted."""
        if nbytes < 0:
            raise ProtocolError("negative credit request")
        event = self.sim.event()
        if not self._waiters and self._grantable(nbytes):
            self.in_flight += nbytes
            event.succeed()
        else:
            self._waiters.append((event, nbytes))
        return event

    def _grantable(self, nbytes):
        return self.in_flight + nbytes <= self.window_bytes or self.in_flight == 0

    def release(self, nbytes):
        """Return ``nbytes`` of credit and grant FIFO waiters."""
        self.in_flight = max(0, self.in_flight - nbytes)
        while self._waiters:
            event, wanted = self._waiters[0]
            if event.triggered:
                self._waiters.popleft()
                continue
            if not self._grantable(wanted):
                break
            self._waiters.popleft()
            self.in_flight += wanted
            event.succeed()


class CreditLease:
    """One replication's share of a :class:`CreditWindow`.

    A window is shared by every replication from one origin; the lease
    counts what *this* replication requested and has not released, so a
    replication that fails gives back exactly that (:meth:`close`) and
    nobody else's credit.
    """

    def __init__(self, window):
        self.window = window
        self.held = 0  # requested or granted, not yet released
        self.closed = False
        self._requests = []  # (event, nbytes) of every acquire

    def acquire(self, nbytes):
        """Event that fires once ``nbytes`` of credit is granted."""
        if self.closed:
            raise ProtocolError("credit lease already closed")
        event = self.window.acquire(nbytes)
        self.held += nbytes
        self._requests.append((event, nbytes))
        return event

    def release(self, nbytes):
        """Return ``nbytes`` of granted credit (no-op once closed)."""
        if not self.closed:
            self.held -= nbytes
            self.window.release(nbytes)

    def close(self):
        """Return everything still held; a request not yet granted is
        failed, so the window never grants it later."""
        self.closed = True
        for event, nbytes in self._requests:
            if not event.triggered:
                self.held -= nbytes
                event.defused = True
                event.fail(ProtocolError("credit lease closed"))
        self._requests.clear()
        held, self.held = self.held, 0
        self.window.release(held)
