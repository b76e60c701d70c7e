"""The dense reference flow solver: the oracle ``sim/flows.py`` is checked against.

A standalone implementation of ``FlowScheduler``'s public contract that
recomputes the full water-filling allocation over *every* flow and port on
every arrival, completion and failure -- simple, obviously correct, and
quadratic in the number of concurrent flows.  It shares no solver code
with the engine under test: it has its own water-filling loop (the same
arithmetic in the same iteration order, which is what makes the two
bit-identical rather than merely close), its own byte accounting and its
own wake-up scheduling (one guarded kernel timeout per reallocation).
Only the vocabulary callers exchange with a scheduler is imported: ``Port``,
the ``TransferFailed`` family and ``MESSAGE_SECONDS``, the drain time under
which a transfer is a message: it takes no part in water-filling and lands
one timeout after it starts, unless a port failure or a sever fails it.

Tests hand an instance to ``Cluster(sim, scheduler=...)``; the whole-run
chaos comparison monkeypatches ``repro.cluster.cluster.FlowScheduler``.
"""

import itertools

from repro.common.errors import SimulationError
from repro.sim.flows import MESSAGE_SECONDS, FlowLost, PortFailed

#: Bytes below this are considered fully transferred (float tolerance).
EPSILON_BYTES = 1e-6


class _Flow:
    def __init__(self, flow_id, nbytes, ports, event, latency, tag):
        self.flow_id = flow_id
        self.remaining = float(nbytes)
        self.ports = ports
        self.rate = 0.0
        self.event = event
        self.latency = latency
        self.tag = tag


class DenseFlowScheduler:
    """Max-min fair fluid flows, globally re-solved on every change."""

    def __init__(self, sim):
        self.sim = sim
        self._flows = {}
        self._messages = {}
        self._ids = itertools.count()
        self._wakeup = None  # guard: only the newest timeout may fire
        self._last_update = 0.0
        self.port_bytes = {}
        self.loss_rng = None

    # -- public contract (mirrors FlowScheduler) -------------------------

    def transfer(self, nbytes, ports, latency=0.0, tag=None):
        if nbytes < 0:
            raise SimulationError("transfer of negative size")
        if latency < 0:
            raise SimulationError(f"negative transfer latency {latency!r}")
        for port in ports:
            if not port.enabled:
                event = self.sim.event()
                event.fail(PortFailed(port))
                return event
        event = self.sim.event()
        if self.loss_rng is not None:
            for port in ports:
                if port.loss_probability > 0.0 and (
                    self.loss_rng.random() < port.loss_probability
                ):
                    event.fail(FlowLost(port))
                    return event
        latency = latency + sum(p.extra_latency for p in ports)
        if nbytes <= EPSILON_BYTES:
            self._complete_after(event, latency, nbytes)
            return event
        flow = _Flow(next(self._ids), nbytes, list(ports), event, latency, tag)
        capacity = min((p.effective_capacity for p in ports), default=0.0)
        if capacity > 0 and nbytes / capacity <= MESSAGE_SECONDS:
            self._messages[flow.flow_id] = flow

            def deliver(_timer):
                if self._messages.pop(flow.flow_id, None) is not None:
                    for port in flow.ports:
                        self.port_bytes[port] = (
                            self.port_bytes.get(port, 0.0) + flow.remaining
                        )
                    self._complete_after(event, latency, 0.0)

            self.sim.timeout(nbytes / capacity).callbacks.append(deliver)
            return event
        self._advance()
        self._flows[flow.flow_id] = flow
        self._reallocate()
        return event

    def active_flows(self):
        self._advance()
        return [
            (f.tag, f.remaining, f.rate)
            for f in [*self._flows.values(), *self._messages.values()]
        ]

    def port_rate(self, port):
        self._advance()
        return sum(f.rate for f in self._flows.values() if port in f.ports)

    def fail_ports(self, ports):
        for port in ports:
            port.enabled = False
        self._advance()
        failed_any = False
        for port in ports:
            for flow in self._doomed(lambda crossed: port in crossed):
                failed_any = True
                self._fail(flow, PortFailed(port))
        if failed_any:
            self._reallocate()

    def enable_port(self, port):
        port.enabled = True

    def fail_flows_matching(self, predicate, make_exception):
        self._advance()
        doomed = self._doomed(predicate)
        for flow in doomed:
            self._fail(flow, make_exception(flow))
        if doomed:
            self._reallocate()
        return len(doomed)

    def reallocate(self, ports=None):
        self._advance()
        self._reallocate()

    # -- internals -------------------------------------------------------

    def _doomed(self, predicate):
        """Flows and messages whose ports satisfy ``predicate``, by id."""
        return sorted(
            (
                f
                for f in [*self._flows.values(), *self._messages.values()]
                if predicate(f.ports)
            ),
            key=lambda f: f.flow_id,
        )

    def _fail(self, transfer, exception):
        if self._flows.pop(transfer.flow_id, None) is None:
            del self._messages[transfer.flow_id]
        if not transfer.event.triggered:
            transfer.event.defused = True
            transfer.event.fail(exception)

    def _complete_after(self, event, latency, nbytes):
        def complete(_timer=None):
            if not event.triggered:
                event.succeed(nbytes)

        if latency > 0:
            self.sim.timeout(latency).callbacks.append(complete)
        else:
            complete()

    def _advance(self):
        """Account bytes moved since the last update at current rates."""
        elapsed = self.sim.now - self._last_update
        self._last_update = self.sim.now
        if elapsed <= 0 or not self._flows:
            return
        finished = []
        for flow in self._flows.values():
            moved = flow.rate * elapsed
            flow.remaining -= moved
            for port in flow.ports:
                self.port_bytes[port] = self.port_bytes.get(port, 0.0) + moved
            if flow.remaining <= EPSILON_BYTES:
                finished.append(flow)
        for flow in finished:
            del self._flows[flow.flow_id]
            self._complete_after(flow.event, flow.latency, flow.remaining)

    def _reallocate(self):
        """Water-fill every flow, then wake up at the first completion."""
        flows = list(self._flows.values())
        residual = {}
        port_flows = {}
        for flow in flows:
            flow.rate = 0.0
            for port in flow.ports:
                residual.setdefault(port, port.effective_capacity)
                port_flows.setdefault(port, set()).add(flow.flow_id)
        unfrozen = {f.flow_id: f for f in flows}
        while unfrozen:
            # Freeze the flows of the port offering the smallest fair share.
            best_share = None
            best_port = None
            for port, members in port_flows.items():
                live = members & unfrozen.keys()
                if not live:
                    continue
                share = residual[port] / len(live)
                if best_share is None or share < best_share:
                    best_share = share
                    best_port = port
            if best_port is None:
                raise SimulationError("flow crossing no port")
            for flow_id in list(port_flows[best_port] & unfrozen.keys()):
                flow = unfrozen.pop(flow_id)
                flow.rate = best_share
                for port in flow.ports:
                    residual[port] -= best_share
        self._schedule_wakeup()

    def _schedule_wakeup(self):
        if not self._flows:
            return
        horizon = float("inf")
        for flow in self._flows.values():
            if flow.rate > 0:
                horizon = min(horizon, flow.remaining / flow.rate)
            elif not any(p.effective_capacity <= 0 for p in flow.ports):
                raise SimulationError("flow with zero allocated rate")
        if horizon == float("inf"):
            return  # everything is frozen behind a stalled port
        # Same one-microsecond clamp as the engine: a smaller delay vanishes
        # in float addition at large clock values.
        horizon = max(horizon, 1e-6)
        marker = object()
        self._wakeup = marker

        def waker(_event):
            if self._wakeup is marker:
                self._wakeup = None
                self._advance()
                self._reallocate()

        self.sim.timeout(horizon).callbacks.append(waker)
