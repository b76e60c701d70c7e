"""Max-min fair fluid-flow scheduling over shared ports.

Network interfaces and disks are modeled as *ports* with a byte/second
capacity.  A *flow* moves a number of bytes through a set of ports (e.g. the
sender's NIC egress and the receiver's NIC ingress); concurrent flows share
port capacity with **max-min fairness** (progressive filling / water-filling
[Bertsekas & Gallager]), which is the standard fluid approximation of
TCP-fair sharing and of fair-queued disk schedulers.

The scheduler is event-driven: whenever a flow starts or finishes it
recomputes the allocation and schedules a wake-up at the earliest projected
completion.  This reproduces the timing arithmetic that dominates the
paper's recovery and migration costs (who moves how many bytes over which
bottleneck) without simulating packets.

The solver is *incremental*: max-min fair allocations decompose over
*connected components* of the flow/port sharing graph, so only the
component touched by a change is re-solved, and because the allocation is
unique and the per-component arithmetic is that of a global solve
restricted to the component, untouched components keep their rates
bit-for-bit.  Solves for a burst of changes at one simulated instant are
coalesced into a single pass via the kernel's end-of-instant hook, and the
projected completion wake-up is managed through a small due-time heap
instead of leaking one kernel timeout per reallocation.

Water-filling counts instead of intersecting: each port keeps its flow
list and a count of unfrozen flows, decremented as flows freeze, so a
lone flow closes in one round.  A removal that empties a port drops its
rate sum on the spot and leaves nothing to re-solve.  A positive-size
transfer must cross at least one port.

*Messages are not flows.*  A transfer that drains alone at its tightest
port within :data:`MESSAGE_SECONDS` (``nbytes / min(effective_capacity)``)
holds no rate and never enters the solver: one kernel event at ``now +
drain``, shared by the messages draining then, charges ``port_bytes`` and
lands each after its latency, as a finished flow lands.  Port failures and
severs fail it in id order with the flows; ``active_flows()`` lists it.
Over a stalled port it stays a flow and freezes.  Not modelled: a message
takes no share from bulk flows, and one in flight ignores a later slow link.

The oracle is a whole-graph solver kept apart from this module, in
``tests/reference_flows.py``: it re-solves every flow and port on every
arrival, completion and failure -- simple, obviously correct, and
quadratic in the number of concurrent flows.  The property tests in
``tests/test_flow_solver_equivalence.py`` assert rate-for-rate and
completion-for-completion equality against it on randomized topologies.
"""

import heapq
import itertools

from repro.common.errors import SimulationError

#: Bytes below this are considered fully transferred (float tolerance).
_EPSILON_BYTES = 1e-6

#: Drain time at or below which a transfer is a message (module docstring).
MESSAGE_SECONDS = 1e-3


class Port:
    """A capacity-limited endpoint (NIC direction, disk read/write head).

    Besides the binary ``enabled`` flag (machine death), a port supports
    *gray* degradation for chaos injection:

    * ``capacity_scale`` -- multiplies the nominal capacity (``0.1`` models
      a slow link, ``0.0`` a stalled disk head: flows freeze but survive);
    * ``extra_latency`` -- additional propagation delay per transfer;
    * ``loss_probability`` -- per-transfer probability that the flow fails
      with :class:`FlowLost` (only drawn when the scheduler carries a
      seeded ``loss_rng``, so undisturbed runs never touch the RNG).
    """

    __slots__ = (
        "name",
        "capacity",
        "enabled",
        "capacity_scale",
        "extra_latency",
        "loss_probability",
    )

    def __init__(self, name, capacity):
        if capacity <= 0:
            raise SimulationError(f"port {name}: capacity must be positive")
        self.name = name
        self.capacity = float(capacity)
        self.enabled = True
        self.capacity_scale = 1.0
        self.extra_latency = 0.0
        self.loss_probability = 0.0

    @property
    def effective_capacity(self):
        """Capacity after degradation (bytes/second)."""
        return self.capacity * self.capacity_scale

    @property
    def degraded(self):
        """True while any gray-failure mode is active."""
        return (
            self.capacity_scale != 1.0
            or self.extra_latency != 0.0
            or self.loss_probability != 0.0
        )

    def degrade(self, capacity_scale=None, extra_latency=None, loss_probability=None):
        """Apply gray-failure modes (None leaves a mode unchanged)."""
        if capacity_scale is not None:
            if capacity_scale < 0:
                raise SimulationError(f"port {self.name}: negative capacity scale")
            self.capacity_scale = float(capacity_scale)
        if extra_latency is not None:
            if extra_latency < 0:
                raise SimulationError(f"port {self.name}: negative extra latency")
            self.extra_latency = float(extra_latency)
        if loss_probability is not None:
            if not 0.0 <= loss_probability <= 1.0:
                raise SimulationError(
                    f"port {self.name}: loss probability outside [0, 1]"
                )
            self.loss_probability = float(loss_probability)
        return self

    def restore(self):
        """Clear every gray-failure mode (capacity, latency, loss)."""
        self.capacity_scale = 1.0
        self.extra_latency = 0.0
        self.loss_probability = 0.0
        return self

    def __repr__(self):
        return f"<Port {self.name} {self.capacity:.0f} B/s>"


class TransferFailed(SimulationError):
    """Base class for transfers that did not deliver their bytes.

    Hardened protocol paths (replication hops, DFS pipelines, the data
    exchange fabric) catch this base and retry; the concrete subclass
    tells them whether the cause is fatal (:class:`PortFailed`: the
    machine is gone) or transient (:class:`FlowLost`, a partition).
    """


class PortFailed(TransferFailed):
    """A flow's port was disabled (machine death) mid-transfer."""

    def __init__(self, port):
        self.port = port
        super().__init__(f"port {port.name} failed mid-transfer")


class FlowLost(TransferFailed):
    """A lossy link dropped the flow (gray failure, retryable)."""

    def __init__(self, port):
        self.port = port
        super().__init__(f"flow lost on lossy port {port.name}")


class _Flow:
    __slots__ = ("flow_id", "remaining", "ports", "rate", "event", "latency", "tag")

    def __init__(self, flow_id, nbytes, ports, event, latency, tag):
        self.flow_id = flow_id
        self.remaining = float(nbytes)
        self.ports = ports
        self.rate = 0.0
        self.event = event
        self.latency = latency
        self.tag = tag


class FlowScheduler:
    """Schedules fluid flows over shared ports with max-min fairness."""

    def __init__(self, sim):
        self.sim = sim
        self._flows = {}
        #: In-flight messages by id (insertion, hence id, order), and by
        #: drain time: messages draining at one instant share one event.
        self._messages = {}
        self._drains = {}
        self._ids = itertools.count()
        self._last_update = 0.0
        #: Cumulative bytes moved per port, for utilization accounting.
        self.port_bytes = {}
        #: Seeded RNG for lossy-link draws.  ``None`` (the default) means
        #: loss probabilities are never sampled, so undisturbed runs make
        #: zero RNG calls and stay bit-identical to pre-chaos behavior.
        self.loss_rng = None
        #: port -> set of flow ids currently crossing it (sharing index).
        self._port_flows = {}
        #: port -> aggregate allocated rate, for O(ports) byte accounting.
        self._port_rate_sum = {}
        #: Flow ids / ports whose component must be re-solved.
        self._dirty_flows = set()
        self._dirty_ports = set()
        #: True while a solve / wake-up reschedule is owed for this instant.
        self._solve_pending = False
        self._wakeup_pending = False
        self._hook_armed = False
        #: The operative projected-completion due time (None: no wake-up).
        self._due = None
        #: Due times of live kernel wake-up events (min-heap).  Superseded
        #: entries are not cancelled; they no-op on pop and re-arm the
        #: operative due time, keeping the kernel queue O(active flows).
        self._kernel_heap = []

    # -- public API ----------------------------------------------------

    def transfer(self, nbytes, ports, latency=0.0, tag=None):
        """Move ``nbytes`` through all of ``ports``; returns a completion
        event whose value is the number of bytes moved.

        ``latency`` is a fixed propagation delay added after the last byte
        drains.  A transfer of zero bytes completes after ``latency``.
        The event is *triggered* when the bytes drain but *processed* --
        its waiters resumed -- only after the latency: wait on it, or test
        ``processed``, never ``triggered``.
        """
        if nbytes < 0:
            raise SimulationError("transfer of negative size")
        if latency < 0:
            raise SimulationError(f"negative transfer latency {latency!r}")
        extra_latency = 0
        capacity = float("inf")
        for port in ports:
            if not port.enabled:
                event = self.sim.event()
                event.fail(PortFailed(port))
                return event
            extra_latency += port.extra_latency
            capacity = min(capacity, port.effective_capacity)
        event = self.sim.event()
        if self.loss_rng is not None:
            for port in ports:
                if port.loss_probability > 0.0 and (
                    self.loss_rng.random() < port.loss_probability
                ):
                    event.fail(FlowLost(port))
                    return event
        latency = latency + extra_latency
        if nbytes <= _EPSILON_BYTES:
            event.succeed(nbytes, delay=latency)
            return event
        if not ports:
            # Nothing would bound its rate; only a zero-byte transfer
            # (a same-machine hand-off) may cross no port.
            raise SimulationError("flow crossing no port")
        flow = _Flow(next(self._ids), nbytes, list(ports), event, latency, tag)
        flow_id = flow.flow_id
        if capacity > 0 and nbytes / capacity <= MESSAGE_SECONDS:
            self._messages[flow_id] = flow
            due = self.sim.now + nbytes / capacity
            draining = self._drains.setdefault(due, [])
            if not draining:
                self.sim.at(due, due).callbacks.append(self._deliver)
            draining.append(flow)
            return event
        self._advance()
        self._flows[flow_id] = flow
        port_flows = self._port_flows
        for port in flow.ports:
            members = port_flows.get(port)
            if members is None:
                members = port_flows[port] = set()
            members.add(flow_id)
        self._dirty_flows.add(flow_id)
        self._request_solve()
        return event

    def active_flows(self):
        """Snapshot of in-flight flows as (tag, remaining, rate) tuples,
        then in-flight messages as (tag, nbytes, 0.0)."""
        self._advance()
        self._flush()
        return [
            (f.tag, f.remaining, f.rate)
            for f in itertools.chain(self._flows.values(), self._messages.values())
        ]

    def port_rate(self, port):
        """Current aggregate allocated rate on ``port`` (bytes/second)."""
        self._advance()
        self._flush()
        flows = self._flows
        return sum(flows[fid].rate for fid in sorted(self._port_flows.get(port, ())))

    def fail_ports(self, ports):
        """Disable several ports at once, failing what crosses them.

        One advance and one (deferred) re-solve cover the whole batch --
        a machine death takes down six ports in a single pass instead of
        six global reallocations.
        """
        for port in ports:
            port.enabled = False
        self._advance()
        for port in ports:
            self._fail(
                [self._flows[fid] for fid in sorted(self._port_flows.get(port, ()))],
                lambda crossed: port in crossed,
                lambda _flow: PortFailed(port),
            )

    def enable_port(self, port):
        """Re-enable a disabled port."""
        port.enabled = True

    def fail_flows_matching(self, predicate, make_exception):
        """Fail every flow and message whose ports satisfy ``predicate``.

        Used by :meth:`Cluster.partition` to sever cross-group transfers
        already on the wire.  ``predicate(ports)`` selects flows;
        ``make_exception(flow)`` builds the failure each waiter receives.
        """
        self._advance()
        return self._fail(
            [f for f in self._flows.values() if predicate(f.ports)],
            predicate,
            make_exception,
        )

    def reallocate(self, ports):
        """Recompute allocations after port capacities changed externally.

        Chaos injection (slow links, disk stalls) mutates
        ``Port.capacity_scale`` outside the scheduler's view; callers must
        invoke this with the affected ``ports`` so in-flight flows feel
        the new rates immediately.  Only the touched components are
        re-solved.
        """
        self._advance()
        self._dirty_ports.update(ports)
        self._request_solve()

    # -- internals -------------------------------------------------------

    def _fail(self, flows, predicate, make_exception):
        """Fail ``flows`` and the messages whose ports satisfy ``predicate``,
        in id order, defused (a live waiter still receives the exception; an
        orphaned transfer must not crash the run); returns how many failed."""
        messages = [m for m in self._messages.values() if predicate(m.ports)]
        if messages:
            flows = sorted(flows + messages, key=lambda f: f.flow_id)
        for flow in flows:
            if self._messages.pop(flow.flow_id, None) is None:
                self._remove_flow(flow)
                self._request_solve()
            if not flow.event.triggered:
                flow.event.defused = True
                flow.event.fail(make_exception(flow))
        return len(flows)

    def _deliver(self, wakeup):
        """Messages drained: charge their ports, land each after its latency."""
        port_bytes = self.port_bytes
        for message in self._drains.pop(wakeup.value):
            if self._messages.pop(message.flow_id, None) is None:
                continue  # failed in flight
            for port in message.ports:
                port_bytes[port] = port_bytes.get(port, 0.0) + message.remaining
            message.event.succeed(0.0, delay=message.latency)

    def _advance(self):
        """Account bytes moved since the last update at current rates."""
        elapsed = self.sim.now - self._last_update
        self._last_update = self.sim.now
        if elapsed <= 0 or not self._flows:
            return
        port_bytes = self.port_bytes
        for port, rate in self._port_rate_sum.items():
            port_bytes[port] = port_bytes.get(port, 0.0) + rate * elapsed
        finished = None
        for flow in self._flows.values():
            rate = flow.rate
            if rate:
                remaining = flow.remaining - rate * elapsed
                flow.remaining = remaining
                if remaining <= _EPSILON_BYTES:
                    if finished is None:
                        finished = []
                    finished.append(flow)
        if finished:
            for flow in finished:
                self._remove_flow(flow)
                # One kernel event: triggered now, processed (waiters
                # resumed) once the propagation delay has passed.
                flow.event.succeed(flow.remaining, delay=flow.latency)

    def _remove_flow(self, flow):
        """Drop a flow from the live set and every sharing index."""
        del self._flows[flow.flow_id]
        flow_id = flow.flow_id
        rate = flow.rate
        port_flows = self._port_flows
        rate_sum = self._port_rate_sum
        dirty_ports = self._dirty_ports
        for port in flow.ports:
            members = port_flows.get(port)
            if members is None:
                continue  # a port listed twice, emptied at its first listing
            members.discard(flow_id)
            if not members:
                # Nothing is left to share it: no solve needed, even if an
                # earlier removal or reallocate() this instant dirtied it.
                del port_flows[port]
                rate_sum.pop(port, None)
                dirty_ports.discard(port)
                continue
            if rate:
                rate_sum[port] = rate_sum.get(port, 0.0) - rate
            # The freed share belongs to whoever remains on the component.
            dirty_ports.add(port)
        self._dirty_flows.discard(flow_id)

    def _request_solve(self):
        """Owe a re-solve (and wake-up reschedule) for this instant.

        A burst of ``transfer()`` calls at one timestamp arms the kernel's
        end-of-instant hook once and triggers a single coalesced solve,
        instead of one full reallocation per call.
        """
        self._solve_pending = True
        self._wakeup_pending = True
        if not self._hook_armed:
            self._hook_armed = True
            self.sim.at_instant_end(self._end_of_instant)

    def _flush(self):
        """Run a pending solve now so queries observe current allocations."""
        if self._solve_pending:
            self._solve_now()

    def _end_of_instant(self):
        self._hook_armed = False
        if self._solve_pending:
            self._solve_now()
        if self._wakeup_pending:
            self._wakeup_pending = False
            self._compute_due()

    def _solve_now(self):
        """Re-run water-filling for every component touched since the last
        solve.  Untouched components keep their allocations (max-min fair
        rates are unique, and the per-component arithmetic is identical to
        a full solve restricted to that component)."""
        self._solve_pending = False
        flows, touched_ports = self._collect_components()
        rate_sum = self._port_rate_sum
        if not flows:
            # Only idle ports were reallocated: no flow to re-rate.
            for port in touched_ports:
                rate_sum.pop(port, None)
            return
        self._waterfill(flows)
        for flow in flows:
            if flow.rate <= 0 and not any(
                p.effective_capacity <= 0 for p in flow.ports
            ):
                # Zero rate is only legal while a port is stalled
                # (capacity scaled to zero); anything else is an
                # allocator bug and must not hang silently.
                raise SimulationError("flow with zero allocated rate")
        sums = {}
        for flow in flows:
            rate = flow.rate
            for port in flow.ports:
                sums[port] = sums.get(port, 0.0) + rate
        for port in touched_ports:
            total = sums.get(port, 0.0)
            if total:
                rate_sum[port] = total
            else:
                rate_sum.pop(port, None)

    def _collect_components(self):
        """Flows of every connected component touched by a dirty flow or
        port, in flow-id order, plus every port whose aggregate rate may
        have changed."""
        flows_by_id = self._flows
        port_flows = self._port_flows
        dirty_ports = self._dirty_ports
        seen_flows = set()
        seen_ports = set()
        stack = []
        for flow_id in self._dirty_flows:
            flow = flows_by_id.get(flow_id)
            if flow is None:
                continue
            seen_flows.add(flow_id)
            stack.extend(flow.ports)
        stack.extend(dirty_ports)
        self._dirty_flows.clear()
        dirty_ports.clear()
        while stack:
            port = stack.pop()
            if port in seen_ports:
                continue
            seen_ports.add(port)
            for flow_id in port_flows.get(port, ()):
                if flow_id not in seen_flows:
                    seen_flows.add(flow_id)
                    for other in flows_by_id[flow_id].ports:
                        if other not in seen_ports:
                            stack.append(other)
        flows = [flows_by_id[fid] for fid in sorted(seen_flows)]
        return flows, seen_ports

    def _waterfill(self, flows):
        """Water-filling max-min fair allocation over ``flows``.

        This is, deliberately, the arithmetic of the whole-graph reference
        (``tests/reference_flows.py``) operation for operation: the same
        port order, the same first-port-wins tie break and the same
        ``residual -= share`` sequence make the per-component solve
        bit-identical to a global solve restricted to the component.  The
        reference intersects each port's members with the unfrozen flows
        every round; here each port keeps a count of its unfrozen flows,
        decremented as they freeze.  Within one round every subtrahend is
        the same ``best_share``, so freezing order cannot change a value.
        """
        residual = {}
        members = {}  # port -> the flows crossing it, each once
        repeated = None  # flow -> its distinct ports, when it lists one twice
        for flow in flows:
            for port in flow.ports:
                crossing = members.get(port)
                if crossing is None:
                    residual[port] = port.effective_capacity
                    members[port] = [flow]
                elif crossing[-1] is not flow:
                    crossing.append(flow)
                else:
                    if repeated is None:
                        repeated = {}
                    repeated[flow] = list(dict.fromkeys(flow.ports))
        live = {port: len(crossing) for port, crossing in members.items()}
        frozen = set()
        unfrozen = len(flows)
        while unfrozen:
            # The bottleneck port is the one offering the smallest fair share.
            best_share = None
            best_port = None
            for port, count in live.items():
                if count:
                    share = residual[port] / count
                    if best_share is None or share < best_share:
                        best_share = share
                        best_port = port
            for flow in members[best_port]:
                if flow in frozen:
                    continue
                frozen.add(flow)
                unfrozen -= 1
                flow.rate = best_share
                ports = flow.ports
                for port in ports:
                    residual[port] -= best_share
                if repeated is not None:
                    ports = repeated.get(flow, ports)
                for port in ports:
                    live[port] -= 1

    def _compute_due(self):
        """Project the earliest completion and arm a kernel wake-up for it.

        Exactly one due time is operative at any moment.  Kernel events
        whose due time was superseded no-op on firing and, when the
        operative due moved *later*, re-arm it -- so flow arrivals (which
        only push completions out) never grow the kernel queue.
        """
        if not self._flows:
            self._due = None
            return
        horizon = float("inf")
        for flow in self._flows.values():
            rate = flow.rate
            if rate > 0:
                h = flow.remaining / rate
                if h < horizon:
                    horizon = h
        if horizon == float("inf"):
            # Every flow is frozen behind a stalled port; the next
            # reallocate() (on heal) will resume them.
            self._due = None
            return
        # Clamp below one microsecond: at large clock values a smaller
        # delay vanishes in float addition and the wake-up would spin
        # forever at the same instant.  Overshooting completes the flow.
        horizon = max(horizon, 1e-6)
        due = self.sim.now + horizon
        self._due = due
        heap = self._kernel_heap
        if not heap or due < heap[0]:
            heapq.heappush(heap, due)
            self.sim.at(due).callbacks.append(self._on_wakeup)

    def _on_wakeup(self, _event):
        heapq.heappop(self._kernel_heap)
        due = self._due
        if due is None:
            return
        if due <= self.sim.now:
            # The operative wake-up: advance flows (completing the due
            # ones) and re-solve the components they leave behind.
            self._due = None
            self._advance()
            self._request_solve()
        else:
            # Superseded entry; re-arm the operative due time if no other
            # live kernel wake-up covers it.
            heap = self._kernel_heap
            if not heap or due < heap[0]:
                heapq.heappush(heap, due)
                self.sim.at(due).callbacks.append(self._on_wakeup)
