"""Handover markers, the protocol's phase table, and execution state (§4.1).

A handover discretizes query execution into configuration epochs: the
marker ``h_t`` flows from the sources through every dataflow channel; each
instance aligns on it, performs its role-specific routine (rewire /
migrate / load), and acknowledges the Handover Manager.  The execution
object follows one reconfiguration from acceptance to its end: journal
phase, acknowledgments, state-transfer rendezvous, and the timing
breakdown reported in Table 1.
"""

from collections import namedtuple

from repro.engine.records import AlignedMarker
from repro.obs import phase_span

#: What a control-plane takeover does with a reconfiguration it finds in a
#: phase: *abandon* it (nothing beyond spawned targets was touched), or
#: *resolve* it (commit if every expected participant acked, otherwise
#: roll back).
ABANDON = "abandon"
RESOLVE = "resolve"

#: One journal record kind of the handover protocol: the phase the record
#: moves its reconfiguration to (None: unchanged) and what a takeover does
#: from that phase.
Step = namedtuple("Step", "kind phase takeover")

ACCEPTED = "handover.accepted"
ACK = "handover.ack"
COMMITTED = "handover.committed"
ABORTED = "handover.aborted"

#: The handover protocol, written once: every record kind a reconfiguration
#: journals on its way to a commit, in protocol order.  ``ACK`` adds a
#: participant and leaves the phase alone; ``COMMITTED`` closes the
#: reconfiguration, as ``ABORTED`` does on the abort path.
PHASE_TABLE = (
    Step(ACCEPTED, "accepted", ABANDON),
    Step("handover.prepared", "prepared", RESOLVE),
    Step("handover.marker", "marker", RESOLVE),
    Step("handover.state-shipped", "state-shipped", RESOLVE),
    Step("handover.origin-drained", "origin-drained", RESOLVE),
    Step("handover.target-resumed", "target-resumed", RESOLVE),
    Step(ACK, None, None),
    Step(COMMITTED, None, None),
)
#: Record kind -> the phase it sets.
PHASE_SET_BY = {step.kind: step.phase for step in PHASE_TABLE if step.phase}
#: Phase -> what a takeover does from it.
TAKEOVER_FROM = {step.phase: step.takeover for step in PHASE_TABLE if step.phase}


class HandoverAborted(Exception):
    """A participant died mid-handover; the protocol rolled back.

    The paper leaves handover fault tolerance as future work ("a failure
    that occurs during a handover may restart the protocol", §4.1.2); this
    reproduction implements the restartable variant: the handover aborts,
    origins re-adopt their virtual nodes, routing reverts, the in-flight
    gap replays from upstream backup, and the caller may retry.
    """

    def __init__(self, handover_id, machine):
        super().__init__(
            f"handover {handover_id} aborted: {machine.name} failed mid-protocol"
        )
        self.handover_id = handover_id
        self.machine = machine


class HandoverMarker(AlignedMarker):
    """The control event that triggers epoch alignment for a handover.

    One marker may carry several plans: a machine failure migrates every
    instance the machine hosted in a single reconfiguration.
    """

    __slots__ = ("handover_id", "plans", "epoch")

    def __init__(self, handover_id, plans, timestamp):
        super().__init__(timestamp)
        self.handover_id = handover_id
        self.plans = plans
        #: Control-plane epoch the marker was minted under (None when the
        #: control plane is unreplicated); workers fence stale epochs.
        self.epoch = None

    @property
    def marker_id(self):
        """Unique alignment key of this marker."""
        return ("handover", self.handover_id)

    def __repr__(self):
        return f"<HandoverMarker #{self.handover_id} t={self.timestamp:.3f}>"


class HandoverReport:
    """Timing breakdown of one reconfiguration (Table 1's columns).

    The report keeps no clock of its own.  The barrier's phase times are
    read off its phase spans, the ones a tracer records: each is the
    longest span of its phase that completed (a span closed with a
    ``status`` -- ``port-failed``, ``aborted`` -- did not).  The pre-copy
    times are read off the plans' pre-copy outcomes.
    """

    def __init__(self, handover_id, reason):
        self.handover_id = handover_id
        self.reason = reason
        self.triggered_at = None
        self.completed_at = None
        #: The phase spans: scheduling, transfer and every instance's
        #: fetching / loading (see HandoverExecution.open_phase).
        self.spans = []
        #: id(plan) -> PrecopyOutcome of the plans that were pre-copied;
        #: origins read their cutoff seq here.
        self.precopy = {}
        #: Modeled bytes moved over the network for state migration.
        self.migrated_bytes = 0
        #: Modeled bytes of state that changed ownership.
        self.moved_state_bytes = 0
        #: Phase accounting.  Without a pre-copy the pre-copy/delta fields
        #: stay zero; whatever ships behind the barrier counts as cutover.
        self.precopy_bytes = 0
        self.precopy_chunks = 0
        self.delta_bytes = 0
        self.delta_rounds = 0
        self.cutover_bytes = 0

    @property
    def precopy_seconds(self):
        """The slowest plan's background pre-copy."""
        return max((o.precopy_seconds for o in self.precopy.values()), default=0.0)

    @property
    def delta_seconds(self):
        """The slowest plan's delta catch-up rounds."""
        return max((o.delta_seconds for o in self.precopy.values()), default=0.0)

    def _longest(self, name, role=None):
        return max(
            (
                span.duration
                for span in self.spans
                if span.name == name
                and span.end is not None
                and "status" not in span.tags
                and (role is None or span.tags.get("role") == role)
            ),
            default=0.0,
        )

    @property
    def scheduling_seconds(self):
        """Trigger (or end of pre-copy) to markers injected."""
        return self._longest("handover.scheduling")

    @property
    def fetching_seconds(self):
        """Moving state to the target (slowest instance, either role)."""
        return self._longest("handover.fetching")

    @property
    def loading_seconds(self):
        """Loading the fetched state into the target's backend."""
        return self._longest("handover.loading")

    @property
    def cutover_seconds(self):
        """Shipping what the target lacks behind the barrier (origins)."""
        return self._longest("handover.fetching", role="origin")

    @property
    def total_seconds(self):
        """Trigger-to-completion duration in seconds (None while running)."""
        if self.completed_at is None or self.triggered_at is None:
            return None
        return self.completed_at - self.triggered_at

    def phase_breakdown(self):
        """Per-phase byte/time accounting as a plain dict (for reports)."""
        return {
            "precopy_bytes": self.precopy_bytes,
            "precopy_chunks": self.precopy_chunks,
            "precopy_seconds": self.precopy_seconds,
            "delta_bytes": self.delta_bytes,
            "delta_rounds": self.delta_rounds,
            "delta_seconds": self.delta_seconds,
            "cutover_bytes": self.cutover_bytes,
            "cutover_seconds": self.cutover_seconds,
        }

    def __repr__(self):
        return (
            f"<HandoverReport #{self.handover_id} {self.reason}: "
            f"sched={self.scheduling_seconds:.2f}s "
            f"fetch={self.fetching_seconds:.2f}s "
            f"load={self.loading_seconds:.2f}s>"
        )


class HandoverExecution:
    """One reconfiguration, from its acceptance to its commit or abort.

    Created when the Handover Manager accepts the plans; :meth:`prepare`
    fixes the participants and opens the Table 1 report once the
    handover has an id and its targets exist.
    """

    def __init__(self, sim, plans, trigger_time):
        self.sim = sim
        self.plans = plans
        self.trigger_time = trigger_time
        #: Journal key of this reconfiguration (None without a control
        #: group: nothing is journaled).
        self.reconfig_id = None
        #: Phase of the newest journaled transition (see PHASE_TABLE).
        self.phase = PHASE_TABLE[0].phase
        #: Set at ``prepared``.
        self.handover_id = None
        self.report = None
        self.expected = set()
        self.acked = set()
        #: The driver Process running the protocol (interrupted when the
        #: control plane's leader is lost).
        self.process = None
        #: The journaled ``handover.accepted`` record; the driver blocks
        #: until it commits.
        self.accepted_record = None
        self.done = sim.event()
        self._state_ready = {}  # plan -> Event carrying (tables, cutoff_ts)
        #: Per-source emission frontier at rewire time: the exact boundary
        #: between records routed with the old and the new configuration
        #: (needed to roll a broken handover back without loss).
        self.source_frontiers = {}
        #: The root trace span of this handover (NULL_SPAN when untraced);
        #: per-instance fetch/load spans nest under it.
        self.root_span = None
        #: Optional callback(instance_id) fired on every ack -- the
        #: Handover Manager journals acks through it under a control group.
        self.on_ack = None

    def prepare(self, handover_id, expected_acks):
        """Fix the handover id and the participants; open the report."""
        self.handover_id = handover_id
        self.expected = set(expected_acks)
        self.report = HandoverReport(handover_id, self.plans[0].reason)
        self.report.triggered_at = self.trigger_time
        return self.report

    def open_phase(self, name, **tags):
        """Open one of the report's phase spans under the root span."""
        tags = {"handover": self.handover_id, **tags}
        span = phase_span(self.sim, name, "handover", self.root_span, **tags)
        self.report.spans.append(span)
        return span

    def state_ready_event(self, plan):
        """The rendezvous event carrying the plan's restore payload."""
        event = self._state_ready.get(id(plan))
        if event is None:
            event = self._state_ready[id(plan)] = self.sim.event()
        return event

    def publish_state(self, plan, tables, cutoff_ts=None, origin_progress=None):
        """Resolve the plan's state rendezvous with (tables, cutoff, frontier)."""
        event = self.state_ready_event(plan)
        if not event.triggered:
            event.succeed((tables, cutoff_ts, origin_progress))

    def ack(self, instance_id):
        """Record one participant's acknowledgment; completes when all arrive."""
        self.acked.add(instance_id)
        if self.on_ack is not None:
            self.on_ack(instance_id)
        if self.expected <= self.acked and not self.done.triggered:
            self.report.completed_at = self.sim.now
            self.done.succeed(self.report)

    def forget(self, instance_id):
        """Remove a dead participant so completion is still reachable."""
        self.expected.discard(instance_id)
        if self.expected <= self.acked and not self.done.triggered:
            self.report.completed_at = self.sim.now
            self.done.succeed(self.report)

    def abort(self, exception):
        """Fail the execution (a critical participant died)."""
        for event in self._state_ready.values():
            if not event.triggered:
                event.defused = True
                event.fail(exception)
        if not self.done.triggered:
            self.done.defused = True
            self.done.fail(exception)
