"""Handover markers and per-handover execution state (§4.1).

A handover discretizes query execution into configuration epochs: the
marker ``h_t`` flows from the sources through every dataflow channel; each
instance aligns on it, performs its role-specific routine (rewire /
migrate / load), and acknowledges the Handover Manager.  The execution
object tracks acknowledgments, state-transfer rendezvous, and the timing
breakdown reported in Table 1.
"""

import itertools

from repro.engine.records import AlignedMarker

_handover_ids = itertools.count(1)


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


def next_handover_id():
    """A fresh monotonically increasing handover id."""
    return next(_handover_ids)


class HandoverReport:
    """Timing breakdown of one reconfiguration (Table 1's columns)."""

    def __init__(self, handover_id, reason):
        self.handover_id = handover_id
        self.reason = reason
        self.triggered_at = None
        self.completed_at = None
        #: Time spent triggering the reconfiguration (spawning/replacing
        #: instances, injecting markers).
        self.scheduling_seconds = 0.0
        #: Time spent moving state to the target worker (max across plans).
        self.fetching_seconds = 0.0
        #: Time spent loading checkpointed state into the state backend.
        self.loading_seconds = 0.0
        #: Modeled bytes moved over the network for state migration.
        self.migrated_bytes = 0
        #: Modeled bytes of state that changed ownership.
        self.moved_state_bytes = 0
        #: Phase accounting.  Without a pre-copy the pre-copy/delta fields
        #: stay zero; whatever ships behind the barrier counts as cutover.
        self.precopy_bytes = 0
        self.precopy_chunks = 0
        self.precopy_seconds = 0.0
        self.delta_bytes = 0
        self.delta_rounds = 0
        self.delta_seconds = 0.0
        self.cutover_bytes = 0
        self.cutover_seconds = 0.0

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
    """Book-keeping of one in-flight handover."""

    def __init__(self, sim, handover_id, plans, expected_acks, reason):
        self.sim = sim
        self.handover_id = handover_id
        self.plans = plans
        self.expected = set(expected_acks)
        self.acked = set()
        self.report = HandoverReport(handover_id, reason)
        self.done = sim.event()
        self._state_ready = {}  # plan -> Event carrying (tables, cutoff_ts)
        #: Per-source emission frontier at rewire time: the exact boundary
        #: between records routed with the old and the new configuration
        #: (needed to roll a broken handover back without loss).
        self.source_frontiers = {}
        #: Plans whose origin completed its routine (checkpoint taken,
        #: ownership dropped); used by abort rollback.
        self.origin_completed = {}
        #: id(plan) -> PrecopyOutcome of the plans that were pre-copied;
        #: origins read their cutoff seq here.
        self.precopy = {}
        self.aborted = False
        #: The root trace span of this handover (NULL_SPAN when untraced);
        #: per-instance fetch/load spans nest under it.
        self.root_span = None
        #: Optional callback(instance_id) fired on every ack -- the
        #: Handover Manager journals acks through it under a control group.
        self.on_ack = None

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
        self.aborted = True
        for event in self._state_ready.values():
            if not event.triggered:
                event.defused = True
                event.fail(exception)
        if not self.done.triggered:
            self.done.defused = True
            self.done.fail(exception)
