"""The job coordinator: periodic checkpoints and completed-checkpoint registry.

Implements the epoch-based distributed checkpointing of Carbone et al.
(§2.2.1): the coordinator asks every source to inject a numbered barrier;
instances align, snapshot incrementally, and acknowledge; once all
acknowledgments (and asynchronous persistence) land, the checkpoint is
*completed* and becomes the rollback target for recovery and the unit of
Rhino's proactive replication.
"""

from repro.common.errors import EngineError


class CompletedCheckpoint:
    """All metadata needed to roll a query back to this checkpoint."""

    def __init__(self, checkpoint_id, triggered_at):
        self.checkpoint_id = checkpoint_id
        self.triggered_at = triggered_at
        self.completed_at = None
        self.checkpoints = {}  # instance_id -> kvs Checkpoint
        self.offsets = {}  # source instance_id -> log offset

    def __repr__(self):
        return f"<CompletedCheckpoint {self.checkpoint_id}>"


class _PendingCheckpoint:
    def __init__(self, checkpoint_id, expected, triggered_at, span=None):
        self.record = CompletedCheckpoint(checkpoint_id, triggered_at)
        self.expected = set(expected)
        self.acked = set()
        self.persists = []
        #: Trace span covering trigger -> completion/abort (None untraced).
        self.span = span


class Coordinator:
    """Triggers checkpoints and tracks their completion."""

    def __init__(self, sim, job, interval):
        self.sim = sim
        self.job = job
        self.interval = interval
        self.completed = []  # CompletedCheckpoint, oldest first
        self.checkpoint_listeners = []  # callbacks(completed_checkpoint)
        self._pending = {}
        self._next_id = 0
        self._process = None
        self._suspended = False
        #: Optional ControlJournal; when set, checkpoint transitions are WAL'd.
        self.journal = None
        #: Fenced after a coordinator crash until the standby takes over.
        self._crashed = False

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        """Start the background process; returns it."""
        if self.interval is None:
            return None
        self._process = self.sim.process(self._run(), name="coordinator")
        return self._process

    def stop(self):
        """Stop the background process (no-op if not running)."""
        if self._process is not None and self._process.is_alive:
            self._process.defused = True
            self._process.interrupt("coordinator-stop")
        self._process = None

    def suspend(self):
        """Pause checkpoint triggering (a handover is in flight, §4.1.2)."""
        self._suspended = True

    def resume(self):
        """Resume periodic checkpoint triggering."""
        self._suspended = False

    @property
    def checkpoint_in_flight(self):
        """True while any checkpoint is pending."""
        return bool(self._pending)

    def is_pending(self, checkpoint_id):
        """True until ``checkpoint_id`` completes or is aborted."""
        return checkpoint_id in self._pending

    def _run(self):
        while True:
            yield self.sim.timeout(self.interval)
            if not self._suspended and not self._pending:
                self.trigger_checkpoint()

    # -- triggering ------------------------------------------------------------

    def trigger_checkpoint(self):
        """Inject a barrier at every source; returns the checkpoint id."""
        self._next_id += 1
        checkpoint_id = self._next_id
        expected = [
            instance.instance_id
            for instance in self.job.all_instances()
            if instance.machine.alive
        ]
        span = None
        if self.sim.tracer.enabled:
            span = self.sim.tracer.span(
                "checkpoint",
                track="checkpoint",
                checkpoint=checkpoint_id,
                expected=len(expected),
            )
        self._pending[checkpoint_id] = _PendingCheckpoint(
            checkpoint_id, expected, self.sim.now, span=span
        )
        if self.journal is not None:
            self.journal.append(
                "checkpoint.triggered",
                checkpoint=checkpoint_id,
                expected=sorted(expected),
            )
        for source in self.job.source_instances():
            if source.machine.alive:
                source.send_command("checkpoint", checkpoint_id)
        return checkpoint_id

    # -- acknowledgments ----------------------------------------------------------

    def ack_checkpoint(self, checkpoint_id, instance, checkpoint=None, offset=None):
        """Record one instance's snapshot acknowledgment."""
        if self._crashed:
            return  # fenced: a crashed coordinator accepts nothing
        pending = self._pending.get(checkpoint_id)
        if pending is None:
            return  # late ack of an aborted checkpoint
        pending.acked.add(instance.instance_id)
        if self.sim.tracer.enabled:
            self.sim.tracer.event(
                "checkpoint.ack",
                track="checkpoint",
                checkpoint=checkpoint_id,
                instance=instance.instance_id,
                delta_bytes=getattr(checkpoint, "delta_bytes", 0),
            )
        if checkpoint is not None:
            pending.record.checkpoints[instance.instance_id] = checkpoint
            persist = self.job.checkpoint_storage.persist(instance, checkpoint)
            if persist is not None:
                pending.persists.append(persist)
        if offset is not None:
            pending.record.offsets[instance.instance_id] = offset
        if pending.expected <= pending.acked:
            self.sim.process(
                self._finalize(pending), name=f"finalize-ckpt-{checkpoint_id}"
            )

    def _finalize(self, pending):
        if pending.persists:
            try:
                yield self.sim.all_of(pending.persists)
            except Exception:  # noqa: BLE001 - persistence failed, abort ckpt
                self.abort_checkpoint(pending.record.checkpoint_id)
                return
        if pending.record.checkpoint_id not in self._pending:
            return  # aborted meanwhile
        if self._crashed:
            return  # fenced: the standby resolves this checkpoint on replay
        del self._pending[pending.record.checkpoint_id]
        pending.record.completed_at = self.sim.now
        self.completed.append(pending.record)
        if self.journal is not None:
            self.journal.append(
                "checkpoint.completed",
                checkpoint=pending.record.checkpoint_id,
                triggered_at=pending.record.triggered_at,
                completed_at=pending.record.completed_at,
                offsets=dict(pending.record.offsets),
            )
        if pending.span is not None:
            pending.span.finish(status="completed", acks=len(pending.acked))
            self.sim.tracer.count("checkpoint.completed")
        for listener in self.checkpoint_listeners:
            listener(pending.record)

    def abort_checkpoint(self, checkpoint_id):
        """Abandon a pending checkpoint and cancel its alignment."""
        pending = self._pending.pop(checkpoint_id, None)
        if pending is None:
            return
        if pending.span is not None:
            pending.span.finish(status="aborted", acks=len(pending.acked))
            self.sim.tracer.count("checkpoint.aborted")
        if self.journal is not None:
            self.journal.append("checkpoint.aborted", checkpoint=checkpoint_id)
        # Release any instance still aligning on the aborted barrier, or
        # its blocked channels would never drain.
        for instance in self.job.all_instances():
            cancel = getattr(instance, "cancel_alignment", None)
            if cancel is not None:
                cancel(("checkpoint", checkpoint_id))

    def abort_all_pending(self):
        """Abandon every pending checkpoint (machine failure)."""
        for checkpoint_id in list(self._pending):
            self.abort_checkpoint(checkpoint_id)

    # -- coordinator failover ------------------------------------------------------

    def crash(self):
        """Kill the coordinator service: fence it and drop volatile state.

        Pending checkpoints are volatile coordinator memory -- the crash
        loses them.  Journaled ``checkpoint.triggered`` records let the
        standby find and abort the stranded barriers on replay.  The fence
        (``_crashed``) makes concurrent acks and in-flight finalizers
        no-ops, modeling a process that is simply gone.
        """
        self._crashed = True
        self.stop()
        for pending in self._pending.values():
            if pending.span is not None:
                pending.span.finish(
                    status="coordinator-crash", acks=len(pending.acked)
                )
        self._pending = {}

    def restore_from_journal(self, state):
        """Rebuild checkpoint metadata from a replayed journal state.

        ``state`` is a :class:`~repro.core.journal.RecoveredControlState`.
        The completed-checkpoint registry is reconstructed with the
        journaled metadata (offsets and timestamps; a restore reads
        its replay frontier off the checkpoint it restores, not here);
        the per-instance kvs Checkpoint handles live with the workers and
        are rebound lazily by the restore path.  Stranded barriers --
        triggered but unresolved at crash time -- are aborted, releasing
        any instance still aligned on them.
        """
        self.completed = []
        for item in state.completed:
            record = CompletedCheckpoint(item["id"], item["triggered_at"])
            record.completed_at = item["completed_at"]
            record.offsets = dict(item["offsets"])
            self.completed.append(record)
        self._next_id = state.next_checkpoint_id
        self._crashed = False
        for checkpoint_id in state.pending:
            if self.journal is not None:
                self.journal.append(
                    "checkpoint.aborted", checkpoint=checkpoint_id
                )
            for instance in self.job.all_instances():
                cancel = getattr(instance, "cancel_alignment", None)
                if cancel is not None:
                    cancel(("checkpoint", checkpoint_id))

    def restore_service(self):
        """Resume periodic triggering on the standby after failover."""
        self._crashed = False
        self._suspended = False
        self.start()

    # -- queries --------------------------------------------------------------------

    def latest_completed(self):
        """The newest completed checkpoint, or EngineError."""
        if not self.completed:
            raise EngineError("no completed checkpoint")
        return self.completed[-1]

    def has_completed(self):
        """True once any checkpoint completed."""
        return bool(self.completed)
