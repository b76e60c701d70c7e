"""A small discrete-event simulation kernel.

The kernel follows the classic process-interaction style: simulation logic
is written as Python generators that ``yield`` events they want to wait on.
The design mirrors SimPy's core (events, processes, timeouts, interrupts,
conditions) but is implemented from scratch so the reproduction has no
external dependencies and full control over determinism.

Determinism: events scheduled for the same instant fire in scheduling order
(a monotonically increasing sequence number breaks ties), so repeated runs
with the same seeds produce identical traces.  Nothing is scheduled into
the past: a negative delay or an absolute time before ``now`` is refused.

Cost: every simulated element pays kernel events, so :meth:`Simulator.run`
is the one dispatcher and does it inline: an event costs one heap push when
it triggers and one heap pop plus its callbacks when it is processed.
"""

import heapq
from repro.common.errors import SimulationError
from repro.obs.tracer import NULL_TRACER

#: Event states.
PENDING = 0
TRIGGERED = 1  # scheduled on the event queue, value/exception decided
PROCESSED = 2  # callbacks have run


class Event:
    """An occurrence at a point in simulated time that processes can wait on.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it: the kernel schedules it and later runs its callbacks,
    resuming any process that was waiting.
    """

    __slots__ = ("sim", "callbacks", "_state", "_value", "_exception", "defused")

    def __init__(self, sim):
        self.sim = sim
        self.callbacks = []
        self._state = PENDING
        self._value = None
        self._exception = None
        #: Set to True once a waiter has observed a failure, suppressing the
        #: "unhandled failure" crash at the end of the run.
        self.defused = False

    @property
    def triggered(self):
        """True once the event's outcome is decided."""
        return self._state >= TRIGGERED

    @property
    def processed(self):
        """True once the event's callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self):
        """True if the event triggered successfully."""
        return self.triggered and self._exception is None

    @property
    def value(self):
        """The event's value (raises its exception on failure)."""
        if not self.triggered:
            raise SimulationError("value of untriggered event")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value=None, delay=0.0):
        """Trigger the event successfully with ``value``, to be processed
        ``delay`` simulated seconds from now."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if delay < 0:
            raise SimulationError(f"negative event delay {delay!r}")
        self._state = TRIGGERED
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception, delay=0.0):
        """Trigger the event with an exception.

        The exception is raised inside every process that waits on the
        event.  If nothing ever waits, the simulator stops with the error
        (errors never pass silently) unless the event is ``defused``.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() needs an exception instance")
        if self._state != PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if delay < 0:
            raise SimulationError(f"negative event delay {delay!r}")
        self._state = TRIGGERED
        self._exception = exception
        self.sim._schedule(self, delay)
        return self

    def __repr__(self):
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim, delay, value=None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._state = TRIGGERED
        self._value = value
        sim._schedule(self, delay)


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    ``cause`` carries the interrupter's reason (e.g. a machine failure).
    """

    def __init__(self, cause=None):
        super().__init__(cause)

    @property
    def cause(self):
        """The interrupter's reason."""
        return self.args[0]


class Process(Event):
    """A running generator; also an event that triggers on termination.

    The generator yields :class:`Event` instances.  When a yielded event
    triggers, the process resumes with the event's value (or the event's
    exception is thrown into the generator).  The process event itself
    succeeds with the generator's return value, or fails with its uncaught
    exception.
    """

    __slots__ = ("generator", "name", "_target", "_resume_event")

    def __init__(self, sim, generator, name=None):
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target = None
        sim._alive_procs[self] = None
        if sim.tracer.enabled:
            sim.tracer.event("process.spawn", track="kernel", process=self.name)
        # Bootstrap: resume once at the current instant.
        self._resume_event = Event(sim)
        self._resume_event.callbacks.append(self._resume)
        self._resume_event.succeed()

    @property
    def is_alive(self):
        """True while the process has not terminated."""
        return self._state == PENDING

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at its wait point."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        if self.sim.tracer.enabled:
            self.sim.tracer.event(
                "process.interrupt",
                track="kernel",
                process=self.name,
                cause=repr(cause),
            )
        # Detach from whatever the process was waiting on.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        interrupt_event = Event(self.sim)
        interrupt_event.callbacks.append(self._resume)
        interrupt_event.defused = True
        interrupt_event.fail(Interrupt(cause))

    def _resume(self, event):
        if self._state != PENDING:
            return
        self._target = None
        try:
            if event._exception is not None:
                event.defused = True
                next_target = self.generator.throw(event._exception)
            else:
                next_target = self.generator.send(event._value)
        except StopIteration as stop:
            self._trace_end("ok")
            self.sim._alive_procs.pop(self, None)
            self.succeed(stop.value)
            return
        except Interrupt as interrupt:
            # The generator re-raised an interrupt without handling it:
            # treat as a normal (clean) termination cause.
            self._trace_end("killed")
            self.sim._alive_procs.pop(self, None)
            self.fail(ProcessKilled(self.name, interrupt.cause))
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self._trace_end("error", error=type(exc).__name__)
            self.sim._alive_procs.pop(self, None)
            self.fail(exc)
            return
        if not isinstance(next_target, Event):
            self.sim._alive_procs.pop(self, None)
            self.fail(
                SimulationError(
                    f"process {self.name} yielded {next_target!r}, not an Event"
                )
            )
            return
        if next_target.callbacks is None:
            # Already processed: resume immediately (next kernel step).
            proxy = Event(self.sim)
            proxy.callbacks.append(self._resume)
            if next_target._exception is not None:
                proxy.defused = True
                proxy.fail(next_target._exception)
            else:
                proxy.succeed(next_target._value)
            self._target = proxy
        else:
            next_target.callbacks.append(self._resume)
            self._target = next_target

    def _trace_end(self, status, **tags):
        if self.sim.tracer.enabled:
            self.sim.tracer.event(
                "process.end",
                track="kernel",
                process=self.name,
                status=status,
                **tags,
            )

    def __repr__(self):
        return f"<Process {self.name} {'alive' if self.is_alive else 'dead'}>"


class ProcessKilled(Exception):
    """Termination cause for a process that let an Interrupt escape."""

    def __init__(self, name, cause):
        super().__init__(f"process {name} killed: {cause!r}")
        self.cause = cause


class _Condition(Event):
    """Base for AnyOf/AllOf composite events.

    A child event counts as *occurred* once it is processed (its callbacks
    have run), not merely triggered: timeouts are triggered at creation but
    occur at their due time.
    """

    __slots__ = ("events",)

    def __init__(self, sim, events):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            if event.processed:
                self._observe(event)
            else:
                event.callbacks.append(self._observe)

    def _observe(self, event):
        raise NotImplementedError


class AllOf(_Condition):
    """Occurs when every child event has occurred; value = list of values.

    Fails fast if any child fails.
    """

    __slots__ = ()

    def _observe(self, event):
        if event._exception is not None:
            # Take responsibility for the child's failure even if this
            # condition already triggered (e.g. two children fail).
            event.defused = True
        if self.triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        if all(e.processed for e in self.events):
            self.succeed([e._value for e in self.events])


class AnyOf(_Condition):
    """Occurs when the first child event occurs; value = that event."""

    __slots__ = ()

    def _observe(self, event):
        if event._exception is not None:
            event.defused = True
        if self.triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self.succeed(event)


class Simulator:
    """The event loop: a priority queue of triggered events on a clock."""

    def __init__(self, tracer=None):
        self.now = 0.0
        self._queue = []
        self._seq = 0
        #: Live processes in spawn order (dict used as an ordered set);
        #: lets post-run invariant checks find leaked protocol processes.
        self._alive_procs = {}
        #: End-of-instant hooks: run after the last event of the current
        #: instant, before the clock advances (see :meth:`at_instant_end`).
        self._eoi = []
        #: Total events processed over the run (perf accounting).
        self.events_processed = 0
        #: The (possibly disabled) tracer; its clock is this simulator's.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind_clock(lambda: self.now)

    # -- scheduling ---------------------------------------------------

    def _schedule(self, event, delay=0.0):
        heapq.heappush(self._queue, (self.now + delay, self._seq, event))
        self._seq += 1

    def at_instant_end(self, callback):
        """Run ``callback()`` once, after the last event of the current
        instant and before the clock advances.

        This is the coalescing primitive: a burst of same-timestamp work
        (e.g. N ``transfer()`` calls from an exchange round) can defer an
        expensive recomputation here and pay for it once.  Hooks may
        schedule new events -- including at the current instant, in which
        case those run before any remaining hooks fire again.
        """
        self._eoi.append(callback)

    def _instant_complete(self):
        return not self._queue or self._queue[0][0] > self.now

    def _drain_instant(self):
        """Run end-of-instant hooks until none remain or one of them has
        scheduled new work at the current instant."""
        while self._eoi and self._instant_complete():
            hooks = self._eoi
            self._eoi = []
            for hook in hooks:
                hook()

    # -- factories ----------------------------------------------------

    def event(self):
        """A fresh pending event."""
        return Event(self)

    def timeout(self, delay, value=None):
        """An event that triggers after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def at(self, time, value=None):
        """An event that triggers at the *absolute* simulated ``time``.

        Unlike ``timeout(time - now)``, the due time is stored exactly --
        no ``now + (time - now)`` float round-trip -- so a wake-up
        re-armed later still fires at the originally computed instant.
        """
        if time < self.now:
            raise SimulationError(f"at({time!r}) is in the past (now={self.now!r})")
        event = Event(self)
        event._state = TRIGGERED
        heapq.heappush(self._queue, (time, self._seq, event))
        self._seq += 1
        if value is not None:
            event._value = value
        return event

    def process(self, generator, name=None):
        """Register ``generator`` as a process; returns its Process event."""
        return Process(self, generator, name=name)

    def all_of(self, events):
        """Event that occurs when all children occurred."""
        return AllOf(self, events)

    def any_of(self, events):
        """Event that occurs at the first child occurrence."""
        return AnyOf(self, events)

    # -- execution ----------------------------------------------------

    def run(self, until=None):
        """Run until the queue drains, ``until`` seconds pass, or an event
        passed as ``until`` is processed.

        ``until`` may be a number (absolute simulated time) or an
        :class:`Event`; with an event, returns that event's value.  This
        loop is the only dispatcher: an event costs one heap pop and its
        callbacks.
        """
        if isinstance(until, Event):
            stop = until
            deadline = float("inf")
        else:
            stop = None
            deadline = float("inf") if until is None else float(until)
        queue = self._queue
        heappop = heapq.heappop
        while stop is None or stop._state != PROCESSED:
            if self._eoi and (not queue or queue[0][0] > self.now):
                self._drain_instant()
            if not queue or queue[0][0] > deadline:
                if stop is not None and stop._state == PENDING:
                    raise SimulationError(
                        "run(until=event): queue drained before event triggered"
                    )
                break
            self.now, _seq, event = heappop(queue)
            self.events_processed += 1
            event._state = PROCESSED
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if event._exception is not None and not event.defused:
                raise event._exception
        if stop is not None:
            return stop.value
        if until is not None and self.now < deadline:
            self.now = deadline
        return None

    def alive_processes(self):
        """Live processes in spawn order (for leak/drain diagnostics)."""
        return [p for p in self._alive_procs if p.is_alive]
