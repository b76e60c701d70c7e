"""The tracer: structured spans, events, and counters on the virtual clock.

Every measurement the reproduction reports — Table 1's scheduling /
fetching / loading breakdown, replication-chain transfer times, checkpoint
lifecycles — is observable as a *span* on the simulation's virtual clock.
A :class:`Tracer` collects three record kinds:

* **spans** — named intervals with tags and parent links (``span()``),
* **events** — named instants with tags (``event()``),
* **counters** — monotonic counters and point-in-time gauges sharing one
  registry (``count()`` / ``gauge()``).

Tracing is opt-in.  The module-level :data:`NULL_TRACER` (the default of
:class:`repro.sim.kernel.Simulator`) answers every call with cached
singletons and records nothing, so instrumented code pays one attribute
check — ``tracer.enabled`` — on its hot paths and nothing else.
"""

from repro.common.errors import ReproError

COUNTER = "counter"
GAUGE = "gauge"


class Span:
    """One named interval on the virtual clock."""

    __slots__ = ("tracer", "name", "track", "parent", "start", "end", "tags")

    def __init__(self, tracer, name, track, parent, start, tags):
        self.tracer = tracer
        self.name = name
        self.track = track
        self.parent = parent
        self.start = start
        self.end = None
        self.tags = tags

    @property
    def is_open(self):
        """True until :meth:`finish` is called."""
        return self.end is None

    @property
    def duration(self):
        """Seconds from start to end (None while the span is open)."""
        if self.end is None:
            return None
        return self.end - self.start

    @property
    def depth(self):
        """Nesting depth (0 for a root span)."""
        depth, span = 0, self.parent
        while span is not None:
            depth, span = depth + 1, span.parent
        return depth

    def annotate(self, **tags):
        """Merge tags into the span; returns the span."""
        self.tags.update(tags)
        return self

    def finish(self, end=None, **tags):
        """Close the span at ``end`` (default: the tracer's clock now)."""
        if self.end is None:
            self.end = self.tracer.clock() if end is None else end
        if tags:
            self.tags.update(tags)
        return self

    # Context-manager use covers a synchronous section and keeps an
    # implicit parent stack; long-lived spans (across simulated waits)
    # are finished explicitly instead.
    def __enter__(self):
        self.tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = self.tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        self.finish()
        return False

    def __repr__(self):
        end = "…" if self.end is None else f"{self.end:.3f}"
        return f"<Span {self.name} [{self.start:.3f}s – {end}s] {self.tags}>"


class TraceEvent:
    """One named instant on the virtual clock."""

    __slots__ = ("name", "time", "track", "tags")

    def __init__(self, name, time, track, tags):
        self.name = name
        self.time = time
        self.track = track
        self.tags = tags

    def __repr__(self):
        return f"<TraceEvent {self.name} t={self.time:.3f} {self.tags}>"


class Counter:
    """A named counter or gauge; samples are (time, value, running total)."""

    __slots__ = ("name", "kind", "total", "samples")

    def __init__(self, name, kind=COUNTER):
        self.name = name
        self.kind = kind
        self.total = 0
        self.samples = []

    def add(self, time, value):
        """Record one sample at ``time``."""
        if self.kind == COUNTER:
            self.total += value
        else:
            self.total = value
        self.samples.append((time, value, self.total))

    def __repr__(self):
        return f"<Counter {self.name} {self.kind} total={self.total}>"


class Tracer:
    """Collects spans, events, and counters keyed on a virtual clock.

    ``clock`` is a zero-argument callable returning the current virtual
    time — pass ``lambda: sim.now`` (or construct the simulator with
    ``Simulator(tracer=...)``, which binds the clock for you).
    """

    enabled = True

    def __init__(self, clock=None):
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.spans = []
        self.events = []
        self.counters = {}  # name -> Counter
        self._stack = []  # implicit parent stack (context-manager spans)

    def bind_clock(self, clock):
        """Late-bind the virtual clock (used by Simulator construction)."""
        self.clock = clock

    # -- recording -----------------------------------------------------------

    def span(self, name, track=None, parent=None, start=None, **tags):
        """Open a span starting now (or at ``start``); caller closes it.

        ``parent`` defaults to the innermost context-manager span still
        open.  Use ``with tracer.span(...)`` for synchronous sections;
        call :meth:`Span.finish` yourself for spans covering simulated
        waits.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(
            self,
            name,
            track,
            parent,
            self.clock() if start is None else start,
            tags,
        )
        self.spans.append(span)
        return span

    def event(self, name, track=None, **tags):
        """Record an instantaneous event."""
        event = TraceEvent(name, self.clock(), track, tags)
        self.events.append(event)
        return event

    def count(self, name, value=1):
        """Increment the monotonic counter ``name`` by ``value``."""
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name, COUNTER)
        elif counter.kind != COUNTER:
            raise ReproError(f"{name!r} is a {counter.kind}, not a counter")
        counter.add(self.clock(), value)
        return counter

    def gauge(self, name, value):
        """Record a point-in-time value for the gauge ``name``."""
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name, GAUGE)
        elif counter.kind != GAUGE:
            raise ReproError(f"{name!r} is a {counter.kind}, not a gauge")
        counter.add(self.clock(), value)
        return counter

    # -- queries -------------------------------------------------------------

    def find(self, name=None, prefix=None, **tags):
        """Spans matching a name (or name prefix) and every given tag."""
        out = []
        for span in self.spans:
            if name is not None and span.name != name:
                continue
            if prefix is not None and not span.name.startswith(prefix):
                continue
            if any(span.tags.get(k) != v for k, v in tags.items()):
                continue
            out.append(span)
        return out

    def one(self, name, **tags):
        """The single span matching; raises ReproError otherwise."""
        matches = self.find(name, **tags)
        if len(matches) != 1:
            raise ReproError(
                f"expected one span {name!r} with {tags}, found {len(matches)}"
            )
        return matches[0]

    def durations(self, name, **tags):
        """Durations of every *closed* span matching."""
        return [
            s.duration for s in self.find(name, **tags) if s.end is not None
        ]

    def __repr__(self):
        return (
            f"<Tracer spans={len(self.spans)} events={len(self.events)} "
            f"counters={len(self.counters)}>"
        )


class _NullSpan:
    """The do-nothing span handed out by the disabled tracer."""

    __slots__ = ()

    name = None
    track = None
    parent = None
    start = 0.0
    end = 0.0
    tags = {}
    is_open = False
    duration = 0.0
    depth = 0

    def annotate(self, **tags):
        return self

    def finish(self, end=None, **tags):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def __repr__(self):
        return "<NullSpan>"


class _NullCounter:
    """The do-nothing counter handed out by the disabled tracer."""

    __slots__ = ()

    name = None
    kind = COUNTER
    total = 0
    samples = ()

    def add(self, time, value):
        return None


NULL_SPAN = _NullSpan()
NULL_COUNTER = _NullCounter()


class NullTracer(Tracer):
    """Tracing disabled: every call is a cached-singleton no-op.

    ``enabled`` is False, so instrumented hot paths skip even the call;
    anything that does call through gets :data:`NULL_SPAN` back and the
    simulation's behavior is bit-identical to an untraced run.
    """

    enabled = False

    def __init__(self):
        super().__init__()

    def bind_clock(self, clock):
        pass  # a disabled tracer never reads the clock

    def span(self, name, track=None, parent=None, start=None, **tags):
        return NULL_SPAN

    def event(self, name, track=None, **tags):
        return None

    def count(self, name, value=1):
        return NULL_COUNTER

    def gauge(self, name, value):
        return NULL_COUNTER

    def __repr__(self):
        return "<NullTracer>"


#: The shared disabled tracer (the Simulator default).
NULL_TRACER = NullTracer()


class _UnrecordedSpan(Span):
    """A span no tracer records.  Its ``tracer`` slot holds the simulator
    while the span is open and is let go when it closes: a report kept
    after its run must not keep the whole run alive."""

    __slots__ = ()

    def finish(self, end=None, **tags):
        if self.end is None and end is None:
            end = self.tracer.now
        self.tracer = None
        return super().finish(end, **tags)


def phase_span(sim, name, track=None, parent=None, start=None, **tags):
    """Open a span that a report reads its phase time from.

    With tracing on this is ``sim.tracer.span(...)``; without, a span on
    the simulator's clock that no tracer records.  Either way the report
    that reads it holds the same numbers.
    """
    if sim.tracer.enabled:
        return sim.tracer.span(name, track, parent, start, **tags)
    start = sim.now if start is None else start
    return _UnrecordedSpan(sim, name, track, parent, start, tags)
