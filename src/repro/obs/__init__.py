"""Protocol tracing: spans, counters, and exporters on the virtual clock.

Construct a :class:`Tracer`, hand it to the simulator, and every layer of
the stack — kernel, coordinator, handover manager, chain replicator,
resource monitor — records what it does and when::

    from repro.obs import Tracer, chrome_trace
    from repro.sim import Simulator

    tracer = Tracer()
    sim = Simulator(tracer=tracer)
    ...  # build job, attach Rhino, reconfigure
    tracer.find("handover.fetching")      # spans, tagged with bytes moved
    chrome_trace(tracer)                  # chrome://tracing document

Without a tracer the instrumentation is disabled (:data:`NULL_TRACER`)
and the simulation behaves — and costs — exactly as before.
"""

from repro.obs.tracer import (
    COUNTER,
    GAUGE,
    NULL_COUNTER,
    NULL_SPAN,
    NULL_TRACER,
    Counter,
    NullTracer,
    Span,
    TraceEvent,
    Tracer,
    phase_span,
)
from repro.obs.export import (
    chrome_trace,
    failover_breakdown,
    failover_phases,
    text_timeline,
    write_chrome_trace,
)

__all__ = [
    "COUNTER",
    "GAUGE",
    "NULL_COUNTER",
    "NULL_SPAN",
    "NULL_TRACER",
    "Counter",
    "NullTracer",
    "Span",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "failover_breakdown",
    "failover_phases",
    "phase_span",
    "text_timeline",
    "write_chrome_trace",
]
