"""Trace exporters: Chrome ``trace_event`` JSON and a plain-text timeline.

The Chrome format loads directly into ``chrome://tracing`` / Perfetto:
spans become complete ("X") events, instants become "i" events, and
counters/gauges become "C" events, all with the virtual clock mapped to
microseconds.  Tracks (the tracer's ``track`` tag) become named threads.
"""

import json


def _track_ids(tracer):
    """Stable track -> tid mapping (registration order, default track 0)."""
    tracks = {None: 0}
    for span in tracer.spans:
        if span.track not in tracks:
            tracks[span.track] = len(tracks)
    for event in tracer.events:
        if event.track not in tracks:
            tracks[event.track] = len(tracks)
    return tracks


def _jsonable(tags):
    return {k: v if isinstance(v, (int, float, str, bool, type(None))) else str(v)
            for k, v in tags.items()}


def chrome_trace(tracer, pid=1):
    """The trace as a Chrome ``trace_event`` document (a plain dict)."""
    tracks = _track_ids(tracer)
    events = []
    for track, tid in tracks.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": track if track is not None else "main"},
            }
        )
    now = tracer.clock()
    for span in tracer.spans:
        end = span.end if span.end is not None else now
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "pid": pid,
                "tid": tracks[span.track],
                "ts": span.start * 1e6,
                "dur": (end - span.start) * 1e6,
                "args": _jsonable(span.tags),
            }
        )
    for event in tracer.events:
        events.append(
            {
                "ph": "i",
                "s": "t",
                "name": event.name,
                "pid": pid,
                "tid": tracks[event.track],
                "ts": event.time * 1e6,
                "args": _jsonable(event.tags),
            }
        )
    for counter in tracer.counters.values():
        for time, _value, total in counter.samples:
            events.append(
                {
                    "ph": "C",
                    "name": counter.name,
                    "pid": pid,
                    "tid": 0,
                    "ts": time * 1e6,
                    "args": {counter.name: total},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer, path, pid=1):
    """Write the Chrome trace JSON to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(tracer, pid=pid), handle)
    return path


def failover_phases(root, spans):
    """One takeover's entry, read off its closed ``failover`` root span.

    ``detect``, ``replay`` and ``resume`` are the durations of the root's
    ``failover.*`` children among ``spans`` (0.0 when a phase left no
    span), ``total`` the root's duration, ``epoch`` and ``leader`` its
    tags.  The three phases run back-to-back inside the root, so the parts
    sum to the total -- the MTTR bench asserts exactly that.
    """
    phases = {"detect": 0.0, "replay": 0.0, "resume": 0.0}
    for span in spans:
        if span.parent is not root or span.end is None:
            continue
        prefix, _, phase = span.name.partition(".")
        if prefix == "failover" and phase in phases:
            phases[phase] += span.end - span.start
    phases["total"] = root.end - root.start
    phases["epoch"] = root.tags["epoch"]
    phases["leader"] = root.tags["leader"]
    return phases


def failover_breakdown(tracer):
    """:func:`failover_phases` of every completed takeover in the trace."""
    return [
        failover_phases(root, tracer.spans)
        for root in tracer.spans
        if root.name == "failover" and root.end is not None
    ]


def text_timeline(tracer, include_events=False):
    """A human-readable timeline: one line per span, indented by nesting."""
    lines = []
    rows = [("span", s.start, s) for s in tracer.spans]
    if include_events:
        rows.extend(("event", e.time, e) for e in tracer.events)
    rows.sort(key=lambda row: row[1])
    now = tracer.clock()
    for kind, _start, item in rows:
        if kind == "span":
            end = item.end if item.end is not None else now
            open_mark = "" if item.end is not None else " (open)"
            indent = "  " * item.depth
            tags = _format_tags(item.tags)
            lines.append(
                f"[{item.start:10.3f}s – {end:10.3f}s] {end - item.start:8.3f}s  "
                f"{indent}{item.name}{tags}{open_mark}"
            )
        else:
            tags = _format_tags(item.tags)
            lines.append(f"[{item.time:10.3f}s]{' ' * 24}* {item.name}{tags}")
    return "\n".join(lines)


def _format_tags(tags):
    if not tags:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in sorted(tags.items(), key=lambda kv: kv[0]))
    return f"  {{{inner}}}"
