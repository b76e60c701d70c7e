"""Event-time window operators: the stateful workhorses of NEXMark.

Three window logics cover the three state-update patterns the paper's
workloads exercise (§5.1.2):

* :class:`SlidingWindowAggregate` -- NBQ5's read-modify-write pattern.
* :class:`TumblingWindowJoin` -- NBQ8's append-only pattern (state grows
  until the -- very long -- window closes).
* :class:`SessionWindowJoin` -- NBQX's append-and-delete pattern.

All windows fire on watermarks.  Auxiliary in-memory indexes (which keys
have live panes/windows/sessions) are rebuilt from keyed state after a
restore or handover via ``rebuild``.
"""

from repro.engine.operators import OperatorLogic
from repro.engine.records import Record


class SlidingWindowAggregate(OperatorLogic):
    """Keyed sliding-window aggregation using per-pane partial aggregates.

    Records update the partial aggregate of their slide-sized *pane*
    (read-modify-write); complete windows combine ``size / slide`` panes.
    """

    cpu_per_record = 1.5e-6

    def __init__(self, size, slide):
        if size % slide != 0:
            raise ValueError("window size must be a multiple of the slide")
        self.size = size
        self.slide = slide
        self.pane_keys = {}  # key -> set of pane starts
        self._emitted_until = {}  # key -> last emitted window end
        #: A lower bound on the earliest watermark at which any key has a
        #: window to emit or a pane to expire; below it the walk over
        #: ``pane_keys`` provably does nothing.
        self._next_due = float("inf")

    def process(self, record, side=0):
        """Consume one record; yields any output records."""
        pane_start = (record.timestamp // self.slide) * self.slide
        group = self.ctx.key_group(record.key)
        state_key = (record.key, "pane", pane_start)
        current = self.ctx.state.get(group, state_key) or 0
        self.ctx.state.put(
            group, state_key, current + record.weight, nbytes=record.nbytes
        )
        self._index_pane(record.key, pane_start)
        return ()

    def _index_pane(self, key, pane_start):
        panes = self.pane_keys.setdefault(key, set())
        if pane_start not in panes:
            panes.add(pane_start)
            # Every obligation a pane creates (its first window end, its
            # expiry) falls at or after the end of the pane itself.
            self._next_due = min(self._next_due, pane_start + self.slide)

    def on_watermark(self, watermark):
        """Fire complete windows up to the watermark."""
        wm = watermark.timestamp
        if wm < self._next_due:
            return []  # crosses no window end and no pane expiry
        outputs = []
        for key in list(self.pane_keys):
            outputs.extend(self._fire_key(key, wm))
        self._next_due = min(
            (self._due(key, panes) for key, panes in self.pane_keys.items()),
            default=float("inf"),
        )
        return outputs

    def _due(self, key, panes):
        """The earliest watermark at which ``_fire_key(key)`` does anything:
        the key's first unemitted window end or its oldest pane's expiry,
        in the very expressions ``_fire_key`` compares to the watermark."""
        oldest = min(panes)
        first_end = oldest + self.slide
        return min(
            max(self._emitted_until.get(key, first_end), first_end),
            oldest + self.size,
        )

    def _fire_key(self, key, wm):
        group = self.ctx.key_group(key)
        panes = self.pane_keys.get(key, set())
        if not panes:
            return
        first_end = min(panes) + self.slide
        start_end = max(self._emitted_until.get(key, first_end), first_end)
        window_end = start_end
        while window_end <= wm:
            window_start = window_end - self.size
            total = 0
            seen = False
            pane_start = (window_start // self.slide) * self.slide
            while pane_start < window_end:
                if pane_start in panes:
                    value = self.ctx.state.get(group, (key, "pane", pane_start))
                    if value:
                        total += value
                        seen = True
                pane_start += self.slide
            if seen:
                yield Record(key, window_end, total, nbytes=24)
            window_end += self.slide
        if window_end != start_end:
            self._emitted_until[key] = window_end
            # Persist the emission frontier: a migration target must not
            # re-emit windows this instance already produced.
            self.ctx.state.put(group, (key, "emitted", 0), window_end, nbytes=16)
        # Garbage-collect panes no longer covered by any future window.
        expired = {p for p in panes if p + self.size <= wm}
        for pane_start in expired:
            self.ctx.state.delete(group, (key, "pane", pane_start))
        panes -= expired
        if not panes:
            self.pane_keys.pop(key, None)
            if key in self._emitted_until:
                self.ctx.state.delete(group, (key, "emitted", 0))

    def rebuild(self, group_ranges):
        """Fully re-derive the in-memory index for the given ranges."""
        self.pane_keys.clear()
        self._emitted_until.clear()
        self._next_due = float("inf")
        self.absorb(group_ranges)

    def absorb(self, group_ranges):
        """Incrementally index newly adopted key-group ranges."""
        for lo, hi in group_ranges:
            for _group, state_key, value in self.ctx.state.store.extract_groups(lo, hi):
                if not (isinstance(state_key, tuple) and len(state_key) == 3):
                    continue  # foreign entry (e.g. preloaded synthetic state)
                key, kind, pane_start = state_key
                if kind == "pane":
                    self._index_pane(key, pane_start)
                elif kind == "emitted":
                    self._emitted_until[key] = max(
                        self._emitted_until.get(key, value), value
                    )


class TumblingWindowJoin(OperatorLogic):
    """Keyed tumbling-window equi-join of two input sides.

    Both sides append into keyed state; when the watermark passes a window
    end, matching keys emit one result per (left, right) pair and the
    window's state is deleted.  With the paper's 12-hour NBQ8 window the
    state simply accumulates for the whole experiment -- the append-only
    growth that reaches terabytes.
    """

    cpu_per_record = 2e-6

    def __init__(self, size):
        self.size = size
        self.windows = {}  # window_start -> set of keys with any state

    def process(self, record, side=0):
        """Consume one record; yields any output records."""
        window_start = (record.timestamp // self.size) * self.size
        group = self.ctx.key_group(record.key)
        self.ctx.state.append(
            group,
            (record.key, side, window_start),
            (record.value, record.weight),
            nbytes=record.total_bytes,
        )
        self.windows.setdefault(window_start, set()).add(record.key)
        return ()

    def on_watermark(self, watermark):
        """Fire complete windows up to the watermark."""
        outputs = []
        for window_start in sorted(self.windows):
            if window_start + self.size > watermark.timestamp:
                break
            outputs.extend(self._fire_window(window_start))
        return outputs

    def _fire_window(self, window_start):
        keys = self.windows.pop(window_start, set())
        window_end = window_start + self.size
        for key in sorted(keys, key=repr):
            group = self.ctx.key_group(key)
            left = self.ctx.state.get(group, (key, 0, window_start))
            right = self.ctx.state.get(group, (key, 1, window_start))
            if left and right:
                matches = sum(w for _v, w in left) * sum(w for _v, w in right)
                yield Record(
                    key,
                    window_end,
                    {"left": len(left), "right": len(right)},
                    nbytes=32,
                    weight=max(1, matches),
                )
            for side, held in ((0, left), (1, right)):
                if held is not None:
                    self.ctx.state.delete(group, (key, side, window_start))

    def rebuild(self, group_ranges):
        """Fully re-derive the in-memory index for the given ranges."""
        self.windows.clear()
        self.absorb(group_ranges)

    def absorb(self, group_ranges):
        """Incrementally index newly adopted key-group ranges."""
        for lo, hi in group_ranges:
            for _group, state_key, _value in self.ctx.state.store.extract_groups(lo, hi):
                if not (isinstance(state_key, tuple) and len(state_key) == 3):
                    continue  # foreign entry (e.g. preloaded synthetic state)
                key, _side, window_start = state_key
                self.windows.setdefault(window_start, set()).add(key)


class SessionWindowJoin(OperatorLogic):
    """Keyed session-window join: sessions close after a silence ``gap``.

    Appends on arrival, deletes whole sessions when they close -- NBQX's
    append-and-deletion update pattern.
    """

    cpu_per_record = 2e-6

    def __init__(self, gap):
        self.gap = gap
        self.sessions = {}  # key -> [session_start, last_timestamp]

    def process(self, record, side=0):
        """Consume one record; yields any output records."""
        group = self.ctx.key_group(record.key)
        session = self.sessions.get(record.key)
        if session is None or record.timestamp - session[1] > self.gap:
            session = [record.timestamp, record.timestamp]
            self.sessions[record.key] = session
        else:
            session[1] = max(session[1], record.timestamp)
        self.ctx.state.append(
            group,
            (record.key, side, session[0]),
            (record.value, record.weight),
            nbytes=record.total_bytes,
        )
        return ()

    def on_watermark(self, watermark):
        """Fire complete windows up to the watermark."""
        outputs = []
        for key in list(self.sessions):
            session_start, last = self.sessions[key]
            if last + self.gap <= watermark.timestamp:
                outputs.extend(self._close_session(key, session_start, last))
                del self.sessions[key]
        return outputs

    def _close_session(self, key, session_start, last):
        group = self.ctx.key_group(key)
        left = self.ctx.state.get(group, (key, 0, session_start))
        right = self.ctx.state.get(group, (key, 1, session_start))
        if left and right:
            matches = sum(w for _v, w in left) * sum(w for _v, w in right)
            yield Record(
                key,
                last + self.gap,
                {"session": (session_start, last)},
                nbytes=32,
                weight=max(1, matches),
            )
        for side, held in ((0, left), (1, right)):
            if held is not None:
                self.ctx.state.delete(group, (key, side, session_start))

    def rebuild(self, group_ranges):
        """Fully re-derive the in-memory index for the given ranges."""
        self.sessions.clear()
        self.absorb(group_ranges)

    def absorb(self, group_ranges):
        """Incrementally index newly adopted key-group ranges."""
        for lo, hi in group_ranges:
            for _group, state_key, value in self.ctx.state.store.extract_groups(lo, hi):
                if not (isinstance(state_key, tuple) and len(state_key) == 3):
                    continue  # foreign entry (e.g. preloaded synthetic state)
                key, _side, session_start = state_key
                session = self.sessions.get(key)
                if session is None:
                    self.sessions[key] = [session_start, session_start]
                else:
                    session[0] = min(session[0], session_start)
