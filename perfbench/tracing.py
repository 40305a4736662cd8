"""Spans around the calls into jumpspec's modules, recorded from outside.

The benchmark does not instrument the package. It replaces, for the
duration of a traced pass, the names the protocols look up
(``sequencer.apply_pulse``, ``sequencer.count_window``) and the name the
analysis pipelines call (``fitting.curve_fit``) with wrappers that record
a span per call; the calls the benchmark makes itself (one span per unit,
the analysis fits) go through :meth:`Tracer.call`. Wrappers draw no random
numbers and pass arguments and results through unchanged, so a traced
pass produces bit-identical outputs.

Each span has a name, start, end, parent and the id of the unit it
belongs to. Self time (duration minus the time covered by child spans) is
aggregated per name when the span closes, so memory stays bounded
however long the run; the first ``log_limit`` spans are also kept whole
and written out when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter

from jumpspec import fitting, sequencer


class Stat:
    """Per-name totals: calls, busy (wall) time, self time, work counts."""

    __slots__ = ("calls", "busy", "self", "counts")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.counts = {}

    def add_count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n


def entry_kind(state, seg) -> str:
    """How a segment is entered, from the ``SystemState`` passed in.

    ``coherent``: a Bloch vector is present (step loop or collapse);
    ``pole``: driven segment without one (tabulated path);
    ``population``: undriven segment without one (plain relaxation).
    """
    if state.bloch is not None:
        return "coherent"
    return "pole" if seg.driven else "population"


class Tracer:
    def __init__(self, log_limit: int = 5_000):
        self.stats: dict[str, Stat] = {}
        self.log: list[tuple] = []
        self.log_limit = log_limit
        self._stack: list[list] = []      # [span id, start, child time]
        self._next_id = 0
        self._unit = -1
        self._saved = None

    # -- span bookkeeping -------------------------------------------------

    def _open(self, t0):
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, t0, 0.0])

    def _close(self, name, t1) -> Stat:
        span_id, t0, child = self._stack.pop()
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.busy += dur
        st.self += dur - child
        if len(self.log) < self.log_limit:
            self.log.append((span_id, parent[0] if parent else None,
                             self._unit, name, t0, t1))
        return st

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        self._open(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, perf_counter())

    def unit(self, name, fn, *args, **kwargs):
        """Run one unit of work; its spans share a fresh unit id."""
        self._unit += 1
        return self.call(name, fn, *args, **kwargs)

    # -- wrappers around the program's public functions -------------------

    def _apply_pulse(self, state, seg, *args, **kwargs):
        name = f"dynamics.apply_pulse.{seg.kind}.{entry_kind(state, seg)}"
        self._open(perf_counter())
        try:
            events = self._saved["apply_pulse"](state, seg, *args, **kwargs)
        finally:
            st = self._close(name, perf_counter())
        st.add_count("jumps", len(events))
        st.add_count("photons", sum(1 for e in events if e.photon))
        return events

    def _count_window(self, *args, **kwargs):
        self._open(perf_counter())
        try:
            clicks = self._saved["count_window"](*args, **kwargs)
        finally:
            st = self._close("detector.count_window", perf_counter())
        st.add_count("clicks", clicks)
        return clicks

    def _curve_fit(self, *args, **kwargs):
        self._open(perf_counter())
        try:
            res = self._saved["curve_fit"](*args, **kwargs)
        finally:
            st = self._close("fitting.curve_fit", perf_counter())
        st.add_count("lm_iterations", res.n_iter)
        return res

    def install(self):
        if self._saved is not None:
            raise RuntimeError("tracer already installed")
        self._saved = {"apply_pulse": sequencer.apply_pulse,
                       "count_window": sequencer.count_window,
                       "curve_fit": fitting.curve_fit}
        sequencer.apply_pulse = self._apply_pulse
        sequencer.count_window = self._count_window
        fitting.curve_fit = self._curve_fit

    def uninstall(self):
        if self._saved is None:
            return
        sequencer.apply_pulse = self._saved["apply_pulse"]
        sequencer.count_window = self._saved["count_window"]
        fitting.curve_fit = self._saved["curve_fit"]
        self._saved = None

    def snapshot(self) -> dict:
        """Calls and work counts per name (exact, machine-independent)."""
        return {name: {"calls": st.calls, **st.counts}
                for name, st in self.stats.items()}

    def write_log(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, unit, name, t0, t1 in self.log:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "unit": unit, "name": name,
                                     "start": t0, "end": t1}) + "\n")
