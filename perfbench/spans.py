"""Span recording, self-time arithmetic and module-to-layer attribution.

A span is one call across a layer boundary: its kind (which entry point,
hence which layer), its parent span, and its start and end on the
``perf_counter`` clock.  The simulator is single-threaded and every span
closes in a ``finally`` block, so spans nest strictly: a span's children
are disjoint and lie inside it.  Its self time is therefore its duration
minus the sum of its direct children's durations.

Equivalently, between two consecutive span boundaries (an open or a
close) the clock belongs to the innermost open span.  The recorder keeps
self time that way: at each boundary it charges the time since the last
boundary to the kind on top of the stack.  That needs one clock reading
per boundary and no per-span state, which matters at the ~30 million
spans of a paper-shaped traced run.  Kept whole those spans would take
gigabytes, so per kind the recorder keeps a count and summed self
seconds, and it keeps the first :data:`LOG_LIMIT` boundaries themselves
(10 bytes each) in memory for writing out when the run ends.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Sequence

import numpy as np

#: Span boundaries kept in memory for the written log (~40 MB).
LOG_LIMIT = 4_000_000

#: Log code of a span close; opens are logged as their kind.
CLOSE = -1

#: Every layer a span can be attributed to, in report order.  ``other``
#: collects code outside the named layers (CBR sources, the location
#: oracle, scenario glue).
LAYERS = (
    "engine", "medium", "spatial", "phy", "mac", "routing",
    "crypto", "trace", "mobility", "faults", "pool", "other",
)

#: Module prefix -> layer; the longest matching prefix wins.
MODULE_LAYERS: Dict[str, str] = {
    "repro.sim.engine": "engine",
    "repro.sim.timerwheel": "engine",
    "repro.net.medium": "medium",
    "repro.geo.spatial": "spatial",
    "repro.geo.spatial_array": "spatial",
    "repro.geo.vecops": "spatial",
    "repro.net.phy": "phy",
    "repro.net.mac": "mac",
    "repro.routing": "routing",
    "repro.core.agfw": "routing",
    "repro.core.ack": "routing",
    "repro.core.ant": "routing",
    "repro.core.pseudonym": "routing",
    "repro.core.freshness": "routing",
    "repro.core.trapdoor": "crypto",
    "repro.core.aant": "crypto",
    "repro.crypto": "crypto",
    "repro.sim.trace": "trace",
    "repro.metrics.collectors": "trace",
    "repro.net.mobility": "mobility",
    "repro.faults": "faults",
    "repro.net.pool": "pool",
}


def layer_of_module(module: str) -> str:
    """The layer that owns ``module`` (``other`` when no prefix matches)."""
    best = ""
    for prefix in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return MODULE_LAYERS[best] if best else "other"


def callback_module(callback: Callable) -> str:
    """The module that defined ``callback``: a bound method's function, a
    partial's target, or the callable itself."""
    fn = getattr(callback, "__func__", callback)
    fn = getattr(fn, "func", fn)
    return getattr(fn, "__module__", None) or ""


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Exact for strictly nested spans; ``parent`` is ``-1`` at top level.
    This is the offline form, for a written span log; the recorder
    arrives at the same numbers online.
    """
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    return duration - covered


def spans_from_log(codes: Sequence[int], times: Sequence[float]):
    """Rebuild ``(kind, parent, start, end)`` arrays from a boundary log:
    ``codes[i]`` is a kind for an open, :data:`CLOSE` for a close.  Spans
    still open where the log stops end at its last time."""
    kind: List[int] = []
    parent: List[int] = []
    start: List[float] = []
    end: List[float] = []
    stack: List[int] = []
    for code, t in zip(codes, times):
        if code == CLOSE:
            end[stack.pop()] = t
        else:
            kind.append(code)
            parent.append(stack[-1] if stack else -1)
            start.append(t)
            end.append(np.nan)
            stack.append(len(kind) - 1)
    last = times[-1] if len(times) else 0.0
    for index in stack:
        end[index] = last
    return (np.array(kind, dtype=np.int64), np.array(parent, dtype=np.int64),
            np.array(start), np.array(end))


class SpanRecorder:
    """Records spans; :attr:`wrap` ``(fn, kind)`` instruments a callable.

    Each distinct span name gets a small integer *kind*; kind 0 stands for
    "no span open".  :attr:`count` and :attr:`self_s` are indexed by kind.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter,
                 log_limit: int = LOG_LIMIT) -> None:
        self.clock = clock
        self.log_limit = log_limit
        self.names: List[str] = []
        self.layers: List[str] = []
        self._kinds: Dict[str, int] = {}
        self.count: List[int] = []
        self.self_s: List[float] = []
        self.kind_of("outside", "outside")
        self.stack: List[int] = [0]
        self._last = [clock()]
        self.log_code = array("h")
        self.log_time = array("d")
        self._logging = [log_limit > 0]
        #: ``wrap(fn, kind)``: ``fn`` inside a span of ``kind``.
        self.wrap = self._wrapper_factory()

    def kind_of(self, name: str, layer: str) -> int:
        """The kind id for span ``name`` in ``layer`` (allocated on first use)."""
        kind = self._kinds.get(name)
        if kind is None:
            if layer not in LAYERS and layer not in ("root", "outside"):
                raise ValueError(f"unknown layer {layer!r}")
            kind = self._kinds[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.count.append(0)
            self.self_s.append(0.0)
        return kind

    # --------------------------------------------------------- recording
    def _log(self, code: int, now: float) -> None:
        if self._logging[0]:
            self.log_code.append(code)
            self.log_time.append(now)
            if len(self.log_code) >= self.log_limit:
                self._logging[0] = False

    def open(self, kind: int) -> float:
        """Start a span of ``kind``; returns its start time."""
        now = self.clock()
        self.self_s[self.stack[-1]] += now - self._last[0]
        self.stack.append(kind)
        self._last[0] = now
        self._log(kind, now)
        return now

    def close(self, kind: int) -> float:
        """End the innermost span, which must be of ``kind``; returns its end time."""
        now = self.clock()
        self.self_s[kind] += now - self._last[0]
        if self.stack.pop() != kind:
            raise RuntimeError(f"span {self.names[kind]} closed out of order")
        self._last[0] = now
        self.count[kind] += 1
        self._log(CLOSE, now)
        return now

    def _wrapper_factory(self) -> Callable[[Callable, int], Callable]:
        """Build :attr:`wrap` once, so each wrapped callable only closes
        over ``fn`` and ``kind``: the engine wraps every scheduled callback."""
        stack, clock, last = self.stack, self.clock, self._last
        count, self_s = self.count, self.self_s
        log_code, log_time, logging, limit = (
            self.log_code, self.log_time, self._logging, self.log_limit,
        )

        def wrap(fn: Callable, kind: int) -> Callable:
            def spanned(*args, **kwargs):
                # open() and close() inlined: this runs ~30 million times
                # in a paper-shaped traced run.
                now = clock()
                self_s[stack[-1]] += now - last[0]
                stack.append(kind)
                last[0] = now
                if logging[0]:
                    log_code.append(kind)
                    log_time.append(now)
                    logging[0] = len(log_code) < limit
                try:
                    return fn(*args, **kwargs)
                finally:
                    now = clock()
                    self_s[kind] += now - last[0]
                    stack.pop()
                    last[0] = now
                    count[kind] += 1
                    if logging[0]:
                        log_code.append(CLOSE)
                        log_time.append(now)
                        logging[0] = len(log_code) < limit

            return spanned

        return wrap

    # ----------------------------------------------------------- results
    def counts(self) -> Dict[str, int]:
        """Spans recorded per name."""
        return dict(zip(self.names[1:], self.count[1:]))

    def layer_self_times(self, baseline: Sequence[float] = ()) -> Dict[str, float]:
        """Self seconds per layer, minus a ``baseline`` copy of
        :attr:`self_s` taken earlier (to leave out time before it)."""
        totals: Dict[str, float] = {}
        for kind, layer in enumerate(self.layers):
            if layer == "outside":
                continue
            earlier = baseline[kind] if kind < len(baseline) else 0.0
            totals[layer] = totals.get(layer, 0.0) + self.self_s[kind] - earlier
        return totals

    def logged_spans(self):
        """The logged spans as ``(kind, parent, start, end)`` arrays."""
        return spans_from_log(self.log_code, self.log_time)

    def write(self, directory: str) -> None:
        """Write the boundary log as raw native-order arrays plus a JSON index."""
        os.makedirs(directory, exist_ok=True)
        columns = (("code", self.log_code), ("time", self.log_time))
        for name, column in columns:
            with open(os.path.join(directory, f"{name}.bin"), "wb") as fh:
                column.tofile(fh)
        index = {
            "format": "code[i] is the kind of a span opening at time[i], or -1 for the "
                      "innermost open span closing; the log stops after log_limit entries",
            "log_limit": self.log_limit,
            "entries": len(self.log_code),
            "spans_total": sum(self.count),
            "columns": {name: column.typecode for name, column in columns},
            "kinds": [
                {"kind": k, "name": n, "layer": lay, "count": c, "self_s": s}
                for k, (n, lay, c, s) in enumerate(
                    zip(self.names, self.layers, self.count, self.self_s)
                )
            ],
        }
        with open(os.path.join(directory, "index.json"), "w") as fh:
            json.dump(index, fh, indent=1)
