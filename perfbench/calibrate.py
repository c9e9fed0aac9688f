"""Host cost in reference seconds: timings scaled by an interleaved reference loop.

The benchmark host is shared, and its speed drifts by up to ~1.5x within a
minute as other tenants come and go; a scenario's raw CPU time moves with
it.  So the measured code runs in short slices (``SLICE_S`` of process CPU,
cut by a ``SIGPROF`` interval timer), and between two slices the signal
handler times one unit of a fixed pure-Python reference loop.  Each slice's
CPU and wall time is scaled by ``REF_UNIT_S`` over the mean time of the
reference units either side of it, so a slow stretch of the host slows the
slice and its reference alike and the scaled sum stays put.  The result
reads as *reference seconds*: the time the measured code would take on a
host where one reference unit takes exactly ``REF_UNIT_S``, which is about
what a unit takes between slices of a scenario on the 2-vCPU Xeon host
described in README.md, so reference and raw seconds read alike there.

The reference loop is the benchmark's own code, never the simulator's, so
a change to the simulator moves the scaled time exactly as it moves the raw
time on a steady host.  The handler runs between bytecodes of the main
thread and touches no simulator state; the digest checks prove that the
interruptions change nothing.
"""

from __future__ import annotations

import gc
import heapq
import resource
import signal
import time
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: Process CPU seconds of measured code between two reference units.
SLICE_S = 0.05

#: Nominal seconds of one reference unit: the scale of a reference second.
REF_UNIT_S = 0.0075

#: Heap pops per reference unit.
REF_STEPS = 4000

#: Objects the reference unit reads, ~17 MB of them: a working set past the
#: 2 MB L2, like the simulator's, so that a neighbour contending for the
#: shared cache slows the reference as it slows the simulator.  (A table
#: that fitted in L2 tracked the simulator about three times worse.)
TABLE_ITEMS = 200_000


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b

    def weigh(self, t: float) -> float:
        return (self.a * t + self.b) % 1.0


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # Linux: KiB


_rss_before = _maxrss_kib()
_ITEMS = [_Item((k * 0.618034) % 1.0, (k * 0.414214) % 1.0) for k in range(TABLE_ITEMS)]
_HEAP = [(k * 0.001, k) for k in range(256)]
#: Peak resident memory the table added to this process, for callers
#: reporting the measured program's memory without it.
TABLE_RSS_KIB = _maxrss_kib() - _rss_before


def reference_unit() -> float:
    """A fixed amount of interpreter work shaped like an event loop: heap
    pops and pushes, a method call on an object scattered over the table,
    a dict update and float arithmetic."""
    heap = list(_HEAP)
    counts: dict = {}
    items = _ITEMS
    acc = 0.0
    for _ in range(REF_STEPS):
        t, i = heapq.heappop(heap)
        v = items[(i * 2654435761) % TABLE_ITEMS].weigh(t)
        k = i & 1023
        counts[k] = counts.get(k, 0) + 1
        acc += v
        heapq.heappush(heap, (t + v + 0.001, (i * 31 + 7) & 65535))
    return acc


def time_reference() -> Tuple[float, float]:
    """(CPU, wall) seconds of one reference unit.  The collector is off
    while it runs: a collection would scan the measured program's heap and
    charge its size to the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        reference_unit()
        return time.process_time() - cpu0, time.perf_counter() - wall0
    finally:
        if enabled:
            gc.enable()


def children_cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


class ReferenceClock:
    """Context manager timing its body in slices, each scaled by the
    reference units around it.

    After the body: ``cpu_s`` and ``wall_s`` are raw seconds, ``ref_cpu_s``
    and ``ref_wall_s`` reference seconds.  CPU includes waited-for children
    (so a multi-process backend cannot hide work); their CPU is scaled by
    the body's mean CPU scale, since they run outside the slices.
    """

    def __init__(self) -> None:
        self.slices: List[Tuple[float, float]] = []
        self.refs: List[Tuple[float, float]] = []
        self.cpu_s = self.wall_s = self.ref_cpu_s = self.ref_wall_s = 0.0

    def _cut(self) -> None:
        cpu, wall = time.process_time(), time.perf_counter()
        self.slices.append((cpu - self._cpu0, wall - self._wall0))
        self.refs.append(time_reference())

    def _on_timer(self, signum, frame) -> None:
        if not self._open:
            return  # a signal still pending when the body ended
        self._cut()
        self._cpu0, self._wall0 = time.process_time(), time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, SLICE_S)

    def __enter__(self) -> "ReferenceClock":
        self.refs.append(time_reference())
        self._kids0 = children_cpu()
        self._open = True
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        self._cpu0, self._wall0 = time.process_time(), time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, SLICE_S)
        return self

    def __exit__(self, *exc) -> None:
        self._open = False
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._cut()
        signal.signal(signal.SIGPROF, self._previous)
        kids = children_cpu() - self._kids0
        own_cpu = ref_cpu = 0.0
        for k, (cpu, wall) in enumerate(self.slices):
            before, after = self.refs[k], self.refs[k + 1]
            own_cpu += cpu
            self.wall_s += wall
            ref_cpu += cpu * 2 * REF_UNIT_S / (before[0] + after[0])
            self.ref_wall_s += wall * 2 * REF_UNIT_S / (before[1] + after[1])
        scale = ref_cpu / own_cpu if own_cpu > 0 else 1.0
        self.cpu_s = own_cpu + kids
        self.ref_cpu_s = ref_cpu + kids * scale


def reference_timed(fn: Callable[[], T]) -> Tuple[T, float]:
    """``fn()`` and its wall time in reference seconds, scaled by one
    reference unit just before and one just after (for calls far shorter
    than a slice)."""
    before = time_reference()[1]
    started = time.perf_counter()
    value = fn()
    elapsed = time.perf_counter() - started
    after = time_reference()[1]
    return value, elapsed * 2 * REF_UNIT_S / (before + after)
