"""Traced-run instrumentation: wrap each layer's public entry points in spans.

Nothing under ``src/`` changes.  :class:`Instrumentation` replaces class
attributes of the simulator's layers with span-recording wrappers for the
duration of a ``with`` block and restores the originals on exit, so the
same process can run an untraced scenario before or after.  Wrappers only
observe: they pass arguments and results through unchanged, which the
benchmark proves by comparing the traced run's output digest with the
untraced one.

Install before ``build_scenario``: components bind some of these methods
at construction time (``mac.receive_callback = router.on_packet``), and
the events scheduled while building must carry wrapped callbacks too.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.aant import AantAuthenticator
from repro.core.agfw import AgfwRouter
from repro.core.trapdoor import TrapdoorFactory
from repro.faults.loss import LossProcess
from repro.geo.spatial_array import ArraySpatialIndex
from repro.net.mac.dcf import DcfMac
from repro.net.medium import RadioMedium
from repro.net.node import Node
from repro.net.phy import PhyRadio
from repro.routing.base import BaseRouter
from repro.routing.gpsr import GpsrRouter
from repro.sim.engine import Event, Simulator
from repro.sim.trace import Tracer

from perfbench.spans import SpanRecorder, callback_module, layer_of_module

#: (class, method, span name, layer) for the plain pass-through wrappers.
ENTRY_POINTS: Tuple[Tuple[type, str, str, str], ...] = (
    (Simulator, "run", "engine.run", "engine"),
    (Simulator, "schedule", "engine.schedule", "engine"),
    (RadioMedium, "transmit", "medium.transmit", "medium"),
    (PhyRadio, "on_tx_start", "phy.on_tx_start", "phy"),
    (PhyRadio, "on_tx_end", "phy.on_tx_end", "phy"),
    (DcfMac, "send", "mac.send", "mac"),
    (DcfMac, "on_frame", "mac.on_frame", "mac"),
    (DcfMac, "on_node_down", "mac.on_node_down", "mac"),
    (DcfMac, "on_node_up", "mac.on_node_up", "mac"),
    (AgfwRouter, "on_packet", "routing.on_packet", "routing"),
    (GpsrRouter, "on_packet", "routing.on_packet", "routing"),
    (BaseRouter, "send_data", "routing.send_data", "routing"),
    (Tracer, "emit", "trace.emit", "trace"),
    (TrapdoorFactory, "seal", "crypto.seal", "crypto"),
    (TrapdoorFactory, "try_open", "crypto.try_open", "crypto"),
    (AantAuthenticator, "sign_hello", "crypto.sign_hello", "crypto"),
    (AantAuthenticator, "verify_hello", "crypto.verify_hello", "crypto"),
    (LossProcess, "should_drop", "faults.should_drop", "faults"),
    (Node, "fail", "faults.node_fail", "faults"),
    (Node, "recover", "faults.node_recover", "faults"),
)

#: MAC carrier-sense callbacks, whose effective share is counted.
CHANNEL_CALLBACKS = ("on_channel_busy", "on_channel_idle")

#: Span names whose count is ``crypto.charges`` (each charges a modelled delay).
CRYPTO_CHARGES = ("crypto.seal", "crypto.try_open", "crypto.sign_hello", "crypto.verify_hello")


def callback_span_name(layer: str) -> str:
    """Span name of a scheduled callback attributed to ``layer``."""
    return f"{layer}.callback"


class Instrumentation:
    """Context manager that patches the entry points into ``recorder``.

    Besides spans it keeps the few counts a span cannot carry: MAC
    channel callbacks that scheduled or cancelled an event
    (:attr:`effective`, by span name), fan-out rows and deliverable
    receivers per ``classify_fanout`` query, and the spatial index's re-bin
    counter when the first query after ``pause`` arrives (so re-bins after
    the pause can be told apart).
    """

    def __init__(self, recorder: SpanRecorder, pause: float) -> None:
        self.recorder = recorder
        self.pause = pause
        self.fanout_rows = 0
        self.fanout_deliverable = 0
        self.rebins_at_pause: Optional[int] = None
        self.effective: Dict[str, int] = {}
        self._saved: List[Tuple[type, str, object]] = []
        self._callback_kinds: Dict[object, int] = {}

    # ------------------------------------------------------------ patching
    def _patch(self, cls: type, attr: str, replacement: Callable) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def __enter__(self) -> "Instrumentation":
        rec = self.recorder
        for cls, attr, name, layer in ENTRY_POINTS:
            self._patch(cls, attr, rec.wrap(cls.__dict__[attr], rec.kind_of(name, layer)))
        for attr in CHANNEL_CALLBACKS:
            self._patch(DcfMac, attr, self._channel_callback(DcfMac.__dict__[attr], attr))
        self._patch(Simulator, "schedule_at", self._schedule_at(Simulator.__dict__["schedule_at"]))
        self._patch(Event, "cancel", self._cancel(Event.__dict__["cancel"]))
        self._patch(
            ArraySpatialIndex, "classify_fanout",
            self._classify_fanout(ArraySpatialIndex.__dict__["classify_fanout"]),
        )
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    # ------------------------------------------------- special entry points
    def _callback_kind(self, callback: Callable) -> int:
        """Span kind for a scheduled callback, cached per code object (each
        schedule of a closure or lambda makes a new function object)."""
        fn = getattr(callback, "__func__", callback)
        key = getattr(fn, "__code__", None) or callback_module(callback)
        kind = self._callback_kinds.get(key)
        if kind is None:
            layer = layer_of_module(callback_module(callback))
            kind = self._callback_kinds[key] = self.recorder.kind_of(
                callback_span_name(layer), layer
            )
        return kind

    def _channel_callback(self, original: Callable, attr: str) -> Callable:
        """A MAC channel callback counts as effective when an event was
        scheduled or a live one cancelled while it ran."""
        rec = self.recorder
        name = f"mac.{attr}"
        spanned = rec.wrap(original, rec.kind_of(name, "mac"))
        count, effective = rec.count, self.effective
        scheduled = rec.kind_of("engine.schedule_at", "engine")
        cancelled = rec.kind_of("engine.cancel", "engine")
        effective[name] = 0

        def channel_callback(mac):
            before = count[scheduled] + count[cancelled]
            result = spanned(mac)
            if count[scheduled] + count[cancelled] != before:
                effective[name] += 1
            return result

        return channel_callback

    def _schedule_at(self, original: Callable) -> Callable:
        rec = self.recorder
        wrap, callback_kind = rec.wrap, self._callback_kind

        def schedule_at(sim, time, callback, **kwargs):
            return original(sim, time, wrap(callback, callback_kind(callback)), **kwargs)

        return wrap(schedule_at, rec.kind_of("engine.schedule_at", "engine"))

    def _cancel(self, original: Callable) -> Callable:
        rec = self.recorder
        live = rec.wrap(original, rec.kind_of("engine.cancel", "engine"))
        noop = rec.wrap(original, rec.kind_of("engine.cancel_noop", "engine"))

        def cancel(event):
            # A cancel on a fired or already-cancelled event changes nothing.
            return noop(event) if event.cancelled else live(event)

        return cancel

    def _classify_fanout(self, original: Callable) -> Callable:
        rec = self.recorder
        kind = rec.kind_of("spatial.classify_fanout", "spatial")

        def classify_fanout(index_obj, sender_node_id, now, *args):
            if self.rebins_at_pause is None and now > self.pause:
                self.rebins_at_pause = index_obj.rebins
            rec.open(kind)
            try:
                fan = original(index_obj, sender_node_id, now, *args)
            finally:
                rec.close(kind)
            self.fanout_rows += len(fan.rows)
            self.fanout_deliverable += sum(fan.deliverable)
            return fan

        return classify_fanout
