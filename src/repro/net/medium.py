"""The shared wireless medium.

A binary-interference (unit-disk) channel model in the NS-2 tradition:

* a frame is *deliverable* to receivers within ``radio_range`` (250 m),
* it *occupies the channel* (carrier sense, interference) out to
  ``interference_range`` (550 m — NS-2's carrier-sense/interference
  default),
* a reception is corrupted when any other transmission impinges on the
  receiver during the reception window, or when the receiver itself
  transmits — this is what produces the hidden-terminal losses that drive
  the paper's Figure 1(a) for broadcast (no-RTS/CTS) traffic.

Node positions are sampled once per frame at transmission start; frames
last << 10 ms while nodes move <= 20 m/s, so intra-frame motion is
negligible.

Reception records
-----------------
Every transmission is one :class:`Transmission` record owned by the
medium: the distance to every radio it reaches (``rx``), the radios that
can decode it (``deliverable``), and the records it overlapped in time.
Radios keep no per-reception state.  Carrier sense is "transmitting, or
some active record reaches me"; a copy's capture and half-duplex verdict
is taken once, when its record ends, from the overlaps.  So a radio is
called only when it has something to do: at the start of a record the
contending radios it reaches get
:meth:`~repro.net.phy.PhyRadio.on_tx_start` (their busy edge), and at its
end the deliverable radios plus the contending or EIFS-flagged radios it
reaches get :meth:`~repro.net.phy.PhyRadio.on_tx_end`, merged in
registration order.  A record leaves the active set at the start of its
``phy.tx_end`` event, and no transmission may start inside that event
(asserted), which is what makes the batched verdicts equal to the
incremental per-radio bookkeeping they replace.

Fan-out cost
------------
AGFW traffic is broadcast-only at the MAC (no RTS/CTS), so per-frame
fan-out is *the* hot path of every experiment.  By default the medium
resolves fan-out through a :class:`~repro.geo.spatial.SpatialIndex`
(uniform grid, cell = interference range, mobility-aware lazy
rebucketing) instead of scanning every registered radio — O(radios in
the neighbouring cells) instead of O(N), with **bit-identical**
delivery/corruption outcomes.  ``index_mode`` selects:

* ``"grid"``  — spatial index (default),
* ``"brute"`` — the original full scan,
* ``"cross"`` — run the index *and* verify it against the full scan on
  every query, raising on any divergence (the equivalence regression
  harness).

Two further orthogonal axes vectorize the hot path (PR 7), each behind
the same byte-identical discipline:

* ``spatial_mode`` — ``"obj"`` keeps the object-graph index above;
  ``"array"`` swaps in :class:`repro.geo.spatial_array.ArraySpatialIndex`
  (numpy batch kernels; the whole fan-out classified in a few ufunc
  sweeps) whose deltas give each record's distances;
  ``"cross"`` runs the array path and verifies the full classification —
  membership, order, deliverability, and bitwise distances — against the
  scalar object computation on every transmission.  Falls back to
  ``"obj"`` when numpy is unavailable or ``index_mode="brute"`` pins the
  reference scan.
* ``pool_mode`` — ``"off"`` allocates a MAC frame per transmission;
  ``"on"`` recycles MAC frames through a :class:`repro.net.pool.FramePool`;
  ``"cross"`` additionally scrub-verifies every frame across the free
  boundary.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.geo import vecops
from repro.geo.spatial import SpatialIndex
from repro.geo.spatial_array import ArraySpatialIndex, FanOut
from repro.geo.vec import Position
from repro.net.mac.frames import MacFrame
from repro.net.pool import FramePool, validate_pool_mode
from repro.sim.engine import MEDIUM_ACTOR, Simulator
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.phy import PhyRadio
    from repro.sim.keyed import KeyedSimulator
    from repro.sim.shard.worker import ShardBridge

__all__ = [
    "Transmission",
    "RadioMedium",
    "ReceptionLedgerError",
    "INDEX_MODES",
    "SPATIAL_MODES",
    "SpatialCoherenceError",
    "validate_spatial_mode",
]

INDEX_MODES = ("grid", "brute", "cross")
SPATIAL_MODES = ("obj", "array", "cross")

#: Key-scope tag for the sender's transmission-completion work; sorts
#: before every receiver tag ``(node_id,)`` because node ids are >= 0.
_SENDER_SCOPE = (-1,)


def validate_spatial_mode(mode: str) -> str:
    """Validate a ``spatial_mode`` value, returning it for chaining."""
    if mode not in SPATIAL_MODES:
        raise ValueError(f"spatial_mode must be one of {SPATIAL_MODES}")
    return mode


class SpatialCoherenceError(AssertionError):
    """The vectorized fan-out diverged from the scalar object path."""


@dataclass(slots=True, eq=False)
class Transmission:
    """One frame in flight: the medium's reception record for it.

    ``rx`` maps the registration row of every radio the frame reaches
    (within interference range) to that radio's distance from the
    sender, in registration order; ``deliverable`` lists the radios
    within radio range, also in registration order.  ``overlaps`` holds
    every record on the air at the same time: those active when this one
    started, plus those that start before it ends.  Identity semantics
    (``eq=False``): records are compared and removed by object.
    """

    uid: int
    sender_id: int
    sender_pos: Position
    frame: MacFrame
    start: float
    end: float
    rx: Dict[int, float]
    deliverable: Sequence["PhyRadio"]
    overlaps: List["Transmission"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class ReceptionLedgerError(AssertionError):
    """Deliverable copies put on the air do not add up to their fates."""


class RadioMedium:
    """Connects all :class:`~repro.net.phy.PhyRadio` instances.

    The medium owns range semantics and every reception record; radios
    own only their transmit state and counters.  ``transmit`` is called
    by a radio that has already won its MAC-level contention.
    """

    def __init__(
        self,
        sim: Simulator,
        tracer: Optional[Tracer] = None,
        radio_range: float = 250.0,
        interference_range: float = 550.0,
        index_mode: str = "grid",
        index_cell_size: Optional[float] = None,
        index_refresh_quantum: Optional[float] = None,
        spatial_mode: str = "obj",
        pool_mode: str = "off",
    ) -> None:
        if interference_range < radio_range:
            raise ValueError("interference range must cover the radio range")
        if index_mode not in INDEX_MODES:
            raise ValueError(f"index_mode must be one of {INDEX_MODES}")
        validate_spatial_mode(spatial_mode)
        validate_pool_mode(pool_mode)
        self.sim = sim
        self.tracer = tracer
        self.radio_range = radio_range
        self.interference_range = interference_range
        self.index_mode = index_mode
        self.spatial_mode = spatial_mode
        self.pool_mode = pool_mode
        self._radios: List["PhyRadio"] = []
        self._radio_range2 = radio_range * radio_range
        self._interference_range2 = interference_range * interference_range
        self.frames_sent = 0
        #: Deliverable copies put on the air (the reception ledger's total).
        self.copies_on_air = 0
        # Per-medium so a second simulation in the same process restarts at
        # uid 1 and trace output stays identical run-to-run (previously a
        # module-global leaked state across Simulator instances).
        self._tx_uid = itertools.count(1)
        #: Records on the air, in start order (read-only outside the medium).
        self.active: List[Transmission] = []
        #: Radios whose ``carrier_listener`` is set (contending), by row.
        self.listening: Dict[int, "PhyRadio"] = {}
        #: Radios whose last channel release followed a corrupted
        #: decodable frame (their MAC defers EIFS), by row.
        self.eifs: Dict[int, "PhyRadio"] = {}
        #: True while a ``phy.tx_end`` event runs (no transmission may start).
        self._ending = False
        #: Frame pool; ``None`` (pool_mode="off") keeps every consumer on
        #: the exact pre-pool allocation path.
        self.frame_pool: Optional[FramePool] = (
            FramePool(pool_mode) if pool_mode != "off" else None
        )
        # Backend resolution: the array backend replaces the grid; the
        # brute reference scan and numpy-less installs keep the object
        # path (graceful fallback, surfaced via spatial_effective).
        use_array = (
            spatial_mode != "obj" and index_mode != "brute" and vecops.HAVE_NUMPY
        )
        self.spatial_effective = spatial_mode if use_array else "obj"
        cell = index_cell_size if index_cell_size is not None else interference_range
        self._aindex: Optional[ArraySpatialIndex] = (
            ArraySpatialIndex(cell_size=cell, refresh_quantum=index_refresh_quantum)
            if use_array
            else None
        )
        self._index: Optional[SpatialIndex] = None
        if not use_array and index_mode != "brute":
            self._index = SpatialIndex(cell_size=cell, refresh_quantum=index_refresh_quantum)
        #: Static fan-out memo: sender node id -> (index version, sender
        #: (x, y), the record's ``rx`` and ``deliverable``).  Consulted
        #: only while the index proves every radio static; any membership
        #: change or teleport bumps the version and drops it.  Cached
        #: containers are shared by every record built from them and
        #: never mutated.
        self._fanout_memo: Dict[
            int,
            Tuple[int, Tuple[float, float], Dict[int, float], List["PhyRadio"]],
        ] = {}
        # Sharded execution (repro.sim.shard): when set, fan-out only
        # touches owned radios, transmission completion runs under
        # per-receiver key scopes, and every local transmission is
        # announced to the bridge for cross-border mirroring.
        self._shard_owned: Optional[FrozenSet[int]] = None
        self._shard_keyed: Optional["KeyedSimulator"] = None
        self._shard_bridge: Optional["ShardBridge"] = None

    def set_shard_context(
        self,
        keyed_sim: "KeyedSimulator",
        owned: FrozenSet[int],
        bridge: Optional["ShardBridge"],
    ) -> None:
        """Enter sharded operation (called once by the shard worker)."""
        self._shard_keyed = keyed_sim
        self._shard_owned = owned
        self._shard_bridge = bridge

    def register(self, radio: "PhyRadio") -> None:
        """Add ``radio``; its registration index becomes ``radio.row``."""
        radio.row = len(self._radios)
        self._radios.append(radio)
        if self._aindex is not None:
            self._aindex.add(radio, self.sim.now)
        elif self._index is not None:
            self._index.add(radio, self.sim.now)

    @property
    def radios(self) -> Sequence["PhyRadio"]:
        """All registered radios, in registration order.

        A live read-only view (not a defensive copy — this sits on hot
        paths); callers must not mutate it.
        """
        return self._radios

    def carrier_at(self, row: int) -> bool:
        """True while some record on the air reaches the radio at ``row``."""
        for tx in self.active:
            if row in tx.rx:
                return True
        return False

    # ------------------------------------------------------------ candidates
    def _candidates(self, center: Position, rng: float) -> Sequence["PhyRadio"]:
        """Radios that may lie within ``rng`` of ``center`` (superset,
        registration order), per the configured index mode."""
        if self._aindex is not None:
            return self._aindex.candidates_within(center, rng, self.sim.now)
        if self._index is None:
            return self._radios
        return self._index.candidates_within(center, rng, self.sim.now)

    def _cross_check(
        self,
        center: Position,
        rng: float,
        selected: List["PhyRadio"],
        exclude: Optional["PhyRadio"],
    ) -> None:
        """Verify an index-derived result against the brute-force scan."""
        limit = rng * rng
        brute = [
            radio
            for radio in self._radios
            if radio is not exclude and radio.position.distance2_to(center) <= limit
        ]
        if brute != selected:  # object identity + order — the full contract
            expected = [r.node_id for r in brute]
            got = [r.node_id for r in selected]
            raise RuntimeError(
                "spatial index diverged from brute-force scan at "
                f"t={self.sim.now:.9f}: expected {expected}, got {got}"
            )

    # --------------------------------------------------------------- fan-out
    def _fanout(
        self, sender: "PhyRadio", sender_pos: Position, fan: Optional[FanOut]
    ) -> Tuple[Dict[int, float], List["PhyRadio"]]:
        """A new record's ``rx`` and ``deliverable``: from the static memo,
        the batched classification, or the scalar scan."""
        index = self._aindex if self._aindex is not None else self._index
        # -1 disables the memo (brute mode, or some radio can move); the
        # index version is read *before* the gather, so a concurrent
        # invalidation would make the stored stamp compare stale — never
        # the reverse.
        memo_version = index.version if index is not None and index.all_static else -1
        pos_key = (sender_pos.x, sender_pos.y)
        if memo_version >= 0:
            cached = self._fanout_memo.get(sender.node_id)
            if cached is not None and cached[0] == memo_version and cached[1] == pos_key:
                return cached[2], cached[3]
        if fan is None:
            rx, deliverable = self._scalar_fanout(sender.node_id, sender_pos)
        else:
            radios = self._radios
            owned = self._shard_owned
            rows, fdx, fdy, fdel = fan.rows, fan.dx, fan.dy, fan.deliverable
            # Scalar hypot on the batch-derived deltas: bitwise what
            # own_pos.distance_to(sender_pos) computes on the object path,
            # so capture ratios and loss draws see identical floats.
            if owned is None:
                rx = dict(zip(rows, map(math.hypot, fdx, fdy)))
                deliverable = list(compress(map(radios.__getitem__, rows), fdel))
            else:
                rx = {}
                deliverable = []
                for row, dxv, dyv, deliv in zip(rows, fdx, fdy, fdel):
                    radio = radios[row]
                    if radio.node_id in owned:
                        rx[row] = math.hypot(dxv, dyv)
                        if deliv:
                            deliverable.append(radio)
            if self.spatial_mode == "cross":
                self._spatial_cross_check(sender, sender_pos, rx, fan)
        if memo_version >= 0:
            self._fanout_memo[sender.node_id] = (memo_version, pos_key, rx, deliverable)
        return rx, deliverable

    def _scalar_fanout(
        self, sender_id: int, sender_pos: Position
    ) -> Tuple[Dict[int, float], List["PhyRadio"]]:
        """Scalar fan-out over the index candidates (object path and
        mirrored ghosts), owned radios only when sharded."""
        owned = self._shard_owned
        radio_range2 = self._radio_range2
        interference_range2 = self._interference_range2
        rx: Dict[int, float] = {}
        deliverable: List["PhyRadio"] = []
        for radio in self._candidates(sender_pos, self.interference_range):
            # Skips the sender (and, sharded, its dormant replica).
            if radio.node_id == sender_id:
                continue
            if owned is not None and radio.node_id not in owned:
                continue
            pos = radio.position
            d2 = pos.distance2_to(sender_pos)
            if d2 <= interference_range2:
                rx[radio.row] = pos.distance_to(sender_pos)
                if d2 <= radio_range2:
                    deliverable.append(radio)
        return rx, deliverable

    # ------------------------------------------------------------- transmit
    def transmit(self, sender: "PhyRadio", frame: MacFrame, duration: float) -> Transmission:
        """Put ``frame`` on the air for ``duration`` seconds.

        Returns the transmission record (its ``end`` is when the sender's
        radio frees up).  Reception outcomes are decided when it ends.
        """
        now = self.sim.now
        aindex = self._aindex
        fan: Optional[FanOut] = None
        if aindex is not None:
            # One batched sweep classifies the whole fan-out; the sender's
            # own position comes from the same kernel (bitwise equal to
            # the scalar interpolation, see repro.geo.vecops).
            fan = aindex.classify_fanout(
                sender.node_id,
                now,
                self.interference_range,
                self._radio_range2,
                self._interference_range2,
            )
            sender_pos = Position(fan.sx, fan.sy)
        else:
            sender_pos = sender.position
        self.frames_sent += 1
        tracer = self.tracer
        # enabled_for guard: the phy.tx payload below is the biggest dict
        # built anywhere on the hot path — skip it entirely when nobody
        # retains or subscribes to phy.tx records.
        if tracer is not None and tracer.enabled_for("phy.tx"):
            tracer.emit(
                now,
                "phy.tx",
                node=sender.node_id,
                frame_kind=frame.kind.value,
                frame_uid=frame.uid,
                dst=frame.dst.value,
                packet_uid=frame.packet.uid if frame.packet else None,
                packet_kind=frame.packet.kind if frame.packet else None,
                packet_obj=frame.packet,
                pos=sender_pos.as_tuple(),
                duration=duration,
            )
        rx, deliverable = self._fanout(sender, sender_pos, fan)
        if self.index_mode == "cross":
            radios = self._radios
            self._cross_check(
                sender_pos, self.interference_range, [radios[row] for row in rx], sender
            )
        tx = Transmission(
            next(self._tx_uid), sender.node_id, sender_pos, frame, now, now + duration,
            rx, deliverable,
        )
        sender.begin_transmit(tx)
        self._open(tx)

        pool = self.frame_pool
        keyed = self._shard_keyed

        def _finish() -> None:
            self._complete(tx, sender, keyed)
            if pool is not None:
                # The frame's airtime is over and every receiver has
                # consumed it synchronously above — recycle it.
                pool.release_frame(frame)

        finish_event = self.sim.schedule(
            duration, _finish, priority=-1, name="phy.tx_end", actor=MEDIUM_ACTOR
        )
        bridge = self._shard_bridge
        if bridge is not None:
            bridge.note_local_tx(tx, frame, finish_event)
        return tx

    def _open(self, tx: Transmission) -> None:
        """Put a record on the air: link it with every active record,
        count its deliverable copies, and offer a busy edge to each
        contending radio it reaches, in registration order."""
        assert not self._ending, "a transmission started inside a phy.tx_end event"
        active = self.active
        tx.overlaps.extend(active)
        for other in active:
            other.overlaps.append(tx)
        active.append(tx)
        self.copies_on_air += len(tx.deliverable)
        listening = self.listening
        if listening:
            rx = tx.rx
            radios = self._radios
            for row in sorted(row for row in listening if row in rx):
                radios[row].on_tx_start(tx)

    def _complete(
        self,
        tx: Transmission,
        sender: Optional["PhyRadio"],
        keyed: Optional["KeyedSimulator"],
    ) -> None:
        """A record's ``phy.tx_end``: take it off the air, release the
        sender (``None`` for a mirrored ghost), then run each visited
        radio's completion.

        Sharded, every participant runs under its own key scope so it
        draws causal keys independent of which receivers this shard
        owns; the sender tag (-1,) sorts before every node-id tag and
        visits come in registration (node-id) order, so the scope order
        matches single-engine schedule order.  Radios with nothing to do
        open no scope, which draws no keys (scopes restart their
        counters).
        """
        self.active.remove(tx)
        self._ending = True
        try:
            if sender is not None:
                if keyed is None:
                    sender.end_transmit(tx)
                else:
                    with keyed.key_scope(_SENDER_SCOPE, actor=tx.sender_id):
                        sender.end_transmit(tx)
            visits = self._visits(tx)
            if keyed is None:
                for radio, deliverable in visits:
                    radio.on_tx_end(tx, deliverable)
            else:
                for radio, deliverable in visits:
                    with keyed.key_scope((radio.node_id,)):
                        radio.on_tx_end(tx, deliverable)
        finally:
            self._ending = False
        # Finished records are only read through ``rx``/``sender_id`` by
        # the records they overlapped; drop the links so they don't chain.
        tx.overlaps.clear()

    def _visits(self, tx: Transmission) -> Iterable[Tuple["PhyRadio", bool]]:
        """``(radio, deliverable)`` for every radio the end of ``tx`` has
        work for, in registration order: the deliverable radios, merged
        with the contending or EIFS-flagged ones it reaches (the only
        bystanders whose carrier release changes anything)."""
        deliverable = tx.deliverable
        listening = self.listening
        rx = tx.rx
        rows = [row for row in listening if row in rx]
        rows.extend(row for row in self.eifs if row in rx and row not in listening)
        radios = self._radios
        extra = [row for row in rows if radios[row] not in deliverable]
        if not extra:
            return zip(deliverable, repeat(True))
        visits = list(zip(deliverable, repeat(True)))
        deliverable_rows = [radio.row for radio in deliverable]
        # Insert from the highest row down so earlier positions hold.
        for row in sorted(extra, reverse=True):
            visits.insert(bisect_left(deliverable_rows, row), (radios[row], False))
        return visits

    # --------------------------------------------------- ghost transmissions
    def apply_ghost_start(
        self,
        sender_id: int,
        sender_pos: Position,
        frame: MacFrame,
        start: float,
        end: float,
    ) -> Transmission:
        """Mirror a remote shard's transmission onto our owned radios.

        Builds a record (its uid is local — uids are deliberately
        outside the trace-equivalence contract, see DET-006) over every
        owned radio in range, with the scalar distance computation that
        is bitwise-equal to the owner shard's batched path, and puts it
        on the air.  Emits nothing and bumps no trace counters: the owner
        already accounted for this frame.
        """
        rx, deliverable = self._scalar_fanout(sender_id, sender_pos)
        tx = Transmission(
            next(self._tx_uid), sender_id, sender_pos, frame, start, end, rx, deliverable
        )
        self._open(tx)
        return tx

    def apply_ghost_finish(self, tx: Transmission) -> None:
        """Complete a mirrored transmission (receiver side only).

        Runs at the owner's ``phy.tx_end`` key, so each receiver scope
        draws exactly the keys the single engine would."""
        keyed = self._shard_keyed
        assert keyed is not None
        self._complete(tx, None, keyed)

    # -------------------------------------------------------------- ledger
    def check_reception_ledger(self) -> None:
        """Raise :class:`ReceptionLedgerError` unless every deliverable
        copy put on the air was delivered, collided, impaired, missed
        while its radio was down, or is still in flight."""
        settled = sum(
            r.frames_delivered + r.frames_collided + r.frames_impaired + r.frames_down
            for r in self._radios
        )
        in_flight = sum(len(tx.deliverable) for tx in self.active)
        if settled + in_flight != self.copies_on_air:
            raise ReceptionLedgerError(
                f"{self.copies_on_air} deliverable copies went on the air but "
                f"{settled} were settled and {in_flight} are in flight"
            )

    def _spatial_cross_check(
        self,
        sender: "PhyRadio",
        sender_pos: Position,
        rx: Dict[int, float],
        fan: FanOut,
    ) -> None:
        """spatial_mode="cross": verify the batched classification (and the
        record's ``rx`` built from it) against the scalar object
        computation — membership, order, deliverability, and *bitwise*
        sender position and distances."""
        ref = sender.position
        if (ref.x, ref.y) != (sender_pos.x, sender_pos.y):
            raise SpatialCoherenceError(
                f"batched sender position {sender_pos.as_tuple()!r} != scalar "
                f"{ref.as_tuple()!r} at t={self.sim.now:.9f}"
            )
        expected: List[Tuple["PhyRadio", float, bool]] = []
        for radio in self._radios:
            if radio is sender:
                continue
            rpos = radio.position
            d2 = rpos.distance2_to(sender_pos)
            if d2 <= self._interference_range2:
                expected.append(
                    (radio, rpos.distance_to(sender_pos), d2 <= self._radio_range2)
                )
        radios = self._radios
        got = [
            (radios[row], dist, deliv)
            for (row, dist), deliv in zip(rx.items(), fan.deliverable)
        ]
        if len(expected) != len(got) or any(
            e[0] is not g[0] or e[1] != g[1] or e[2] != g[2]
            for e, g in zip(expected, got)
        ):
            raise SpatialCoherenceError(
                "vectorized fan-out diverged from the scalar path at "
                f"t={self.sim.now:.9f}: expected "
                f"{[(r.node_id, d, dl) for r, d, dl in expected]}, got "
                f"{[(r.node_id, d, dl) for r, d, dl in got]}"
            )

    # --------------------------------------------------------------- faults
    def invalidate_radio(self, radio: "PhyRadio") -> None:
        """A radio's liveness changed (crash/recover): drop derived caches.

        Geometry is untouched — a down node still occupies space and
        blocks/interferes as energy — but any cached fan-out the caller
        may layer on liveness must rebuild, so the static fan-out memo is
        dropped and the spatial index version is bumped (which also
        drops its gather cache).  Never called on the no-faults path, so
        the seed behaviour is byte-identical.
        """
        self._fanout_memo.clear()
        if self._aindex is not None:
            self._aindex.invalidate_all()
        elif self._index is not None:
            self._index.invalidate_all()

    # -------------------------------------------------------------- queries
    def neighbors_within(self, radio: "PhyRadio", rng: float) -> List["PhyRadio"]:
        """Radios within ``rng`` metres of ``radio`` (excluding itself)."""
        center = radio.position
        limit = rng * rng
        result = [
            other
            for other in self._candidates(center, rng)
            if other is not radio and other.position.distance2_to(center) <= limit
        ]
        if self.index_mode == "cross":
            self._cross_check(center, rng, result, radio)
        return result

    def index_stats(self) -> Optional[dict]:
        """Spatial-index telemetry (``None`` in brute-force mode)."""
        if self._aindex is not None:
            return self._aindex.stats()
        return self._index.stats() if self._index is not None else None
