"""Per-node radio (PHY layer).

Decides reception outcomes (delivered / collided / impaired) and exposes
carrier-sense state to the MAC.  The radio keeps no per-reception state:
every transmission is one reception record owned by the
:class:`~repro.net.medium.RadioMedium`, which calls a radio only when it
has something to do:

* :meth:`PhyRadio.on_tx_start` when a record starts reaching a radio
  whose MAC contends — a busy edge if the carrier was idle;
* :meth:`PhyRadio.on_tx_end` when a record ends, for every radio that
  can decode it and for the contending or EIFS-flagged radios it
  reaches — the verdict, the loss draw, delivery and the carrier release.

Half-duplex: a radio that transmits cannot receive, and starting a
transmission corrupts anything it was in the middle of receiving.  A
copy is corrupted when some record overlapping it in time was sent by
the receiver, or reaches the receiver from within
``distance * CAPTURE_DISTANCE_RATIO`` (the pairwise capture rule,
symmetric in which frame started first).

Carrier edges: a busy edge (first impinging energy) and an idle edge
(channel released) go only to :attr:`PhyRadio.carrier_listener`, which a
DCF MAC sets exactly while it contends — the only state in which an edge
can change what it does.  Every other MAC pulls :attr:`carrier_busy` /
:attr:`last_reception_corrupted` when it next contends; :attr:`mac`
still receives every delivered frame.

Fault hooks (both absent by default — the seed code path is unchanged):

* an optional per-receiver **channel loss process**
  (:mod:`repro.faults.loss`) judges every deliverable reception once,
  in event order, and can eat it — modelling fading/shadowing losses
  the unit-disk collision model cannot produce;
* a **down** flag (set by :meth:`repro.net.node.Node.fail`) makes the
  radio genuinely deaf and mute: nothing is delivered, and the crashed
  MAC holds no carrier subscription.  Carrier state is derived from the
  medium's records, so it is correct the instant the node recovers.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.geo.vec import Position
from repro.net.mobility import MobilityModel
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.loss import LossProcess
    from repro.net.mac.dcf import DcfMac
    from repro.net.medium import RadioMedium, Transmission

__all__ = ["PhyRadio"]


#: Signal-to-interference capture: a reception survives an overlapping
#: interferer when the desired signal is >= 10 dB stronger.  With the
#: two-ray path-loss exponent of 4 that means the interferer must be at
#: least 10**(1/4) ~ 1.778x farther away than the desired transmitter
#: (the classic NS-2 550 m / 250 m relationship).
CAPTURE_DISTANCE_RATIO = 10.0 ** 0.25

#: Distance of a radio a record does not reach (never within capture).
_FAR = math.inf


class PhyRadio:
    """The radio of one node."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        medium: "RadioMedium",
        mobility: MobilityModel,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.medium = medium
        self.mobility = mobility
        self.tracer = tracer
        self.mac: Optional["DcfMac"] = None
        self._listener: Optional["DcfMac"] = None
        self._own_tx: Optional["Transmission"] = None
        #: Channel loss process (``None`` = the unimpaired seed channel).
        self._loss: Optional["LossProcess"] = None
        #: Lifecycle fault flag — managed by :meth:`repro.net.node.Node.fail`.
        self.down = False

        self.frames_delivered = 0
        self.frames_collided = 0
        self.frames_impaired = 0
        #: Deliverable copies that ended while the radio was down.
        self.frames_down = 0
        #: Registration index in the medium (assigned by ``register``).
        self.row = -1
        medium.register(self)

    # ---------------------------------------------------------------- faults
    def set_loss_process(self, process: Optional["LossProcess"]) -> None:
        """Install this receiver's channel-loss process (``None`` = none).

        With no process the reception path below runs exactly the
        pre-faults instructions — traces stay byte-identical to the
        unimpaired simulator.
        """
        self._loss = process

    # -------------------------------------------------------------- position
    @property
    def position(self) -> Position:
        return self.mobility.position_at(self.sim.now)

    # --------------------------------------------------------- carrier sense
    @property
    def carrier_listener(self) -> Optional["DcfMac"]:
        """The MAC that receives busy/idle edges; ``None`` while it is not
        contending (it then pulls carrier state instead)."""
        return self._listener

    @carrier_listener.setter
    def carrier_listener(self, listener: Optional["DcfMac"]) -> None:
        self._listener = listener
        if listener is None:
            self.medium.listening.pop(self.row, None)
        else:
            self.medium.listening[self.row] = self

    @property
    def carrier_busy(self) -> bool:
        """Physical carrier sense: any impinging energy or own transmission."""
        return self._own_tx is not None or self.medium.carrier_at(self.row)

    @property
    def transmitting(self) -> bool:
        """True while this radio's own transmission is on the air."""
        return self._own_tx is not None

    @property
    def last_reception_corrupted(self) -> bool:
        """True when the most recent channel-release followed a collision.

        The MAC uses EIFS instead of DIFS after corrupted receptions.
        """
        return self.row in self.medium.eifs

    # ------------------------------------------------------------ transmit
    def transmit(self, frame, duration: float) -> "Transmission":
        """Send a frame; the MAC has already won contention."""
        return self.medium.transmit(self, frame, duration)

    def begin_transmit(self, tx: "Transmission") -> None:
        self._own_tx = tx

    def end_transmit(self, tx: "Transmission") -> None:
        self._own_tx = None
        listener = self._listener
        if listener is not None and not self.medium.carrier_at(self.row):
            listener.on_channel_idle()

    # ------------------------------------------------------------ reception
    def on_tx_start(self, tx: "Transmission") -> None:
        """Record ``tx`` starts reaching this contending radio: a busy
        edge unless the carrier was already busy (own transmission, or a
        record that was on the air before ``tx``)."""
        listener = self._listener
        if listener is None or self._own_tx is not None:
            return
        row = self.row
        for other in tx.overlaps:
            if row in other.rx:
                return
        listener.on_channel_busy()

    def on_tx_end(self, tx: "Transmission", deliverable: bool) -> None:
        """Record ``tx`` has ended and was already taken off the air.

        ``deliverable`` says whether this radio could decode it; the
        medium also visits contending and EIFS-flagged radios it merely
        reached, whose carrier may have been released.
        """
        if self.down:
            # A dead radio decodes nothing (and its reset MAC is not
            # listening).  The loss process is *not* consulted: its
            # stream position is a pure function of receptions judged
            # while alive.
            if deliverable:
                self.frames_down += 1
            return

        row = self.row
        corrupted = False
        if deliverable:
            distance = tx.rx[row]
            # Pairwise capture against every record that overlapped this
            # one: a reception is ruined by an interferer whose signal is
            # within 10 dB of (or stronger than) it, and half-duplex by
            # any overlapping frame this radio sent itself.
            limit = distance * CAPTURE_DISTANCE_RATIO
            node_id = self.node_id
            for other in tx.overlaps:
                if other.sender_id == node_id or other.rx.get(row, _FAR) < limit:
                    corrupted = True
                    break
            impaired = False
            if self._loss is not None:
                # The channel-state draw happens for *every* deliverable
                # reception — independent of interference outcomes — so the
                # RNG stream position depends only on the traffic pattern.
                impaired = self._loss.should_drop(distance)
                if impaired and not corrupted:
                    # The observable damage: a reception that would have been
                    # delivered.  Collided receptions were already lost.
                    self._loss.metrics.deliveries_suppressed += 1
                    self.frames_impaired += 1
                    if self.tracer is not None and self.tracer.enabled_for("phy.fault_drop"):
                        self.tracer.emit(
                            self.sim.now,
                            "phy.fault_drop",
                            node=self.node_id,
                            frame_uid=tx.frame.uid,
                            frame_kind=tx.frame.kind.value,
                            distance=distance,
                        )
            if corrupted:
                self.frames_collided += 1
                if self.tracer is not None and self.tracer.enabled_for("phy.collision"):
                    self.tracer.emit(
                        self.sim.now,
                        "phy.collision",
                        node=self.node_id,
                        frame_uid=tx.frame.uid,
                        frame_kind=tx.frame.kind.value,
                    )
            elif not impaired:
                self.frames_delivered += 1
                mac = self.mac
                if mac is not None:
                    mac.on_frame(tx.frame, tx)
            # Impaired but not corrupted: the frame faded below
            # sensitivity — neither delivered nor a CRC failure, so the
            # EIFS decision below treats it like plain channel noise.

        if self._own_tx is not None:
            return
        medium = self.medium
        for other in medium.active:  # carrier_at inlined: once per visit
            if row in other.rx:
                return
        # The channel is released.  EIFS applies only after a decodable
        # frame failed its CRC; a transmission that was merely sensed
        # (out of radio range) is plain channel noise and releases with
        # a normal DIFS.
        eifs = medium.eifs
        if corrupted:
            eifs[row] = self
        elif row in eifs:
            del eifs[row]
        listener = self._listener
        if listener is not None:
            listener.on_channel_idle()
