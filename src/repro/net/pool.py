"""MAC frame pooling for the PHY/MAC hot path.

Every transmission needs a :class:`~repro.net.mac.frames.MacFrame`.
:class:`FramePool` keeps a free list of them with generation-stamped
recycling, so MAC frames stop being a per-attempt allocation.  (Reception
bookkeeping needs no pool: each transmission is one record owned by the
medium, see :mod:`repro.net.medium`.)

Byte-identity contract
----------------------
Frame *uids* must not notice pooling: a fresh ``MacFrame`` draws its uid
from the module counter via the dataclass factory, so a recycled frame
is re-stamped from the **same** counter
(:func:`~repro.net.mac.frames.next_frame_uid`).  Either way each acquire
consumes exactly one uid, and the uid sequence — which appears in traces
— is identical with the pool on or off.

Generation stamps
-----------------
Every pooled frame carries a ``generation``: positive while live
(stamped at acquire from a monotone counter), negated at release.  A
double release therefore raises :class:`PoolCoherenceError` in every
mode, and holders that cache a frame across a release can detect the
recycling by comparing stamps.  ``mode="cross"`` additionally scrubs
payload fields at release and verifies the scrub at the next acquire —
catching writes to freed frames — while the end-to-end proof (traces
byte-identical with the pool on, off, and cross) lives in
``tests/test_frame_pool.py``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.addresses import MacAddress
from repro.net.mac.frames import FrameKind, MacFrame, next_frame_uid
from repro.net.packet import Packet

__all__ = ["FramePool", "PoolCoherenceError", "POOL_MODES", "validate_pool_mode"]

POOL_MODES = ("off", "on", "cross")


def validate_pool_mode(mode: str) -> str:
    """Validate a ``pool_mode`` value, returning it for chaining."""
    if mode not in POOL_MODES:
        raise ValueError(f"pool_mode must be one of {POOL_MODES}")
    return mode


class PoolCoherenceError(AssertionError):
    """A pooled object was released twice, or mutated while free."""


class FramePool:
    """A frame free list with generation-stamped recycling (one per medium).

    ``mode`` is ``"on"`` (recycle) or ``"cross"`` (recycle + scrub/verify
    every frame across the free boundary).  ``"off"`` never constructs a
    pool at all — the medium holds ``None`` and every consumer runs the
    exact pre-pool allocation path.
    """

    __slots__ = ("mode", "checked", "_frames", "_generation", "frames_reused", "frames_created")

    def __init__(self, mode: str = "on") -> None:
        validate_pool_mode(mode)
        if mode == "off":
            raise ValueError("mode 'off' means no pool — pass pool_mode to the medium instead")
        self.mode = mode
        self.checked = mode == "cross"
        self._frames: List[MacFrame] = []
        self._generation = 0
        self.frames_reused = 0
        self.frames_created = 0

    # -------------------------------------------------------------- frames
    def acquire_frame(
        self,
        kind: FrameKind,
        src: MacAddress,
        dst: MacAddress,
        packet: Optional[Packet] = None,
        nav: float = 0.0,
    ) -> MacFrame:
        """A ready-to-send frame: recycled when possible, else constructed.

        Exactly one uid is drawn either way, keeping the trace-visible
        uid sequence identical to unpooled construction.
        """
        free = self._frames
        if free:
            frame = free.pop()
            if self.checked and (frame.packet is not None or frame.nav != 0.0):
                raise PoolCoherenceError(
                    f"freed frame uid={frame.uid} was mutated while in the pool"
                )
            frame.kind = kind
            frame.src = src
            frame.dst = dst
            frame.packet = packet
            frame.nav = nav
            frame.uid = next_frame_uid()
            self.frames_reused += 1
        else:
            frame = MacFrame(kind, src, dst, packet=packet, nav=nav)
            self.frames_created += 1
        self._generation += 1
        frame.generation = self._generation
        return frame

    def release_frame(self, frame: MacFrame) -> None:
        """Return ``frame`` to the free list (its airtime is over).

        Accepts donated frames that were constructed directly
        (``generation == 0``); raises on a second release of the same
        object.
        """
        if frame.generation < 0:
            raise PoolCoherenceError(f"frame uid={frame.uid} released twice")
        frame.generation = -(frame.generation or 1)
        if self.checked:
            frame.packet = None
            frame.nav = 0.0
        self._frames.append(frame)

    # ------------------------------------------------------------ telemetry
    def stats(self) -> dict:
        """Reuse/creation counters (benchmarks and tests read these)."""
        return {
            "frames_reused": self.frames_reused,
            "frames_created": self.frames_created,
            "frames_free": len(self._frames),
        }
