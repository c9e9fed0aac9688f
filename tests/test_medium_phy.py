"""Tests for the radio medium and PHY: ranges, capture, half-duplex."""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geo.vec import Position
from repro.net.addresses import BROADCAST, mac_for_node
from repro.net.mac.frames import FrameKind, MacFrame
from repro.net.medium import RadioMedium
from repro.net.mobility import StaticMobility
from repro.net.packet import Packet
from repro.net.phy import CAPTURE_DISTANCE_RATIO, PhyRadio
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


@dataclass
class _Blob(Packet):
    KIND = "blob"

    def header_bytes(self) -> int:
        return 0


def _radio(sim, medium, node_id, x, tracer=None):
    return PhyRadio(sim, node_id, medium, StaticMobility(Position(x, 0)), tracer)


def _frame(src_id):
    return MacFrame(FrameKind.DATA, mac_for_node(src_id), BROADCAST, packet=_Blob(payload_bytes=100))


def _received(radio):
    got = []
    class _Mac:
        def on_frame(self, frame, tx):
            got.append(frame)
        # Never the radio's carrier_listener, so the PHY owes it no edges.
        def on_channel_busy(self):
            raise AssertionError("busy edge delivered to an unsubscribed MAC")
        def on_channel_idle(self):
            raise AssertionError("idle edge delivered to an unsubscribed MAC")
    radio.mac = _Mac()
    return got


def test_delivery_within_radio_range():
    sim = Simulator()
    medium = RadioMedium(sim)
    tx = _radio(sim, medium, 0, 0)
    rx = _radio(sim, medium, 1, 249)
    got = _received(rx)
    tx.transmit(_frame(0), 0.001)
    sim.run()
    assert len(got) == 1


def test_no_delivery_beyond_radio_range():
    sim = Simulator()
    medium = RadioMedium(sim)
    tx = _radio(sim, medium, 0, 0)
    rx = _radio(sim, medium, 1, 251)
    got = _received(rx)
    tx.transmit(_frame(0), 0.001)
    sim.run()
    assert got == []


def test_carrier_sensed_within_interference_range():
    sim = Simulator()
    medium = RadioMedium(sim)
    tx = _radio(sim, medium, 0, 0)
    far = _radio(sim, medium, 1, 500)  # 250 < 500 <= 550
    beyond = _radio(sim, medium, 2, 600)
    tx.transmit(_frame(0), 0.010)
    sim.run(until=0.005, max_events=100)
    assert far.carrier_busy
    assert not beyond.carrier_busy


def test_sender_busy_during_own_transmission():
    sim = Simulator()
    medium = RadioMedium(sim)
    tx = _radio(sim, medium, 0, 0)
    tx.transmit(_frame(0), 0.010)
    assert tx.carrier_busy
    sim.run()
    assert not tx.carrier_busy


def test_equal_strength_overlap_collides():
    sim = Simulator()
    medium = RadioMedium(sim)
    a = _radio(sim, medium, 0, 0)
    b = _radio(sim, medium, 1, 400)
    mid = _radio(sim, medium, 2, 200)  # equidistant: no capture possible
    got = _received(mid)
    a.transmit(_frame(0), 0.002)
    b.transmit(_frame(1), 0.002)
    sim.run()
    assert got == []
    assert mid.frames_collided == 2


def test_capture_strong_near_frame_survives_far_interferer():
    sim = Simulator()
    medium = RadioMedium(sim)
    near = _radio(sim, medium, 0, 0)
    rx = _radio(sim, medium, 1, 100)
    interferer = _radio(sim, medium, 2, 100 + 100 * CAPTURE_DISTANCE_RATIO + 50)
    got = _received(rx)
    near.transmit(_frame(0), 0.002)
    interferer.transmit(_frame(2), 0.002)
    sim.run()
    # The near frame captures; the interferer's own frame is corrupted at rx.
    assert [f.src for f in got] == [mac_for_node(0)]


def test_no_capture_when_interferer_too_close():
    sim = Simulator()
    medium = RadioMedium(sim)
    near = _radio(sim, medium, 0, 0)
    rx = _radio(sim, medium, 1, 100)
    interferer = _radio(sim, medium, 2, 100 + 100 * CAPTURE_DISTANCE_RATIO - 20)
    got = _received(rx)
    near.transmit(_frame(0), 0.002)
    interferer.transmit(_frame(2), 0.002)
    sim.run()
    assert got == []


def test_half_duplex_receiver_transmitting_loses_frame():
    sim = Simulator()
    medium = RadioMedium(sim)
    a = _radio(sim, medium, 0, 0)
    b = _radio(sim, medium, 1, 100)
    got = _received(b)
    a.transmit(_frame(0), 0.002)
    b.transmit(_frame(1), 0.002)  # b is deaf while transmitting
    sim.run()
    assert got == []


def test_sequential_frames_both_delivered():
    sim = Simulator()
    medium = RadioMedium(sim)
    a = _radio(sim, medium, 0, 0)
    rx = _radio(sim, medium, 1, 100)
    got = _received(rx)
    a.transmit(_frame(0), 0.001)
    sim.schedule(0.002, lambda: a.transmit(_frame(0), 0.001))
    sim.run()
    assert len(got) == 2


def test_sender_does_not_receive_own_frame():
    sim = Simulator()
    medium = RadioMedium(sim)
    a = _radio(sim, medium, 0, 0)
    got = _received(a)
    a.transmit(_frame(0), 0.001)
    sim.run()
    assert got == []


def test_medium_rejects_interference_smaller_than_radio():
    with pytest.raises(ValueError):
        RadioMedium(Simulator(), radio_range=250, interference_range=100)


def test_neighbors_within():
    sim = Simulator()
    medium = RadioMedium(sim)
    a = _radio(sim, medium, 0, 0)
    _b = _radio(sim, medium, 1, 100)
    _c = _radio(sim, medium, 2, 300)
    assert {r.node_id for r in medium.neighbors_within(a, 250)} == {1}
    assert {r.node_id for r in medium.neighbors_within(a, 550)} == {1, 2}


def test_phy_tx_trace_emitted():
    sim = Simulator()
    tracer = Tracer()
    medium = RadioMedium(sim, tracer)
    a = PhyRadio(sim, 0, medium, StaticMobility(Position(0, 0)), tracer)
    a.transmit(_frame(0), 0.001)
    sim.run()
    records = list(tracer.filter("phy.tx"))
    assert len(records) == 1
    assert records[0].data["packet_kind"] == "blob"
    assert records[0].data["pos"] == (0.0, 0.0)


# ------------------------------------------------------------ carrier edges
class _Edges:
    """A carrier listener that records the edges it receives."""

    def __init__(self):
        self.edges = []

    def on_channel_busy(self):
        self.edges.append("busy")

    def on_channel_idle(self):
        self.edges.append("idle")


def test_listener_gets_one_busy_and_one_idle_edge():
    sim = Simulator()
    medium = RadioMedium(sim)
    a = _radio(sim, medium, 0, 0)
    b = _radio(sim, medium, 1, 400)
    rx = _radio(sim, medium, 2, 200)
    rx.carrier_listener = listener = _Edges()
    a.transmit(_frame(0), 0.002)
    sim.schedule(0.001, lambda: b.transmit(_frame(1), 0.002))  # overlaps a's frame
    sim.run()
    assert listener.edges == ["busy", "idle"]
    assert not rx.carrier_busy


def test_unsubscribed_macs_get_frames_but_no_edges():
    sim = Simulator()
    medium = RadioMedium(sim)
    tx = _radio(sim, medium, 0, 0)
    rx = _radio(sim, medium, 1, 100)
    got = _received(rx)
    _received(tx)  # the sender's own end_transmit owes it no edge either
    tx.transmit(_frame(0), 0.001)
    sim.run()
    assert len(got) == 1


def test_listener_subscribing_mid_busy_gets_the_idle_edge():
    sim = Simulator()
    medium = RadioMedium(sim)
    tx = _radio(sim, medium, 0, 0)
    rx = _radio(sim, medium, 1, 100)
    listener = _Edges()

    def _subscribe():
        assert rx.carrier_busy
        rx.carrier_listener = listener

    tx.transmit(_frame(0), 0.002)
    sim.schedule(0.001, _subscribe)
    sim.run()
    assert listener.edges == ["idle"]


def test_own_end_transmit_delivers_idle_edge_to_late_subscriber():
    sim = Simulator()
    medium = RadioMedium(sim)
    tx = _radio(sim, medium, 0, 0)
    listener = _Edges()

    def _start_contending():
        assert tx.transmitting
        tx.carrier_listener = listener

    tx.transmit(_frame(0), 0.002)
    sim.schedule(0.001, _start_contending)
    sim.run()
    assert listener.edges == ["idle"]
    assert not tx.transmitting


def test_own_end_transmit_withholds_idle_edge_while_energy_remains():
    sim = Simulator()
    medium = RadioMedium(sim)
    a = _radio(sim, medium, 0, 0)
    b = _radio(sim, medium, 1, 100)
    a.carrier_listener = listener = _Edges()
    a.transmit(_frame(0), 0.002)
    sim.schedule(0.001, lambda: b.transmit(_frame(1), 0.002))
    sim.run()
    # b's energy arrives mid-transmission (no busy edge: a was already
    # busy with its own frame); a's release waits for b's frame to end.
    assert listener.edges == ["idle"]


# ------------------------------------------------- reference-model property
#: Time unit of the property test: a power of two, so every start and end
#: time is an exact float and ties are real ties.
_UNIT = 2.0 ** -14


def _reference(positions, down, listener, txs):
    """Brute-force model of the channel: every radio a frame reaches is
    updated incrementally at every start and end, in event order (ends
    before starts at equal times, then scheduling order), with pairwise
    capture and half-duplex marked as each overlap begins."""
    def d2(r, s):
        dx = positions[r][0] - positions[s][0]
        dy = positions[r][1] - positions[s][1]
        return dx * dx + dy * dy

    def dist(r, s):
        return math.hypot(positions[r][0] - positions[s][0], positions[r][1] - positions[s][1])

    n = len(positions)
    reach = [{r for r in range(n) if r != s and d2(r, s) <= 550.0 ** 2} for s, _, _ in txs]
    events = sorted(
        [(start, 1, i) for i, (_, start, _) in enumerate(txs)]
        + [(end, 0, i) for i, (_, _, end) in enumerate(txs)]
    )
    active, corrupt = [], set()
    delivered, collided, missed = [], [0] * n, 0
    edges, eifs = [], [False] * n

    def transmitting(r):
        return any(txs[j][0] == r for j in active)

    def covered(r):
        return any(r in reach[j] for j in active)

    for t, kind, i in events:
        s = txs[i][0]
        if kind == 1:
            if listener in reach[i] and not transmitting(listener) and not covered(listener):
                edges.append((t, "busy"))
            for j in active:
                if s in reach[j]:
                    corrupt.add((j, s))  # the sender goes deaf
            for r in reach[i]:
                if transmitting(r):
                    corrupt.add((i, r))
                for j in active:
                    if r in reach[j]:
                        new, old = dist(r, s), dist(r, txs[j][0])
                        if new < old * CAPTURE_DISTANCE_RATIO:
                            corrupt.add((j, r))
                        if old < new * CAPTURE_DISTANCE_RATIO:
                            corrupt.add((i, r))
            active.append(i)
            continue
        active.remove(i)
        if s == listener and not covered(s):
            edges.append((t, "idle"))
        for r in sorted(reach[i]):
            deliverable = d2(r, s) <= 250.0 ** 2
            if r == down:
                missed += deliverable
                continue
            bad = deliverable and (i, r) in corrupt
            if bad:
                collided[r] += 1
            elif deliverable:
                delivered.append((t, r, s))
            if not transmitting(r) and not covered(r):
                eifs[r] = bad
                if r == listener:
                    edges.append((t, "idle"))
    return delivered, collided, missed, edges, eifs


@settings(max_examples=80, deadline=None)
@given(
    positions=st.lists(
        st.tuples(st.integers(0, 900), st.integers(0, 120)), min_size=3, max_size=6, unique=True
    ),
    down=st.integers(0, 5),
    listener=st.integers(0, 5),
    plan=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 40), st.integers(1, 20)),
        min_size=1,
        max_size=12,
    ),
    spatial_mode=st.sampled_from(["obj", "array"]),
)
def test_medium_matches_brute_force_reference(positions, down, listener, plan, spatial_mode):
    """Random overlapping broadcasts over a few static radios (one down,
    one with a subscribed listener): every copy's delivered/collided
    verdict, the listener's busy/idle edges and the final EIFS flags
    match the incremental brute-force reference."""
    n = len(positions)
    down, listener = down % n, listener % n
    assume(down != listener)
    # A radio sends one frame at a time, and a down radio sends nothing.
    txs, free_at = [], [0] * n
    for sender, start, length in sorted(plan, key=lambda p: p[1]):
        sender %= n
        if sender != down and start >= free_at[sender]:
            txs.append((sender, start, start + length))
            free_at[sender] = start + length
    assume(txs)

    sim = Simulator()
    medium = RadioMedium(sim, spatial_mode=spatial_mode)
    radios = [
        PhyRadio(sim, i, medium, StaticMobility(Position(float(x), float(y))))
        for i, (x, y) in enumerate(positions)
    ]
    delivered = []

    class _Mac:
        def __init__(self, node_id):
            self.node_id = node_id

        def on_frame(self, frame, tx):
            delivered.append((round(sim.now / _UNIT), self.node_id, tx.sender_id))

    for radio in radios:
        radio.mac = _Mac(radio.node_id)
    radios[down].down = True
    edges = []

    class _Listener:
        def on_channel_busy(self):
            edges.append((round(sim.now / _UNIT), "busy"))

        def on_channel_idle(self):
            edges.append((round(sim.now / _UNIT), "idle"))

    radios[listener].carrier_listener = _Listener()
    for sender, start, end in txs:
        sim.schedule(
            start * _UNIT,
            lambda s=sender, d=(end - start) * _UNIT: radios[s].transmit(_frame(s), d),
        )
    sim.run()

    ref_delivered, ref_collided, ref_missed, ref_edges, ref_eifs = _reference(
        positions, down, listener, txs
    )
    assert delivered == ref_delivered
    assert [r.frames_collided for r in radios] == ref_collided
    assert radios[down].frames_down == ref_missed
    assert edges == ref_edges
    assert [r.last_reception_corrupted for r in radios] == ref_eifs
    assert not any(r.carrier_busy for r in radios)
    medium.check_reception_ledger()


def test_reception_ledger_raises_on_imbalance():
    """Scenario.run checks the reception ledger at the end of every run:
    a counter that loses a copy makes the run raise."""
    from repro.experiments.scenario import Scenario, ScenarioConfig
    from repro.net.medium import ReceptionLedgerError

    scenario = Scenario(
        ScenarioConfig(protocol="agfw", num_nodes=8, sim_time=1.0, seed=3)
    )

    def _lose_a_copy():
        scenario.nodes[0].phy.frames_delivered -= 1

    scenario.sim.schedule(0.5, _lose_a_copy)
    with pytest.raises(ReceptionLedgerError):
        scenario.run()
