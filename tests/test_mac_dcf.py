"""Tests for the 802.11 DCF MAC model."""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.faults import FaultPlan
from repro.geo.vec import Position
from repro.net.addresses import BROADCAST
from repro.net.mac.constants import DEFAULT_DOT11, Dot11Params
from repro.net.mac.dcf import MacState
from repro.net.mac.frames import FrameKind, MacFrame
from repro.net.medium import RadioMedium
from repro.net.mobility import StaticMobility
from repro.net.node import Node
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


@dataclass
class _Data(Packet):
    KIND = "data"

    def header_bytes(self) -> int:
        return 20


def _net(positions, params=DEFAULT_DOT11):
    sim = Simulator()
    tracer = Tracer()
    medium = RadioMedium(sim, tracer)
    rngs = RngRegistry(17)
    nodes = [
        Node(sim, i, medium, StaticMobility(p), rngs, tracer, dot11=params)
        for i, p in enumerate(positions)
    ]
    return sim, tracer, nodes


# --------------------------------------------------------------- constants
def test_difs_definition():
    params = Dot11Params()
    assert params.difs == pytest.approx(params.sifs + 2 * params.slot_time)


def test_eifs_exceeds_difs():
    assert DEFAULT_DOT11.eifs > DEFAULT_DOT11.difs


def test_frame_durations_include_plcp():
    params = Dot11Params()
    assert params.control_duration(params.rts_bytes) == pytest.approx(
        192e-6 + 20 * 8 / 1e6
    )
    assert params.data_duration(100) == pytest.approx(192e-6 + (28 + 100) * 8 / 2e6)


def test_broadcast_basic_rate_switch():
    params = Dot11Params(broadcast_at_basic_rate=True)
    assert params.data_duration(100, broadcast=True) > params.data_duration(100)
    default = Dot11Params()
    assert default.data_duration(100, broadcast=True) == default.data_duration(100)


def test_nav_covers_remaining_exchange():
    params = Dot11Params()
    nav_rts = params.nav_for_rts(100)
    nav_cts = params.nav_for_cts(100)
    assert nav_rts > nav_cts > params.data_duration(100)


# ----------------------------------------------------------------- unicast
def test_unicast_delivery_and_completion():
    sim, _tracer, (a, b) = _net([Position(0, 0), Position(100, 0)])
    got, done = [], []
    b.mac.receive_callback = lambda p, f: got.append(p.uid)
    packet = _Data(payload_bytes=64)
    sim.schedule(0.1, lambda: a.mac.send(packet, b.address, done.append))
    sim.run(until=1.0)
    assert got == [packet.uid]
    assert done == [True]


def test_unicast_uses_rts_cts_data_ack():
    sim, tracer, (a, b) = _net([Position(0, 0), Position(100, 0)])
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=64), b.address))
    sim.run(until=1.0)
    kinds = [r.data["frame_kind"] for r in tracer.filter("phy.tx")]
    assert kinds == ["rts", "cts", "data", "ack"]


def test_rts_threshold_disables_handshake():
    params = Dot11Params(rts_threshold_bytes=10_000)
    sim, tracer, (a, b) = _net([Position(0, 0), Position(100, 0)], params)
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=64), b.address))
    sim.run(until=1.0)
    kinds = [r.data["frame_kind"] for r in tracer.filter("phy.tx")]
    assert kinds == ["data", "ack"]


def test_unicast_to_unreachable_fails_after_retries():
    sim, _tracer, (a, b) = _net([Position(0, 0), Position(1000, 0)])
    done = []
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=64), b.address, done.append))
    sim.run(until=5.0)
    assert done == [False]
    assert a.mac.stats.retry_drops == 1
    assert a.mac.stats.retries >= DEFAULT_DOT11.short_retry_limit - 1


def test_broadcast_no_handshake_no_retry():
    sim, tracer, (a, b) = _net([Position(0, 0), Position(100, 0)])
    got, done = [], []
    b.mac.receive_callback = lambda p, f: got.append(p.uid)
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=64), BROADCAST, done.append))
    sim.run(until=1.0)
    kinds = [r.data["frame_kind"] for r in tracer.filter("phy.tx")]
    assert kinds == ["data"]
    assert len(got) == 1
    assert done == [True]


def test_broadcast_reaches_all_in_range():
    sim, _tracer, nodes = _net([Position(0, 0), Position(100, 0), Position(200, 0), Position(600, 0)])
    got = {i: [] for i in range(4)}
    for i, node in enumerate(nodes):
        node.mac.receive_callback = lambda p, f, i=i: got[i].append(p.uid)
    sim.schedule(0.1, lambda: nodes[0].mac.send(_Data(payload_bytes=64), BROADCAST))
    sim.run(until=1.0)
    assert len(got[1]) == 1 and len(got[2]) == 1
    assert got[3] == []  # out of range


def test_queue_fifo_order():
    sim, _tracer, (a, b) = _net([Position(0, 0), Position(100, 0)])
    got = []
    b.mac.receive_callback = lambda p, f: got.append(p.uid)
    packets = [_Data(payload_bytes=64) for _ in range(5)]
    def send_all():
        for packet in packets:
            a.mac.send(packet, b.address)
    sim.schedule(0.1, send_all)
    sim.run(until=2.0)
    assert got == [p.uid for p in packets]


def test_queue_overflow_drops_and_reports():
    sim, _tracer, (a, b) = _net([Position(0, 0), Position(100, 0)])
    results = []
    def flood():
        for _ in range(60):  # queue_limit is 50
            a.mac.send(_Data(payload_bytes=64), b.address, results.append)
    sim.schedule(0.1, flood)
    sim.run(until=0.11)
    assert a.mac.stats.queue_drops > 0
    assert results.count(False) == a.mac.stats.queue_drops


def test_nav_defers_third_party():
    """A bystander hearing RTS must not transmit during the exchange."""
    sim, tracer, (a, b, c) = _net(
        [Position(0, 0), Position(100, 0), Position(200, 0)]
    )
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=512), b.address))
    # c queues a broadcast right after the RTS is on air.
    sim.schedule(0.1003, lambda: c.mac.send(_Data(payload_bytes=64), BROADCAST))
    sim.run(until=1.0)
    records = [
        (r.data["frame_kind"], r.node, r.time) for r in tracer.filter("phy.tx")
    ]
    exchange_frames = [r for r in records if r[1] in (0, 1)]
    c_tx = [r for r in records if r[1] == 2]
    assert c_tx, "bystander must eventually transmit"
    # The bystander's transmission comes after the protected exchange ends.
    assert c_tx[0][2] > max(t for _, _, t in exchange_frames)


def test_contention_window_resets_after_success():
    sim, _tracer, (a, b) = _net([Position(0, 0), Position(100, 0)])
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=64), b.address))
    sim.run(until=1.0)
    assert a.mac._cw == DEFAULT_DOT11.cw_min


def test_completion_callback_failure_for_broadcast_never():
    """Broadcasts cannot fail at the MAC (fire-and-forget semantics)."""
    sim, _tracer, (a, _b) = _net([Position(0, 0), Position(1000, 0)])
    done = []
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=64), BROADCAST, done.append))
    sim.run(until=1.0)
    assert done == [True]


def test_stats_counters_consistent():
    sim, _tracer, (a, b) = _net([Position(0, 0), Position(100, 0)])
    for offset in range(3):
        sim.schedule(0.1 + offset * 0.05, lambda: a.mac.send(_Data(payload_bytes=64), b.address))
    sim.run(until=2.0)
    assert a.mac.stats.data_tx == 3
    assert a.mac.stats.rts_tx >= 3
    assert b.mac.stats.cts_tx >= 3
    assert b.mac.stats.ack_tx == 3
    assert b.mac.stats.delivered_up == 3


# ------------------------------------------------------ carrier subscription
def test_mac_contending_during_own_broadcast_gets_idle_edge():
    """A packet queued while the MAC's own frame is on the air contends at
    once, and the sender's end of transmission releases it."""
    sim, tracer, (a, _b) = _net([Position(0, 0), Position(100, 0)])
    seen = []

    def _send_second():
        assert a.phy.transmitting
        a.mac.send(_Data(payload_bytes=64), BROADCAST)
        seen.append((a.mac._state, a.phy.carrier_listener))

    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=64), BROADCAST))
    # The first frame leaves after DIFS (50 us) and lasts ~0.9 ms.
    sim.schedule(0.1005, _send_second)
    sim.run(until=1.0)
    assert seen == [(MacState.CONTEND, a.mac)]
    assert [r.node for r in tracer.filter("phy.tx")] == [0, 0]
    assert a.phy.carrier_listener is None and a.mac._state is MacState.IDLE


def _check_subscription(nodes) -> int:
    """Assert the contention-gating invariants; return how many MACs
    currently hold the carrier subscription."""
    listening = 0
    for node in nodes:
        mac, phy = node.mac, node.phy
        contending = mac._state is MacState.CONTEND
        if mac._difs_timer is not None or mac._slot_timer is not None:
            assert contending, (node.node_id, mac._state)
        assert (phy.carrier_listener is mac) == contending, (node.node_id, mac._state)
        if phy.down:
            assert phy.carrier_listener is None, node.node_id
        listening += contending
    return listening


@settings(max_examples=12, deadline=None)
@given(
    protocol=st.sampled_from(["agfw", "gpsr"]),
    seed=st.integers(min_value=1, max_value=10_000),
    loss_model=st.sampled_from(["none", "bernoulli", "gilbert"]),
    loss_rate=st.floats(min_value=0.05, max_value=0.3),
    churn_rate=st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]),
    mean_downtime=st.floats(min_value=0.01, max_value=1.0),
)
def test_only_contending_macs_hold_the_carrier_subscription(
    protocol, seed, loss_model, loss_rate, churn_rate, mean_downtime
):
    """After every fired event: backoff timers are armed only while
    contending, the PHY's carrier listener is the MAC exactly while it
    contends, and a down node never listens."""
    num_nodes, sim_time = 16, 2.0
    config = ScenarioConfig(
        protocol=protocol,
        num_nodes=num_nodes,
        width=800.0,
        height=300.0,
        sim_time=sim_time,
        seed=seed,
        num_flows=6,
        num_senders=5,
        traffic_start=(0.2, 0.6),
        pause_time=0.0,
        loss_model=loss_model,
        loss_rate=loss_rate if loss_model != "none" else 0.0,
        fault_plan=FaultPlan.churn(
            range(num_nodes), sim_time, seed=seed, rate=churn_rate,
            mean_downtime=mean_downtime,
        ) if churn_rate > 0 else None,
    )
    scenario = Scenario(config)
    sim = scenario.sim
    run = sim.run
    checked = {"events": 0, "listening": 0}

    def _run_checked(until=None, max_events=None):
        # One event per call: resumption is exact by the engine's clock
        # contract, so the run is the same one Scenario.run would make.
        while True:
            before = sim.processed_events
            run(until=until, max_events=1)
            if sim.processed_events == before:
                return
            checked["events"] += 1
            checked["listening"] += _check_subscription(scenario.nodes)

    sim.run = _run_checked
    result = scenario.run()
    assert checked["events"] > 0 and result.frames_on_air > 0
    assert checked["listening"] > 0  # some MAC actually contended


def test_reboot_within_sifs_of_cts_sends_no_stray_data():
    """A CTS schedules the DATA one SIFS later.  If the node crashes and
    reboots inside that SIFS and starts a new op, the stale event must
    not send the new op's DATA without its own RTS, nor leave the new
    op's DIFS timer armed outside CONTEND."""
    sim, tracer, (a, b) = _net([Position(0, 0), Position(100, 0)])
    original = a.mac.on_frame
    sent_after_reboot = []
    probes = []

    def _probe():
        # Just after the stale SIFS event, inside the new op's DIFS.
        mac = a.mac
        armed = mac._difs_timer is not None or mac._slot_timer is not None
        probes.append((mac._state, armed))

    def _reboot_and_send():
        a.fail()
        a.recover()
        a.mac.send(_Data(payload_bytes=64), b.address)
        sent_after_reboot.append("reboot")
        sim.schedule(DEFAULT_DOT11.sifs, _probe)

    def _on_frame(frame, tx):
        original(frame, tx)
        if frame.kind is FrameKind.CTS and not sent_after_reboot:
            sim.schedule(DEFAULT_DOT11.sifs / 2, _reboot_and_send)

    def _transmit(frame, duration, _transmit=a.phy.transmit):
        if sent_after_reboot:
            sent_after_reboot.append(frame.kind)
        return _transmit(frame, duration)

    a.mac.on_frame = _on_frame
    a.phy.transmit = _transmit
    sim.schedule(0.1, lambda: a.mac.send(_Data(payload_bytes=64), b.address))
    sim.run(until=1.0)
    assert probes == [(MacState.CONTEND, True)]
    # The new op runs its own handshake and is delivered.
    assert sent_after_reboot == ["reboot", FrameKind.RTS, FrameKind.DATA]
    assert b.mac.stats.delivered_up == 1
