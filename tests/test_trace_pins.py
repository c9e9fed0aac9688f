"""Trace-digest pins: the simulator's byte-identity oracle.

Each pin is a sha256 over every retained trace record (time, category,
node and the primitive data fields) plus the result counters of one small
mobile scenario:

* ``agfw``: every frame a CSMA/CA broadcast (fan-out, capture, AGFW);
* ``gpsr``: unicast with RTS/CTS, NAV deferral and MAC ACKs;
* ``agfw-faults``: AGFW under Gilbert-Elliott loss plus seeded churn
  (loss draws, radios going down and up, ACK-timeout retransmits).

Frame and packet uids come from process-wide counters, so they are
renumbered in order of first appearance: the digest pins which records
refer to the same frame or packet without depending on what ran earlier
in the process.

Every pin must hold on every fan-out backend (``spatial_mode`` obj or
array, ``pool_mode`` off or on): the object scan, the batched array
classification and the static memo all feed the same reception record.

The pins were recorded before the contention-gated carrier edges went
in, and a pure speed-up or refactor must leave them unchanged.  Only a
deliberate model fix may re-pin them, and the change that does so must
say which pin moved and why.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import pytest

from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.faults import FaultPlan
from repro.net.mac.dcf import MacStats

_PRIMITIVES = (int, float, str, bool, type(None))

PINS = {
    "agfw": "7d8960d005671dcd00f670a6d0e1244982b5f655599ad5e9d5a4627b5eda7eba",
    "gpsr": "3d0e5a27411cf6f76f0ba0ed98003885b8cc76163ec1e89a3ccb519d6f849d7d",
    "agfw-faults": "04b3de80fb8c0f225f73e94eb3fdac0870345b81f8283db5dad0bc62a9798628",
}


#: The (spatial_mode, pool_mode) pair ``ScenarioConfig`` defaults to.
DEFAULT_BACKEND = ("array", "on")

#: The other (spatial_mode, pool_mode) pairs every pin is also checked under.
OTHER_BACKENDS = [
    (spatial, pool)
    for spatial in ("obj", "array")
    for pool in ("off", "on")
    if (spatial, pool) != DEFAULT_BACKEND
]


def _config(name: str, spatial_mode: str = "array", pool_mode: str = "on") -> ScenarioConfig:
    base = dict(
        num_nodes=50,
        width=1500.0,
        height=300.0,
        sim_time=6.0,
        seed=5,
        num_flows=12,
        num_senders=10,
        rate_pps=8.0,
        traffic_start=(0.5, 1.5),
        pause_time=0.0,
        min_speed=5.0,
        keep_trace=True,
        spatial_mode=spatial_mode,
        pool_mode=pool_mode,
    )
    if name == "agfw":
        return ScenarioConfig(protocol="agfw", **base)
    if name == "gpsr":
        return ScenarioConfig(protocol="gpsr", **base)
    if name == "agfw-faults":
        return ScenarioConfig(
            protocol="agfw",
            loss_model="gilbert",
            loss_rate=0.1,
            loss_params={"burst_length": 8.0},
            fault_plan=FaultPlan.churn(
                range(base["num_nodes"]), base["sim_time"], seed=11, rate=1.5,
                mean_downtime=0.5,
            ),
            **base,
        )
    raise KeyError(name)


def _canonical(value, uid_maps: Dict[str, Dict[object, int]], key: str) -> str:
    if key.endswith("uid") and value is not None:
        renumber = uid_maps.setdefault(key, {})
        return f"#{renumber.setdefault(value, len(renumber))}"
    if isinstance(value, _PRIMITIVES):
        return repr(value)
    if isinstance(value, tuple) and all(isinstance(v, _PRIMITIVES) for v in value):
        return repr(value)
    return ""  # live objects (e.g. the packet itself) carry no stable bytes


def trace_digest(name: str, spatial_mode: str = "array", pool_mode: str = "on") -> str:
    """Run scenario ``name`` and digest its trace and result counters."""
    scenario = Scenario(_config(name, spatial_mode, pool_mode))
    result = scenario.run()
    records = scenario.tracer.records
    assert records, "keep_trace scenario must retain records"
    h = hashlib.sha256()
    uid_maps: Dict[str, Dict[object, int]] = {}
    for record in records:
        fields = ",".join(
            f"{k}={_canonical(v, uid_maps, k)}" for k, v in sorted(record.data.items())
        )
        h.update(f"{record.time!r}|{record.category}|{record.node}|{fields}\n".encode())
    counters = (
        result.sent,
        result.delivered,
        repr(result.mean_latency),
        result.frames_on_air,
        result.collisions,
        sorted(vars(result.router_totals).items()),
        sorted(result.bytes_by_kind.items()),
        sorted(result.frames_by_kind.items()),
        sorted(result.fault_counters.items()),
        [sum(vars(n.mac.stats)[k] for n in scenario.nodes) for k in vars(MacStats())],
        [
            (n.phy.frames_delivered, n.phy.frames_collided, n.phy.frames_impaired)
            for n in scenario.nodes
        ],
        scenario.sim.now,
    )
    h.update(repr(counters).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_trace_digest_pinned(name):
    assert (ScenarioConfig.spatial_mode, ScenarioConfig.pool_mode) == DEFAULT_BACKEND
    assert trace_digest(name, *DEFAULT_BACKEND) == PINS[name]


@pytest.mark.parametrize("spatial_mode,pool_mode", OTHER_BACKENDS)
@pytest.mark.parametrize("name", sorted(PINS))
def test_trace_digest_pinned_other_backends(name, spatial_mode, pool_mode):
    assert trace_digest(name, spatial_mode, pool_mode) == PINS[name]
