"""The benchmark's workloads: paper-shaped scenarios generated from a seed.

Every workload keeps the paper's defaults (random waypoint at <= 20 m/s
with a 60 s pause, 250/550 m ranges, 4 pps CBR with 128 B payloads)
unless noted, and every horizon runs past the pause so nodes move.  The
simulator receives only the :class:`ScenarioConfig` built here.

Horizons are the shortest that make "no node finished a waypoint leg"
(the mobility-is-live guard) at most ~1e-5 likely for any seed: the
chance that none of N nodes completes its first leg (uniform start and
target, speed U(1, 20) m/s) within H - 60 s, estimated by Monte Carlo.
Sparse shapes need longer horizons: 50 nodes in the paper arena need
80 s, 150 nodes need 70 s, and 300 nodes on the 6 km corridor need 75 s.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.experiments.scenario import ScenarioConfig
from repro.faults.plan import FaultPlan

#: Random waypoint pause time (s); nodes stand still until it ends.
PAUSE_S = 60.0


def _paper_agfw(seed: int) -> ScenarioConfig:
    return ScenarioConfig(protocol="agfw", num_nodes=150, sim_time=70.0, seed=seed)


def _paper_gpsr(seed: int) -> ScenarioConfig:
    return ScenarioConfig(protocol="gpsr", num_nodes=50, sim_time=80.0, seed=seed)


def _faults_agfw(seed: int) -> ScenarioConfig:
    horizon = 75.0
    return ScenarioConfig(
        protocol="agfw",
        num_nodes=100,
        sim_time=horizon,
        seed=seed,
        loss_model="gilbert",
        loss_rate=0.1,
        loss_params={"burst_length": 8.0},
        # ~1 crash per node over the run, ~1.5 s mean downtime.
        fault_plan=FaultPlan.churn(range(100), horizon, seed, rate=1.0, mean_downtime=1.5),
    )


def _corridor(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        protocol="agfw",
        num_nodes=300,
        width=6000.0,
        num_flows=60,
        num_senders=40,
        flow_locality=500.0,
        sim_time=75.0,
        seed=seed,
    )


#: Workload name -> config for a seed.  Why each exists: README.md.
WORKLOADS: Dict[str, Callable[[int], ScenarioConfig]] = {
    "paper-agfw": _paper_agfw,
    "faults-agfw": _faults_agfw,
    "paper-gpsr": _paper_gpsr,
    "corridor": _corridor,
}
