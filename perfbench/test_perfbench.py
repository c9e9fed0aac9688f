"""Tests for the benchmark's own machinery.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.experiments.scenario import ScenarioConfig  # noqa: E402
from repro.faults.plan import FaultPlan  # noqa: E402
from repro.sim.engine import Event, Simulator  # noqa: E402

from perfbench import run  # noqa: E402
from perfbench.calibrate import REF_UNIT_S, ReferenceClock, reference_unit  # noqa: E402
from perfbench.instrument import Instrumentation  # noqa: E402
from perfbench.spans import (  # noqa: E402
    LAYERS, SpanRecorder, layer_of_module, self_times,
)
from perfbench.workloads import PAUSE_S, WORKLOADS  # noqa: E402


def tiny_config(seed: int = 1, protocol: str = "agfw", faults: bool = False,
                sim_time: float = 75.0) -> ScenarioConfig:
    """A few-second run past the pause: 30 nodes on 600 x 300 m, 3 flows."""
    extra = {}
    if faults:
        extra = dict(
            loss_model="gilbert", loss_rate=0.1, loss_params={"burst_length": 8.0},
            fault_plan=FaultPlan.churn(range(30), sim_time, seed, rate=1.0, mean_downtime=1.5),
        )
    return ScenarioConfig(protocol=protocol, num_nodes=30, width=600.0, num_flows=3,
                          num_senders=3, sim_time=sim_time, seed=seed, **extra)


# ------------------------------------------------------------ arithmetic
def test_self_times_nested_and_back_to_back():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and the back-to-back
    # pair D [4, 6], E [6, 9]; F [10, 12] follows A at top level.
    start = np.array([0.0, 1.0, 2.0, 4.0, 6.0, 10.0])
    end = np.array([10.0, 4.0, 3.0, 6.0, 9.0, 12.0])
    parent = np.array([-1, 0, 1, 0, 0, -1])
    own = self_times(start, end, parent)
    assert own.tolist() == [2.0, 2.0, 1.0, 2.0, 3.0, 2.0]
    # Self times partition the covered wall time exactly.
    assert own.sum() == 12.0


def test_recorder_self_times_match_the_offline_arithmetic():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    leaf = rec.wrap(lambda: None, rec.kind_of("phy.leaf", "phy"))

    def middle():
        leaf()
        leaf()

    outer = rec.wrap(middle, rec.kind_of("medium.outer", "medium"))
    outer()
    outer()
    kind, parent, start, end = rec.logged_spans()
    assert parent.tolist() == [-1, 0, 0, -1, 3, 3]
    assert rec.counts() == {"phy.leaf": 4, "medium.outer": 2}
    # outer: 5 ticks long, each leaf 1 tick -> 3 ticks of self time.
    assert rec.layer_self_times() == {"phy": 4.0, "medium": 6.0}
    assert self_times(start, end, parent).tolist() == [3.0, 1.0, 1.0, 3.0, 1.0, 1.0]
    # A baseline leaves out what was recorded before it.
    baseline = list(rec.self_s)
    outer()
    assert rec.layer_self_times(baseline) == {"phy": 2.0, "medium": 3.0}


def test_log_limit_keeps_the_totals_exact():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)), log_limit=3)
    leaf = rec.wrap(lambda: None, rec.kind_of("phy.leaf", "phy"))
    for _ in range(5):
        leaf()
    assert len(rec.log_code) == 3
    # The span the log stopped inside ends at the last logged time.
    assert rec.logged_spans()[3].tolist() == [2.0, 3.0]
    assert rec.counts() == {"phy.leaf": 5}
    assert rec.layer_self_times() == {"phy": 5.0}


def test_wrapped_exception_still_closes_the_span():
    rec = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap(boom, rec.kind_of("mac.boom", "mac"))()
    assert rec.counts() == {"mac.boom": 1}
    assert rec.stack == [0]


@pytest.mark.parametrize("module,layer", [
    ("repro.sim.engine", "engine"),
    ("repro.sim.timerwheel", "engine"),
    ("repro.net.mac.dcf", "mac"),
    ("repro.geo.spatial_array", "spatial"),
    ("repro.core.trapdoor", "crypto"),
    ("repro.core.agfw", "routing"),
    ("repro.routing.gpsr", "routing"),
    ("repro.metrics.collectors", "trace"),
    ("repro.faults.plan", "faults"),
    ("repro.traffic.cbr", "other"),
    ("repro.network", "other"),
])
def test_layer_of_module(module, layer):
    assert layer_of_module(module) == layer


def test_instrumentation_restores_every_entry_point():
    before = (Simulator.schedule_at, Simulator.run, Event.cancel)
    with Instrumentation(SpanRecorder(), PAUSE_S):
        assert Simulator.schedule_at is not before[0]
    assert (Simulator.schedule_at, Simulator.run, Event.cancel) == before


def test_reference_clock_reads_the_reference_loop_at_its_nominal_cost():
    """Timed by the clock, the reference loop itself costs ~REF_UNIT_S a
    unit whatever the host's speed; the slices cover the body and the
    previous SIGPROF handler comes back."""
    previous = signal.getsignal(signal.SIGPROF)
    with ReferenceClock() as clock:
        for _ in range(100):
            reference_unit()
    assert signal.getsignal(signal.SIGPROF) == previous
    assert len(clock.slices) > 1 and len(clock.refs) == len(clock.slices) + 1
    assert sum(cpu for cpu, _ in clock.slices) == pytest.approx(clock.cpu_s)
    assert clock.ref_cpu_s == pytest.approx(100 * REF_UNIT_S, rel=0.3)
    assert clock.ref_wall_s == pytest.approx(100 * REF_UNIT_S, rel=0.3)


# ------------------------------------------------------------ end to end
@pytest.fixture(scope="module", params=["agfw", "gpsr", "agfw-faults"])
def traced_pair(request):
    protocol, _, faults = request.param.partition("-")
    config = tiny_config(protocol=protocol, faults=bool(faults))
    plain = run.run_once(config, PAUSE_S)
    traced, outputs, _ = run.run_traced(config, PAUSE_S)
    metrics = run.layer_metrics(traced, plain["cpu_s"])
    return request.param, plain, traced, outputs, metrics


def test_tracing_leaves_the_digest_unchanged(traced_pair):
    _, plain, _, outputs, _ = traced_pair
    assert run.digest_of(outputs) == plain["digest"]


def test_callbacks_are_attributed_to_layers(traced_pair):
    name, _, traced, _, metrics = traced_pair
    rec = traced["recorder"]
    kind, _, start, end = rec.logged_spans()  # the spans the log kept
    callback = [k for k, n in enumerate(rec.names) if n.endswith(".callback")]
    event_time = float((end - start)[np.isin(kind, callback)].sum())
    other = rec.names.index("other.callback") if "other.callback" in rec.names else -1
    share = float((end - start)[kind == other].sum()) / event_time
    print(f"{name}: {share:.2%} of event time is in callbacks no layer claims")
    assert share < 0.05
    # Layer self times plus the root's own time partition the run.
    total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS if layer != "pool")
    assert total + metrics["unattributed_s"][0] == pytest.approx(traced["root_s"], rel=1e-9)


def test_some_channel_callbacks_are_effective(traced_pair):
    metrics = traced_pair[4]
    assert metrics["mac.channel_callbacks"][0] > 0
    assert 0.0 < metrics["mac.channel_callbacks_effective_ratio"][0] < 1.0


def test_fault_counts_are_zero_without_faults(traced_pair):
    name, _, _, _, metrics = traced_pair
    counts = [metrics[m][0] for m in ("faults.loss_draws", "faults.transitions")]
    if name.endswith("faults"):
        assert all(c > 0 for c in counts)
    else:
        assert counts == [0, 0] and metrics["faults.self_s"][0] == 0.0


def test_benchmark_json_names_every_metric(traced_pair):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {m["name"] for m in spec["per_layer"]} == set(traced_pair[4])


def test_seed_argument_is_honoured():
    for make in WORKLOADS.values():
        assert make(7).seed == 7
    assert WORKLOADS["faults-agfw"](7).fault_plan != WORKLOADS["faults-agfw"](8).fault_plan
    one = run.run_once(tiny_config(seed=1), PAUSE_S)["digest"]
    two = run.run_once(tiny_config(seed=2), PAUSE_S)["digest"]
    again = run.run_once(tiny_config(seed=1), PAUSE_S)["digest"]
    assert one != two and one == again


def test_horizon_inside_the_pause_fails_the_guard():
    with pytest.raises(run.CheckFailed, match="pause"):
        run.run_once(tiny_config(sim_time=40.0), PAUSE_S)


def test_without_the_simulator_the_command_fails_quietly(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-agfw", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
