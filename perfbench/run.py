"""Paper-shaped simulation benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-agfw --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Each run builds the workload's scenario from ``--seed`` and runs it start
to finish in a fresh child process, and does so again while another
repeat is expected to end within ``--seconds`` (always at least once).
``--trace 0`` reports the end-to-end host cost as medians over the repeats:
``cpu_us_per_frame`` and ``wall_us_per_frame`` (the run's CPU and wall time
per simulated frame on air), ``setup_s`` and ``peak_rss_mb``.  Timings are
in reference seconds (see ``calibrate.py``): scaled by a reference loop
interleaved with the measured code, so the shared host's drifting speed
cancels out.  ``--trace 1`` runs the scenario once untraced and once with
every layer's entry points wrapped in spans, and reports the per-layer
metrics.  Every run's simulated outputs are printed with a digest and
checked; a run that raises or fails a check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results (with a
host manifest) and the traced run's spans are also written under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Extra timed ``build_scenario`` calls before and again after the
#: scenario runs, on top of one per run: ``setup_s`` is a median over
#: samples spread across the run even when the scenario runs once.
SETUP_BUILDS = 15

#: A repeat that takes longer than this is killed and counts as failed.
REPEAT_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "cpu_us_per_frame": "ref_us/frame",
    "wall_us_per_frame": "ref_us/frame",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """A run's outputs broke an invariant the benchmark checks."""


# --------------------------------------------------------------- manifest
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (None outside a git tree)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and content: identifies the
    simulator code even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def manifest(workload: str, seed: int, trace: bool, config) -> Dict[str, object]:
    import numpy

    canonical = json.dumps(config.canonical_dict(), sort_keys=True, separators=(",", ":"))
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
    }


# ------------------------------------------------------ outputs and checks
def simulated_outputs(scenario, result) -> Dict[str, object]:
    """What the simulation produced; must not change under a pure speed-up."""
    mac_totals: Dict[str, int] = {}
    for node in scenario.nodes:
        for key, value in vars(node.mac.stats).items():
            mac_totals[key] = mac_totals.get(key, 0) + value
    return {
        "delivery_fraction": result.delivery_fraction,
        "mean_latency_ms": result.mean_latency * 1000.0,
        "frames_on_air": result.frames_on_air,
        "events": scenario.sim.processed_events,
        "sent": result.sent,
        "delivered": result.delivered,
        "collisions": result.collisions,
        "frames_by_kind": result.frames_by_kind,
        "bytes_by_kind": result.bytes_by_kind,
        "router_totals": vars(result.router_totals),
        "mac_totals": mac_totals,
        "fault_counters": result.fault_counters,
    }


def digest_of(outputs: Dict[str, object]) -> str:
    encoded = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def cells_at(scenario, now: float) -> List[Tuple[int, int]]:
    """Each node's grid cell at ``now`` (cell side = interference range,
    as the spatial index bins it)."""
    cell = scenario.medium.interference_range
    return [
        (int(p.x // cell), int(p.y // cell))
        for p in (n.mobility.position_at(now) for n in scenario.nodes)
    ]


def check_outputs(scenario, outputs: Dict[str, object], cells0, pause: float) -> Dict[str, int]:
    """Output invariants plus the mobility-is-live guard; returns the
    guard's counts.  Raises :class:`CheckFailed`."""
    if not outputs["delivered"] <= outputs["sent"]:
        raise CheckFailed(f"delivered {outputs['delivered']} > sent {outputs['sent']}")
    if not outputs["frames_on_air"] > 0:
        raise CheckFailed("no frame went on the air")
    if not scenario.sim.now > pause:
        raise CheckFailed(f"run stopped at {scenario.sim.now} s, inside the {pause} s pause")
    # Every first leg departs when the pause ends, so a node whose current
    # leg departs later has completed a leg after the pause.
    leg_rolls = sum(1 for n in scenario.nodes if n.mobility.current_leg.depart_time > pause)
    cells1 = cells_at(scenario, scenario.sim.now)
    cell_moves = sum(1 for a, b in zip(cells0, cells1) if a != b)
    rebins = scenario.medium.index_stats()["rebins"]
    guard = {"nodes_with_leg_rolls": leg_rolls, "nodes_changed_cell": cell_moves,
             "spatial_rebins": rebins}
    if leg_rolls == 0 or cell_moves == 0 or rebins <= len(scenario.nodes):
        raise CheckFailed(f"mobility is not live after the {pause} s pause: {guard}")
    return guard


# ------------------------------------------------------------ measurement
def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process, less the reference loop's
    table (the benchmark's own), or of a waited-for child."""
    from perfbench.calibrate import TABLE_RSS_KIB

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - TABLE_RSS_KIB
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def timed_build(config):
    """A built scenario and its build time in reference seconds."""
    from repro.experiments.scenario import build_scenario

    from perfbench.calibrate import reference_timed

    gc.collect()
    return reference_timed(lambda: build_scenario(config))


def run_once(config, pause: float) -> Dict[str, object]:
    """Build and run one scenario untraced; returns timings (raw and in
    reference seconds) and outputs."""
    from perfbench.calibrate import ReferenceClock

    scenario, setup = timed_build(config)
    cells0 = cells_at(scenario, 0.0)
    gc.collect()
    with ReferenceClock() as clock:
        result = scenario.run()
    outputs = simulated_outputs(scenario, result)
    guard = check_outputs(scenario, outputs, cells0, pause)
    return {"setup_s": setup, "cpu_s": clock.cpu_s, "wall_s": clock.wall_s,
            "ref_cpu_s": clock.ref_cpu_s, "ref_wall_s": clock.ref_wall_s,
            "outputs": outputs, "digest": digest_of(outputs), "guard": guard}


def run_traced(config, pause: float):
    """Build and run one scenario with every entry point spanned."""
    from repro.experiments.scenario import build_scenario

    from perfbench.instrument import Instrumentation
    from perfbench.spans import SpanRecorder

    recorder = SpanRecorder()
    with Instrumentation(recorder, pause) as inst:
        gc.collect()
        scenario = build_scenario(config)
        cells0 = cells_at(scenario, 0.0)
        gc.collect()
        build_self_s = list(recorder.self_s)
        root = recorder.kind_of("root", "root")
        root_start = recorder.open(root)
        cpu0 = cpu_seconds()
        try:
            result = scenario.run()
        finally:
            cpu = cpu_seconds() - cpu0
            root_s = recorder.close(root) - root_start
    outputs = simulated_outputs(scenario, result)
    guard = check_outputs(scenario, outputs, cells0, pause)
    traced = {"scenario": scenario, "recorder": recorder, "inst": inst,
              "build_self_s": build_self_s, "cpu_s": cpu, "root_s": root_s}
    return traced, outputs, guard


def layer_metrics(traced: Dict[str, object], cpu_untraced: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the spans and the layers' public counters.

    Counts cover the whole traced run, build included (events scheduled
    while building fire during the run); self times cover the run only.
    """
    from perfbench.instrument import CRYPTO_CHARGES, callback_span_name
    from perfbench.spans import LAYERS

    scenario, recorder, inst = traced["scenario"], traced["recorder"], traced["inst"]
    counts = recorder.counts()

    def n(name: str) -> int:
        return counts.get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    self_s = recorder.layer_self_times(traced["build_self_s"])
    events = scenario.sim.scheduler_stats()["processed"]
    callbacks = sum(n(callback_span_name(layer)) for layer in LAYERS)
    if callbacks != events:
        raise CheckFailed(f"{events} events fired but {callbacks} callbacks were spanned")
    if n("medium.transmit") != scenario.medium.frames_sent:
        raise CheckFailed("medium.transmit spans disagree with frames_sent")

    channel_calls = sum(n(name) for name in inst.effective)
    effective = sum(inst.effective.values())
    rebins_after_pause = (
        scenario.medium.index_stats()["rebins"] - inst.rebins_at_pause
        if inst.rebins_at_pause is not None else 0
    )
    faults = scenario.fault_metrics
    pool = scenario.medium.frame_pool.stats() if scenario.medium.frame_pool else {}
    reused = pool.get("frames_reused", 0) + pool.get("recs_reused", 0)
    created = pool.get("frames_created", 0) + pool.get("recs_created", 0)
    retries = sum(node.mac.stats.retries for node in scenario.nodes)
    retransmits = sum(
        getattr(getattr(node.router, "acks", None), "retransmissions", 0)
        for node in scenario.nodes
    )
    tx = n("medium.transmit")
    m: Dict[str, Tuple[float, str]] = {
        "engine.events": (events, "count"),
        "engine.scheduled": (n("engine.schedule_at"), "count"),
        "engine.cancelled": (n("engine.cancel"), "count"),
        "engine.fired_ratio": (ratio(events, n("engine.schedule_at")), "ratio"),
        "medium.transmissions": (tx, "count"),
        "medium.fanout_mean": (ratio(n("phy.on_tx_start"), tx), "count"),
        "spatial.queries": (n("spatial.classify_fanout"), "count"),
        "spatial.deliverable_ratio": (ratio(inst.fanout_deliverable, inst.fanout_rows), "ratio"),
        "spatial.rebins_after_pause": (rebins_after_pause, "count"),
        "phy.tx_start_calls": (n("phy.on_tx_start"), "count"),
        "phy.tx_end_calls": (n("phy.on_tx_end"), "count"),
        "phy.useful_ratio": (ratio(n("mac.on_frame"), n("phy.on_tx_end")), "ratio"),
        "mac.channel_callbacks": (channel_calls, "count"),
        "mac.channel_callbacks_effective_ratio": (ratio(effective, channel_calls), "ratio"),
        "mac.timer_events": (n(callback_span_name("mac")), "count"),
        "mac.retries": (retries, "count"),
        "routing.packets_in": (n("routing.on_packet"), "count"),
        "routing.retransmits": (retransmits, "count"),
        "crypto.charges": (sum(n(x) for x in CRYPTO_CHARGES), "count"),
        "trace.emits": (n("trace.emit"), "count"),
        "mobility.leg_rolls": (n(callback_span_name("mobility")), "count"),
        "faults.loss_draws": (faults.loss_draws, "count"),
        "faults.drop_ratio": (ratio(faults.drops_injected, faults.loss_draws), "ratio"),
        "faults.transitions": (faults.crashes + faults.recoveries, "count"),
        "pool.reuse_ratio": (ratio(reused, reused + created), "ratio"),
        "unattributed_s": (self_s.get("root", 0.0), "s"),
        "trace_overhead": (ratio(traced["cpu_s"], cpu_untraced), "ratio"),
    }
    for layer in LAYERS:
        if layer != "pool":
            m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    if m["mobility.leg_rolls"][0] == 0 or rebins_after_pause == 0:
        raise CheckFailed("traced run: no leg roll or no spatial re-bin after the pause")
    return m


# ------------------------------------------------------------------ modes
def setup_samples(config) -> List[float]:
    return [timed_build(config)[1] for _ in range(SETUP_BUILDS)]


def measured_repeat(config, pause: float) -> Dict[str, object]:
    """One repeat, as its own process runs it: ``SETUP_BUILDS`` timed
    builds, the measured scenario, ``SETUP_BUILDS`` more builds."""
    setups = setup_samples(config)
    rep = run_once(config, pause)
    rep["setup_s"] = setups + [rep["setup_s"]] + setup_samples(config)
    rep["peak_rss_mb"] = peak_rss_mb()
    return rep


def spawn_repeat(workload: str, seed: int) -> Optional[Dict[str, object]]:
    """Run :func:`measured_repeat` in a fresh interpreter, so every repeat
    starts from the same process state; ``None`` if it failed."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--repeat"],
            capture_output=True, text=True, timeout=REPEAT_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: repeat exceeded {REPEAT_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_untraced(workload: str, seed: int, seconds: float, log) -> Tuple[int, int, Dict]:
    attempted = failed = 0
    runs: List[Dict[str, object]] = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        attempted += 1
        rep_started = time.perf_counter()
        rep = spawn_repeat(workload, seed)
        if rep is None:
            failed += 1
            break
        runs.append(rep)
        log(f"run {attempted}: cpu_s={rep['cpu_s']:.4f} wall_s={rep['wall_s']:.4f} "
            f"ref_cpu_s={rep['ref_cpu_s']:.4f} ref_wall_s={rep['ref_wall_s']:.4f} "
            f"peak_rss_mb={rep['peak_rss_mb']:.1f} digest={rep['digest'][:16]} "
            f"guard={rep['guard']}")
        if rep["digest"] != runs[0]["digest"]:
            failed += 1
            log(f"run {attempted}: digest differs from run 1 (same seed)")
            break
        # Repeat only while the next repeat, if as long as the longest so
        # far, still ends within the budget: run length stays bounded when
        # the host is slow, at the cost of fewer repeats.
        longest = max(longest, time.perf_counter() - rep_started)
        if time.perf_counter() - started + longest > seconds:
            break
    metrics: Dict[str, Tuple[float, str]] = {}
    if runs:
        log_outputs(runs[0], log)
        setups = [s for r in runs for s in r["setup_s"]]
        frames = runs[0]["outputs"]["frames_on_air"]
        values = {
            "cpu_us_per_frame": statistics.median(r["ref_cpu_s"] for r in runs) / frames * 1e6,
            "wall_us_per_frame": statistics.median(r["ref_wall_s"] for r in runs) / frames * 1e6,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        log(f"medians over {len(runs)} run(s); setup_s over {len(setups)} builds")
    return attempted, failed, metrics


def run_with_trace(config, pause: float, workload: str, seed: int,
                   log) -> Tuple[int, int, Dict]:
    attempted, failed = 1, 0
    plain = spawn_repeat(workload, seed)
    if plain is None:
        return attempted, 1, {}
    log(f"untraced run: cpu_s={plain['cpu_s']:.4f} digest={plain['digest'][:16]}")
    log_outputs(plain, log)
    attempted += 1
    try:
        traced, outputs, guard = run_traced(config, pause)
        digest = digest_of(outputs)
        recorder = traced["recorder"]
        log(f"traced run: cpu_s={traced['cpu_s']:.4f} digest={digest[:16]} "
            f"spans={sum(recorder.count)} guard={guard}")
        if digest != plain["digest"]:
            raise CheckFailed("traced digest differs from the untraced run: wrappers changed "
                              "the simulation")
        metrics = layer_metrics(traced, plain["cpu_s"])
    except Exception:
        traceback.print_exc()
        return attempted, failed + 1, {}
    recorder.write(os.path.join(OUT_DIR, "spans", workload))
    log(f"process peak_rss_mb={peak_rss_mb():.1f}")
    log_layer_table(metrics, log)
    return attempted, failed, metrics


def log_outputs(rep: Dict[str, object], log) -> None:
    o = rep["outputs"]
    log(f"simulated outputs: delivery_fraction={o['delivery_fraction']!r} "
        f"mean_latency_ms={o['mean_latency_ms']!r} frames_on_air={o['frames_on_air']} "
        f"events={o['events']} sent={o['sent']} delivered={o['delivered']} "
        f"digest={rep['digest']}")


def log_layer_table(metrics: Dict[str, Tuple[float, str]], log) -> None:
    from perfbench.spans import LAYERS

    total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS if layer != "pool")
    total += metrics["unattributed_s"][0]
    log(f"{'layer':<10} {'self_s':>9} {'share':>7}")
    for layer in LAYERS:
        if layer != "pool":
            value = metrics[f"{layer}.self_s"][0]
            log(f"{layer:<10} {value:9.3f} {value / total:7.1%}")
    log(f"{'(root)':<10} {metrics['unattributed_s'][0]:9.3f} "
        f"{metrics['unattributed_s'][0] / total:7.1%}")


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints each one's
    output and a combined JSON line."""
    from perfbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one measured repeat and print it as JSON (see spawn_repeat).
    parser.add_argument("--repeat", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills and
    # waits for the repeat it is running before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    src = os.path.join(ROOT, "src")
    try:
        import repro

        from perfbench.workloads import PAUSE_S, WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        # An installed copy elsewhere would measure the wrong code.
        print(f"perfbench: repro imported from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")

    config = WORKLOADS[args.workload](args.seed)
    if args.repeat:
        print(json.dumps(measured_repeat(config, PAUSE_S)))
        return 0
    info = manifest(args.workload, args.seed, bool(args.trace), config)

    def log(line: str) -> None:
        print(f"[{args.workload}] {line}", flush=True)

    log(f"manifest {json.dumps(info, sort_keys=True)}")
    if args.trace:
        attempted, failed, metrics = run_with_trace(config, PAUSE_S, args.workload,
                                                    args.seed, log)
    else:
        attempted, failed, metrics = run_untraced(args.workload, args.seed, args.seconds, log)
    for name, (value, unit) in metrics.items():
        log(f"{name:<40} {value:>16.6f} {unit}")
    log(f"{attempted} run(s) attempted, {failed} failed")
    final = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    result_path = os.path.join(
        OUT_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(result_path, "w") as fh:
        json.dump({"manifest": info, **final}, fh, indent=1, sort_keys=True)
    print(json.dumps(final))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
