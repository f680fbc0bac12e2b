"""The repo benchmark: host time of the ATAC+ simulation pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload bcast-atacp --seed 42 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``bcast-atacp`` -- barnes on ATAC+ at w16, scale 0.6;
* ``miss-emesh`` -- ocean_non_contig on EMesh-Pure at w16, scale 0.6;
* ``netload-fig3`` -- Fig 3's 6 schemes x 8 loads at w16 through ``Runner``.

``--trace 0`` measures with tracing off and prints the end-to-end
metrics:

* ``wall_s`` -- host seconds for one pass over the workload's units: the
  sum of each unit's median time over the passes that fit in
  ``--seconds``.
* ``flits_per_s`` -- simulated flits injected per pass over ``wall_s``.
* ``setup_s`` -- median over several fresh processes of the time from
  process start to ready to simulate (imports, spec and config, first
  system or network and topology build).
* ``peak_rss_mb`` -- peak resident memory of the measuring process,
  less what the calibration buffer holds.

``wall_s`` and ``flits_per_s`` are scaled to a reference host speed,
by ``REF_CALIBRATION_S`` over the run's median ``harness.Calibration``
sample taken between units, because a shared host's speed drifts by
tens of percent over minutes.  The unscaled pass time goes to standard
error and is the per-layer ``host.wall_s``.  ``setup_s`` is not scaled:
process start-up did not follow the calibration on the reference
machine, and scaling it widened its spread.

``--trace 1`` spends a third of ``--seconds`` untraced and the rest on a
traced run in a separate process, and prints the per-layer metrics.

Every unit of every pass is checked: its result digest must equal the
one pinned in ``expected.json`` for that seed (or, for a seed without a
pin, the digest its first pass produced), traced runs must reproduce
the untraced results exactly, full-system units must conserve
instructions and memory ops, and every stored entry must read back
equal.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark reads and writes only inside the checkout: stores and the
span dump of a traced run go under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
EXPECTED = BENCH_DIR / "expected.json"

#: Fresh processes timed for ``setup_s`` (after one untimed warm-up that
#: compiles the byte code), by size.
SETUP_REPS = {"full": 5, "tiny": 1}
#: Share of ``--seconds`` a ``--trace 1`` run spends untraced.
UNTRACED_SHARE = 1 / 3
#: Seconds a child process may take beyond its own budget.
CHILD_GRACE_S = 120
#: Median time of one ``harness.Calibration`` sample on the reference
#: machine (2-vCPU Xeon VM at 2.1 GHz): the host speed ``wall_s`` and
#: ``flits_per_s`` are scaled to.
REF_CALIBRATION_S = 0.020

#: name -> unit, in ``BENCHMARK.json`` order.
END_TO_END = {
    "wall_s": "s",
    "flits_per_s": "flits/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "workloads.gen_s": "s",
    "workloads.gen.share": "ratio",
    "workloads.ops": "count",
    "sim.build_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.instr_per_s": "instr/s",
    "sim.self_s": "s",
    "sim.share": "ratio",
    "sim.completion_cycles": "cycles",
    "sim.stalled_cycles": "cycles",
    "coherence.bcast.calls": "count",
    "coherence.bcast.self_s": "s",
    "coherence.access.calls": "count",
    "coherence.access.self_s": "s",
    "coherence.l2.calls": "count",
    "coherence.l2.self_s": "s",
    "coherence.dir.calls": "count",
    "coherence.dir.self_s": "s",
    "coherence.mem.calls": "count",
    "coherence.mem.self_s": "s",
    "coherence.share": "ratio",
    "coherence.l2_hit_ratio": "ratio",
    "coherence.mem.busy_cycles": "cycles",
    "network.send.calls": "count",
    "network.send.self_s": "s",
    "network.share": "ratio",
    "network.flits": "flits",
    "network.latency_cycles": "cycles",
    "network.onet_ratio": "ratio",
    "energy.eval.calls": "count",
    "energy.eval_s": "s",
    "experiments.hash.calls": "count",
    "experiments.hash_s": "s",
    "experiments.store.calls": "count",
    "experiments.store_s": "s",
    "trace.overhead": "ratio",
    "host.wall_s": "s",
    "host.calibration_s": "s",
}

#: Modules an untraced run must never import (zero-cost-off contract).
OFF_MODULES = ("repro.sanitizer", "repro.telemetry")


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def import_repro():
    """Put the checkout's ``src/`` first on the path and import from it.

    ``REPRO_*`` variables are dropped first, so sanitizer, telemetry,
    job, cache and size settings in the environment cannot change what
    is measured.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


# -- children --------------------------------------------------------------
def child_command(args, role: str, seconds: float | None = None) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    return cmd


def time_setup(args) -> float:
    """Median seconds from process start to ready to simulate."""
    samples = []
    for rep in range(SETUP_REPS[args.size] + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(child_command(args, "setup"),
                              stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=CHILD_GRACE_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        if rep:  # rep 0 warms the byte-code and page caches
            samples.append(elapsed)
    return statistics.median(samples)


def run_traced_child(args, seconds: float) -> dict:
    proc = subprocess.run(child_command(args, "traced", seconds),
                          stdout=subprocess.PIPE, text=True,
                          timeout=seconds + CHILD_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"traced run failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- measuring ---------------------------------------------------------------
def measure(workload, seconds: float, calibration) -> list[list[dict]]:
    """Untraced passes for ``seconds``, with calibration samples between
    units: the first pass is always whole, the others stop at the first
    unit that ends past the deadline."""
    calibration.sample()
    deadline = time.perf_counter() + seconds
    passes = [workload.run_pass(after_unit=calibration.maybe_sample)]
    while time.perf_counter() < deadline:
        passes.append(workload.run_pass(deadline, calibration.maybe_sample))
    return [[vars(o) for o in p] for p in passes]


def measure_traced(workload, seconds: float) -> dict:
    """Whole traced passes: at least two, so their call counts can be
    compared, and more while the next one is expected to fit."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(workload)
    passes, layer_stats = [], []
    start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            passes.append(workload.run_pass(
                units_done=lambda: layer_stats.append(tracer.take())))
            tracer.take()  # drop the read-back checks' own calls
            now = time.perf_counter()
            if len(passes) >= 2 and now - start + (now - t0) > seconds:
                break
    finally:
        tracer.close()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(
        OUT_DIR / f"trace-{workload.name}-seed{workload.seed}-{workload.size.name}.json",
        {"workload": workload.name, "seed": workload.seed,
         "size": workload.size.name, "passes": len(passes)},
    )
    return {"passes": [[vars(o) for o in p] for p in passes],
            "layers": layer_stats}


# -- checking -----------------------------------------------------------------
def pinned_digests(workload) -> dict | None:
    """``{unit label: digest}`` pinned for this workload, seed and size."""
    pins = json.loads(EXPECTED.read_text())
    pinned = pins.get(workload.size.name, {}).get(workload.name, {}).get(
        str(workload.seed))
    return None if pinned is None else dict(zip(workload.labels, pinned))


def check(workload, passes: list[list[dict]]) -> tuple[int, int, list[str]]:
    """Check every unit against the pinned digests (else the first pass).

    Returns ``(attempted, failed, problems)``.
    """
    reference = pinned_digests(workload)
    if reference is None:
        reference = {}
        for outcomes in passes:
            for o in outcomes:
                if not o["error"]:
                    reference.setdefault(o["label"], o["digest"])
    attempted = failed = 0
    problems = []
    for outcomes in passes:
        for o in outcomes:
            attempted += 1
            if o["error"] or o["digest"] != reference.get(o["label"]):
                failed += 1
                problems.append(f"{o['label']}: {o['error'] or 'result differs'}")
    return attempted, failed, problems


def unit_samples(passes: list[list[dict]], key: str) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for outcomes in passes:
        for o in outcomes:
            if not o["error"]:
                samples.setdefault(o["label"], []).append(o[key])
    return samples


def pass_seconds(passes: list[list[dict]], key: str = "elapsed_s") -> float:
    return sum(statistics.median(v) for v in unit_samples(passes, key).values())


# -- metrics ------------------------------------------------------------------
def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(workload, passes, setup_s: float, calibration) -> dict:
    """Pass time scaled to the reference host speed (REF_CALIBRATION_S)."""
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                   - calibration.resident_mb)
    counts = workload.pass_counts(passes[0])
    raw_wall = pass_seconds(passes)
    speed = REF_CALIBRATION_S / statistics.median(calibration.samples)
    log(f"unscaled pass {raw_wall:.4f} s; host speed {speed:.3f} x reference")
    wall = raw_wall * speed
    return {
        "wall_s": wall,
        "flits_per_s": ratio(counts["flits"], wall),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(workload, passes, traced: dict, calibration) -> dict:
    counts = workload.pass_counts(passes[0])
    wall = pass_seconds(passes)
    layers = traced["layers"]

    def med(fn):
        return statistics.median(fn(stats) for stats in layers)

    def share(*names):
        return med(lambda s: ratio(sum(s[n]["self_s"] for n in names),
                                   s["unit"]["total_s"]))

    first = layers[0]
    sim_s = pass_seconds(passes, "sim_s")
    unicasts = first["network.unicasts"]
    out = {
        "workloads.gen_s": med(lambda s: s["workloads.gen"]["total_s"]),
        "workloads.gen.share": share("workloads.gen"),
        "workloads.ops": counts["ops"],
        "sim.build_s": med(lambda s: s["sim.build"]["total_s"]),
        "sim.events": counts.get("events", 0),
        "sim.events_per_s": ratio(counts.get("events", 0), sim_s),
        "sim.instr_per_s": ratio(counts["instructions"], wall),
        "sim.self_s": med(lambda s: s["sim.run"]["self_s"]),
        "sim.share": share("sim.run"),
        "sim.completion_cycles": counts.get("completion_cycles", 0),
        "sim.stalled_cycles": counts.get("stalled_cycles", 0),
    }
    for layer in ("bcast", "access", "l2", "dir", "mem"):
        name = f"coherence.{layer}"
        out[f"{name}.calls"] = first[name]["calls"]
        out[f"{name}.self_s"] = med(lambda s, n=name: s[n]["self_s"])
    out.update({
        "coherence.share": share("coherence.access", "coherence.l2",
                                 "coherence.bcast", "coherence.dir",
                                 "coherence.mem"),
        "coherence.l2_hit_ratio": ratio(
            counts.get("l2_hits", 0),
            counts.get("l2_hits", 0) + counts.get("l2_misses", 0)),
        "coherence.mem.busy_cycles": counts.get("mem_busy_cycles", 0),
        "network.send.calls": first["network.send"]["calls"],
        "network.send.self_s": med(lambda s: s["network.send"]["self_s"]),
        "network.share": share("network.send"),
        "network.flits": counts["flits"],
        "network.latency_cycles": ratio(counts["latency_sum"],
                                        counts["latency_count"]),
        "network.onet_ratio": ratio(unicasts["onet"], unicasts["unicasts"]),
        "energy.eval.calls": first["energy.eval"]["calls"],
        "energy.eval_s": med(lambda s: s["energy.eval"]["total_s"]),
        "experiments.hash.calls": first["experiments.hash"]["calls"],
        "experiments.hash_s": med(lambda s: s["experiments.hash"]["total_s"]),
        "experiments.store.calls": first["experiments.store"]["calls"],
        "experiments.store_s": med(lambda s: s["experiments.store"]["total_s"]),
        "trace.overhead": ratio(pass_seconds(traced["passes"]), wall),
        "host.wall_s": wall,
        "host.calibration_s": statistics.median(calibration.samples),
    })
    return out


def counters_repeat(layers: list[dict]) -> bool:
    """Every boundary's call count is the same in every traced pass."""
    def calls(stats):
        return {k: v["calls"] for k, v in stats.items() if "calls" in v}
    return all(calls(s) == calls(layers[0]) for s in layers[1:])


# -- entry points ---------------------------------------------------------------
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Benchmark the simulation pipeline on one workload.",
    )
    parser.add_argument("--workload", required=True,
                        choices=("bcast-atacp", "miss-emesh", "netload-fig3"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: 42, or 7 for netload-fig3)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="seconds to measure (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: w8 / scale 0.2 / two loads, for self-tests")
    parser.add_argument("--role", choices=("main", "setup", "traced"),
                        default="main", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def end_to_end_run(args, workload, calibration) -> tuple[dict, list, list[str]]:
    """Tracing off: ``(metrics, passes to check, problems)``."""
    setup_s = time_setup(args)
    passes = measure(workload, args.seconds, calibration)
    problems = untraced_problems()
    return end_to_end(workload, passes, setup_s, calibration), passes, problems


def per_layer_run(args, workload, calibration) -> tuple[dict, list, list[str]]:
    """An untraced share of ``--seconds``, then a traced child process."""
    untraced_s = args.seconds * UNTRACED_SHARE
    passes = measure(workload, untraced_s, calibration)
    problems = untraced_problems()
    traced = run_traced_child(args, args.seconds - untraced_s)
    if not counters_repeat(traced["layers"]):
        problems.append("call counts differ between traced passes")
    metrics = per_layer(workload, passes, traced, calibration)
    return metrics, passes + traced["passes"], problems


def untraced_problems() -> list[str]:
    return [f"{m} imported by an untraced run"
            for m in OFF_MODULES if m in sys.modules]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_repro()
    import harness

    if args.seed is None:
        args.seed = harness.default_seed(args.workload)
    size = harness.SIZES[args.size]

    if args.role == "setup":
        harness.build_first(args.workload, args.seed, size)
        print("ready", flush=True)
        return 0

    workload = harness.Workload(args.workload, args.seed, size, OUT_DIR)
    if args.role == "traced":
        print(json.dumps(measure_traced(workload, args.seconds)))
        return 0

    calibration = harness.Calibration()
    if args.trace:
        metrics, passes, problems = per_layer_run(args, workload, calibration)
        units = PER_LAYER
    else:
        metrics, passes, problems = end_to_end_run(args, workload, calibration)
        units = END_TO_END
    attempted, failed, unit_problems = check(workload, passes)
    problems += unit_problems
    for problem in problems:
        log(f"FAIL {problem}")
    log(f"{args.workload} seed {args.seed}: {attempted} unit(s) checked, "
        f"{failed} failed")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
