"""``repro fuzz``: seeded randomized invariant + differential fuzzer.

Each case is a tiny random workload (randomized per-core traces with
shared addresses and barriers) on a randomized small architecture
(mesh width, network, protocol, hardware sharer count).  Every case is
checked two ways:

1. **sanitized** -- the batched fast-path simulator runs under the
   runtime invariant checker (:mod:`repro.sanitizer`), which raises
   :class:`~repro.sanitizer.InvariantViolation` on any cross-layer
   inconsistency;
2. **differential** -- the same case re-runs on
   :class:`ReferenceBroadcastSystem`, which delivers each broadcast
   with one event per receiving core, and the two :class:`RunResult`
   payloads are compared field by field.

On failure the trace is shrunk (greedy delta debugging: drop whole
cores, then halving chunks of ops, then simplify surviving ops) to a
minimal reproducer written to ``benchmarks/fuzz/repro_<seed>.json``,
replayable with ``repro fuzz --replay <file>``.

``--inject`` arms one of the deterministic faults from
:mod:`repro.sanitizer.faults` in every case, turning the fuzzer into a
sanitizer *detector* test: it succeeds (exit 1 + reproducer) when the
sanitizer catches the corruption.

Cases are valid JSON end to end -- op encoding: ``["c", cycles]``,
``["m", address, is_write]``, ``["b", barrier_id]``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.coherence.directory import Protocol
from repro.coherence.messages import MSG_BITS, CoherenceMsg, MsgType
from repro.log import get_logger, set_verbosity
from repro.network.registry import (
    UnknownNetworkError,
    get_network,
    networks_for_fuzzing,
)
from repro.network.types import BROADCAST
from repro.sanitizer import InvariantViolation
from repro.sanitizer.faults import FAULTS, inject_fault
from repro.sim.config import SystemConfig
from repro.sim.system import ManycoreSystem
from repro.workloads.trace import BarrierOp, ComputeOp, CoreTrace, MemoryOp

_logger = get_logger("fuzz")

#: Ceiling on events per fuzz run: converts protocol livelocks into
#: structured ``livelock`` violations instead of hanging the fuzzer.
MAX_EVENTS = 2_000_000

#: Reproducer file format version.
REPRO_SCHEMA = 1

DEFAULT_OUT_DIR = Path("benchmarks/fuzz")


# ----------------------------------------------------------------------
# case generation
# ----------------------------------------------------------------------

def generate_case(
    seed: int, fault: str | None = None,
    networks: tuple[str, ...] | None = None,
) -> dict:
    """A random, self-contained, JSON-serializable fuzz case.

    Generation is fully determined by ``(seed, networks)``.  Addresses
    are drawn from a deliberately tiny pool so that sharing,
    invalidation broadcasts and directory pressure happen even in
    ~20-op traces, and every barrier id appears in every compute core's
    trace (anything else deadlocks by construction).  ``networks``
    restricts the architecture pool (CI matrix rows fuzz one family at
    a time); by default every network the registry says is instantiable
    at the chosen mesh width is eligible.
    """
    import random

    rng = random.Random(seed)
    # favour the smallest machine: shrink throughput beats coverage.
    # Optical layers need >= 2 clusters, so the one-cluster w4 machine
    # only runs the electrical meshes (see networks_for_fuzzing).
    mesh_width = rng.choice((4, 4, 8, 8))
    if networks is not None and not any(
        n in networks_for_fuzzing(4) for n in networks
    ):
        # the requested networks all need clusters: w4 can't host any
        mesh_width = 8
    pool = tuple(
        n for n in networks_for_fuzzing(mesh_width)
        if networks is None or n in networks
    )
    case = {
        "seed": seed,
        "mesh_width": mesh_width,
        "network": rng.choice(pool),
        # a stale sharer pointer is architecturally legal under Dir_kB
        # (silent evictions), so that fault only fires on ACKwise
        "protocol": "ackwise" if fault == "stale-sharer"
        else rng.choice(("ackwise", "dirkb")),
        "hardware_sharers": rng.choice((2, 3, 4)),
    }
    config = case_config(case)
    compute = config.topology.compute_cores()
    pool = rng.sample(range(4096), rng.randint(2, 8))
    n_barriers = rng.randint(0, 2)
    traces: dict[str, list] = {}
    for core in compute:
        ops: list[list] = []
        for phase in range(n_barriers + 1):
            for _ in range(rng.randint(0, 8)):
                r = rng.random()
                if r < 0.60:
                    ops.append(["m", rng.choice(pool), int(rng.random() < 0.4)])
                elif r < 0.90:
                    ops.append(["c", rng.randint(1, 12)])
                # else: an empty slot -- varies trace lengths
            if phase < n_barriers:
                ops.append(["b", phase])
        traces[str(core)] = ops
    case["traces"] = traces
    return case


def case_config(case: dict) -> SystemConfig:
    """The (scaled) architecture a case runs on."""
    base = SystemConfig(
        network=case["network"],
        protocol=Protocol(case["protocol"]),
        hardware_sharers=case["hardware_sharers"],
    )
    return base.scaled(mesh_width=case["mesh_width"])


def _decode_op(op: list):
    tag = op[0]
    if tag == "c":
        return ComputeOp(cycles=op[1])
    if tag == "m":
        return MemoryOp(address=op[1], is_write=bool(op[2]))
    if tag == "b":
        return BarrierOp(barrier_id=op[1])
    raise ValueError(f"bad op tag {tag!r} in fuzz case")


def case_traces(case: dict) -> dict[int, CoreTrace]:
    return {
        int(core): CoreTrace(int(core), [_decode_op(op) for op in ops])
        for core, ops in case["traces"].items()
    }


def total_ops(case: dict) -> int:
    return sum(len(ops) for ops in case["traces"].values())


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------

class ReferenceBroadcastSystem(ManycoreSystem):
    """The differential oracle: one delivery event per receiving core.

    :class:`ManycoreSystem` fans an ``INV_BCAST`` out with one event per
    distinct arrival time and dispatches the member caches inline.  This
    subclass schedules each receiving core's ``L2Controller.handle`` as
    its own event and shares none of that grouping code, so comparing
    the two checks the batched path against an independent one (the
    fuzzer's differential and
    ``tests/integration/test_fastpath_equivalence.py``).
    """

    def _inject(self, msg: CoherenceMsg, now: int) -> None:
        if msg.mtype is not MsgType.INV_BCAST:
            super()._inject(msg, now)
            return
        schedule = self.eventq.schedule
        for core, arrival in self.network.send(
                msg.sender, BROADCAST, MSG_BITS[MsgType.INV_BCAST], now):
            if core in self._compute_set:
                schedule(arrival, self.caches[core].handle, msg)
        # Local loopback: the network never delivers to the sender.
        if msg.sender in self._compute_set:
            schedule(now + 1, self.caches[msg.sender].handle, msg)


def run_case(case: dict, sanitize: bool, fault: str | None = None,
             system_cls: type[ManycoreSystem] = ManycoreSystem):
    """One simulation of ``case`` on ``system_cls``; returns its RunResult."""
    system = system_cls(case_config(case), sanitize=sanitize)
    if fault is not None:
        inject_fault(system, fault)
    return system.run(case_traces(case), app="fuzz", max_events=MAX_EVENTS)


def check_case(case: dict, fault: str | None = None) -> dict | None:
    """Run ``case`` sanitized (and, without a fault, differentially).

    Returns ``None`` when the case passes, else a JSON-serializable
    failure description.  Deterministic: the same case always yields
    the same outcome.
    """
    try:
        result = run_case(case, sanitize=True, fault=fault)
    except InvariantViolation as violation:
        return {"kind": "invariant", "violation": violation.to_dict()}
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        return {"kind": "crash", "error": f"{type(exc).__name__}: {exc}"}
    if fault is not None:
        return None  # fault armed but never fired / never detected
    try:
        oracle = run_case(case, sanitize=False,
                          system_cls=ReferenceBroadcastSystem)
    except Exception as exc:  # noqa: BLE001
        return {"kind": "oracle-crash", "error": f"{type(exc).__name__}: {exc}"}
    got, want = result.to_dict(), oracle.to_dict()
    if got != want:
        return {"kind": "differential", "diff": _first_diffs(got, want)}
    return None


def _first_diffs(got: dict, want: dict, limit: int = 8) -> list[dict]:
    """The first ``limit`` differing fields between two result dicts."""
    diffs = []
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            diffs.append(
                {"field": key, "batched": got.get(key), "reference": want.get(key)}
            )
            if len(diffs) >= limit:
                break
    return diffs


def _same_failure(a: dict | None, b: dict | None) -> bool:
    """Failure equivalence used by the shrinker and ``--replay``: the
    same kind of failure (and, for invariant violations, the same
    invariant) -- not an identical message, which shifts as the trace
    shrinks."""
    if a is None or b is None:
        return a is None and b is None
    if a["kind"] != b["kind"]:
        return False
    if a["kind"] == "invariant":
        return a["violation"]["invariant"] == b["violation"]["invariant"]
    return True


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------

def _normalize(case: dict) -> dict:
    """Keep only barrier ids present in *every* core's ops.

    A barrier only some cores arrive at deadlocks by construction, so
    every shrink candidate is normalized before it is tried -- the
    shrinker should find protocol bugs, not barrier-skew artifacts.
    (Generated ids are ascending per core, so the surviving subset
    arrives in a consistent order everywhere.)
    """
    traces = case["traces"]
    common: set | None = None
    for ops in traces.values():
        ids = {op[1] for op in ops if op[0] == "b"}
        common = ids if common is None else common & ids
    common = common or set()
    return {
        **case,
        "traces": {
            core: [op for op in ops if op[0] != "b" or op[1] in common]
            for core, ops in traces.items()
        },
    }


def shrink_case(case: dict, failure: dict, fault: str | None = None,
                log=lambda line: None) -> dict:
    """Greedy delta-debugging shrink preserving ``failure``'s kind."""

    def still_fails(candidate: dict) -> bool:
        return _same_failure(check_case(candidate, fault), failure)

    current = _normalize(case)
    if not still_fails(current):
        current = case  # normalization itself changed the outcome

    changed = True
    while changed:
        changed = False
        # 1. empty out whole cores, largest trace first
        for core in sorted(
            current["traces"], key=lambda c: -len(current["traces"][c])
        ):
            if not current["traces"][core]:
                continue
            candidate = _normalize(
                {**current, "traces": {**current["traces"], core: []}}
            )
            if still_fails(candidate):
                current = candidate
                changed = True
                log(f"  shrink: core {core} cleared -> {total_ops(current)} ops")
        # 2. per-core chunk removal, halving chunk sizes
        for core in list(current["traces"]):
            chunk = max(1, len(current["traces"][core]) // 2)
            while chunk >= 1:
                i = 0
                while i < len(current["traces"][core]):
                    ops = current["traces"][core]
                    candidate = _normalize(
                        {**current,
                         "traces": {**current["traces"],
                                    core: ops[:i] + ops[i + chunk:]}}
                    )
                    if still_fails(candidate):
                        current = candidate
                        changed = True
                    else:
                        i += chunk
                if chunk == 1:
                    break
                chunk //= 2
        if changed:
            log(f"  shrink: pass complete -> {total_ops(current)} ops")
    # 3. simplify surviving ops (shorter computes, reads over writes)
    for core, ops in current["traces"].items():
        for i, op in enumerate(ops):
            for simpler in _simpler_ops(op):
                candidate = {
                    **current,
                    "traces": {**current["traces"],
                               core: ops[:i] + [simpler] + ops[i + 1:]},
                }
                if still_fails(candidate):
                    current = candidate
                    ops = current["traces"][core]
                    break
    return current


def _simpler_ops(op: list) -> list[list]:
    if op[0] == "c" and op[1] > 1:
        return [["c", 1]]
    if op[0] == "m" and op[2]:
        return [["m", op[1], 0]]
    return []


# ----------------------------------------------------------------------
# reproducers
# ----------------------------------------------------------------------

def write_reproducer(path: Path, case: dict, failure: dict,
                     original_ops: int, fault: str | None,
                     timeline: dict | None = None) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": REPRO_SCHEMA,
        "seed": case["seed"],
        "fault": fault,
        "failure": failure,
        "original_ops": original_ops,
        "shrunk_ops": total_ops(case),
        "replay": f"python -m repro fuzz --replay {path}",
        "case": case,
    }
    if timeline is not None:
        doc["telemetry"] = timeline
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def capture_timeline(case: dict, fault: str | None) -> dict | None:
    """The telemetry window/trace context around ``case``'s failure.

    Re-runs the (already shrunk) case once more with the telemetry
    collector attached -- in memory, short windows -- and harvests the
    final counter windows plus the trace ring tail.  Every error path
    degrades to ``None``: the reproducer is complete without it.
    """
    from repro.telemetry.collector import TelemetryConfig

    try:
        system = ManycoreSystem(
            case_config(case), sanitize=True,
            telemetry=TelemetryConfig(window_cycles=64),
        )
        if fault is not None:
            inject_fault(system, fault)
        try:
            system.run(case_traces(case), app="fuzz", max_events=MAX_EVENTS)
        except Exception:  # noqa: BLE001 - the case fails by design
            pass
        return system.telemetry.violation_context()
    except Exception:  # noqa: BLE001 - timeline capture is best-effort
        return None


def replay(path: Path) -> int:
    """Re-run a reproducer file; exit 0 iff the failure reproduces."""
    doc = json.loads(path.read_text())
    if doc.get("schema") != REPRO_SCHEMA:
        print(f"unsupported reproducer schema {doc.get('schema')!r}",
              file=sys.stderr)
        return 2
    failure = check_case(doc["case"], doc.get("fault"))
    if _same_failure(failure, doc["failure"]):
        print(f"reproduced: {_describe_failure(failure)}")
        return 0
    if failure is None:
        print("did NOT reproduce: case now passes", file=sys.stderr)
    else:
        print(
            f"different failure: expected {_describe_failure(doc['failure'])}, "
            f"got {_describe_failure(failure)}",
            file=sys.stderr,
        )
    return 1


def _describe_failure(failure: dict) -> str:
    if failure["kind"] == "invariant":
        v = failure["violation"]
        return f"invariant '{v['invariant']}' at t={v['time']}"
    if failure["kind"] == "differential":
        fields = ", ".join(d["field"] for d in failure["diff"][:3])
        return f"differential mismatch ({fields})"
    return f"{failure['kind']}: {failure.get('error', '')}"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _parse_budget(text: str) -> float:
    return float(text[:-1] if text.endswith("s") else text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description=(
            "Seeded randomized workload/config fuzzer: every case runs "
            "under the runtime invariant checker and differentially "
            "against the unbatched reference simulator; failures are "
            "shrunk to minimal reproducers."
        ),
    )
    parser.add_argument(
        "--budget", default=None, metavar="SECONDS",
        help="wall-clock budget, e.g. '120s' (default: --cases bound)",
    )
    parser.add_argument(
        "--cases", type=int, default=50, metavar="N",
        help="max cases when no --budget is given (default 50)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed; case i uses seed base+i (default 0)",
    )
    parser.add_argument(
        "--seed-from-run-id", action="store_true",
        help="derive the base seed from GITHUB_RUN_ID, so each CI run "
             "fuzzes its own seed window and any failure is reproducible "
             "from the run id",
    )
    parser.add_argument(
        "--inject", choices=FAULTS, default=None, metavar="FAULT",
        help="arm a deterministic fault in every case and require the "
             f"sanitizer to catch it; one of {', '.join(FAULTS)}",
    )
    parser.add_argument(
        "--networks", default=None, metavar="N,M,...",
        help="restrict cases to these registered networks (default: "
             "every network instantiable at the case's mesh width)",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=DEFAULT_OUT_DIR, metavar="DIR",
        help=f"where reproducers are written (default {DEFAULT_OUT_DIR})",
    )
    parser.add_argument(
        "--replay", type=Path, default=None, metavar="FILE",
        help="re-run a reproducer JSON; exit 0 iff it still fails "
             "the same way",
    )
    parser.add_argument(
        "--verbose", "-v", action="count", default=0,
        help="more repro.log stderr output (-v: per-step shrink log)",
    )
    parser.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress repro.log progress output (failures still print)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Fuzz until failure, budget, or case bound.

    Exit codes: 0 = budget exhausted with no failure, 1 = failure found
    (reproducer written), 2 = usage error.  ``--replay`` inverts the
    convention: 0 = reproduced, 1 = not.
    """
    args = build_parser().parse_args(argv)
    set_verbosity(verbose=args.verbose, quiet=args.quiet)
    if args.replay is not None:
        return replay(args.replay)

    networks = None
    if args.networks:
        networks = tuple(args.networks.split(","))
        try:
            for name in networks:
                get_network(name)
        except UnknownNetworkError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2

    base_seed = args.seed
    if args.seed_from_run_id:
        run_id = os.environ.get("GITHUB_RUN_ID")
        if not run_id:
            print("--seed-from-run-id: GITHUB_RUN_ID is not set",
                  file=sys.stderr)
            return 2
        base_seed = int(run_id) % 1_000_000_000

    deadline = None
    if args.budget is not None:
        deadline = time.monotonic() + _parse_budget(args.budget)
    mode = f"inject={args.inject}" if args.inject else "differential"
    if networks is not None:
        mode += f", networks={','.join(networks)}"
    _logger.info(f"base seed {base_seed}, mode {mode}")

    tried = 0
    index = 0
    while True:
        if deadline is not None:
            if time.monotonic() >= deadline:
                break
        elif index >= args.cases:
            break
        seed = base_seed + index
        index += 1
        case = generate_case(seed, fault=args.inject, networks=networks)
        failure = check_case(case, args.inject)
        tried += 1
        if failure is None:
            continue
        ops_before = total_ops(case)
        _logger.warning(
            f"seed {seed} FAILED ({_describe_failure(failure)}); "
            f"shrinking from {ops_before} ops",
        )
        shrunk = shrink_case(
            case, failure, args.inject,
            log=lambda line: _logger.debug(line.strip()),
        )
        # record the shrunk case's own failure (times and event context
        # shift as the trace shrinks; the invariant kind is preserved)
        failure = check_case(shrunk, args.inject) or failure
        timeline = capture_timeline(shrunk, args.inject)
        out = args.out_dir / f"repro_{seed}.json"
        write_reproducer(out, shrunk, failure, ops_before, args.inject,
                         timeline=timeline)
        print(
            f"fuzz: shrunk to {total_ops(shrunk)} ops; reproducer: {out}\n"
            f"      replay with: python -m repro fuzz --replay {out}"
        )
        return 1
    print(f"fuzz: {tried} case(s) passed, no failures")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
