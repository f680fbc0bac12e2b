"""Pin the result digests that ``run.py`` checks every unit against.

Runs one untraced pass of every workload per seed and records each
unit's digest, in unit order, in ``expected.json``.  Re-pin only when a change
is meant to alter simulated results::

    python3 perfbench/pin.py --size full --seeds 42 7 0 1 2
"""

from __future__ import annotations

import argparse
import json

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/pin.py", description=__doc__)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    run.import_repro()
    import harness

    pins = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.exists() else {}
    size = harness.SIZES[args.size]
    for name in harness.WORKLOADS:
        for seed in args.seeds:
            workload = harness.Workload(name, seed, size, run.OUT_DIR)
            outcomes = workload.run_pass()
            errors = [o.error for o in outcomes if o.error]
            if errors:
                raise SystemExit(f"{name} seed {seed}: {errors[0]}")
            pins.setdefault(args.size, {}).setdefault(name, {})[str(seed)] = [
                o.digest for o in outcomes]
            run.log(f"pinned {name} seed {seed} ({args.size})")
    run.EXPECTED.write_text(dumps(pins))
    return 0


def dumps(pins: dict) -> str:
    """``json.dumps`` with one line per (size, workload, seed) list."""
    lines = []
    for size, workloads in sorted(pins.items()):
        lines.append(f"  {json.dumps(size)}: {{")
        for name, seeds in sorted(workloads.items()):
            lines.append(f"    {json.dumps(name)}: {{")
            rows = [f"      {json.dumps(seed)}: {json.dumps(digests)}"
                    for seed, digests in sorted(seeds.items(), key=lambda kv: int(kv[0]))]
            lines.append(",\n".join(rows))
            lines.append("    },")
        lines[-1] = "    }"
        lines.append("  },")
    lines[-1] = "  }"
    return "{\n" + "\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    raise SystemExit(main())
