"""Command-line interface: regenerate any paper figure or table.

Usage::

    python -m repro list                 # show available experiments
    python -m repro fig3                 # latency vs load curves
    python -m repro fig8 --mesh-width 32 --scale 1.0
    python -m repro table5
    python -m repro all                  # one batch, then every figure
    python -m repro ablations
    python -m repro run --apps barnes,radix --networks atac+ --jobs 4
    python -m repro run --apps barnes --profile   # cProfile the simulator
    python -m repro run --apps barnes --sanitize  # runtime invariant checking
    python -m repro sweep --jobs 4       # (apps x networks) design sweep
    python -m repro fuzz --budget 120s   # differential invariant fuzzer
    python -m repro run --apps radix --telemetry   # record windows + trace
    python -m repro top latest           # windowed time-series table
    python -m repro trace latest         # export Perfetto trace JSON

The run flags are exported as the environment variables the
experiment layer reads, so 'run', 'sweep' and every figure driver see
them alike: ``--jobs`` as ``REPRO_JOBS`` (read by the runner),
``--mesh-width``/``--scale``/``--sanitize``/``--telemetry`` as
``REPRO_MESH_WIDTH``/``REPRO_SCALE``/``REPRO_SANITIZE``/
``REPRO_TELEMETRY`` (read by ``spec_for`` for every spec knob the
caller leaves unset).  ``--sanitize`` runs every simulation under
:mod:`repro.sanitizer`, which raises a structured
``InvariantViolation`` on any cross-layer inconsistency (~2x cost;
see DESIGN.md section 10).  ``--telemetry`` records windowed counter
deltas and a bounded event trace per run (see DESIGN.md section 12);
``repro top`` / ``repro trace`` read them back.  ``--no-cache`` points
``REPRO_CACHE_DIR`` at a throwaway store for the invocation (after
pinning ``REPRO_TELEMETRY_DIR`` to the telemetry root it would have
used).  ``-v`` / ``--quiet`` raise or silence :mod:`repro.log` stderr
output.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from functools import partial


def build_parser() -> argparse.ArgumentParser:
    """The `python -m repro` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the tables and figures of 'Cross-layer Energy and "
            "Performance Evaluation of a Nanophotonic Manycore Processor "
            "System' (IPDPS 2012)."
        ),
    )
    parser.add_argument(
        "experiment",
        help="fig3..fig17, table5, ablations, run, sweep, all, or list",
    )
    parser.add_argument(
        "--mesh-width", type=int, default=None,
        help="cores per mesh edge (32 = the paper's 1024 cores; default "
             "16, fig3 32); fig10 always prices the paper's 32x32 chip",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="trace-length multiplier (default 0.6; paper scale 1.0)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the on-disk run cache: runs land in "
             "a throwaway store for this invocation only",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes for the experiment runner "
             "(default: REPRO_JOBS env or all cores)",
    )
    parser.add_argument(
        "--apps", default=None, metavar="A,B,...",
        help="comma-separated app list for 'run'/'sweep' "
             "(default: all 8 paper apps)",
    )
    parser.add_argument(
        "--networks", default=None, metavar="N,M,...",
        help="comma-separated networks for 'run'/'sweep' "
             "(default: atac+ for 'run', the registry's sweep axis for "
             "'sweep'; 'repro list' shows every registered network)",
    )
    parser.add_argument(
        "--seed", type=int, default=42,
        help="trace-generation seed for 'run'/'sweep' (default 42)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="'run' only (any other experiment exits 2): cProfile the "
             "batch in-process (forces --jobs 1 and --no-cache) and print "
             "the top 25 functions by cumulative time to stderr",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run under the runtime invariant checker (repro.sanitizer): "
             "~2-3x slower, raises InvariantViolation on any cross-layer "
             "inconsistency; equivalent to REPRO_SANITIZE=1",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="record windowed metrics + an event trace per run "
             "(repro.telemetry) under the telemetry root; inspect with "
             "'repro top'/'repro trace'; equivalent to REPRO_TELEMETRY=1",
    )
    _add_verbosity_flags(parser)
    return parser


def _add_verbosity_flags(parser: argparse.ArgumentParser) -> None:
    """``-v``/``--quiet``, shared by the main parser and sub-tools."""
    parser.add_argument(
        "--verbose", "-v", action="count", default=0,
        help="more repro.log stderr output (-v: debug)",
    )
    parser.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress repro.log progress output (warnings still print)",
    )


def _sweep(args, networks_default: tuple[str, ...]) -> int:
    """Shared implementation of the `run` and `sweep` experiments."""
    from repro.experiments.common import Runner, energy_models, format_table, grid
    from repro.workloads.splash import APP_ORDER

    apps = tuple(args.apps.split(",")) if args.apps else APP_ORDER
    networks = (
        tuple(args.networks.split(",")) if args.networks else networks_default
    )
    try:
        specs = grid(apps, networks, args.mesh_width, args.scale,
                     seed=args.seed)
    except (KeyError, ValueError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(msg, file=sys.stderr)
        return 2
    runner = Runner(jobs=args.jobs)
    results = runner.run(specs)
    report = runner.last_report
    rows = []
    for result, model in zip(results, energy_models(specs)):
        row = result.summary()
        breakdown = model.evaluate(result)
        row["chip_energy_j"] = f"{breakdown.chip_energy_j:.3e}"
        rows.append(row)
    print(format_table(rows, list(rows[0].keys())))
    print(
        f"\n{report.total} run(s): {report.hits} cached, {report.misses} "
        f"executed on {report.jobs} worker(s) in {report.elapsed_s:.1f}s"
    )
    return 0


def _profiled_sweep(args, networks_default: tuple[str, ...]) -> int:
    """`run --profile`: cProfile the whole batch in this process.

    Profiling across pool workers would attribute everything to
    ``ProcessPoolExecutor`` plumbing, so the batch is forced onto one
    in-process worker.  :func:`main` gives it a throwaway store, as for
    ``--no-cache`` (a cache hit profiles JSON decoding, not the
    simulator).
    """
    import cProfile
    import pstats

    os.environ["REPRO_JOBS"] = "1"
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        code = _sweep(args, networks_default)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.strip_dirs().sort_stats("cumulative").print_stats(25)
    return code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fuzz":
        # fuzz owns its flags (budget/seed/fault injection), so it
        # parses its own argv instead of sharing the main parser.
        from repro.sanitizer.fuzz import main as fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] in ("trace", "top"):
        # telemetry inspection verbs: read recorded artifacts, never
        # import the simulator.
        from repro.telemetry.inspect import main as inspect_main

        return inspect_main(argv)
    args = build_parser().parse_args(argv)
    from repro.log import set_verbosity

    set_verbosity(verbose=args.verbose, quiet=args.quiet)
    if args.profile and args.experiment != "run":
        print(f"--profile profiles 'run' only, not {args.experiment!r}",
              file=sys.stderr)
        return 2
    if args.mesh_width is not None:
        os.environ["REPRO_MESH_WIDTH"] = str(args.mesh_width)
    if args.scale is not None:
        os.environ["REPRO_SCALE"] = str(args.scale)
    if args.jobs is not None:
        if args.jobs < 1:
            print("--jobs must be >= 1", file=sys.stderr)
            return 2
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.sanitize:
        # Exported, not passed: spec_for reads it for 'run'/'sweep' and
        # for the figure drivers (which build their own specs) alike.
        os.environ["REPRO_SANITIZE"] = "1"
    if args.telemetry:
        # Same export rationale as --sanitize.
        os.environ["REPRO_TELEMETRY"] = "1"
    if not (args.no_cache or args.profile):
        return _dispatch(args)
    # A throwaway store, so runs shared between drivers still execute
    # once.  Telemetry keeps landing where it would without the flag.
    from repro.telemetry import telemetry_root

    os.environ["REPRO_TELEMETRY_DIR"] = str(telemetry_root())
    with tempfile.TemporaryDirectory(prefix="repro-no-cache-") as store:
        os.environ["REPRO_CACHE_DIR"] = store
        return _dispatch(args)


def _dispatch(args) -> int:
    """Run the parsed command; returns a process exit code."""
    if args.experiment in ("run", "sweep"):
        # imported lazily so `--help` stays fast
        from repro.network.registry import DEFAULT_NETWORK, experiment_axis

        defaults = (
            (DEFAULT_NETWORK,)
            if args.experiment == "run"
            else experiment_axis("sweep")
        )
        if args.profile:
            return _profiled_sweep(args, networks_default=defaults)
        return _sweep(args, networks_default=defaults)

    from repro.experiments.catalog import EXPERIMENTS, Experiment

    experiments = dict(EXPERIMENTS)
    if args.experiment == "list":
        from repro.network.registry import REGISTRY

        print("available experiments:")
        for name in experiments:
            print(f"  {name}")
        print("  run    (explicit app/network batch through the runner)")
        print("  sweep  (apps x networks design sweep through the runner)")
        print("  fuzz   (differential invariant fuzzer; see 'fuzz --help')")
        print("  top    (windowed telemetry time series; see 'top --help')")
        print("  trace  (export a recorded run as Perfetto JSON)")
        print("  all")
        print("\nregistered networks (--networks):")
        for descriptor in REGISTRY.values():
            print(f"  {descriptor.name:12s} {descriptor.summary}")
        return 0
    if args.mesh_width is not None:
        # Fig 3 defaults to the paper's 32x32 chip, not REPRO_MESH_WIDTH's
        # 16, so the flag is passed in.
        fig3 = experiments["fig3"]
        experiments["fig3"] = Experiment(
            partial(fig3.main, args.mesh_width),
            tuple(partial(grid, args.mesh_width) for grid in fig3.grids),
        )
    if args.experiment != "all":
        if args.experiment not in experiments:
            print(
                f"unknown experiment {args.experiment!r}; "
                "try 'python -m repro list'",
                file=sys.stderr,
            )
            return 2
        experiments = {args.experiment: experiments[args.experiment]}
    try:
        # building the grids rejects a bad width before anything runs
        specs = [spec for e in experiments.values() for spec in e.specs()]
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.experiment == "all":
        from repro.experiments.runner import Runner, bypass_cache_on_load

        # One batch, so a cold store fans out once and the drivers read
        # hits.  A sanitized or telemetry spec re-executes whenever it is
        # asked for, so running it ahead of its driver would run it twice.
        Runner().run([s for s in specs if not bypass_cache_on_load(s)])
    drivers: dict = {}  # each driver module's main once, at its first name
    for name, experiment in experiments.items():
        drivers.setdefault(experiment.main, name)
    for main, name in drivers.items():
        if args.experiment == "all":
            print(f"\n########## {name} ##########")
        main()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
