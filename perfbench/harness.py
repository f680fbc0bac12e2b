"""Workloads of the repo benchmark and the code that runs them.

A *unit* is one spec carried the way a figure sweep carries it, through
a ``Runner`` with ``jobs=1`` (content hash, a store probe that must
miss, ``execute``, store write):

* full-system (``bcast-atacp``, ``miss-emesh``): ``RunSpec.execute``
  builds the ``ManycoreSystem``, generates the traces and simulates;
  then ``EnergyModel.evaluate`` prices the result in all four Table IV
  scenarios;
* ``netload-fig3``: one Fig 3 load point (``LoadPointSpec.execute``).

A *pass* runs every unit of a workload once into a fresh, empty
``ResultStore`` under the benchmark's own output directory, never the
shared ``.repro_cache/``.  Everything here drives the simulator through
its public functions only (``SystemCapture`` reads the counts a
``RunResult`` lacks off the system ``execute`` builds); the layer tracer (``tracer.py``) patches the
same entry points from outside when a traced run asks for it.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import shutil
import tempfile
import time
from array import array
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.energy.accounting import EnergyModel
from repro.experiments import fig03
from repro.experiments.runner import Runner
from repro.experiments.runspec import LoadPointSpec, RunSpec
from repro.experiments.store import ResultStore
from repro.network.atac import AtacNetwork
from repro.network.topology import MeshTopology
from repro.network.types import Packet
from repro.sim.system import ManycoreSystem
from repro.tech.scenarios import ALL_SCENARIOS
from repro.workloads.synthetic import SyntheticTraffic

#: Default seeds, as in the figure modules (RunSpec / LoadPointSpec defaults).
RUN_SEED = 42
LOAD_SEED = 7

#: workload -> (app, network) for the full-system workloads.
FULL_SYSTEM = {
    "bcast-atacp": ("barnes", "atac+"),
    "miss-emesh": ("ocean_non_contig", "emesh-pure"),
}
NETLOAD = "netload-fig3"
WORKLOADS = (*FULL_SYSTEM, NETLOAD)

#: Fig 3's broadcast injection share (0.1 % of packets).
NETLOAD_BCAST_FRACTION = 0.001


@dataclass(frozen=True)
class Size:
    """Operating point of a run: mesh width, trace scale, Fig 3 loads."""

    name: str
    mesh_width: int
    scale: float
    loads: tuple[float, ...]


#: The benchmark proper: the figure suite's 256-core operating point.
FULL = Size("full", 16, 0.6, fig03.DEFAULT_LOADS)
#: The self-test size: seconds per pass.  One load below and one past
#: saturation, so both network paths still run.
TINY = Size("tiny", 8, 0.2, (fig03.DEFAULT_LOADS[0], fig03.DEFAULT_LOADS[-1]))
SIZES = {s.name: s for s in (FULL, TINY)}


def default_seed(workload: str) -> int:
    return LOAD_SEED if workload == NETLOAD else RUN_SEED


def make_specs(workload: str, seed: int, size: Size) -> list:
    """The workload's units; ``seed`` goes only into the spec's seed."""
    if workload in FULL_SYSTEM:
        app, network = FULL_SYSTEM[workload]
        return [RunSpec(
            app=app, network=network, mesh_width=size.mesh_width,
            scale=size.scale, seed=seed, sanitize=False, telemetry=False,
        )]
    if workload != NETLOAD:
        raise KeyError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    topology = MeshTopology(width=size.mesh_width, cluster_width=4)
    return [
        LoadPointSpec(
            routing=routing, load=load, mesh_width=size.mesh_width,
            broadcast_fraction=NETLOAD_BCAST_FRACTION, seed=seed,
        )
        for routing, _ in fig03.scheme_ids(topology) for load in size.loads
    ]


def build_first(workload: str, seed: int, size: Size):
    """Everything up to "ready to simulate" for the workload's first
    unit: spec and config construction plus the first system (or, for
    ``netload-fig3``, network) and topology build."""
    spec = make_specs(workload, seed, size)[0]
    if workload in FULL_SYSTEM:
        return ManycoreSystem(spec.config(), sanitize=False, telemetry=False)
    topology = MeshTopology(width=spec.mesh_width, cluster_width=spec.cluster_width)
    routing = fig03.routing_schemes(topology)[0]
    return AtacNetwork(topology, flit_bits=spec.flit_bits, routing=routing)


class Calibration:
    """A fixed reference computation, timed between units.

    The host's speed drifts by 10-40 % over minutes as other tenants
    load its shared caches and memory, and every host time of a run
    moves with it.  Random byte reads from a buffer larger than the
    last-level cache slow down the same way (correlation about 0.65 per
    unit on the reference machine), so a pass time scaled by the run's
    median read time cancels much of that drift.
    """

    BUFFER_BYTES = 64 << 20
    READS = 100_000
    #: Seconds between samples; the first unit after the gap takes one.
    EVERY_S = 1.0

    def __init__(self) -> None:
        rng = random.Random(0)
        before = resident_mb()
        self._buffer = bytearray(self.BUFFER_BYTES)
        chunk = 1 << 20  # filled in place: no second 64 MiB copy at start
        for start in range(0, self.BUFFER_BYTES, chunk):
            self._buffer[start:start + chunk] = rng.randbytes(chunk)
        self._index = array("q", (rng.randrange(self.BUFFER_BYTES)
                                  for _ in range(self.READS)))
        #: resident memory the calibration itself holds
        self.resident_mb = resident_mb() - before
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        buffer = self._buffer
        total = 0
        t0 = time.perf_counter()
        for i in self._index:
            total += buffer[i]
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._last = t1

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.sample()


def resident_mb() -> float:
    """Current resident set size of this process in MiB (Linux)."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / (1 << 20)


def digest(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """One executed unit: its timing, result digest and counts."""

    label: str
    elapsed_s: float
    #: host seconds inside ``ManycoreSystem.run`` (0 for load points)
    sim_s: float = 0.0
    digest: str = ""
    #: the result and its deterministic simulated counts (see
    #: ``_full_system_counts``); ``{"point": ...}`` for a load point
    counts: dict = field(default_factory=dict)
    error: str = ""


class Workload:
    """One workload at one seed and size, run pass by pass."""

    def __init__(self, name: str, seed: int, size: Size, out_dir: Path) -> None:
        self.name = name
        self.seed = seed
        self.size = size
        self.out_dir = out_dir
        self.specs = make_specs(name, seed, size)
        self.full_system = name in FULL_SYSTEM
        self.labels = [spec.label() for spec in self.specs]
        self._netload_counts = None

    # -- one unit ------------------------------------------------------
    def run_unit(self, spec, runner: Runner) -> Outcome:
        """Execute one unit; the tracer wraps this as the unit span."""
        if self.full_system:
            return self._run_full_system(spec, runner)
        t0 = time.perf_counter()
        [point] = runner.run([spec])
        elapsed = time.perf_counter() - t0
        _check_missed(spec, runner)
        return Outcome(spec.label(), elapsed, digest=digest(asdict(point)),
                       counts={"point": asdict(point)})

    def _run_full_system(self, spec: RunSpec, runner: Runner) -> Outcome:
        t0 = time.perf_counter()
        with SystemCapture() as built:
            [result] = runner.run([spec])
        model = EnergyModel(spec.config())
        energy = {sc.name: model.evaluate(result, sc).components
                  for sc in ALL_SCENARIOS}
        elapsed = time.perf_counter() - t0
        _check_missed(spec, runner)

        counts = _full_system_counts(result, built.system, built.traces)
        _check_full_system(result, counts)
        doc = {"result": counts["result"], "events": counts["events"],
               "energy": energy}
        return Outcome(spec.label(), elapsed, built.sim_s, digest(doc), counts)

    # -- one pass ------------------------------------------------------
    def run_pass(self, deadline: float | None = None, after_unit=None,
                 units_done=None) -> list[Outcome]:
        """Run the units once into a fresh store.

        With a ``deadline`` the pass stops after the first unit that
        ends past it (a partial pass); ``None`` runs every unit.
        ``after_unit()`` runs after each unit and ``units_done()`` after
        the last, if given; then every stored entry is read back and
        must equal the result it was written from.
        """
        self.out_dir.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="store-", dir=self.out_dir))
        try:
            store = ResultStore(root)
            runner = Runner(jobs=1, store=store, progress=False)
            outcomes = []
            for spec in self.specs:
                try:
                    outcomes.append(self.run_unit(spec, runner))
                except Exception as exc:  # a failed unit is counted, not fatal
                    outcomes.append(Outcome(spec.label(), 0.0,
                                            error=f"{type(exc).__name__}: {exc}"))
                if after_unit is not None:
                    after_unit()
                if deadline is not None and time.perf_counter() >= deadline:
                    break
            if units_done is not None:
                units_done()
            for spec, out in zip(self.specs, outcomes):
                if not out.error:
                    out.error = self._check_stored(spec, store, out)
            return outcomes
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _check_stored(self, spec, store: ResultStore, out: Outcome) -> str:
        loaded = store.load(spec)
        if loaded is None:
            return "result missing from the store"
        if self.full_system:
            same = loaded.to_dict() == out.counts["result"]
        else:
            same = asdict(loaded) == out.counts["point"]
        return "" if same else "stored result differs from the computed one"

    # -- pass-level quantities -----------------------------------------
    def netload_counts(self) -> dict:
        """Packets and flits each load point injects, warm-up included.

        Counted once per run, untimed, from the same public traffic
        generator ``LoadPointSpec.execute`` drives.
        """
        if self._netload_counts is None:
            packets = flits = 0
            for spec in self.specs:
                traffic = SyntheticTraffic(
                    n_cores=spec.mesh_width ** 2, load=spec.load,
                    broadcast_fraction=spec.broadcast_fraction, seed=spec.seed,
                )
                pkts = traffic.generate(spec.cycles)
                per_packet = Packet(src=0, dst=1, size_bits=traffic.packet_bits,
                                    time=0).n_flits(spec.flit_bits)
                packets += len(pkts)
                flits += per_packet * len(pkts)
            self._netload_counts = {"ops": packets, "flits": flits}
        return self._netload_counts

    def pass_counts(self, outcomes: list[dict]) -> dict:
        """Deterministic simulated totals of one complete pass, given as
        ``vars(Outcome)`` dicts (failed units contribute nothing)."""
        if self.full_system:
            keys = ("instructions", "flits", "events", "ops", "completion_cycles",
                    "stalled_cycles", "l2_hits", "l2_misses", "mem_busy_cycles",
                    "latency_sum", "latency_count")
            return {k: sum(o["counts"].get(k, 0) for o in outcomes) for k in keys}
        points = [o["counts"]["point"] for o in outcomes if not o["error"]]
        return {
            **self.netload_counts(),
            "instructions": 0,
            "latency_sum": sum(p["mean_latency"] * p["packets"] for p in points),
            "latency_count": sum(p["packets"] for p in points),
        }


class SystemCapture:
    """While active, keeps the system, traces and host seconds of the
    ``ManycoreSystem.run`` call that ``RunSpec.execute`` makes.

    ``execute`` returns only the ``RunResult``; the event count and the
    memory controllers' busy cycles live on the system it drops.  The
    wrapper adds one call frame per unit.
    """

    def __enter__(self) -> "SystemCapture":
        original = self._original = ManycoreSystem.__dict__["run"]
        capture = self

        def run(system, traces, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(system, traces, *args, **kwargs)
            finally:
                capture.sim_s = time.perf_counter() - t0
                capture.system, capture.traces = system, traces

        ManycoreSystem.run = run
        return self

    def __exit__(self, *exc) -> None:
        ManycoreSystem.run = self._original


def _check_missed(spec, runner: Runner) -> None:
    """The unit must have executed, not been served from the store."""
    if runner.last_report.hits:
        raise RuntimeError(f"{spec.label()}: benchmark store is not empty")


def _full_system_counts(result, system: ManycoreSystem, traces) -> dict:
    ns = result.network_stats
    cc = result.cache_counters
    return {
        "result": result.to_dict(),
        "instructions": result.total_instructions,
        "flits": ns.injected_flits,
        "events": system.eventq.events_processed,
        "ops": sum(len(t.ops) for t in traces.values()),
        "completion_cycles": result.completion_cycles,
        "stalled_cycles": result.stalled_cycles,
        "l2_hits": cc.l2_hits,
        "l2_misses": cc.l2_misses,
        "mem_busy_cycles": sum(m.busy_cycles for m in system.memctrls.values()),
        "latency_sum": ns.latency_sum,
        "latency_count": ns.latency_count,
        "_trace_instructions": sum(t.n_instructions for t in traces.values()),
        "_trace_memory_ops": sum(t.n_memory_ops for t in traces.values()),
    }


def _check_full_system(result, counts: dict) -> None:
    """Conservation checks that hold for every seed, pinned or not."""
    cc = result.cache_counters
    ns = result.network_stats
    problems = []
    if result.total_instructions != counts["_trace_instructions"]:
        problems.append("retired instructions differ from the traces'")
    if cc.l1d_reads + cc.l1d_writes != counts["_trace_memory_ops"]:
        problems.append("L1-D accesses differ from the traces' memory ops")
    if ns.packets_sent != ns.unicasts_sent + ns.broadcasts_sent:
        problems.append("packets != unicasts + broadcasts")
    if result.completion_cycles <= 0:
        problems.append("no simulated time elapsed")
    if problems:
        raise AssertionError("; ".join(problems))
