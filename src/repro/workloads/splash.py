"""Synthetic models of the paper's eight applications.

The paper runs seven SPLASH-2 benchmarks plus a dynamic-graph kernel on
Graphite.  We cannot execute compiled SPLASH-2 binaries here, so each
application is modeled by the *traffic signature* that actually drives
every result in the evaluation (DESIGN.md section 4):

* the split of references into private / widely-shared / group-shared
  data, which (through the coherence protocol) determines the
  broadcast-to-unicast mix of Figure 5 and Table V,
* working-set sizes and locality relative to the caches, which
  determine miss rates and hence the offered network load of Figure 6,
* the compute-to-memory ratio and barrier phasing, which set baseline
  IPC and how network slowdowns propagate to completion time.

The traffic is **generated**, but everything downstream of it -- caches,
ACKwise/Dir_kB, the networks, the energy models -- is simulated, not
scripted: a broadcast invalidation happens because a write truly hits a
line whose sharer list overflowed the ``k`` hardware pointers.

Structure of one application:

* **private data** per core: a small hot set (reused constantly, lives
  in L1) plus a cold region sized relative to L2; ``private_cold_frac``
  of private references touch the cold region and become the app's
  capacity-miss stream (the Figure 6 load knob).
* **wide-shared data**: lines read by a neighbourhood of
  ``wide_degree`` cores (> k, so invalidations broadcast).  SPLASH
  codes rebuild such structures between phases, so writes to wide data
  happen right after each barrier (``wide_writes_per_phase`` per core),
  and the readers then re-fetch -- the re-read traffic the paper's
  broadcast-heavy applications exhibit.
* **group-shared data**: producer-consumer lines within groups of
  ``group_size <= k`` cores; their invalidations stay unicast.

Profile constants were calibrated at 256 and 1024 cores (see
``tests/workloads`` and EXPERIMENTS.md) so the per-application
*orderings* of Figures 5-6 and Table V hold: ``barnes``/``fmm``/
``dynamic_graph`` broadcast-heavy with few unicasts per broadcast,
``radix``/``ocean_*`` load-heavy and unicast-dominated, ``lu_contig``
lightest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import log

from repro.network.topology import MeshTopology
from repro.workloads.trace import BarrierOp, ComputeOp, CoreTrace, MemoryOp

#: Address-space layout (line ids).  Regions never overlap: privates
#: start high, shared regions low.
_WIDE_BASE = 1_000_000
_WIDE_STRIDE = 10_000
_GROUP_BASE = 500_000_000
_PRIVATE_BASE = 1_000_000_000
_PRIVATE_STRIDE = 1_000_000

#: Hot-set sizes giving traces temporal locality (L1-resident reuse).
_PRIVATE_HOT_LINES = 8
_WIDE_HOT_LINES = 8


@dataclass(frozen=True)
class AppProfile:
    """Traffic signature of one application.

    Attributes
    ----------
    name / label:
        Identifier and the paper's display name.
    mem_ops_per_core:
        Memory references per core at scale 1.0.
    compute_per_mem:
        Average compute instructions between memory references.
    p_private / p_wide:
        Probability a reference targets private / wide-shared data; the
        remainder goes to group-shared data.
    private_ws_frac:
        Private cold-region size as a fraction of L2 capacity.
    private_cold_frac:
        Fraction of private references that leave the hot subset.
    wide_degree:
        Cores per wide-sharing neighbourhood (must exceed the
        protocol's k for writes to broadcast; bounded so each
        invalidation triggers a bounded re-read storm).
    wide_ws_lines:
        Wide-shared lines per neighbourhood.
    wide_writes_per_phase:
        Expected wide-data writes per core at each phase boundary (the
        rebuild step); the broadcast-frequency knob (Table V).
    group_size / group_ws_lines / group_write_frac:
        Producer-consumer sharing within small groups.
    n_phases:
        Barrier-separated phases.
    """

    name: str
    label: str
    mem_ops_per_core: int
    compute_per_mem: int
    p_private: float
    p_wide: float
    private_ws_frac: float
    private_cold_frac: float
    wide_degree: int
    wide_ws_lines: int
    wide_writes_per_phase: float
    group_size: int
    group_ws_lines: int
    group_write_frac: float
    n_phases: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_private <= 1.0:
            raise ValueError(f"{self.name}: p_private out of range")
        if not 0.0 <= self.p_wide <= 1.0 - self.p_private + 1e-12:
            raise ValueError(f"{self.name}: p_private + p_wide exceeds 1")
        for field_name in (
            "mem_ops_per_core", "compute_per_mem", "wide_degree",
            "wide_ws_lines", "group_size", "group_ws_lines", "n_phases",
        ):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{self.name}: {field_name} must be >= 1")
        if self.private_ws_frac <= 0:
            raise ValueError(f"{self.name}: private_ws_frac must be positive")
        if self.wide_writes_per_phase < 0:
            raise ValueError(f"{self.name}: wide_writes_per_phase must be >= 0")
        for frac in ("group_write_frac", "private_cold_frac"):
            if not 0.0 <= getattr(self, frac) <= 1.0:
                raise ValueError(f"{self.name}: {frac} out of range")


#: The eight applications, in the paper's figure order.
APP_PROFILES: dict[str, AppProfile] = {
    # Dynamic graph: pointer chasing over a shared graph whose hot nodes
    # are read by a wide neighbourhood and updated frequently as edges
    # arrive -> frequent broadcasts, moderate load.
    "dynamic_graph": AppProfile(
        name="dynamic_graph", label="dynamic graph",
        mem_ops_per_core=260, compute_per_mem=5,
        p_private=0.55, p_wide=0.32,
        private_ws_frac=0.70, private_cold_frac=0.10,
        wide_degree=32, wide_ws_lines=64, wide_writes_per_phase=1.2,
        group_size=4, group_ws_lines=16, group_write_frac=0.30,
        n_phases=6,
    ),
    # Radix sort: streams through large private key arrays (capacity
    # misses -> high load); the shared histogram is rebuilt per phase.
    "radix": AppProfile(
        name="radix", label="radix",
        mem_ops_per_core=300, compute_per_mem=4,
        p_private=0.80, p_wide=0.08,
        private_ws_frac=1.60, private_cold_frac=0.30,
        wide_degree=32, wide_ws_lines=64, wide_writes_per_phase=0.5,
        group_size=4, group_ws_lines=16, group_write_frac=0.35,
    ),
    # Barnes-Hut: tree cells read by wide neighbourhoods each timestep
    # and rebuilt between phases -> broadcast-dominated, low load.
    "barnes": AppProfile(
        name="barnes", label="barnes",
        mem_ops_per_core=170, compute_per_mem=10,
        p_private=0.50, p_wide=0.42,
        private_ws_frac=0.30, private_cold_frac=0.035,
        wide_degree=32, wide_ws_lines=48, wide_writes_per_phase=1.6,
        group_size=4, group_ws_lines=16, group_write_frac=0.20,
        n_phases=6,
    ),
    # FMM: similar global-tree sharing to barnes.
    "fmm": AppProfile(
        name="fmm", label="fmm",
        mem_ops_per_core=160, compute_per_mem=11,
        p_private=0.52, p_wide=0.40,
        private_ws_frac=0.35, private_cold_frac=0.035,
        wide_degree=32, wide_ws_lines=48, wide_writes_per_phase=1.5,
        group_size=4, group_ws_lines=16, group_write_frac=0.20,
        n_phases=6,
    ),
    # Ocean (contiguous): nearest-neighbour stencil over big private
    # tiles; boundary exchange with neighbour groups; rare global
    # reductions.
    "ocean_contig": AppProfile(
        name="ocean_contig", label="ocean contig",
        mem_ops_per_core=290, compute_per_mem=4,
        p_private=0.74, p_wide=0.04,
        private_ws_frac=1.40, private_cold_frac=0.25,
        wide_degree=32, wide_ws_lines=48, wide_writes_per_phase=0.12,
        group_size=4, group_ws_lines=24, group_write_frac=0.40,
    ),
    # LU (contiguous): blocked, cache-friendly, almost no sharing ->
    # lightest load, broadcasts almost never.
    "lu_contig": AppProfile(
        name="lu_contig", label="lu contig",
        mem_ops_per_core=140, compute_per_mem=13,
        p_private=0.86, p_wide=0.03,
        private_ws_frac=0.45, private_cold_frac=0.015,
        wide_degree=32, wide_ws_lines=48, wide_writes_per_phase=0.004,
        group_size=4, group_ws_lines=16, group_write_frac=0.25,
    ),
    # Ocean (non-contiguous): strided layout defeats the caches ->
    # highest load, still unicast-dominated.
    "ocean_non_contig": AppProfile(
        name="ocean_non_contig", label="ocean non-contig",
        mem_ops_per_core=310, compute_per_mem=3,
        p_private=0.74, p_wide=0.03,
        private_ws_frac=2.20, private_cold_frac=0.45,
        wide_degree=32, wide_ws_lines=48, wide_writes_per_phase=0.02,
        group_size=4, group_ws_lines=32, group_write_frac=0.45,
    ),
    # LU (non-contiguous): strided lu -> more misses, moderate load,
    # broadcasts rare.
    "lu_non_contig": AppProfile(
        name="lu_non_contig", label="lu non-contig",
        mem_ops_per_core=240, compute_per_mem=5,
        p_private=0.78, p_wide=0.05,
        private_ws_frac=1.10, private_cold_frac=0.15,
        wide_degree=32, wide_ws_lines=48, wide_writes_per_phase=0.06,
        group_size=4, group_ws_lines=24, group_write_frac=0.35,
    ),
}

#: Figure order used throughout the paper's plots.
APP_ORDER = (
    "dynamic_graph", "radix", "barnes", "fmm",
    "ocean_contig", "lu_contig", "ocean_non_contig", "lu_non_contig",
)


def _randbelow(rng: random.Random):
    """``rng.randrange`` for a positive bound, without its Python-level
    argument handling: the returned ``below(n)`` is CPython's
    ``Random._randbelow_with_getrandbits``, drawing ``n.bit_length()``
    bits until the value falls below ``n``, so it consumes ``rng``
    exactly as ``rng.randrange(n)`` does."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def generate_traces(
    profile: AppProfile,
    topology: MeshTopology,
    l2_lines: int = 4096,
    scale: float = 1.0,
    seed: int = 42,
) -> dict[int, CoreTrace]:
    """Build one trace per compute core for an application.

    ``l2_lines`` is the (possibly test-scaled) per-core L2 capacity in
    lines; private working sets are sized relative to it so miss
    behaviour stays representative at any scale.  ``scale`` shrinks or
    stretches the per-core memory-op count (tests use small scales,
    benchmarks 1.0).  Generation is deterministic in ``seed``.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if l2_lines < 8:
        raise ValueError(f"l2_lines must be >= 8, got {l2_lines}")
    # Trace generation is pure per-RunSpec setup cost, repeated for
    # every spec in a sweep, so the per-op loop below is written for
    # speed: every ``profile.*`` attribute, region base and RNG method
    # is hoisted out of the loop, and the immutable ops are interned
    # (one ``ComputeOp`` per cycle count, one ``MemoryOp`` per address
    # and direction) in tables local to this call.  The RNG *call
    # sequence* is part of the determinism contract (the trace digests
    # pinned in ``tests/workloads/test_traces.py``):
    # one ``random.Random`` stream per core, consumed in exactly the
    # historical order.  ``randbelow`` and the inlined exponential draw
    # are ``randrange`` and ``expovariate`` without their Python-level
    # wrappers; they consume the stream exactly as those did.
    compute_cores = topology.compute_cores()
    n_ops = max(4, int(profile.mem_ops_per_core * scale))
    private_cold_lines = max(8, int(profile.private_ws_frac * l2_lines))
    ops_per_phase = max(1, n_ops // profile.n_phases)
    traces: dict[int, CoreTrace] = {}
    p_priv, p_wide = profile.p_private, profile.p_wide
    p_priv_or_wide = p_priv + p_wide
    p_cold = profile.private_cold_frac
    wide_hot = min(_WIDE_HOT_LINES, profile.wide_ws_lines)
    wide_ws_lines = profile.wide_ws_lines
    group_ws_lines = profile.group_ws_lines
    group_write_frac = profile.group_write_frac
    wide_writes_per_phase = profile.wide_writes_per_phase
    last_barrier = profile.n_phases - 1
    lam = 1.0 / profile.compute_per_mem
    seed_prefix = f"{seed}:{profile.name}:"
    barrier_ops = [BarrierOp(b) for b in range(profile.n_phases)]
    compute_ops: dict[int, ComputeOp] = {2: ComputeOp(2)}
    get_compute = compute_ops.get
    rebuild_compute = compute_ops[2]
    reads: dict[int, MemoryOp] = {}
    writes: dict[int, MemoryOp] = {}
    get_read, get_write = reads.get, writes.get
    for rank, core in enumerate(compute_cores):
        rng = random.Random(seed_prefix + str(core))
        rand = rng.random
        randbelow = _randbelow(rng)
        group_id = rank // profile.group_size
        group_base = _GROUP_BASE + group_id * group_ws_lines
        wide_group = rank // profile.wide_degree
        wide_base = _WIDE_BASE + wide_group * _WIDE_STRIDE
        private_base = _PRIVATE_BASE + core * _PRIVATE_STRIDE
        private_cold_base = private_base + _PRIVATE_HOT_LINES
        ops: list = []
        append = ops.append
        barrier_id = 0

        def phase_rebuild() -> None:
            """Post-barrier rebuild: writes to wide-shared data whose
            readers accumulated over the previous phase -- each write
            lands on a line with > k sharers and broadcasts its
            invalidation."""
            n_writes = int(wide_writes_per_phase)
            if rand() < wide_writes_per_phase - n_writes:
                n_writes += 1
            for _ in range(n_writes):
                line = wide_base + randbelow(wide_hot)
                append(rebuild_compute)
                op = get_write(line)
                if op is None:
                    op = writes[line] = MemoryOp(line, is_write=True)
                append(op)

        for i in range(n_ops):
            # ``expovariate(lam)`` is ``-log(1.0 - random()) / lam``, never
            # negative, so the cycle count is always >= 1.
            cycles = int(-log(1.0 - rand()) / lam) + 1
            op = get_compute(cycles)
            if op is None:
                op = compute_ops[cycles] = ComputeOp(cycles)
            append(op)
            r = rand()
            if r < p_priv:
                if rand() < p_cold:
                    addr = private_cold_base + randbelow(private_cold_lines)
                else:
                    addr = private_base + randbelow(_PRIVATE_HOT_LINES)
                is_write = rand() < 0.3  # typical store share
            elif r < p_priv_or_wide:
                if rand() < 0.85:
                    addr = wide_base + randbelow(wide_hot)
                else:
                    addr = wide_base + randbelow(wide_ws_lines)
                is_write = False  # wide data is read-only mid-phase
            else:
                addr = group_base + randbelow(group_ws_lines)
                is_write = rand() < group_write_frac
            if is_write:
                op = get_write(addr)
                if op is None:
                    op = writes[addr] = MemoryOp(addr, is_write=True)
            else:
                op = get_read(addr)
                if op is None:
                    op = reads[addr] = MemoryOp(addr)
            append(op)
            if (i + 1) % ops_per_phase == 0 and barrier_id < last_barrier:
                append(barrier_ops[barrier_id])
                barrier_id += 1
                phase_rebuild()
        append(barrier_ops[last_barrier])
        traces[core] = CoreTrace(core, ops)
    return traces
