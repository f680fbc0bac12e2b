"""Windowed counter deltas: the telemetry time-series schema.

The paper's toolflow is built on *time-integrated* event counts
(Section V-A): Graphite counts events over a whole run and DSENT/McPAT
price them per event.  A telemetry window is the same contract over a
fixed slice of simulated time -- every counter the energy layer consumes
(``NetworkStats``, ``CacheCounters``, directory and memory-controller
totals) snapshotted at window boundaries and differenced, so each window
is a miniature ``RunResult`` and the per-event energies apply to it
unchanged.  That identity is load-bearing: per-window energy is computed
by feeding each delta through the *same* :class:`EnergyModel` that
prices the full run, not through a parallel approximation that could
drift.

Schema stability: the group field lists below are derived from the
counter dataclasses, so a new counter automatically joins the window
schema -- and ``tests/telemetry/test_schema_pins.py`` pins the resolved
lists, making any drift an explicit, versioned choice (bump
``TELEMETRY_SCHEMA_VERSION`` when the window layout changes meaning).
"""

from __future__ import annotations

from dataclasses import fields

from repro.coherence.l2controller import CacheCounters
from repro.network.stats import NetworkStats
from repro.sim.results import RunResult
from repro.telemetry import TELEMETRY_SCHEMA_VERSION

#: Default ``TelemetryConfig.window_cycles``, in simulated cycles.
DEFAULT_WINDOW_CYCLES = 1000

#: Window record groups -> ordered counter names.  ``net`` and
#: ``caches`` mirror the counter dataclasses exactly; ``directory`` /
#: ``memory`` / ``cores`` use the ``RunResult`` aggregate names, in the
#: order of ``ManycoreSystem.counter_totals``, so a window delta maps
#: 1:1 onto a synthetic result.
NET_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(NetworkStats))
CACHE_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(CacheCounters))
DIR_FIELDS: tuple[str, ...] = (
    "dir_lookups", "dir_updates", "dir_inv_unicast", "dir_inv_broadcast",
)
MEM_FIELDS: tuple[str, ...] = ("mem_reads", "mem_writes")
CORE_FIELDS: tuple[str, ...] = ("instructions", "stalled_cycles")
#: Per-window energy attribution, filled in at run finalization (the
#: energy model needs the full config, not just the live counters).
ENERGY_FIELDS: tuple[str, ...] = ("network_j", "cache_j", "core_j", "total_j")

WINDOW_SCHEMA: dict[str, tuple[str, ...]] = {
    "net": NET_FIELDS,
    "caches": CACHE_FIELDS,
    "directory": DIR_FIELDS,
    "memory": MEM_FIELDS,
    "cores": CORE_FIELDS,
    "energy": ENERGY_FIELDS,
}


class Snapshot:
    """One cumulative counter sample at a window boundary.

    Plain tuples of ints, not dicts: a snapshot is taken on every
    heartbeat while the simulation runs, so it must only *read* counters
    (never perturb the system) and stay allocation-light.
    """

    __slots__ = ("t", "net", "caches", "directory", "memory", "cores",
                 "onet_busy")

    def __init__(self, t, net, caches, directory, memory, cores, onet_busy):
        self.t = t
        self.net = net
        self.caches = caches
        self.directory = directory
        self.memory = memory
        self.cores = cores
        #: per-cluster ONet busy cycles (unicast + broadcast laser
        #: residency), ``None`` for networks without adaptive SWMR links.
        self.onet_busy = onet_busy


def take_snapshot(system, t: int) -> Snapshot:
    """Sample every windowed counter of ``system`` at time ``t``."""
    ns = system.network.stats
    net = tuple(getattr(ns, name) for name in NET_FIELDS)

    caches, directory, memory, cores = system.counter_totals()

    links = getattr(system.network, "onet_links", None)
    onet_busy = (
        tuple(l.unicast_cycles + l.broadcast_cycles for l in links)
        if links is not None else None
    )
    return Snapshot(t, net, caches, directory, memory, cores, onet_busy)


def window_between(prev: Snapshot, cur: Snapshot, queue_depth: int) -> dict:
    """The delta record for one ``[prev.t, cur.t)`` window.

    All counters are monotonic, so every delta is non-negative --
    which is what lets a window double as a miniature ``RunResult``
    for the energy model (``EnergyBreakdown`` rejects negatives).
    """
    window = {
        "t0": prev.t,
        "t1": cur.t,
        "queue_depth": queue_depth,
        "net": {
            name: cur.net[i] - prev.net[i]
            for i, name in enumerate(NET_FIELDS)
        },
        "caches": {
            name: cur.caches[i] - prev.caches[i]
            for i, name in enumerate(CACHE_FIELDS)
        },
        "directory": {
            name: cur.directory[i] - prev.directory[i]
            for i, name in enumerate(DIR_FIELDS)
        },
        "memory": {
            name: cur.memory[i] - prev.memory[i]
            for i, name in enumerate(MEM_FIELDS)
        },
        "cores": {
            name: cur.cores[i] - prev.cores[i]
            for i, name in enumerate(CORE_FIELDS)
        },
    }
    if cur.onet_busy is not None and prev.onet_busy is not None:
        window["onet_busy"] = [
            c - p for c, p in zip(cur.onet_busy, prev.onet_busy)
        ]
    return window


def windows_header(window_cycles: int) -> dict:
    """The first line of a ``windows.jsonl`` file."""
    return {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "window_cycles": window_cycles,
        "groups": {group: list(names) for group, names in WINDOW_SCHEMA.items()},
    }


def synthetic_result(template: RunResult, window: dict) -> RunResult:
    """A window's deltas dressed as a :class:`RunResult`.

    The architecture-wide fields (core counts, frequency, flit width,
    protocol) come from the real run's ``template``; everything the
    energy model integrates over time or events comes from the window.
    """
    return RunResult(
        app=template.app,
        network=template.network,
        completion_cycles=window["t1"] - window["t0"],
        n_cores=template.n_cores,
        n_compute_cores=template.n_compute_cores,
        total_instructions=window["cores"]["instructions"],
        per_core_instructions=[],
        stalled_cycles=window["cores"]["stalled_cycles"],
        network_stats=NetworkStats.from_dict(window["net"]),
        cache_counters=CacheCounters.from_dict(window["caches"]),
        dir_lookups=window["directory"]["dir_lookups"],
        dir_updates=window["directory"]["dir_updates"],
        dir_inv_unicast=window["directory"]["dir_inv_unicast"],
        dir_inv_broadcast=window["directory"]["dir_inv_broadcast"],
        mem_reads=window["memory"]["mem_reads"],
        mem_writes=window["memory"]["mem_writes"],
        barriers_completed=0,
        freq_hz=template.freq_hz,
        flit_bits=template.flit_bits,
        hardware_sharers=template.hardware_sharers,
        protocol=template.protocol,
    )


def attach_window_energy(windows: list[dict], template: RunResult,
                         config) -> None:
    """Fill every window's ``energy`` group, in place.

    One :class:`~repro.energy.accounting.EnergyModel` prices all
    windows (construction builds the full cache/router inventory, so it
    must not happen per window).  Imported lazily: telemetry-off runs
    never pay for the energy layer.
    """
    if not windows:
        return
    from repro.energy.accounting import EnergyModel

    model = EnergyModel(config)
    for window in windows:
        breakdown = model.evaluate(synthetic_result(template, window))
        window["energy"] = {
            "network_j": breakdown.network_energy_j,
            "cache_j": breakdown.cache_energy_j,
            "core_j": breakdown.core_energy_j,
            "total_j": breakdown.total_energy_j,
        }
