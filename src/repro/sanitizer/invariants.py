"""Stateless cross-layer consistency checks.

These functions inspect a finished (or quiescent) simulation object
graph and return a list of problem descriptions -- empty means the
invariant holds.  The :class:`~repro.sanitizer.core.Sanitizer` turns a
non-empty list into an :class:`InvariantViolation`; keeping the checks
pure makes them directly testable without running a simulation.
"""

from __future__ import annotations

from math import isclose

from repro.coherence.cache import CacheState
from repro.coherence.directory import DirState, Protocol


def directory_line_problem(
    entry,
    holders: dict[int, CacheState],
    protocol: Protocol,
) -> str | None:
    """Check one *quiescent* line's directory entry against the caches.

    ``holders`` maps core -> L2 state for every cache actually holding
    the line.  The admissible relations differ per protocol (DESIGN.md):
    ACKwise announces clean evictions so its view is exact; Dir_kB
    allows silent evictions, so its pointers may be stale supersets.
    """
    writers = [c for c, s in holders.items() if s is CacheState.MODIFIED]
    if len(writers) > 1:
        return f"multiple writers {sorted(writers)}"
    state = DirState.UNCACHED if entry is None else entry.state
    if state is DirState.UNCACHED:
        if holders:
            return f"uncached line held by cores {sorted(holders)}"
        return None
    if state is DirState.MODIFIED:
        if writers != [entry.owner]:
            return (
                f"owner is {entry.owner} but writers are {sorted(writers)} "
                f"(holders {sorted(holders)})"
            )
        if len(holders) != 1:
            return f"modified line also held by {sorted(set(holders) - {entry.owner})}"
        return None
    # DirState.SHARED
    if writers:
        return f"shared at the directory but core {writers[0]} holds it modified"
    held = set(holders)
    if protocol is Protocol.ACKWISE:
        if entry.global_bit:
            if entry.count != len(held):
                return (
                    f"ACKwise global count {entry.count} != "
                    f"{len(held)} actual sharers {sorted(held)}"
                )
        elif set(entry.sharers) != held:
            return (
                f"ACKwise sharer list {sorted(entry.sharers)} != "
                f"actual holders {sorted(held)}"
            )
    else:  # Dir_kB: silent evictions leave stale pointers (a superset)
        if not entry.global_bit and not held <= set(entry.sharers):
            return (
                f"Dir_kB holders {sorted(held)} not covered by pointers "
                f"{sorted(entry.sharers)} (broadcast bit clear)"
            )
        if not held:
            # With every copy silently evicted the entry may stay S, but
            # then nobody can hold it modified either -- nothing to check.
            return None
    return None


def port_problems(network) -> list[str]:
    """Reservation-accounting checks over every network port resource.

    A port's accumulated ``busy_cycles`` can never exceed the span it
    has been reserved to (``free_at``); an overlap -- a double
    reservation -- breaks that bound.  Duck-typed so it covers
    :class:`PortResource`, the mesh's flat port arrays (read through
    its ``port_busy()``), and the ONet links alike.
    """
    problems: list[str] = []

    def check(label: str, cap: int, busy) -> None:
        if cap < 0:
            problems.append(f"{label}: negative free_at {cap}")
        if busy is not None and busy < 0:
            problems.append(f"{label}: negative busy_cycles {busy}")
        if busy is not None and busy > cap >= 0:
            problems.append(
                f"{label}: busy_cycles {busy} exceeds reserved span {cap} "
                "(double-reserved port)"
            )

    free_arr = getattr(network, "_free_at", None)
    port_busy = getattr(network, "port_busy", None)
    if free_arr is not None and port_busy is not None:
        for i, (f, b) in enumerate(zip(free_arr, port_busy())):
            if b < 0 or f < 0 or b > f:
                check(f"mesh port {i}", f, b)
    for i, link in enumerate(getattr(network, "onet_links", ())):
        check(f"onet link {i}", getattr(link, "free_at", 0), None)
    for i, rnet in enumerate(getattr(network, "receive_nets", ())):
        for j, port in enumerate(getattr(rnet, "_ports", ())):
            check(f"receive net {i} port {j}", port.free_at, port.busy_cycles)
    return problems


def result_problems(result) -> list[str]:
    """Internal-consistency checks on a :class:`RunResult`."""
    problems: list[str] = []
    ns = result.network_stats
    cc = result.cache_counters

    if result.total_instructions != sum(result.per_core_instructions):
        problems.append(
            f"total_instructions {result.total_instructions} != "
            f"sum(per_core) {sum(result.per_core_instructions)}"
        )
    if result.n_compute_cores != len(result.per_core_instructions):
        problems.append(
            f"n_compute_cores {result.n_compute_cores} != "
            f"{len(result.per_core_instructions)} per-core entries"
        )
    for name, value in ns.as_dict().items():
        if value < 0:
            problems.append(f"network_stats.{name} negative: {value}")
    for name, value in cc.as_dict().items():
        if value < 0:
            problems.append(f"cache_counters.{name} negative: {value}")
    accesses = cc.l1d_reads + cc.l1d_writes
    outcomes = cc.l1_hits + cc.l2_hits + cc.l2_misses
    if accesses != outcomes:
        problems.append(
            f"L1-D accesses {accesses} != hit/miss outcomes {outcomes}"
        )
    if ns.latency_count > 0 and ns.latency_sum > ns.latency_count * ns.latency_max:
        problems.append(
            f"latency_sum {ns.latency_sum} exceeds count*max "
            f"{ns.latency_count * ns.latency_max}"
        )
    if result.stalled_cycles < 0:
        problems.append(f"negative stalled_cycles {result.stalled_cycles}")
    for name in ("dir_lookups", "dir_updates", "dir_inv_unicast",
                 "dir_inv_broadcast", "mem_reads", "mem_writes",
                 "barriers_completed"):
        if getattr(result, name) < 0:
            problems.append(f"negative {name}: {getattr(result, name)}")
    return problems


def energy_problems(result, config) -> list[str]:
    """Per-component energies must sum to every reported total."""
    from repro.energy.accounting import (
        ALL_KEYS, CACHE_KEYS, CORE_KEYS, NETWORK_KEYS, EnergyModel,
    )

    problems: list[str] = []
    breakdown = EnergyModel(config).evaluate(result)
    comp = breakdown.components

    def total(keys) -> float:
        return sum(comp.get(k, 0.0) for k in keys)

    pairs = (
        ("network_energy_j", breakdown.network_energy_j, total(NETWORK_KEYS)),
        ("cache_energy_j", breakdown.cache_energy_j, total(CACHE_KEYS)),
        ("core_energy_j", breakdown.core_energy_j, total(CORE_KEYS)),
        ("chip_energy_j", breakdown.chip_energy_j,
         total(NETWORK_KEYS) + total(CACHE_KEYS)),
        ("total_energy_j", breakdown.total_energy_j,
         total(NETWORK_KEYS) + total(CACHE_KEYS) + total(CORE_KEYS)),
        ("sum(components)", sum(comp.values()), total(ALL_KEYS)),
    )
    for name, reported, expected in pairs:
        if not isclose(reported, expected, rel_tol=1e-12, abs_tol=1e-18):
            problems.append(
                f"energy {name} = {reported!r} but components sum to {expected!r}"
            )
    if not isclose(breakdown.runtime_s, result.runtime_s,
                   rel_tol=1e-12, abs_tol=0.0):
        problems.append(
            f"energy runtime {breakdown.runtime_s!r} != "
            f"result runtime {result.runtime_s!r}"
        )
    edp = breakdown.edp()
    if not isclose(edp, breakdown.chip_energy_j * breakdown.runtime_s,
                   rel_tol=1e-12, abs_tol=1e-30):
        problems.append(f"edp {edp!r} inconsistent with chip energy x runtime")
    return problems
