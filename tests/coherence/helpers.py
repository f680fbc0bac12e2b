"""Protocol-level test harness: drive individual accesses through a
tiny chip and inspect directory / cache state between them."""

from __future__ import annotations

from repro.coherence.cache import CacheState
from repro.coherence.directory import DirState, Protocol
from repro.sim.config import SystemConfig
from repro.sim.system import ManycoreSystem


def tiny_system(
    network: str = "emesh-bcast",
    protocol: Protocol = Protocol.ACKWISE,
    k: int = 2,
    width: int = 4,
    cluster_width: int = 2,
    rthres: int = 15,
) -> ManycoreSystem:
    """A 16-core chip (4 clusters of 4, one memctrl each -> 12 compute
    cores) with small caches, for protocol unit tests."""
    config = SystemConfig(
        mesh_width=width,
        cluster_width=cluster_width,
        network=network,
        protocol=protocol,
        hardware_sharers=k,
        rthres=rthres,
        l1_sets=4,
        l1_ways=2,
        l2_sets=8,
        l2_ways=2,
    )
    return ManycoreSystem(config)


def access(system: ManycoreSystem, core: int, addr: int, is_write: bool) -> int:
    """Issue one access on a core and drain the system to quiescence.

    Returns the access completion time.  Sequential semantics: each
    access fully completes (including all coherence side-effects)
    before the next is issued, giving deterministic directory state.
    """
    done: dict[str, int] = {}
    result = system.caches[core].access(
        addr, is_write, system.eventq.now, lambda t: done.setdefault("t", t)
    )
    if result is not None:
        system.eventq.run(max_events=200_000)
        return result
    system.eventq.run(max_events=200_000)
    assert "t" in done, "access never completed (protocol deadlock)"
    return done["t"]


def read(system: ManycoreSystem, core: int, addr: int) -> int:
    return access(system, core, addr, is_write=False)


def write(system: ManycoreSystem, core: int, addr: int) -> int:
    return access(system, core, addr, is_write=True)


def addr_homed_at(system: ManycoreSystem, home_index: int, offset: int = 0) -> int:
    """A line address whose home is ``compute_cores[home_index]``."""
    n = len(system.compute_cores)
    return home_index % n + offset * n


def dir_entry(system: ManycoreSystem, addr: int):
    """The directory entry for a line (must already exist)."""
    home = system.home_of(addr)
    return system.directories[home].entries[addr]


def l2_state(system: ManycoreSystem, core: int, addr: int) -> CacheState:
    return system.caches[core].l2.lookup(addr, touch=False)


__all__ = [
    "tiny_system", "access", "read", "write", "addr_homed_at",
    "dir_entry", "l2_state", "CacheState", "DirState", "Protocol",
]
