"""Per-core instruction traces for the full-system simulator.

The Graphite-like simulator (:mod:`repro.sim`) executes one
:class:`CoreTrace` per core.  A trace is a sequence of ops:

* :class:`ComputeOp`  -- ``n`` back-to-back single-cycle instructions
  (the core is in-order single-issue, Table I).
* :class:`MemoryOp`   -- one load or store to a cache-line address.
  The core *blocks* until the memory system responds -- this is how
  network latency back-pressures the application, the paper's central
  methodological point.
* :class:`BarrierOp`  -- global synchronization; the core waits until
  every participant arrives.  SPLASH-2 applications are barrier-phased,
  and barriers are what couple per-core slowdowns into whole-app
  runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, slots=True)
class ComputeOp:
    """``cycles`` of pure computation (one instruction per cycle)."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")


@dataclass(frozen=True, slots=True)
class MemoryOp:
    """One memory reference.

    Attributes
    ----------
    address:
        Cache-line-aligned address (line granularity: the simulator
        treats ``address`` as a line id).
    is_write:
        Store vs load.
    """

    address: int
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")


@dataclass(frozen=True, slots=True)
class BarrierOp:
    """Global barrier with a sequence id (barriers must be hit in order)."""

    barrier_id: int

    def __post_init__(self) -> None:
        if self.barrier_id < 0:
            raise ValueError(f"barrier_id must be non-negative, got {self.barrier_id}")


TraceOp = Union[ComputeOp, MemoryOp, BarrierOp]


@dataclass
class CoreTrace:
    """The instruction stream of one core."""

    core: int
    ops: list[TraceOp]

    def __post_init__(self) -> None:
        if self.core < 0:
            raise ValueError(f"core must be non-negative, got {self.core}")

    @property
    def n_instructions(self) -> int:
        """Retired instruction count (memory ops and barriers count as 1)."""
        total = 0
        for op in self.ops:
            if isinstance(op, ComputeOp):
                total += op.cycles
            else:
                total += 1
        return total

    @property
    def n_memory_ops(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, MemoryOp))

    @property
    def n_barriers(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, BarrierOp))
