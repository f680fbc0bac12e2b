"""In-order single-issue core model (Table I).

Each core replays its :class:`repro.workloads.trace.CoreTrace`:

* compute ops retire one instruction per cycle,
* memory ops go through the cache controller and **block** the core on
  a miss until the coherence protocol delivers the line -- network
  latency (and the back-pressure it implies) directly stretches the
  core's execution, which is the property the paper's methodology
  exists to capture,
* barrier ops park the core at the barrier manager.

The core drives itself: ``start()`` begins execution and the core
re-schedules its own continuations through the event queue as replies
arrive.
"""

from __future__ import annotations

from repro.coherence.l2controller import L2Controller
from repro.sim.barrier import BarrierManager
from repro.sim.eventq import EventQueue
from repro.workloads.trace import ComputeOp, CoreTrace, MemoryOp


class CoreModel:
    """One in-order core executing a trace."""

    __slots__ = (
        "core", "trace", "cache", "barriers", "eventq",
        "_pc", "instructions", "done_at", "stalled_cycles", "_issue_time",
    )

    def __init__(
        self,
        core: int,
        trace: CoreTrace,
        cache: L2Controller,
        barriers: BarrierManager,
        eventq: EventQueue,
    ) -> None:
        if trace.core != core:
            raise ValueError(
                f"trace for core {trace.core} assigned to core {core}"
            )
        self.core = core
        self.trace = trace
        self.cache = cache
        self.barriers = barriers
        self.eventq = eventq
        self._pc = 0
        self.instructions = 0
        self.done_at: int | None = None
        self.stalled_cycles = 0
        self._issue_time = 0

    @property
    def done(self) -> bool:
        return self.done_at is not None

    def start(self) -> None:
        """Schedule the core's first instruction at t=0."""
        self.eventq.schedule(0, self._run)

    # ------------------------------------------------------------------
    def _run(self, now: int) -> None:
        """Execute ops until the next blocking point.

        The loop keeps the program counter and instruction count in
        locals (written back before any call that can block or
        re-enter) -- this is the single hottest non-network loop in the
        simulator, retiring every compute op of every trace.
        """
        ops = self.trace.ops
        n_ops = len(ops)
        pc = self._pc
        inst = self.instructions
        cache = self.cache
        counters = cache.counters
        while pc < n_ops:
            op = ops[pc]
            pc += 1
            cls = type(op)
            if cls is ComputeOp:
                inst += op.cycles
                counters.l1i_accesses += 1
                now += op.cycles
                continue
            if cls is MemoryOp:
                inst += 1
                counters.l1i_accesses += 1
                self._issue_time = now
                self._pc = pc
                self.instructions = inst
                done = cache.access(op.address, op.is_write, now, self._resume)
                if done is None:
                    return  # blocked on a miss; _resume() continues
                now = done
                continue
            # BarrierOp
            self._pc = pc
            self.instructions = inst + 1
            self.barriers.arrive(op.barrier_id, now, self._run)
            return
        self._pc = pc
        self.instructions = inst
        self.done_at = now

    def _resume(self, now: int) -> None:
        """Miss completed: account the stall and continue."""
        self.stalled_cycles += now - self._issue_time
        self._run(now)
