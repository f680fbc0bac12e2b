"""Unit tests for the in-order core model."""

import pytest

from repro.sim.barrier import BarrierManager
from repro.sim.config import SystemConfig
from repro.sim.core_model import CoreModel
from repro.sim.eventq import EventQueue
from repro.sim.system import ManycoreSystem
from repro.workloads.trace import BarrierOp, ComputeOp, CoreTrace, MemoryOp


def make_core(trace_ops, core_id=None):
    """A real core wired into a tiny system (cache behaviour is real)."""
    system = ManycoreSystem(SystemConfig().scaled(mesh_width=4, cluster_width=2))
    core_id = core_id if core_id is not None else system.compute_cores[0]
    barriers = BarrierManager(1, system.eventq)
    core = CoreModel(
        core_id,
        CoreTrace(core_id, trace_ops),
        system.caches[core_id],
        barriers,
        system.eventq,
    )
    return system, core


class TestExecution:
    def test_pure_compute_runs_at_ipc_1(self):
        system, core = make_core([ComputeOp(500)])
        core.start()
        system.eventq.run()
        assert core.done
        assert core.done_at == 500
        assert core.instructions / core.done_at == pytest.approx(1.0)

    def test_l1_hit_costs_one_cycle(self):
        system, core = make_core([MemoryOp(7), MemoryOp(7)])
        core.start()
        system.eventq.run()
        # first access misses (expensive), second hits in L1 (+1 cycle)
        assert core.done
        assert core.stalled_cycles > 50
        assert core.instructions == 2

    def test_miss_blocks_and_stall_is_accounted(self):
        system, core = make_core([ComputeOp(10), MemoryOp(42), ComputeOp(10)])
        core.start()
        system.eventq.run()
        assert core.done
        assert core.done_at >= 10 + core.stalled_cycles + 10
        assert core.stalled_cycles > 0

    def test_instruction_counting(self):
        system, core = make_core(
            [ComputeOp(5), MemoryOp(1), BarrierOp(0), ComputeOp(3)]
        )
        core.start()
        system.eventq.run()
        assert core.instructions == 5 + 1 + 1 + 3

    def test_barrier_parks_core(self):
        system = ManycoreSystem(SystemConfig().scaled(mesh_width=4, cluster_width=2))
        c0, c1 = system.compute_cores[:2]
        barriers = BarrierManager(2, system.eventq)
        cores = []
        for cid, work in ((c0, 10), (c1, 300)):
            cm = CoreModel(
                cid,
                CoreTrace(cid, [ComputeOp(work), BarrierOp(0), ComputeOp(1)]),
                system.caches[cid],
                barriers,
                system.eventq,
            )
            cores.append(cm)
            cm.start()
        system.eventq.run()
        assert all(c.done for c in cores)
        # the fast core waited for the slow one
        assert cores[0].done_at >= 300

    def test_trace_core_mismatch_rejected(self):
        system = ManycoreSystem(SystemConfig().scaled(mesh_width=4, cluster_width=2))
        c0 = system.compute_cores[0]
        with pytest.raises(ValueError):
            CoreModel(
                c0,
                CoreTrace(c0 + 1, [ComputeOp(1)]),
                system.caches[c0],
                BarrierManager(1, system.eventq),
                system.eventq,
            )

    def test_ipc_zero_before_done(self):
        system, core = make_core([ComputeOp(1)])
        assert core.done_at is None
        assert core.instructions == 0
        assert not core.done
