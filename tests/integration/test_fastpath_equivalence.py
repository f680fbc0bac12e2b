"""Batched vs reference broadcast delivery: bit-for-bit equivalence.

``ManycoreSystem`` delivers a broadcast with one event per distinct
arrival time (dispatching to all member caches inline);
``ReferenceBroadcastSystem`` schedules one event per receiving core.
DESIGN.md section 9 argues
they are observably identical because the batched dispatch preserves
the exact ``(time, insertion order)`` order the per-core events would
have had.
This suite is that argument's proof obligation: every app x network
pair must produce a byte-identical :class:`RunResult` either way.
"""

import pytest

from repro.experiments.runspec import RunSpec
from repro.network.registry import network_names
from repro.sanitizer.fuzz import ReferenceBroadcastSystem
from repro.sim.system import ManycoreSystem
from repro.workloads.splash import APP_ORDER, APP_PROFILES, generate_traces

#: Test scale: big enough to exercise contention, barriers and (for the
#: broadcast-capable fabrics) INV_BCAST fan-out; small enough that the
#: full 8 x 4 matrix stays in tens of seconds.
MESH_WIDTH = 8
SCALE = 0.1


def run_result_dict(spec: RunSpec, system_cls: type[ManycoreSystem]) -> dict:
    """Execute ``spec`` through an explicitly-constructed system."""
    config = spec.config()
    system = system_cls(config)
    traces = generate_traces(
        APP_PROFILES[spec.app],
        system.topology,
        l2_lines=config.l2_sets * config.l2_ways,
        scale=spec.scale,
        seed=spec.seed,
    )
    return system.run(traces, app=spec.app).to_dict()


@pytest.mark.parametrize("network", network_names())
@pytest.mark.parametrize("app", APP_ORDER)
def test_batched_equals_reference(app, network):
    spec = RunSpec(app=app, network=network, mesh_width=MESH_WIDTH, scale=SCALE)
    batched = run_result_dict(spec, ManycoreSystem)
    reference = run_result_dict(spec, ReferenceBroadcastSystem)
    assert batched == reference


def test_runspec_execute_matches_explicit_batched_system():
    """`RunSpec.execute()` (the cached-store path) uses the fast path."""
    spec = RunSpec(
        app="barnes", network="atac+", mesh_width=MESH_WIDTH, scale=SCALE
    )
    assert spec.execute().to_dict() == run_result_dict(spec, ManycoreSystem)
