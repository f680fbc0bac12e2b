"""A finished system frees itself, and the event loop needs no collector.

``ManycoreSystem`` hands its controllers a weak proxy as their fabric,
so a probe-free chip is no reference cycle: reference counting frees it
the moment its last owner lets go.  ``ManycoreSystem.run`` holds the
cyclic collector off for the whole run; that is safe only because a run
makes no cyclic garbage, which is checked here for plain, sanitized and
telemetry runs.  Sanitized and telemetry systems keep cycles (their
probes hold the system strongly), so the collector still frees them
once it is back on.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.sim.system as system_module
from repro.coherence.directory import Protocol
from repro.experiments.runspec import RunSpec
from repro.network.registry import network_names
from repro.sim.system import ManycoreSystem
from repro.workloads.splash import APP_PROFILES, generate_traces


@pytest.fixture
def collector_off():
    """Hold the cyclic collector off for the test."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def cyclic_garbage() -> list:
    """What a full collection would free now, kept for inspection."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return found


def small_spec(**kw) -> RunSpec:
    return RunSpec(app="barnes", mesh_width=8, scale=0.1, **kw)


def traces_for(spec: RunSpec, system: ManycoreSystem) -> dict:
    config = system.config
    return generate_traces(
        APP_PROFILES[spec.app], system.topology,
        l2_lines=config.l2_sets * config.l2_ways,
        scale=spec.scale, seed=spec.seed,
    )


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
@pytest.mark.parametrize("network", network_names())
def test_execute_frees_its_system_without_the_collector(
        collector_off, monkeypatch, network, protocol):
    """Every registered network under both protocols: the system
    ``RunSpec.execute`` built is gone when ``execute`` returns, with the
    collector off, and nothing it made is left for a collection."""
    built = []

    class Recorded(ManycoreSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    monkeypatch.setattr(system_module, "ManycoreSystem", Recorded)
    gc.collect()
    result = small_spec(network=network, protocol=protocol).execute()
    assert result.completion_cycles > 0
    [system] = built
    assert system() is None
    assert cyclic_garbage() == []


@pytest.mark.parametrize("probes", [
    {}, {"sanitize": True}, {"telemetry": True},
], ids=["plain", "sanitize", "telemetry"])
def test_a_run_makes_no_cyclic_garbage(collector_off, probes):
    """The paused collector would have found nothing during the run."""
    spec = small_spec()
    system = ManycoreSystem(spec.config(), **probes)
    traces = traces_for(spec, system)
    gc.collect()
    system.run(traces, app=spec.app)
    assert cyclic_garbage() == []


@pytest.mark.parametrize("probes", [
    {"sanitize": True}, {"telemetry": True},
], ids=["sanitize", "telemetry"])
def test_a_probe_run_is_freed_by_the_collector(collector_off, probes):
    """A probe holds its system strongly, so a probe system may be a
    cycle; once dropped, one collection frees it."""
    spec = small_spec()
    system = ManycoreSystem(spec.config(), **probes)
    system.run(traces_for(spec, system), app=spec.app)
    ref = weakref.ref(system)
    del system
    gc.collect()
    assert ref() is None


class TestCollectorStateRestored:
    """``run`` gives the caller back the collector state it had."""

    @pytest.fixture(params=[True, False], ids=["on", "off"])
    def caller_state(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        try:
            yield request.param
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_after_a_run(self, caller_state):
        spec = small_spec()
        system = ManycoreSystem(spec.config())
        system.run(traces_for(spec, system), app=spec.app)
        assert gc.isenabled() is caller_state

    def test_after_a_run_that_exceeds_its_event_budget(self, caller_state):
        spec = small_spec()
        system = ManycoreSystem(spec.config())
        traces = traces_for(spec, system)
        with pytest.raises(RuntimeError, match="event budget exceeded"):
            system.run(traces, app=spec.app, max_events=10)
        assert gc.isenabled() is caller_state
