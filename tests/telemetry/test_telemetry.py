"""The telemetry collector against the live simulator.

The expensive fixture runs one w8/scale0.3 application on **every**
registered network with telemetry attached (module-scoped: six
simulations total).  It backs three of this package's contracts:

* byte-identity -- telemetry must not perturb the simulation;
* counter completeness -- every ``NetworkStats`` field is exercised by
  at least one registered network, so the windowed schema never carries
  a counter no architecture can increment;
* Perfetto export -- every network's trace converts to loadable
  Chrome trace-event JSON.
"""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.network.registry import REGISTRY
from repro.sim.eventq import _NO_ARG, EventQueue
from repro.sim.system import ManycoreSystem
from repro.telemetry.collector import STALL_CYCLES, TelemetryConfig
from repro.telemetry.trace import TraceBuffer, to_perfetto
from repro.telemetry.windows import NET_FIELDS
from repro.workloads.splash import APP_PROFILES, generate_traces

SRC = Path(__file__).resolve().parents[2] / "src"
APP = "radix"
MESH_WIDTH = 8
SCALE = 0.3


def _run(network: str, app: str = APP, eventq=None, **system_kwargs):
    """Simulate ``app`` at w8; ``eventq`` replaces the system's queue."""
    from repro.experiments.common import spec_for

    config = spec_for(app, network=network, mesh_width=MESH_WIDTH).config()
    system = ManycoreSystem(config, **system_kwargs)
    if eventq is not None:
        system.eventq = eventq
    traces = generate_traces(
        APP_PROFILES[app], system.topology,
        l2_lines=config.l2_sets * config.l2_ways, scale=SCALE, seed=42,
    )
    return system, system.run(traces, app=app)


def _python(script: str, *args: str, **env: str):
    """Run ``script`` in a fresh interpreter with no inherited
    ``REPRO_*`` variable except those in ``env``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")} | env
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env,
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def telemetry_runs():
    """network -> (system, result), telemetry attached, every network."""
    return {
        network: _run(network, telemetry=TelemetryConfig())
        for network in REGISTRY
    }


class TestByteIdentity:
    def test_result_identical_with_telemetry(self, telemetry_runs):
        _, plain = _run("atac+")
        _, instrumented = telemetry_runs["atac+"]
        assert plain.to_dict() == instrumented.to_dict()

    def test_result_identical_with_sanitizer_and_telemetry(self):
        _, plain = _run("emesh-bcast")
        _, both = _run("emesh-bcast", sanitize=True,
                       telemetry=TelemetryConfig())
        assert plain.to_dict() == both.to_dict()


class TestCounterCompleteness:
    def test_every_network_counter_incremented_somewhere(self, telemetry_runs):
        """Union over all registered networks covers all of NetworkStats."""
        never_hit = []
        for name in NET_FIELDS:
            if not any(
                getattr(system.network.stats, name) > 0
                for system, _ in telemetry_runs.values()
            ):
                never_hit.append(name)
        assert not never_hit, (
            f"NetworkStats fields no registered network increments at "
            f"w{MESH_WIDTH}/scale{SCALE}: {never_hit}"
        )

    def test_window_deltas_sum_to_run_totals(self, telemetry_runs):
        """Windows tile the run: per-counter deltas sum to the totals."""
        system, _ = telemetry_runs["atac+"]
        stats = system.network.stats
        for name in NET_FIELDS:
            summed = sum(
                w["net"][name] for w in system.telemetry.windows
            )
            assert summed == getattr(stats, name), name


class TestWindows:
    def test_windows_are_contiguous_from_zero(self, telemetry_runs):
        for network, (system, result) in telemetry_runs.items():
            windows = system.telemetry.windows
            assert windows, network
            assert windows[0]["t0"] == 0
            for prev, cur in zip(windows, windows[1:]):
                assert cur["t0"] == prev["t1"], network
            assert windows[-1]["t1"] >= result.completion_cycles, network

    def test_window_energy_nonnegative_and_sums_to_run(self, telemetry_runs):
        """Per-window energy is real attribution, not an approximation.

        Dynamic (per-event) energy is linear in the counters, so window
        sums match the full run exactly; static energy is linear in
        cycles, and window spans can overshoot ``completion_cycles`` by
        up to one window (the final heartbeat), hence the tolerance.
        """
        from repro.energy.accounting import EnergyModel

        system, result = telemetry_runs["atac+"]
        windows = system.telemetry.windows
        for w in windows:
            for key, value in w["energy"].items():
                assert value >= 0, (key, w["t0"])
        full = EnergyModel(system.config).evaluate(result)
        summed = sum(w["energy"]["total_j"] for w in windows)
        assert summed == pytest.approx(full.total_energy_j, rel=0.05)

    def test_final_partial_window_is_closed(self, telemetry_runs):
        system, result = telemetry_runs["atac+"]
        last = system.telemetry.windows[-1]
        # the run does not end on a window boundary in general; whatever
        # happened after the last heartbeat must still be recorded
        assert last["t1"] >= result.completion_cycles

    def test_queue_depth_sampled(self, telemetry_runs):
        system, _ = telemetry_runs["atac+"]
        depths = [w["queue_depth"] for w in system.telemetry.windows]
        assert any(d > 0 for d in depths)
        assert depths[-1] == 0  # the run is over at the final close

    def test_windows_identical_on_reference_heap_queue(self):
        """Every window, ``queue_depth`` included, equals the one the
        ``(time, seq)`` heap oracle produces: ``len()`` of the bucketed
        queue is exact mid-drain, not only at the end of a run."""
        from tests.sim.test_eventq_barrier import HeapEventQueue

        system, result = _run("atac+", app="barnes",
                              telemetry=TelemetryConfig())
        ref_system, ref_result = _run("atac+", app="barnes",
                                      eventq=HeapEventQueue(),
                                      telemetry=TelemetryConfig())
        assert result.to_dict() == ref_result.to_dict()
        assert (system.eventq.events_processed
                == ref_system.eventq.events_processed)
        windows = system.telemetry.windows
        assert len(windows) > 2
        assert windows == ref_system.telemetry.windows

    def test_onet_busy_only_on_optical_networks(self, telemetry_runs):
        for network, (system, _) in telemetry_runs.items():
            has_links = getattr(system.network, "onet_links", None) is not None
            windows = system.telemetry.windows
            assert all(("onet_busy" in w) == has_links for w in windows), network


class _StaleLenQueue(EventQueue):
    """A queue whose ``len()`` takes in the events ``run()`` dispatched
    only when it returns: mid-run it never falls, so a heartbeat that
    re-arms while ``len() > 0`` would re-arm forever."""

    def __init__(self) -> None:
        super().__init__()
        self.stale_len = 0

    def schedule(self, time, callback, arg=_NO_ARG) -> None:
        super().schedule(time, callback, arg)
        self.stale_len += 1

    def __len__(self) -> int:
        return self.stale_len

    def run(self, max_events=None) -> int:
        try:
            return super().run(max_events)
        finally:
            self.stale_len = self._len


class TestStallGuard:
    @pytest.mark.parametrize("window_cycles", [1, 1000])
    def test_stale_queue_length_raises_with_the_stall_start(self, window_cycles):
        """The queue never drains, so the heartbeat would re-arm without
        bound; it raises once no counter has moved for ``STALL_CYCLES``,
        naming the cycle the stall began (after the last real event).
        The event budget turns a missing guard into a failure, not a
        hang."""
        from repro.experiments.common import spec_for

        _, healthy = _run("atac+")
        config = spec_for(APP, network="atac+", mesh_width=MESH_WIDTH).config()
        system = ManycoreSystem(
            config, telemetry=TelemetryConfig(window_cycles=window_cycles)
        )
        system.eventq = _StaleLenQueue()
        traces = generate_traces(
            APP_PROFILES[APP], system.topology,
            l2_lines=config.l2_sets * config.l2_ways, scale=SCALE, seed=42,
        )
        budget = 10 * (healthy.completion_cycles + STALL_CYCLES) // window_cycles
        budget += 100_000
        with pytest.raises(RuntimeError, match=r"no counter has moved since "
                                               r"cycle (\d+)") as raised:
            system.run(traces, app=APP, max_events=budget)
        start = int(re.search(r"since cycle (\d+)", str(raised.value))[1])
        assert 0 < start <= healthy.completion_cycles + window_cycles
        last = system.telemetry.windows[-1]["t1"]
        assert STALL_CYCLES <= last - start < STALL_CYCLES + window_cycles


class TestTrace:
    def test_txn_begin_end_pair_up(self, telemetry_runs):
        system, _ = telemetry_runs["atac+"]
        begins = {}
        ends = {}
        for kind, ts, dur, name, ident, args in system.telemetry.trace.events():
            if kind == "txn_begin":
                begins[ident] = ts
            elif kind == "txn_end":
                ends[ident] = ts
        assert begins, "expected coherence transactions"
        # a clean run closes every miss transaction it opens (modulo
        # events rotated out of the ring, which this small run avoids)
        assert set(ends) == set(begins)
        assert all(ends[i] >= begins[i] for i in begins)

    def test_trace_ring_is_bounded(self):
        buf = TraceBuffer(4)
        for i in range(10):
            buf.record("pkt", i, 1, f"pkt {i}")
        assert buf.recorded == 10
        assert buf.dropped == 6
        events = buf.events()
        assert len(events) == 4
        assert [e[1] for e in events] == [6, 7, 8, 9]
        assert len(buf.tail(2)) == 2

    def test_perfetto_export_loads_for_every_network(self, telemetry_runs):
        for network, (system, _) in telemetry_runs.items():
            doc = to_perfetto(system.telemetry.trace.events(), label=network)
            # survives a JSON round-trip (what ui.perfetto.dev ingests)
            doc = json.loads(json.dumps(doc))
            events = doc["traceEvents"]
            assert events, network
            phases = {e["ph"] for e in events}
            assert "M" in phases and "X" in phases, network
            for e in events:
                if e["ph"] == "X":
                    assert e["dur"] >= 1, network
                if e["ph"] in ("b", "e"):
                    assert e["cat"] == "txn" and "id" in e, network

    def test_barrier_slices_recorded(self, telemetry_runs):
        system, result = telemetry_runs["atac+"]
        barriers = [
            e for e in system.telemetry.trace.events() if e[0] == "barrier"
        ]
        assert len(barriers) == result.barriers_completed


#: Core 0 reads line 64 and holds it across the barrier; core 1 then
#: writes it, forcing an invalidation (and thus a droppable INV_ACK).
_READ_THEN_REMOTE_WRITE = {
    0: [["m", 64, 0], ["b", 0]],
    1: [["b", 0], ["m", 64, 1]],
}


def _droppable_case():
    from ..sanitizer.cases import handcrafted

    return handcrafted(_READ_THEN_REMOTE_WRITE)


class TestViolationContext:
    def test_violation_carries_window_and_trace_tail(self):
        from repro.sanitizer import InvariantViolation
        from repro.sanitizer.faults import inject_fault
        from repro.sanitizer.fuzz import case_config, case_traces

        case = _droppable_case()
        system = ManycoreSystem(
            case_config(case), sanitize=True,
            telemetry=TelemetryConfig(window_cycles=32),
        )
        inject_fault(system, "drop-ack")
        with pytest.raises(InvariantViolation) as excinfo:
            system.run(case_traces(case), app="fuzz", max_events=100_000)
        violation = excinfo.value
        assert violation.telemetry is not None
        assert violation.telemetry["windows"], "expected closed windows"
        assert violation.telemetry["trace_tail"]
        assert "telemetry:" in str(violation)
        assert "telemetry" in violation.to_dict()

    def test_probes_stack_sanitizer_telemetry_fault(self):
        from repro.sanitizer.faults import inject_fault
        from repro.sanitizer.fuzz import case_config
        from repro.sim.probes import ORDER, install

        system = ManycoreSystem(
            case_config(_droppable_case()), sanitize=True,
            telemetry=TelemetryConfig(),
        )
        inject_fault(system, "drop-ack")
        assert tuple(p.kind for p in system.probes) == ORDER
        # the outermost probe sees a message first
        send = system.send_msg
        for probe in reversed(system.probes):
            assert send.func == probe.send_msg
            send = send.args[0]
        assert send.__func__ is ManycoreSystem.send_msg
        with pytest.raises(ValueError, match="cannot go outside"):
            install(system, system.telemetry)

    def test_violation_without_telemetry_has_none(self):
        from repro.sanitizer import InvariantViolation
        from repro.sanitizer.faults import inject_fault
        from repro.sanitizer.fuzz import case_config, case_traces

        case = _droppable_case()
        system = ManycoreSystem(case_config(case), sanitize=True)
        inject_fault(system, "drop-ack")
        with pytest.raises(InvariantViolation) as excinfo:
            system.run(case_traces(case), app="fuzz", max_events=100_000)
        assert excinfo.value.telemetry is None
        assert "telemetry" not in excinfo.value.to_dict()


class TestConfigKnobs:
    def test_window_cycles_override(self):
        system, result = _run(
            "emesh-pure", telemetry=TelemetryConfig(window_cycles=250)
        )
        windows = system.telemetry.windows
        assert windows[0]["t1"] - windows[0]["t0"] == 250
        assert len(windows) >= result.completion_cycles // 250

    def test_rejects_bad_window(self):
        from repro.experiments.runspec import RunSpec

        with pytest.raises(ValueError):
            ManycoreSystem(
                RunSpec("radix", "emesh-pure", mesh_width=4).config(),
                telemetry=TelemetryConfig(window_cycles=0),
            )

    def test_off_by_default_is_zero_cost(self):
        """With no flag and no ``REPRO_*`` variable, a run imports no
        observer package and every seam is the class's own."""
        script = textwrap.dedent("""
            import sys
            from repro.experiments.runspec import RunSpec
            from repro.sim.eventq import EventQueue
            from repro.sim.system import ManycoreSystem
            from repro.workloads.splash import APP_PROFILES, generate_traces

            config = RunSpec("radix", "emesh-pure", mesh_width=4).config()
            system = ManycoreSystem(config)
            traces = generate_traces(
                APP_PROFILES["radix"], system.topology,
                l2_lines=config.l2_sets * config.l2_ways, scale=0.1, seed=42,
            )
            assert system.run(traces, app="radix").total_instructions > 0
            loaded = [m for m in sys.modules
                      if m.startswith(("repro.sanitizer", "repro.telemetry"))]
            assert not loaded, loaded
            assert system.probes == ()
            assert system.send_msg.__func__ is ManycoreSystem.send_msg
            network = system.network
            assert network.send.__func__ is type(network).send
            assert type(system.eventq) is EventQueue
        """)
        proc = _python(script)
        assert proc.returncode == 0, proc.stderr

    def test_explicit_off_beats_the_environment(self, tmp_path):
        """Under ``REPRO_SANITIZE=1 REPRO_TELEMETRY=1``, a spec that says
        off imports no observer, writes no telemetry, and a warm store
        serves it: only ``spec_for`` reads those variables."""
        script = textwrap.dedent("""
            import sys
            from repro.experiments.runner import Runner
            from repro.experiments.runspec import RunSpec
            from repro.experiments.store import ResultStore

            spec = RunSpec(app="radix", network="emesh-pure", mesh_width=4,
                           scale=0.1, sanitize=False, telemetry=False)
            runner = Runner(jobs=1, store=ResultStore(sys.argv[1]),
                            progress=False)
            runner.run([spec])
            assert runner.last_report.misses == 1, runner.last_report
            runner.run([spec])
            assert runner.last_report.hits == 1, runner.last_report
            loaded = [m for m in sys.modules
                      if m.startswith(("repro.sanitizer", "repro.telemetry"))]
            assert not loaded, loaded
        """)
        telemetry_dir = tmp_path / "telemetry"
        proc = _python(
            script, str(tmp_path / "store"),
            REPRO_SANITIZE="1", REPRO_TELEMETRY="1",
            REPRO_TELEMETRY_DIR=str(telemetry_dir),
        )
        assert proc.returncode == 0, proc.stderr
        assert not telemetry_dir.exists()
