"""Self-test of the benchmark at the tiny size (w8, scale 0.2, two loads).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Per-layer units whose values are simulated or call counts, which
#: must repeat exactly from one traced run to the next.
COUNT_UNITS = {"count", "cycles", "flits"}

sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT, seconds: float = 1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "42" if workload != "netload-fig3" else "7",
           "--seconds", str(seconds), "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True, proc.stderr
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    return doc


def test_metric_tables_match_benchmark_json():
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in SPEC[key]] == list(table.items())
    assert WORKLOADS == ["bcast-atacp", "miss-emesh", "netload-fig3"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_prints_every_metric(workload):
    doc = result(bench(workload, trace=0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_every_layer_and_repeat_counts(workload):
    first, second = (result(bench(workload, trace=1)) for _ in range(2))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    counts = {k: v["value"] for k, v in first["metrics"].items()
              if v["unit"] in COUNT_UNITS}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert first["metrics"]["network.send.calls"]["value"] > 0
    if workload != "netload-fig3":
        assert first["metrics"]["coherence.l2.calls"]["value"] > 0
        assert first["metrics"]["energy.eval.calls"]["value"] == 4


def test_fails_without_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("bcast-atacp", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_every_entry_point():
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    from tracer import CLASS_BOUNDARIES, Tracer

    from repro.sim.system import ManycoreSystem
    from repro.workloads import synthetic

    owners = [(o, a) for o, a, _, _ in CLASS_BOUNDARIES]
    owners += [(ManycoreSystem, "__init__"), (synthetic, "run_load_point")]
    run_before = ManycoreSystem.__dict__["run"]
    before = [o.__dict__[a] for o, a in owners]
    workload = harness.Workload("miss-emesh", 42, harness.TINY, run.OUT_DIR)
    tracer = Tracer()
    tracer.install(workload)
    try:
        assert all(o.__dict__[a] is not b for (o, a), b in zip(owners, before))
        workload.run_pass()
    finally:
        tracer.close()
    assert [o.__dict__[a] for o, a in owners] == before
    assert ManycoreSystem.__dict__["run"] is run_before  # SystemCapture's
    assert "run_unit" not in vars(workload)
    units = [s for s in tracer.spans if s[0] == "unit"]
    assert len(units) == 1
    assert all(s[4] == 0 for s in tracer.spans)  # one unit id throughout
    assert {s[0] for s in tracer.spans} >= {
        "unit", "workloads.gen", "sim.build", "sim.run", "energy.eval",
        "experiments.store"}
