"""The ``repro trace`` / ``repro top`` verbs against real artifacts.

One telemetry-enabled ``RunSpec`` executes into a tmp telemetry root
(module-scoped); every test reads those artifacts back the way the CLI
does.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments.common import spec_for
from repro.telemetry import telemetry_root
from repro.telemetry.inspect import (
    main,
    recorded_runs,
    resolve_run,
    top_main,
    trace_main,
)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """(telemetry root, run dir) for one executed telemetry run."""
    import os

    root = tmp_path_factory.mktemp("telemetry")
    spec = spec_for("radix", network="atac+", mesh_width=8, scale=0.3,
                    telemetry=True)
    old = os.environ.get("REPRO_TELEMETRY_DIR")
    os.environ["REPRO_TELEMETRY_DIR"] = str(root)
    try:
        spec.execute()
    finally:
        if old is None:
            del os.environ["REPRO_TELEMETRY_DIR"]
        else:
            os.environ["REPRO_TELEMETRY_DIR"] = old
    run_dir = root / spec.content_hash()
    assert run_dir.is_dir()
    return root, run_dir


@pytest.fixture(autouse=True)
def _point_at_recorded_root(recorded, monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(recorded[0]))


class TestArtifacts:
    def test_layout(self, recorded):
        _, run_dir = recorded
        assert (run_dir / "meta.json").is_file()
        assert (run_dir / "windows.jsonl").is_file()
        assert (run_dir / "trace.jsonl").is_file()

    def test_meta_contents(self, recorded):
        _, run_dir = recorded
        meta = json.loads((run_dir / "meta.json").read_text())
        assert meta["schema"] == 1
        assert meta["trace_schema"] == 1
        assert meta["app"] == "radix"
        assert meta["label"] == "radix@atac+/w8"
        assert meta["n_windows"] > 0
        assert meta["trace"]["recorded"] > 0

    def test_jsonl_headers_then_records(self, recorded):
        _, run_dir = recorded
        for name in ("windows.jsonl", "trace.jsonl"):
            lines = (run_dir / name).read_text().splitlines()
            header = json.loads(lines[0])
            assert "schema" in header, name
            assert len(lines) > 1, name


class TestResolve:
    def test_root_honours_env(self, recorded):
        assert telemetry_root() == recorded[0]

    def test_latest_and_exact_and_prefix_and_label(self, recorded):
        _, run_dir = recorded
        for token in ("latest", run_dir.name, run_dir.name[:8], "radix@"):
            resolved, meta = resolve_run(token)
            assert resolved == run_dir, token

    def test_unknown_token_raises(self, recorded):
        with pytest.raises(LookupError):
            resolve_run("no-such-run")

    def test_empty_root_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
        with pytest.raises(LookupError):
            resolve_run("latest")

    def test_recorded_runs_lists_the_run(self, recorded):
        runs = recorded_runs()
        assert [d for d, _ in runs] == [recorded[1]]


class TestTraceVerb:
    def test_exports_perfetto_json(self, recorded, tmp_path, capsys):
        out = tmp_path / "out.perfetto.json"
        assert trace_main(["latest", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        assert "perfetto" in capsys.readouterr().out

    def test_listing_without_run(self, recorded, capsys):
        assert trace_main([]) == 0
        assert recorded[1].name in capsys.readouterr().out

    def test_unknown_run_exits_2(self, recorded, capsys):
        assert trace_main(["no-such-run"]) == 2


class TestTopVerb:
    def test_renders_table_and_footer(self, recorded, capsys):
        assert top_main(["latest"]) == 0
        out = capsys.readouterr().out
        assert "flits/cyc/core" in out
        assert "repro trace" in out

    def test_rows_coalescing(self, recorded, capsys):
        assert top_main(["latest", "--rows", "3"]) == 0
        out = capsys.readouterr().out
        table_rows = [
            line for line in out.splitlines()
            if line and line[0].isdigit()
        ]
        assert 1 <= len(table_rows) <= 3

    def test_bad_rows_exits_2(self, recorded):
        assert top_main(["latest", "--rows", "0"]) == 2


class TestDispatch:
    def test_main_routes_verbs(self, recorded, capsys):
        assert main(["top"]) == 0
        assert main(["trace"]) == 0
        assert main(["nope"]) == 2


class TestImportLight:
    def test_verbs_do_not_import_the_simulator(self, tmp_path):
        """``repro trace`` and ``repro top`` read artifacts only: after
        both run, no simulator package is loaded."""
        root = tmp_path / "telemetry"
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["REPRO_TELEMETRY_DIR"] = str(root)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (
            str(Path(__file__).resolve().parents[2] / "src"),
            env.get("PYTHONPATH"),
        )))
        record = textwrap.dedent("""
            from repro.experiments.common import spec_for
            spec_for("radix", network="emesh-pure", mesh_width=4,
                     scale=0.1, telemetry=True).execute()
        """)
        inspect = textwrap.dedent(f"""
            import sys
            from repro.cli import main
            assert main(["trace", "latest", "--out", {str(tmp_path / "t.json")!r}]) == 0
            assert main(["top", "latest"]) == 0
            heavy = sorted(
                m for m in sys.modules
                if m.split(".")[:2] in (["repro", "sim"], ["repro", "network"],
                                        ["repro", "coherence"])
                or m == "repro.experiments.runner"
            )
            assert not heavy, heavy
        """)
        for script in (record, inspect):
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, cwd=tmp_path,
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "t.json").is_file()
