"""Runner / spec / store tests: determinism, versioning, accounting."""

import json
import re
import shutil
from pathlib import Path

import pytest

import repro

from repro.experiments import runspec as runspec_mod
from repro.experiments.runner import Runner, default_jobs, run_specs
from repro.experiments.runspec import CACHE_SCHEMA_VERSION, LoadPointSpec, RunSpec
from repro.experiments.store import ResultStore
from repro.network.registry import REGISTRY
from repro.sim.results import RunResult

#: tiny grid: 2 apps x 2 networks, small mesh, short traces
APPS = ("lu_contig", "barnes")
NETS = ("atac+", "emesh-bcast")


def tiny_specs():
    return [
        RunSpec(app=a, network=n, mesh_width=8, scale=0.1)
        for a in APPS for n in NETS
    ]


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return tmp_path


def canonical(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


class TestRunSpec:
    def test_hash_is_deterministic(self):
        a = RunSpec(app="barnes", mesh_width=8, scale=0.1)
        b = RunSpec(app="barnes", mesh_width=8, scale=0.1)
        assert a.content_hash() == b.content_hash()

    def test_hash_distinguishes_every_field(self):
        base = RunSpec(app="barnes", mesh_width=8, scale=0.1)
        variants = [
            RunSpec(app="radix", mesh_width=8, scale=0.1),
            RunSpec(app="barnes", network="emesh-pure", mesh_width=8, scale=0.1),
            RunSpec(app="barnes", mesh_width=16, scale=0.1),
            RunSpec(app="barnes", mesh_width=8, scale=0.2),
            RunSpec(app="barnes", mesh_width=8, scale=0.1, protocol="dirkb"),
            RunSpec(app="barnes", mesh_width=8, scale=0.1, hardware_sharers=8),
            RunSpec(app="barnes", mesh_width=8, scale=0.1, rthres=0),
            RunSpec(app="barnes", mesh_width=8, scale=0.1, flit_bits=32),
            RunSpec(app="barnes", mesh_width=8, scale=0.1, receive_net="bnet"),
            RunSpec(app="barnes", mesh_width=8, scale=0.1, seed=7),
        ]
        hashes = {base.content_hash()} | {v.content_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_hash_includes_schema_version(self, monkeypatch):
        before = RunSpec(app="barnes", mesh_width=8, scale=0.1).content_hash()
        monkeypatch.setattr(runspec_mod, "CACHE_SCHEMA_VERSION",
                            CACHE_SCHEMA_VERSION + 1)
        after = RunSpec(app="barnes", mesh_width=8, scale=0.1).content_hash()
        assert before != after

    def test_hash_includes_package_version(self, monkeypatch):
        before = RunSpec(app="barnes", mesh_width=8, scale=0.1).content_hash()
        monkeypatch.setattr(runspec_mod, "__version__", "0.0.0-test")
        after = RunSpec(app="barnes", mesh_width=8, scale=0.1).content_hash()
        assert before != after

    @pytest.mark.parametrize(
        "spec",
        [
            RunSpec(app="barnes", mesh_width=8, scale=0.1),
            LoadPointSpec(routing="cluster", load=0.1, mesh_width=8),
        ],
        ids=["run", "loadpoint"],
    )
    def test_hash_includes_simulation_source_digest(self, monkeypatch, spec):
        before = spec.content_hash()
        monkeypatch.setattr(runspec_mod, "_code_digest", lambda: "edited")
        assert spec.content_hash() != before

    def test_source_digest_tracks_simulation_sources(self, tmp_path):
        root = tmp_path / "repro"
        shutil.copytree(
            Path(repro.__file__).parent, root,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        digest = runspec_mod.source_digest(root)
        assert digest == runspec_mod._code_digest()

        def edit_one_byte(relpath):
            path = root / relpath
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x01
            path.write_bytes(bytes(data))

        # energy pricing is applied to stored counters, not stored
        edit_one_byte("energy/accounting.py")
        assert runspec_mod.source_digest(root) == digest
        edit_one_byte("network/engine.py")
        assert runspec_mod.source_digest(root) != digest

    def test_roundtrip_dict(self):
        spec = RunSpec(app="barnes", mesh_width=8, scale=0.1, protocol="dirkb")
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.content_hash() == spec.content_hash()

    def test_validation(self):
        with pytest.raises(KeyError):
            RunSpec(app="doom")
        with pytest.raises(ValueError):
            RunSpec(app="barnes", network="tin-cans")
        with pytest.raises(ValueError):
            RunSpec(app="barnes", scale=0.0)

    @pytest.mark.parametrize(
        "network", [d.name for d in REGISTRY.values() if d.optical]
    )
    def test_optical_networks_rejected_on_one_cluster(self, network):
        # A 4x4 mesh is one 4x4 cluster: an optical link has no peer hub.
        with pytest.raises(ValueError, match=re.escape(repr(network)) + ".*two clusters"):
            RunSpec(app="radix", network=network, mesh_width=4, scale=0.05)
        RunSpec(app="radix", network=network, mesh_width=8, scale=0.05)

    @pytest.mark.parametrize("network", ["emesh-pure", "emesh-bcast"])
    def test_electrical_meshes_build_on_one_cluster(self, network):
        RunSpec(app="radix", network=network, mesh_width=4, scale=0.05)

    @pytest.mark.parametrize("network", [d.name for d in REGISTRY.values()])
    def test_every_network_rejects_a_ragged_mesh(self, network):
        # A 6-wide mesh is no whole number of 4x4 clusters, for an
        # electrical network as much as for an optical one.
        with pytest.raises(ValueError, match="not a multiple of cluster width"):
            RunSpec(app="radix", network=network, mesh_width=6)

    def test_bad_sharer_count_rejected_at_construction(self):
        # Rejected before the spec can be hashed or shipped to a pool
        # worker, where it would fail only inside execute().
        with pytest.raises(ValueError, match="hardware_sharers must be >= 2"):
            RunSpec(app="barnes", mesh_width=8, hardware_sharers=1)
        RunSpec(app="barnes", mesh_width=8, hardware_sharers=2)

    def test_load_point_rejected_on_one_cluster(self):
        with pytest.raises(ValueError, match="two clusters"):
            LoadPointSpec(routing="cluster", load=0.02, mesh_width=4)
        LoadPointSpec(routing="cluster", load=0.02, mesh_width=8)

    def test_protocol_string_normalized(self):
        from repro.coherence.directory import Protocol

        spec = RunSpec(app="barnes", mesh_width=8, scale=0.1, protocol="ackwise")
        assert spec.protocol is Protocol.ACKWISE


class TestStore:
    def test_roundtrip(self, tmp_path):
        spec = RunSpec(app="lu_contig", mesh_width=8, scale=0.1)
        result = spec.execute()
        store = ResultStore()
        store.save(spec, result)
        loaded = store.load(spec)
        assert isinstance(loaded, RunResult)
        assert canonical([loaded]) == canonical([result])

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        spec = RunSpec(app="lu_contig", mesh_width=8, scale=0.1)
        store = ResultStore()
        path = store.save(spec, spec.execute())
        doc = json.loads(path.read_text())
        doc["schema_version"] = -1
        path.write_text(json.dumps(doc))
        assert store.load(spec) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = RunSpec(app="lu_contig", mesh_width=8, scale=0.1)
        store = ResultStore()
        path = store.save(spec, spec.execute())
        path.write_text("{not json")
        assert store.load(spec) is None

    def test_legacy_pickle_blobs_ignored(self, tmp_path):
        # a stale entry from the old pickle cache must not be loaded
        (tmp_path / "run_deadbeef.pkl").write_bytes(b"\x80\x04oops")
        spec = RunSpec(app="lu_contig", mesh_width=8, scale=0.1)
        store = ResultStore()
        assert store.load(spec) is None
        assert store.entries() == []


class TestRunnerDeterminism:
    def test_parallel_results_identical_to_serial(self, monkeypatch, tmp_path):
        specs = tiny_specs()
        serial = Runner(jobs=1, store=ResultStore(tmp_path / "a"),
                        progress=False).run(specs)
        parallel = Runner(jobs=4, store=ResultStore(tmp_path / "b"),
                          progress=False).run(specs)
        assert canonical(serial) == canonical(parallel)

    def test_parallel_store_entries_identical_to_serial(self, tmp_path):
        """Byte-level check: the persisted JSON files match exactly."""
        specs = tiny_specs()
        a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        Runner(jobs=1, store=a, progress=False).run(specs)
        Runner(jobs=4, store=b, progress=False).run(specs)

        def payload_bytes(store):
            out = {}
            for path in store.entries():
                doc = json.loads(path.read_text())
                doc.pop("elapsed_s")  # wall clock differs, content must not
                out[path.name] = json.dumps(doc, sort_keys=True)
            return out

        assert payload_bytes(a) == payload_bytes(b)

    def test_loadpoint_parallel_identical_to_serial(self, tmp_path):
        specs = [
            LoadPointSpec(routing=r, load=l, mesh_width=8,
                          cycles=300, warmup_cycles=50)
            for r in ("cluster", "distance-5", "distance-all")
            for l in (0.02, 0.10)
        ]
        serial = Runner(jobs=1, store=ResultStore(tmp_path / "a"),
                        progress=False).run(specs)
        parallel = Runner(jobs=3, store=ResultStore(tmp_path / "b"),
                          progress=False).run(specs)
        assert serial == parallel


class TestRunnerAccounting:
    def test_miss_then_hit(self):
        specs = tiny_specs()
        r1 = Runner(jobs=2, progress=False)
        r1.run(specs)
        assert r1.last_report.misses == len(specs)
        assert r1.last_report.hits == 0
        assert set(r1.last_report.timings) == {s.content_hash() for s in specs}
        r2 = Runner(jobs=2, progress=False)
        r2.run(specs)
        assert r2.last_report.hits == len(specs)
        assert r2.last_report.misses == 0
        assert r2.last_report.timings == {}

    def test_duplicates_execute_once(self):
        spec = RunSpec(app="lu_contig", mesh_width=8, scale=0.1)
        runner = Runner(jobs=2, progress=False)
        results = runner.run([spec, spec, spec])
        assert runner.last_report.misses == 1
        assert len(results) == 3
        assert canonical(results) == canonical([results[0]] * 3)

    def test_results_align_with_input_order(self):
        specs = tiny_specs()
        results = run_specs(specs, jobs=4, progress=False)
        for spec, res in zip(specs, results):
            assert res.app == spec.app
            # RunResult.network holds the display name (e.g. "ATAC+")
            assert res.network.lower() == spec.network.lower()

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            Runner(jobs=0)

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.delenv("REPRO_JOBS")
        assert default_jobs() >= 1


class TestTraceDeterminism:
    def test_trace_digest_stable_across_calls(self):
        from repro.sim.config import SystemConfig
        from repro.workloads.splash import APP_PROFILES, generate_traces
        from tests.workloads.test_traces import trace_digest

        config = SystemConfig(network="atac+").scaled(mesh_width=8)
        digests = {
            trace_digest(generate_traces(
                APP_PROFILES["barnes"], config.topology,
                l2_lines=config.l2_sets * config.l2_ways,
                scale=0.1, seed=42,
            ))
            for _ in range(3)
        }
        assert len(digests) == 1
