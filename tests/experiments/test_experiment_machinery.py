"""Unit tests for the experiment machinery and CLI (tiny scale)."""

import os

import pytest

from repro.cli import build_parser, main as cli_main
from repro.coherence.directory import Protocol
from repro.experiments import common
from repro.experiments.common import format_table, run_app
from repro.experiments.runspec import RunSpec
from repro.network.registry import REGISTRY


@pytest.fixture(autouse=True)
def no_disk_cache(monkeypatch, tmp_path):
    """Keep the real run cache pristine; use a temp dir per test.

    The store resolves ``REPRO_CACHE_DIR`` at call time, so the env
    override alone is sufficient.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestMakeConfig:
    def test_full_scale_untouched(self):
        cfg = RunSpec("lu_contig", "atac+", mesh_width=32).config()
        assert cfg.n_cores == 1024
        assert cfg.l2_sets == 512

    def test_small_scale_shrinks_caches(self):
        cfg = RunSpec("lu_contig", "atac+", mesh_width=8).config()
        assert cfg.n_cores == 64
        assert cfg.l2_sets < 512

    def test_atac_gets_bnet(self):
        cfg = RunSpec("lu_contig", "atac", mesh_width=8).config()
        assert cfg.network == "atac"


class TestRunApp:
    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            run_app("doom", mesh_width=8, scale=0.1)

    def test_run_and_cache_roundtrip(self, tmp_path):
        first = run_app("lu_contig", network="atac+", mesh_width=8, scale=0.1)
        cached = run_app("lu_contig", network="atac+", mesh_width=8, scale=0.1)
        assert cached.completion_cycles == first.completion_cycles
        assert cached.network_stats.as_dict() == first.network_stats.as_dict()
        assert list(tmp_path.glob("run_*.json"))

    def test_cache_keys_distinguish_configs(self, tmp_path):
        run_app("lu_contig", network="atac+", mesh_width=8, scale=0.1)
        run_app("lu_contig", network="emesh-pure", mesh_width=8, scale=0.1)
        assert len(list(tmp_path.glob("run_*.json"))) == 2

    def test_protocol_affects_run(self):
        a = run_app("barnes", mesh_width=8, scale=0.15,
                    protocol=Protocol.ACKWISE)
        d = run_app("barnes", mesh_width=8, scale=0.15,
                    protocol=Protocol.DIRKB)
        assert a.protocol == "ackwise" and d.protocol == "dirkb"

    def test_mesh_width_env_read_at_call_time(self, monkeypatch):
        """Setting REPRO_MESH_WIDTH after import must take effect."""
        monkeypatch.setenv("REPRO_MESH_WIDTH", "8")
        res = run_app("lu_contig", scale=0.05)
        assert res.n_cores == 64
        assert common.default_mesh_width() == 8

    def test_scale_env_read_at_call_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        assert common.default_scale() == 0.05

    def test_observer_env_fills_only_unset_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        spec = common.spec_for("radix", mesh_width=8, scale=0.1)
        assert spec.sanitize and spec.telemetry
        spec = common.spec_for("radix", mesh_width=8, scale=0.1,
                               sanitize=False, telemetry=False)
        assert not spec.sanitize and not spec.telemetry

    def test_sanitize_env_reexecutes_on_warm_store(self, monkeypatch):
        from repro.sanitizer.core import Sanitizer

        attached = []
        init = Sanitizer.__init__

        def counting_init(self, system):
            attached.append(system)
            init(self, system)

        monkeypatch.setattr(Sanitizer, "__init__", counting_init)
        kw = dict(network="emesh-pure", mesh_width=4, scale=0.1)
        plain = run_app("radix", **kw)
        assert run_app("radix", **kw).completion_cycles == plain.completion_cycles
        assert not attached  # a plain run, then a store hit
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitized = run_app("radix", **kw)
        assert len(attached) == 1
        assert sanitized.completion_cycles == plain.completion_cycles


class TestFormatTable:
    def test_alignment_and_header(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        text = format_table(rows, ["a", "b"])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4
        assert "22" in lines[3]

    def test_missing_cells_blank(self):
        text = format_table([{"a": 1}], ["a", "b"])
        assert text.splitlines()[-1].strip().endswith("1") or "1" in text


class TestCli:
    @pytest.fixture(autouse=True)
    def private_environ(self, monkeypatch):
        """The CLI exports its flags into ``os.environ``; keep them
        from leaking into later tests."""
        monkeypatch.setattr(os, "environ", os.environ.copy())

    def test_parser_knows_flags(self):
        args = build_parser().parse_args(
            ["fig8", "--mesh-width", "8", "--scale", "0.1", "--no-cache"]
        )
        assert args.experiment == "fig8"
        assert args.mesh_width == 8

    def test_list_exits_zero(self, capsys):
        assert cli_main(["list"]) == 0
        assert "fig8" in capsys.readouterr().out

    def test_unknown_experiment_exits_2(self, capsys):
        assert cli_main(["fig99"]) == 2

    @pytest.mark.parametrize(
        "network", [d.name for d in REGISTRY.values() if d.optical]
    )
    def test_optical_network_on_one_cluster_exits_2(self, capsys, network):
        argv = ["run", "--apps", "radix", "--mesh-width", "4", "--scale",
                "0.05", "--networks", network, "--no-cache"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "two clusters" in err and "Traceback" not in err

    @pytest.mark.parametrize("network", ["emesh-pure", "emesh-bcast", "atac+"])
    def test_ragged_mesh_exits_2(self, capsys, network):
        argv = ["run", "--apps", "radix", "--mesh-width", "6", "--scale",
                "0.05", "--networks", network, "--no-cache"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err == "mesh width 6 not a multiple of cluster width 4\n"

    @pytest.fixture
    def fig3_widths(self, monkeypatch):
        """Stand in for the Fig 3 sweep: record the mesh width of every
        load point it is handed and return an idle point for each."""
        from repro.experiments import fig03
        from repro.workloads.synthetic import LoadSweepPoint

        widths = []

        def run_specs(specs):
            widths.extend(spec.mesh_width for spec in specs)
            return [LoadSweepPoint(s.load, s.load, 1.0, 1, 1, False)
                    for s in specs]

        monkeypatch.setattr(fig03, "run_specs", run_specs)
        return widths

    # At w8 Distance-15 and Distance-25 route like Distance-All, so two
    # of the six schemes reuse its 8 points (TestFig3Duplicates).
    @pytest.mark.parametrize("flag,width,n_specs", [
        ([], 32, 48), (["--mesh-width", "8"], 8, 32),
    ], ids=["default", "w8"])
    def test_fig3_runs_at_the_mesh_width(self, capsys, fig3_widths, flag,
                                         width, n_specs):
        assert cli_main(["fig3", "--no-cache", *flag]) == 0
        assert set(fig3_widths) == {width} and len(fig3_widths) == n_specs
        assert f"Figure 3 ({width}x{width} mesh)" in capsys.readouterr().out

    @pytest.mark.parametrize("width,message", [
        (6, "mesh width 6 not a multiple of cluster width 4\n"),
        (4, "network 'atac+' is optical and needs at least two clusters; "
            "a 4x4 mesh of 4x4 clusters has 1\n"),
    ], ids=["ragged", "one-cluster"])
    def test_fig3_bad_mesh_width_exits_2(self, capsys, fig3_widths, width,
                                         message):
        assert cli_main(["fig3", "--mesh-width", str(width), "--no-cache"]) == 2
        assert fig3_widths == []
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("experiment", ["fig4", "fig13", "table5", "all"])
    def test_figure_bad_mesh_width_exits_2(self, capsys, monkeypatch,
                                           experiment):
        """Each figure's grid is built before anything runs, so a ragged
        width is one line and exit 2, not a traceback mid-figure."""
        from repro.experiments import runner

        monkeypatch.setattr(runner, "_timed_execute", None)  # never called
        assert cli_main([experiment, "--mesh-width", "6", "--no-cache"]) == 2
        assert capsys.readouterr().err == (
            "mesh width 6 not a multiple of cluster width 4\n"
        )

    @pytest.mark.parametrize("experiment", ["fig10", "sweep", "all"])
    def test_profile_outside_run_exits_2(self, capsys, monkeypatch,
                                         experiment):
        """--profile profiles 'run' only; elsewhere it would be silently
        ignored, so it is one line and exit 2 before anything runs."""
        from repro.experiments import runner

        monkeypatch.setattr(runner, "_timed_execute", None)  # never called
        argv = [experiment, "--mesh-width", "8", "--profile", "--no-cache"]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"--profile profiles 'run' only, not {experiment!r}\n"
        )

    def test_fig10_runs_quickly(self, capsys):
        # fig10 is pure area modeling: safe to run through the CLI
        assert cli_main(["fig10", "--mesh-width", "8", "--scale", "0.1"]) == 0
        assert "32x32 mesh (1024 cores)" in capsys.readouterr().out


class TestFig3Duplicates:
    def test_w8_simulates_enet_only_schemes_once(self, monkeypatch):
        """A threshold above the w8 diameter (14) routes like Distance-All:
        Fig 3 simulates 32 load points, not 48, and every curve equals
        the one a separate simulation of its own scheme gives."""
        from repro.experiments import fig03
        from repro.experiments.common import LoadPointSpec
        from repro.network.topology import MeshTopology

        real = fig03.run_specs
        batches = []

        def run_specs(specs):
            batches.append(len(specs))
            return real(specs, jobs=1, progress=False)

        monkeypatch.setattr(fig03, "run_specs", run_specs)
        kwargs = dict(cycles=600, warmup_cycles=200, seed=7,
                      broadcast_fraction=0.001)
        curves = fig03.run(mesh_width=8, **kwargs)
        assert batches == [32]

        loads = fig03.DEFAULT_LOADS
        ids = fig03.scheme_ids(MeshTopology(width=8, cluster_width=4))
        specs = [LoadPointSpec(routing, load, 8, **kwargs)
                 for routing, _ in ids for load in loads]
        assert len(specs) == 48
        points = iter(real(specs, jobs=1, progress=False))
        assert curves == {
            name: [{"load": load, "latency": round(pt.mean_latency, 1),
                    "saturated": pt.saturated}
                   for load, pt in zip(loads, points)]
            for _, name in ids
        }
        assert curves["Distance-15"] == curves["Distance-All"]
        assert curves["Distance-10"] != curves["Distance-All"]


class TestExperimentFunctionsTinyScale:
    """Drive each experiment function once at minimum cost."""

    def test_fig4_5_6(self):
        from repro.experiments.fig04_05_06 import run_fig4, run_fig5, run_fig6

        apps = ("lu_contig",)
        rows4 = run_fig4(apps=apps, mesh_width=8, scale=0.1)
        assert rows4[0]["atac+_norm"] == 1.0
        rows5 = run_fig5(apps=apps, mesh_width=8, scale=0.1)
        assert 0 <= rows5[0]["broadcast_pct"] <= 100
        rows6 = run_fig6(apps=apps, mesh_width=8, scale=0.1)
        assert rows6[0]["offered_load"] > 0

    def test_fig8_9(self):
        from repro.experiments.fig07_08_09 import crossover_loss, run_fig8, run_fig9

        rows8 = run_fig8(apps=("lu_contig",), mesh_width=8, scale=0.1)
        assert rows8[0]["ATAC+(Ideal)"] == 1.0
        # barnes broadcasts even at tiny scale, so the laser term is
        # nonzero and loss sensitivity is visible
        rows9 = run_fig9(
            apps=("barnes",), losses_db_per_cm=(0.2, 4.0),
            mesh_width=8, scale=0.1,
        )
        assert rows9[-1]["loss4.0"] > rows9[-1]["loss0.2"]
        assert crossover_loss({"loss1.0": 0.5, "loss2.0": 1.5}) == 2.0
        assert crossover_loss({"loss1.0": 0.5}) is None

    def test_fig10_11(self):
        from repro.experiments.fig10_11 import run_fig10, run_fig11

        out = run_fig10(mesh_width=32)
        assert out["ATAC+"]["cache_fraction"] > 0.5
        rows = run_fig11(apps=("lu_contig",), widths=(32, 64),
                         mesh_width=8, scale=0.1)
        assert rows[-1]["w64"] == 1.0 or rows[0]["w64"] == 1.0

    def test_fig12_13(self):
        from repro.experiments.fig12_13 import best_threshold, run_fig12, run_fig13

        rows = run_fig12(apps=("lu_contig",), mesh_width=8, scale=0.1)
        assert rows[-1]["app"] == "average"
        rows13 = run_fig13(apps=("lu_contig",), thresholds=(5,),
                           mesh_width=8, scale=0.1)
        assert "Distance-5" in rows13[0]
        assert best_threshold(rows13) in ("Cluster", "Distance-5")

    def test_fig14_15_16(self):
        from repro.experiments.fig14_15_16 import run_fig14, run_fig15, run_fig16

        rows = run_fig14(apps=("lu_contig",), mesh_width=8, scale=0.1)
        assert rows[0]["ATAC+/ACKwise4"] == 1.0
        rows15 = run_fig15(apps=("lu_contig",), sharers=(4, 8),
                           mesh_width=8, scale=0.1)
        assert rows15[0]["k4"] == 1.0
        rows16 = run_fig16(apps=("lu_contig",), sharers=(4, 8),
                           mesh_width=8, scale=0.1)
        assert rows16[0]["total_norm"] == 1.0

    def test_fig17_table5(self):
        from repro.experiments.fig17_table5 import run_fig17, run_table5

        rows = run_fig17(apps=("lu_contig",), ndd_fractions=(0.1,),
                         mesh_width=8, scale=0.1)
        assert all(r["total_j"] > 0 for r in rows)
        rows5 = run_table5(apps=("lu_contig",), mesh_width=8, scale=0.1)
        assert rows5[0]["link_utilization_pct"] >= 0

    def test_adaptive_ablation_without_post_warmup_packets(self):
        """All five packets of this run fall in the warm-up window, so
        every policy, the adaptive loop included, measures nothing."""
        from repro.experiments.ablations import run_adaptive_routing

        [row] = run_adaptive_routing(mesh_width=8, loads=(0.0004,),
                                     cycles=600, warmup_cycles=500, seed=2)
        assert row["Adaptive"] == 0.0
        assert [row[f"Distance-{r}"] for r in (5, 15, 25)] == [0.0] * 3

    def test_adaptive_ablation_rows_are_pinned(self):
        """The adaptive controller hears every unicast and broadcast,
        however the load point feeds the network: a controller fed only
        the broadcasts ends at another ``rthres`` and latency (at 0.16:
        19.4 and 8, not 17.9 and 9)."""
        from repro.experiments.ablations import run_adaptive_routing

        rows = run_adaptive_routing(mesh_width=8, loads=(0.06, 0.16),
                                    cycles=800, warmup_cycles=200)
        assert rows == [
            {"load": 0.06, "Distance-5": 16.0, "Distance-15": 14.1,
             "Distance-25": 14.1, "Adaptive": 16.0,
             "adaptive_final_rthres": 5},
            {"load": 0.16, "Distance-5": 156.0, "Distance-15": 17.3,
             "Distance-25": 17.3, "Adaptive": 17.9,
             "adaptive_final_rthres": 9},
        ]
