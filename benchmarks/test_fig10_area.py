"""Figure 10: chip area breakdown."""

from repro.experiments.fig10_11 import run_fig10


def test_fig10_area(benchmark, run_once):
    out = run_once(benchmark, run_fig10)
    print()
    for arch, comp in out.items():
        print(f"  {arch}: " + ", ".join(f"{k}={v:.1f}" for k, v in comp.items()))

    atac, mesh = out["ATAC+"], out["EMesh-BCast"]

    # Paper shape 1: "the caches dominate the total area (~90%)".
    assert atac["cache_fraction"] > 0.70
    assert mesh["cache_fraction"] > 0.80

    # Paper shape 2: photonics occupy ~40 mm^2 at 64-bit flit width.
    assert 25 < atac["photonics"] < 60

    # Paper shape 3: electrical networks/hubs are negligible.
    assert atac["enet"] < 0.1 * atac["total"]
    assert atac["hubs"] < 0.01 * atac["total"]

    # Paper shape 4: ATAC+'s area premium over the mesh is exactly the
    # optical machinery (small relative to the caches).
    premium = atac["total"] - mesh["total"]
    assert premium < 0.25 * mesh["total"]
