"""Ablation benches for the design choices DESIGN.md section 8 calls out."""

from repro.experiments.ablations import (
    adaptive_gap,
    run_adaptive_routing,
    run_analytic_accuracy,
    run_sequencing_cost,
)
from repro.experiments.common import format_table


def test_adaptive_vs_oblivious_routing(benchmark, run_once):
    rows = run_once(benchmark, run_adaptive_routing, mesh_width=16,
                    loads=(0.02, 0.08, 0.16))
    print()
    print(format_table(rows, list(rows[0].keys())))
    gap = adaptive_gap(rows)
    print(f"mean gap (best-fixed vs adaptive): {gap:+.1%}")

    # The adaptive controller must track the load: its final rthres
    # rises with offered load.
    finals = [r["adaptive_final_rthres"] for r in rows]
    assert finals[-1] >= finals[0]
    # It must stay within a factor of the best fixed policy at each
    # load (the paper's justification for going oblivious: the gap is
    # not catastrophic either way).
    for r in rows:
        fixed_best = min(v for k, v in r.items() if k.startswith("Distance-"))
        assert r["Adaptive"] < 3.0 * fixed_best


def test_sequencing_machinery_active(benchmark, run_once):
    rows = run_once(benchmark, run_sequencing_cost)
    print()
    print(format_table(rows, list(rows[0].keys())))
    # Under distance routing the reorder protection must actually fire
    # somewhere across the broadcast-heavy apps.
    total = sum(
        r["bcasts_buffered"] + r["unicasts_held_early"] for r in rows
    )
    assert total > 0
    # Stale-drop + late-process must together equal buffered broadcasts.
    for r in rows:
        assert r["bcasts_stale_dropped"] <= r["bcasts_buffered"]


def test_analytic_model_accuracy(benchmark, run_once):
    rows = run_once(benchmark, run_analytic_accuracy, mesh_width=16)
    print()
    print(format_table(rows, list(rows[0].keys())))
    # At the lightest load the simulation sits near the analytic
    # zero-load mean (within ~35%: queueing is small but nonzero).
    first = rows[0]
    assert abs(first["queueing_excess"]) < 0.35 * first["analytic_zero_load"]
    # Queueing excess grows monotonically with load.
    excesses = [r["queueing_excess"] for r in rows]
    assert excesses == sorted(excesses)
