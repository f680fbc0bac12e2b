"""Pin exact driver outputs at a reduced, fast scale.

The shape tests in ``test_paper_claims.py`` tolerate drift; this module
does not.  It regenerates three paper figures' driver outputs at
mesh width 8 / scale 0.3 (seconds, not minutes) and compares them
field-by-field against a checked-in golden file:

* integers (completion cycles) must match **exactly** -- the simulator
  is deterministic, so any difference is a behaviour change;
* floats must match to ``REL_TOL`` -- they are deterministic too, but
  a loose knot of tolerance keeps the pin robust to harmless
  float-summation reassociation (e.g. dict ordering in energy sums).

When a behaviour change is *intended*, regenerate the golden file and
review the diff like any other code change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_golden_numbers.py

CI also pins every number ``repro all`` prints at mesh width 8 / scale
0.1: it diffs that command's stdout against
``golden/repro_all_w8_scale01.txt``.  Regenerate that file the same
deliberate way::

    PYTHONPATH=src python -m repro all --mesh-width 8 --scale 0.1 \
        --no-cache -q > tests/integration/golden/repro_all_w8_scale01.txt

It diffs ``repro fig3 --mesh-width 16`` against ``golden/fig3_w16.txt``
as well: at w16 every Distance scheme but Distance-All sends unicasts
over the ONet.  Regenerate it with::

    PYTHONPATH=src python -m repro fig3 --mesh-width 16 --no-cache -q \
        > tests/integration/golden/fig3_w16.txt

Corona and HERMES appear in no driver's output, so
``golden/loadpoints_w16.json`` pins them at the network level: for each,
``run_load_point`` at w16 and loads 0.02, 0.10 and 0.20 (Figure 3's
seed, cycles and warm-up), with the ``LoadSweepPoint``, the final
``NetworkStats``, every ONet link's state and every receive port's
state.  It is about 1 s, and regenerates with the same variable::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_golden_numbers.py -k load_points

The runs use a fresh, empty result store (``REPRO_CACHE_DIR`` points
at a temporary directory): a stale cache entry would make this test
vacuously green exactly when the simulator's behaviour changed without
a schema bump.  They execute inline (``REPRO_JOBS=1``), with no worker
pool.
"""

import json
import math
import os
import tempfile
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "golden" / "w8_scale03.json"
LOAD_POINTS_PATH = Path(__file__).parent / "golden" / "loadpoints_w16.json"

MESH_WIDTH = 8
SCALE = 0.3

#: Exact-match tolerance for floats (see module docstring).
REL_TOL = 1e-9
ABS_TOL = 1e-12

FIG4_APPS = ("dynamic_graph", "radix", "barnes", "lu_contig")
FIG7_APPS = ("radix", "barnes")
FIG14_APPS = ("radix", "barnes", "fmm")


@pytest.fixture(scope="module")
def computed():
    from repro.experiments.fig04_05_06 import run_fig4
    from repro.experiments.fig07_08_09 import run_fig7
    from repro.experiments.fig14_15_16 import run_fig14

    store = tempfile.TemporaryDirectory(prefix="repro-golden-")
    pinned = {"REPRO_CACHE_DIR": store.name, "REPRO_JOBS": "1"}
    saved = {name: os.environ.get(name) for name in pinned}
    os.environ.update(pinned)
    try:
        doc = {
            "fig04_runtime": run_fig4(
                FIG4_APPS, mesh_width=MESH_WIDTH, scale=SCALE
            ),
            "fig07_energy": run_fig7(
                FIG7_APPS, mesh_width=MESH_WIDTH, scale=SCALE
            ),
            "fig14_edp": run_fig14(
                FIG14_APPS, mesh_width=MESH_WIDTH, scale=SCALE
            ),
        }
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        store.cleanup()
    # JSON round-trip so computed and golden compare like-for-like
    # (tuples become lists, dict keys become strings)
    doc = json.loads(json.dumps(doc))
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"golden file {GOLDEN_PATH} is missing; generate it with "
            "REPRO_REGEN_GOLDEN=1 and commit it"
        )
    return json.loads(GOLDEN_PATH.read_text())


def _diffs(got, want, path=""):
    """Recursive comparison; returns human-readable mismatch strings."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected object, got {type(got).__name__}"]
        out = []
        for key in sorted(set(got) | set(want)):
            if key not in want:
                out.append(f"{path}.{key}: unexpected key")
            elif key not in got:
                out.append(f"{path}.{key}: missing key")
            else:
                out.extend(_diffs(got[key], want[key], f"{path}.{key}"))
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length/type mismatch"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out.extend(_diffs(g, w, f"{path}[{i}]"))
        return out
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, int) and isinstance(got, int):
        return [] if got == want else [f"{path}: {got} != {want} (exact)"]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {got} != {want} (rel_tol={REL_TOL})"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("figure", ["fig04_runtime", "fig07_energy", "fig14_edp"])
def test_driver_output_matches_golden(computed, golden, figure):
    assert figure in golden, f"golden file lacks {figure}; regenerate it"
    mismatches = _diffs(computed[figure], golden[figure], figure)
    assert not mismatches, (
        "golden mismatch (intended? regenerate with REPRO_REGEN_GOLDEN=1 "
        "and commit):\n  " + "\n  ".join(mismatches[:20])
    )


def test_golden_file_inventory(golden):
    """The golden file covers exactly the pinned figures and scales."""
    assert sorted(golden) == ["fig04_runtime", "fig07_energy", "fig14_edp"]
    assert [row["app"] for row in golden["fig04_runtime"]] == list(FIG4_APPS)
    assert [row["app"] for row in golden["fig14_edp"]] == list(FIG14_APPS)


#: Offered loads of the Corona/HERMES pin: below, near and past the
#: knee of Corona's receiver-owned channels at w16.
PIN_LOADS = (0.02, 0.10, 0.20)


def _load_point_rows(network_cls):
    from dataclasses import asdict

    from repro.network.topology import MeshTopology
    from repro.workloads.synthetic import SyntheticTraffic, run_load_point

    topo = MeshTopology(width=16, cluster_width=4)
    rows = []
    for load in PIN_LOADS:
        net = network_cls(topo)
        point = run_load_point(net, SyntheticTraffic(topo.n_cores, load, seed=7),
                               cycles=1500, warmup_cycles=400)
        rows.append({
            "load": load,
            "point": asdict(point),
            "stats": asdict(net.stats),
            "links": [
                {"free_at": l.free_at, "last_mode": l.last_mode.value,
                 "unicast_cycles": l.unicast_cycles,
                 "broadcast_cycles": l.broadcast_cycles,
                 "mode_transitions": l.mode_transitions}
                for l in net.onet_links
            ],
            "receive_ports": [
                [[p.free_at, p.busy_cycles] for p in rnet._ports]
                for rnet in net.receive_nets
            ],
        })
    return rows


@pytest.fixture(scope="module")
def load_points():
    from repro.network.corona import CoronaNetwork
    from repro.network.hermes import HermesNetwork

    doc = json.loads(json.dumps({
        "corona": _load_point_rows(CoronaNetwork),
        "hermes": _load_point_rows(HermesNetwork),
    }))
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        LOAD_POINTS_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


@pytest.mark.parametrize("network", ["corona", "hermes"])
def test_load_points_match_golden(load_points, network):
    """Corona's receiver-owned channels and HERMES's broadcast hierarchy
    under Figure 3 traffic, pinned exactly (no driver prints either)."""
    if not LOAD_POINTS_PATH.exists():
        pytest.fail(f"golden file {LOAD_POINTS_PATH} is missing; generate it "
                    "with REPRO_REGEN_GOLDEN=1 and commit it")
    golden = json.loads(LOAD_POINTS_PATH.read_text())
    assert [row["load"] for row in golden[network]] == list(PIN_LOADS)
    mismatches = _diffs(load_points[network], golden[network], network)
    assert not mismatches, (
        "golden mismatch (intended? regenerate with REPRO_REGEN_GOLDEN=1 "
        "and commit):\n  " + "\n  ".join(mismatches[:20])
    )
