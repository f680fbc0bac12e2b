"""Import-graph guard: a full-system run loads neither NumPy nor the pool.

Every CLI call, spec and benchmark unit pays its imports before the
first simulated event.  NumPy is used only to generate Fig 3 traffic,
and the process pool only by a ``jobs > 1`` batch, so both are imported
where they are used.  This test runs a tiny full-system spec through a
serial ``Runner`` in a fresh interpreter, imports the CLI, and fails if
either crept back onto that path.  It then checks that a Fig 3 load
point, the one NumPy user, still runs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

#: Modules a serial full-system run and ``import repro.cli`` must not load.
LAZY_MODULES = ("numpy", "concurrent.futures.process", "multiprocessing")

_CHILD = textwrap.dedent(f"""
    import sys
    import tempfile

    import repro.cli
    from repro.experiments.runner import Runner
    from repro.experiments.runspec import LoadPointSpec, RunSpec
    from repro.experiments.store import ResultStore

    spec = RunSpec(app="barnes", network="atac+", mesh_width=8, scale=0.05)
    with tempfile.TemporaryDirectory() as root:
        result = Runner(jobs=1, store=ResultStore(root), progress=False).run_one(spec)
    assert result.completion_cycles > 0
    loaded = [m for m in {LAZY_MODULES!r} if m in sys.modules]
    print("loaded:", ",".join(loaded))

    point = LoadPointSpec(routing="distance-5", load=0.06, mesh_width=8).execute()
    assert point.packets > 0
    print("load point:", point.packets)
""")


def test_full_system_run_imports_no_numpy_and_no_pool():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "loaded: ", (
        f"a serial full-system run imported {lines[0][len('loaded: '):]}"
    )
    assert lines[1].startswith("load point: ")
