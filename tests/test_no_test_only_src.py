"""Lint: every definition in ``src/repro`` is used by other ``src`` code.

A ``def`` or ``class`` that only tests reach is test code living in the
package: it is shipped, documented and maintained, yet no model term,
driver or CLI path runs it.  Accessors and reference formulas that a
test needs as an oracle belong in that test.

The scan is by name, as a reader searching the package would do it: a
definition counts as used when its name appears in some other ``src``
code -- loaded as a variable, read as an attribute, or spelled out as a
string (``getattr``, field-name tables).  A package ``__init__``
re-export (its imports and ``__all__``) is not a use: it only widens
the public surface, it runs nothing.  Dunder methods are called by the
language, so they are not checked.

Blind spot: the scan does not resolve types, so a test-only method
passes whenever another class has a member of the same name that
``src`` uses (``CoreModel.ipc`` hid behind ``RunResult.ipc``,
``CacheGeometry.n_sets`` behind ``SetAssocCache.n_sets``).  Such
helpers are found only by reading; ``tests/tech/test_field_readers.py``
scopes its ``self.<field>`` reads by class for the same reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: Definitions deliberately kept although no other ``src`` code uses
#: them (``module:name``).
ALLOWLIST = frozenset({
    # Closed forms the tests cross-check simulated latencies and loads
    # against; ROADMAP item 2 folds them into a per-network
    # ``zero_load`` facet of the registry.
    "network.analytic:mesh_broadcast_latency",
    "network.analytic:optical_broadcast_latency",
    "network.analytic:mean_mesh_distance",
    "network.analytic:hybrid_saturation_load",
    "network.analytic:onet_traffic_fraction",
    # The packet record perfbench/harness.py still builds; ROADMAP
    # item 6 deletes it together with that harness change.
    "network.types:Packet",
    # Trace sizes perfbench reports for each workload.
    "workloads.trace:n_instructions",
    "workloads.trace:n_memory_ops",
    # The public listing of registered networks, re-exported by
    # ``repro.network``; tests sweep every network through it.
    "network.registry:network_names",
    # The ASCII charts examples/full_paper_run.py draws its figures with.
    "experiments.report:bar_chart",
    "experiments.report:stacked_bar_chart",
    "experiments.report:curve_chart",
})


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).with_suffix("")
        yield ".".join(rel.parts), path.name == "__init__.py", ast.parse(
            path.read_text(), filename=str(path))


def _definitions(module: str, tree: ast.Module):
    """``(module:name, name)`` for module-level defs, classes and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield f"{module}:{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}:{item.name}", item.name


def _is_all_assignment(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _uses(tree: ast.Module, is_package: bool) -> set[str]:
    """Every name ``tree`` loads, reads as an attribute or spells out."""
    skip: set[int] = set()
    if is_package:
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    or _is_all_assignment(node)):
                skip.update(id(n) for n in ast.walk(node))
    uses: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            uses.add(node.id)
        elif isinstance(node, ast.Attribute):
            uses.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            uses.add(node.value)
    return uses


def _unused() -> set[str]:
    """``module:name`` of every checked definition no other src code uses."""
    uses: set[str] = set()
    definitions = []
    for module, is_package, tree in _modules():
        uses |= _uses(tree, is_package)
        definitions.extend(_definitions(module, tree))
    return {
        key for key, name in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and name not in uses
    }


def test_no_definition_is_reached_only_from_tests():
    unused = sorted(_unused() - ALLOWLIST)
    assert not unused, (
        "defined in src/repro but used by no other src code (move it into "
        "the test that needs it, or delete it): " + ", ".join(unused)
    )


def test_every_allowlist_entry_is_still_needed():
    stale = sorted(ALLOWLIST - _unused())
    assert not stale, (
        "allowlisted but now used by src code, or no longer defined: "
        + ", ".join(stale)
    )
