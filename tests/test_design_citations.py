"""DESIGN.md cites only tests that exist.

DESIGN.md names the test that pins each mechanism (its section 9 is a
table of them).  A renamed or deleted test would leave the design
pointing at nothing, so every ``tests/...`` path it cites must exist,
and every ``file::Name[::name]`` must resolve to a definition in that
file: a module-level ``def``/``class``, then a method of that class.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: ``tests/a/b.py``, ``tests/a/``, or ``tests/a/b.py::TestX::test_y``.
_CITATION = re.compile(r"\btests/[\w./-]*(?:::\w+)*")


def _citations() -> list[str]:
    return sorted(set(_CITATION.findall((ROOT / "DESIGN.md").read_text())))


def _resolves(path: Path, names: list[str]) -> bool:
    scope = ast.parse(path.read_text()).body
    for name in names:
        node = next(
            (n for n in scope
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)) and n.name == name),
            None,
        )
        if node is None:
            return False
        scope = node.body
    return True


def test_design_cites_tests():
    assert len(_citations()) > 20


def test_every_cited_test_exists():
    missing = []
    for citation in _citations():
        file, *names = citation.rstrip(".").split("::")
        path = ROOT / file
        if not path.exists() or (names and not _resolves(path, names)):
            missing.append(citation)
    assert not missing, f"DESIGN.md cites tests that do not exist: {missing}"
