"""AST lint: the simulation sources read no environment variable.

A run's result is cached under its spec's content hash, so the spec and
the constructor arguments must be the whole input to a simulation.  The
environment enters at one edge, ``repro.experiments.common.spec_for``.
This lint fails if any file in ``SIMULATION_SOURCES`` (the files the
content hash covers) or the telemetry collector reaches for
``os.environ``, ``getenv`` or the old ``env_flag``/``env_int`` helpers.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.experiments.runspec import SIMULATION_SOURCES

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

FORBIDDEN = frozenset(("environ", "getenv", "env_flag", "env_int"))


def _linted_files() -> list[Path]:
    files = []
    for entry in SIMULATION_SOURCES:
        path = SRC / entry
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    files.append(SRC / "telemetry" / "collector.py")
    return files


def environment_reads(source: str) -> list[int]:
    """Line numbers in ``source`` that name a forbidden environment
    accessor (attribute, bare name or import)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        else:
            continue
        if name in FORBIDDEN:
            lines.append(node.lineno)
    return sorted(lines)


def test_simulation_sources_read_no_environment():
    files = _linted_files()
    assert all(path.is_file() for path in files), files
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in files
        for lineno in environment_reads(path.read_text())
    ]
    assert not offenders, (
        "simulation source reads the environment (take it as a spec "
        "field or constructor argument; only spec_for reads REPRO_*):\n  "
        + "\n  ".join(offenders)
    )


def test_lint_catches_environment_reads():
    reads = (
        "import os\nx = os.environ.get('A')",
        "import os\nx = os.getenv('A')",
        "from os import environ",
        "from os import getenv as g",
        "from repro import env_flag",
        "x = env_int('A', 1)",
    )
    for source in reads:
        assert environment_reads(source), source
    assert not environment_reads("import os\nx = os.path.join('a', 'b')")
