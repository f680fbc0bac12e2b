"""Lint: every dataclass field of ``repro.tech``, ``repro.sim.config``
and ``repro.coherence`` is read by ``src`` code.

A technology-model or chip-config field that nothing reads is
write-only configuration: it can be set, it is documented, and it
changes no number.  A protocol-state field that nothing reads is work
done on every message for nothing.  The same lint guards the network
registry's descriptor (``tests/network/test_registry.py``).

A field counts as read when ``src`` code, outside a ``validate``
method, reads it

* as ``self.<field>`` inside its own class, or
* as ``<expr>.<field>`` on anything but ``self``, in any module (by
  name: the receiver's type is not resolved).

``validate`` bodies do not count: range-checking a value is not using
it.  A ``self.<field>`` read in another class does not count either, so
a field that shares its name with another class's field is still
checked on its own.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _dataclass_fields(paths):
    """``(class, field)`` for every dataclass field in ``paths``."""
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if (isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)):
                        yield node.name, item.target.id


class _Reads(ast.NodeVisitor):
    def __init__(self) -> None:
        self.own: dict[str, set[str]] = defaultdict(set)
        self.other: set[str] = set()
        self._cls: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._cls.append(node.name)
        self.generic_visit(node)
        self._cls.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node.name != "validate":
            self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            if self._cls:
                self.own[self._cls[-1]].add(node.attr)
        else:
            self.other.add(node.attr)
        self.generic_visit(node)


def _unread(paths) -> list[str]:
    reads = _Reads()
    for path in sorted(SRC.rglob("*.py")):
        reads.visit(ast.parse(path.read_text()))
    return [
        f"{cls}.{name}" for cls, name in _dataclass_fields(paths)
        if name not in reads.own[cls] and name not in reads.other
    ]


def test_every_tech_field_has_a_reader():
    unread = _unread(sorted((SRC / "tech").glob("*.py")))
    assert not unread, (
        "repro.tech dataclass fields no src code reads (delete them, or "
        "make them module constants): " + ", ".join(unread)
    )


def test_every_config_and_coherence_field_has_a_reader():
    paths = [SRC / "sim" / "config.py",
             *sorted((SRC / "coherence").glob("*.py"))]
    unread = _unread(paths)
    assert not unread, (
        "repro.sim.config / repro.coherence dataclass fields no src code "
        "reads (delete them, or make them module constants): "
        + ", ".join(unread)
    )
