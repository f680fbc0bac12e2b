"""Versioned on-disk result store.

Replaces the old bare-``pickle`` cache: every entry is a JSON document
with explicit schema metadata next to the payload::

    {
      "schema_version": 5,
      "repro_version": "1.1.0",
      "kind": "run",
      "spec": { ...spec fields... },
      "elapsed_s": 12.4,
      "payload": { ...result fields... }
    }

Entries are addressed by the spec's :meth:`content_hash`, which already
mixes in ``CACHE_SCHEMA_VERSION``, the package version and a digest of
the simulation sources -- so entries written by incompatible or merely
edited simulator code simply miss.  The metadata check on load
is a second, defensive layer: a corrupt or hand-edited file degrades to
a cache miss, never to a mismatched dataclass or an exception.

Writes are atomic (temp file + ``os.replace``) so parallel runner
workers and concurrent pytest sessions never observe torn entries.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

from repro import __version__
from repro.experiments.runspec import CACHE_SCHEMA_VERSION


def default_store_dir() -> Path:
    """The cache directory, read from the environment at call time."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


class ResultStore:
    """Content-addressed store of executed spec results."""

    def __init__(self, root: Path | str | None = None) -> None:
        self._root = Path(root) if root is not None else None

    @property
    def root(self) -> Path:
        """Resolved lazily so env overrides apply per call, not per import."""
        return self._root if self._root is not None else default_store_dir()

    def path_for(self, spec) -> Path:
        return self.root / f"{spec.kind}_{spec.content_hash()}.json"

    # ------------------------------------------------------------------
    def load(self, spec) -> Any | None:
        """The stored result for ``spec``, or ``None`` on any miss.

        Schema or version mismatches, unreadable JSON and incomplete
        payloads all count as misses.
        """
        path = self.path_for(spec)
        try:
            with path.open("r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict):
            return None
        if doc.get("schema_version") != CACHE_SCHEMA_VERSION:
            return None
        if doc.get("repro_version") != __version__:
            return None
        if doc.get("kind") != spec.kind:
            return None
        try:
            return spec.result_from_payload(doc["payload"])
        except (KeyError, TypeError, ValueError):
            return None

    def save(self, spec, result, elapsed_s: float | None = None) -> Path:
        """Persist ``result`` under ``spec``'s content hash, atomically."""
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "repro_version": __version__,
            "kind": spec.kind,
            "spec": spec.to_dict(),
            "elapsed_s": elapsed_s,
            "payload": spec.result_to_payload(result),
        }
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        """All store entries on disk (legacy ``.pkl`` blobs excluded)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*_*.json"))
