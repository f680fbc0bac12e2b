"""Opt-in cross-layer telemetry: windowed metrics + event tracing.

The observability layer of DESIGN.md section 12.  Three pieces:

* :mod:`repro.telemetry.windows` -- the windowed counter-delta schema
  (every energy-priced counter, per fixed slice of simulated time);
* :mod:`repro.telemetry.trace` -- a bounded ring-buffer event trace
  with Chrome/Perfetto trace-event export;
* :mod:`repro.telemetry.collector` -- the collector probe
  (:mod:`repro.sim.probes`), opt-in like the sanitizer:
  ``RunSpec(telemetry=True)``, or ``repro --telemetry`` /
  ``REPRO_TELEMETRY=1`` for specs built by ``spec_for``; exactly zero
  cost (not even an import) when off, byte-identical simulation when
  on.

``repro trace <run>`` and ``repro top <run>``
(:mod:`repro.telemetry.inspect`) read the artifacts back.

This package root stays import-light on purpose (it imports none of
its submodules): the inspection CLI must list runs without dragging in
the simulator.
"""

from __future__ import annotations

import os
from pathlib import Path

#: Bump when the window record layout or field meaning changes; readers
#: (``repro top``, CI artifact consumers) check it before trusting a
#: ``windows.jsonl`` header.
TELEMETRY_SCHEMA_VERSION = 1


def telemetry_root() -> Path:
    """Where run telemetry directories live.

    ``REPRO_TELEMETRY_DIR`` names the root outright; otherwise
    artifacts sit next to the result store (``REPRO_TELEMETRY_DIR``
    unset: ``<REPRO_CACHE_DIR or .repro_cache>/telemetry``).
    """
    override = os.environ.get("REPRO_TELEMETRY_DIR")
    if override:
        return Path(override)
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache")) / "telemetry"
