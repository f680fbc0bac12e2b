"""Shared experiment machinery: spec construction + batch running.

A single (app, architecture) simulation feeds many figures (runtime ->
Fig 4, traffic mix -> Fig 5, load -> Fig 6, energy -> Figs 7-9/17,
Table V), so runs are content-addressed in a versioned on-disk store
and executed through the process-parallel :class:`Runner`:

    RunSpec (typed parameters, deterministic hash)
        -> Runner (ProcessPoolExecutor fan-out, --jobs N)
        -> ResultStore (schema-versioned JSON, .repro_cache/)

Delete ``.repro_cache/``, point ``REPRO_CACHE_DIR`` at an empty
directory or pass ``--no-cache`` to force re-simulation; set
``REPRO_JOBS`` to bound worker processes.

Each figure's runs are the specs of one *grid* function, which
:mod:`repro.experiments.catalog` also hands to ``repro all``.

:func:`spec_for` is where the environment enters a run: it fills the
spec fields a caller leaves unset from ``REPRO_MESH_WIDTH``,
``REPRO_SCALE``, ``REPRO_SANITIZE`` and ``REPRO_TELEMETRY``.  Below it,
a spec and the constructor arguments are the whole input.
"""

from __future__ import annotations

import os

from repro.experiments.report import format_table
from repro.experiments.runner import Runner, default_jobs, run_specs
from repro.experiments.runspec import CACHE_SCHEMA_VERSION, LoadPointSpec, RunSpec
from repro.experiments.store import ResultStore
from repro.sim.results import RunResult

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "LoadPointSpec",
    "Runner",
    "RunSpec",
    "default_jobs",
    "default_mesh_width",
    "default_scale",
    "energy_models",
    "format_table",
    "grid",
    "run_app",
    "run_specs",
    "spec_for",
]


def default_mesh_width() -> int:
    """``REPRO_MESH_WIDTH``, read at call time (not import time) so
    tests and CLI flags set after import are honoured."""
    return int(os.environ.get("REPRO_MESH_WIDTH", "16"))


def default_scale() -> float:
    """``REPRO_SCALE``, read at call time (see :func:`default_mesh_width`)."""
    return float(os.environ.get("REPRO_SCALE", "0.6"))


def _env_flag(name: str) -> bool:
    """Whether environment variable ``name`` is ``1``, ``true`` or
    ``on`` (any case), read at call time."""
    return os.environ.get(name, "0").lower() in ("1", "true", "on")


def spec_for(
    app: str,
    mesh_width: int | None = None,
    scale: float | None = None,
    **overrides,
) -> RunSpec:
    """Build a :class:`RunSpec` from its own defaults plus ``overrides``.

    Knobs the caller leaves unset are read from the environment at call
    time: ``None`` size knobs from ``REPRO_MESH_WIDTH``/``REPRO_SCALE``,
    and ``sanitize``/``telemetry`` from ``REPRO_SANITIZE``/
    ``REPRO_TELEMETRY``.  An explicit value always wins.
    """
    overrides.setdefault("sanitize", _env_flag("REPRO_SANITIZE"))
    overrides.setdefault("telemetry", _env_flag("REPRO_TELEMETRY"))
    return RunSpec(
        app=app,
        mesh_width=mesh_width if mesh_width is not None else default_mesh_width(),
        scale=scale if scale is not None else default_scale(),
        **overrides,
    )


def grid(apps, networks, mesh_width: int | None = None,
         scale: float | None = None, **overrides) -> list[RunSpec]:
    """One :func:`spec_for` spec per (app, network), apps outermost."""
    return [spec_for(app, network=net, mesh_width=mesh_width, scale=scale,
                     **overrides) for app in apps for net in networks]


def energy_models(specs, **model_kwargs) -> list:
    """An :class:`~repro.energy.accounting.EnergyModel` per spec, built
    from the config that spec ran (one per distinct config);
    ``model_kwargs`` go to every model."""
    # imported here: Fig 3 prices nothing and imports this module
    from repro.energy.accounting import EnergyModel

    configs = [spec.config() for spec in specs]
    models = {c: EnergyModel(c, **model_kwargs) for c in dict.fromkeys(configs)}
    return [models[config] for config in configs]


def run_app(app: str, **overrides) -> RunResult:
    """Simulate one application on one architecture (store-cached)."""
    return Runner(jobs=1, progress=False).run_one(spec_for(app, **overrides))
