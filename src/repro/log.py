"""Structured logging for the repro toolchain.

Every long-running entry point (the experiment runner, the fuzzer, the
telemetry CLI) used to hand-roll ``print(..., file=sys.stderr,
flush=True)``.  This module replaces those with one tiny structured
logger so that

* verbosity is controlled in exactly one place (``--quiet`` / ``-v`` on
  the CLI, or ``REPRO_LOG=debug|info|warning|error|silent``),
* every line carries its subsystem (``[repro.runner] ...``) and its
  fields as ``key=value`` pairs that are trivially greppable, and
* libraries stay import-light: no handlers, no configuration objects,
  no stdlib ``logging`` tree -- a logger is a name and four methods.

Usage::

    from repro import log

    _LOG = log.get_logger("runner")
    _LOG.info("run complete", run=h[:10], elapsed_s=12.4)

Levels resolve lazily at emit time, so a CLI flag parsed after import
still takes effect.  Output goes to stderr (stdout is reserved for the
experiments' tables and machine-readable output).
"""

from __future__ import annotations

import os
import sys

DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40
SILENT = 100

_LEVEL_NAMES = {
    "debug": DEBUG,
    "info": INFO,
    "warning": WARNING,
    "error": ERROR,
    "silent": SILENT,
}

#: Explicitly-set level; ``None`` defers to ``REPRO_LOG`` at emit time.
_level: int | None = None
_loggers: dict[str, "Logger"] = {}


def level() -> int:
    """The effective threshold: explicit setting, else ``REPRO_LOG``."""
    if _level is not None:
        return _level
    name = os.environ.get("REPRO_LOG", "info").strip().lower()
    return _LEVEL_NAMES.get(name, INFO)


def set_level(value: int | str | None) -> None:
    """Set (or, with ``None``, clear) the explicit threshold."""
    global _level
    if isinstance(value, str):
        try:
            value = _LEVEL_NAMES[value.strip().lower()]
        except KeyError:
            raise ValueError(
                f"unknown log level {value!r}; choose from "
                f"{tuple(_LEVEL_NAMES)}"
            ) from None
    _level = value


def set_verbosity(verbose: int = 0, quiet: bool = False) -> None:
    """Map the CLI's ``-v`` / ``--quiet`` flags onto a level.

    ``--quiet`` wins over ``-v``; without either, the explicit level is
    cleared so ``REPRO_LOG`` (default ``info``) applies.
    """
    if quiet:
        set_level(WARNING)
    elif verbose > 0:
        set_level(DEBUG)
    else:
        set_level(None)


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    text = str(value)
    if " " in text or not text:
        return repr(text)
    return text


class Logger:
    """A named emitter; construction is free, emission checks the level."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    # ------------------------------------------------------------------
    def _emit(self, threshold: int, message: str, fields: dict) -> None:
        if threshold < level():
            return
        parts = [f"[repro.{self.name}]", message]
        parts.extend(f"{k}={_format_value(v)}" for k, v in fields.items())
        print(" ".join(parts), file=sys.stderr, flush=True)

    def debug(self, message: str, **fields) -> None:
        self._emit(DEBUG, message, fields)

    def info(self, message: str, **fields) -> None:
        self._emit(INFO, message, fields)

    def warning(self, message: str, **fields) -> None:
        self._emit(WARNING, message, fields)

    def error(self, message: str, **fields) -> None:
        self._emit(ERROR, message, fields)


def get_logger(name: str) -> Logger:
    """The (cached) logger for a subsystem name."""
    logger = _loggers.get(name)
    if logger is None:
        logger = _loggers[name] = Logger(name)
    return logger
