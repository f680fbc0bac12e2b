"""``repro trace`` / ``repro top``: inspect recorded telemetry.

Both verbs operate on the artifact directory a telemetry-enabled run
leaves under the telemetry root (``REPRO_TELEMETRY_DIR``, default
``<cache dir>/telemetry/``), one subdirectory per run id::

    .repro_cache/telemetry/<run_id>/
        meta.json       # run identity + schema versions
        windows.jsonl   # header line + one counter-delta window per line
        trace.jsonl     # header line + one ring-buffer event per line

``repro trace <run>`` converts the ring buffer to Chrome/Perfetto
trace-event JSON (load it at https://ui.perfetto.dev).  ``repro top
<run>`` renders the windowed time series as a terminal table: flits per
cycle per core, broadcast fraction, queue depth, per-window energy
split and the hottest ONet cluster.  ``<run>`` may be a run id, a
unique id prefix, a substring of the run's label, or ``latest``;
omitting it lists the recorded runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments.report import format_table
from repro.telemetry import TELEMETRY_SCHEMA_VERSION, telemetry_root
from repro.telemetry.trace import (
    TRACE_SCHEMA_VERSION, event_from_dict, to_perfetto,
)


def recorded_runs(root: Path | None = None) -> list[tuple[Path, dict]]:
    """Every recorded run under ``root``: ``(dir, meta)``, newest first."""
    root = root if root is not None else telemetry_root()
    runs = []
    if not root.is_dir():
        return runs
    for child in root.iterdir():
        meta_path = child / "meta.json"
        if not meta_path.is_file():
            continue
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        runs.append((meta_path.stat().st_mtime, child, meta))
    runs.sort(key=lambda entry: entry[0], reverse=True)
    return [(child, meta) for _, child, meta in runs]


def resolve_run(token: str, root: Path | None = None) -> tuple[Path, dict]:
    """Resolve ``token`` to one recorded run or raise ``LookupError``."""
    runs = recorded_runs(root)
    if not runs:
        raise LookupError(
            "no recorded telemetry runs; produce one with e.g. "
            "'python -m repro run --apps radix --telemetry'"
        )
    if token == "latest":
        return runs[0]
    exact = [r for r in runs if r[0].name == token]
    if exact:
        return exact[0]
    by_prefix = [r for r in runs if r[0].name.startswith(token)]
    by_label = [r for r in runs if token in r[1].get("label", "")]
    for matches in (by_prefix, by_label):
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            names = ", ".join(r[0].name for r in matches[:6])
            raise LookupError(f"ambiguous run {token!r}: matches {names}")
    raise LookupError(
        f"no recorded run matches {token!r}; 'repro trace' lists runs"
    )


def _read_jsonl(path: Path, expect_schema: int) -> tuple[dict, list[dict]]:
    """A ``(header, records)`` pair, schema-checked."""
    with path.open("r", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    header = json.loads(lines[0])
    if header.get("schema") != expect_schema:
        raise ValueError(
            f"{path}: schema {header.get('schema')!r}, "
            f"this tool reads schema {expect_schema}"
        )
    return header, [json.loads(line) for line in lines[1:]]


def _list_runs() -> int:
    runs = recorded_runs()
    if not runs:
        print("no recorded telemetry runs")
        return 0
    print(f"recorded telemetry runs under {telemetry_root()}:")
    for run_dir, meta in runs:
        print(
            f"  {run_dir.name}  {meta.get('label', ''):24s} "
            f"{meta.get('n_windows', '?')} windows, "
            f"{meta.get('trace', {}).get('recorded', '?')} trace events"
        )
    return 0


# ----------------------------------------------------------------------
# repro trace
# ----------------------------------------------------------------------

def trace_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Export a recorded run's event trace as "
                    "Chrome/Perfetto trace-event JSON.",
    )
    parser.add_argument(
        "run", nargs="?", default=None,
        help="run id, unique id prefix, label substring, or 'latest' "
             "(omit to list recorded runs)",
    )
    parser.add_argument(
        "--out", "-o", type=Path, default=None, metavar="FILE",
        help="output path (default trace_<run>.perfetto.json)",
    )
    args = parser.parse_args(argv)
    if args.run is None:
        return _list_runs()
    try:
        run_dir, meta = resolve_run(args.run)
        header, records = _read_jsonl(
            run_dir / "trace.jsonl", TRACE_SCHEMA_VERSION
        )
    except (LookupError, OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    events = [event_from_dict(doc) for doc in records]
    label = f"repro {meta.get('label') or run_dir.name}"
    doc = to_perfetto(events, label=label)
    out = args.out or Path(f"trace_{run_dir.name[:12]}.perfetto.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc) + "\n")
    dropped = header.get("dropped", 0)
    print(
        f"wrote {out}: {len(events)} events from {run_dir.name} "
        f"({meta.get('label', '')})"
        + (f", {dropped} older events dropped from the ring" if dropped else "")
    )
    print("open it at https://ui.perfetto.dev")
    return 0


# ----------------------------------------------------------------------
# repro top
# ----------------------------------------------------------------------

def _aggregate(windows: list[dict], rows: int) -> list[dict]:
    """Coalesce adjacent windows so at most ``rows`` rows print."""
    if len(windows) <= rows:
        return windows
    per = -(-len(windows) // rows)  # ceil division
    merged = []
    for i in range(0, len(windows), per):
        chunk = windows[i:i + per]
        out = {
            "t0": chunk[0]["t0"],
            "t1": chunk[-1]["t1"],
            "queue_depth": max(w["queue_depth"] for w in chunk),
        }
        for group in ("net", "energy"):
            out[group] = {}
            for w in chunk:
                for key, value in w.get(group, {}).items():
                    out[group][key] = out[group].get(key, 0) + value
        busy_lists = [w["onet_busy"] for w in chunk if "onet_busy" in w]
        if busy_lists:
            out["onet_busy"] = [sum(vals) for vals in zip(*busy_lists)]
        merged.append(out)
    return merged


def _row(window: dict, n_cores: int) -> dict:
    cycles = max(1, window["t1"] - window["t0"])
    net = window.get("net", {})
    received = (
        net.get("received_unicast_flits", 0)
        + net.get("received_broadcast_flits", 0)
    )
    energy = window.get("energy", {})
    busy = window.get("onet_busy")
    if busy and any(busy):
        hot = max(range(len(busy)), key=busy.__getitem__)
        hot_cell = f"c{hot} ({100 * busy[hot] / cycles:.0f}%)"
    else:
        hot_cell = "-"
    return {
        "window": f"{window['t0']}-{window['t1']}",
        "flits/cyc/core": f"{net.get('injected_flits', 0) / (cycles * n_cores):.4f}",
        "bcast_rx%": (
            f"{100 * net.get('received_broadcast_flits', 0) / received:.1f}"
            if received else "0.0"
        ),
        "queue": window["queue_depth"],
        "net_uJ": f"{1e6 * energy.get('network_j', 0.0):.2f}",
        "cache_uJ": f"{1e6 * energy.get('cache_j', 0.0):.2f}",
        "core_uJ": f"{1e6 * energy.get('core_j', 0.0):.2f}",
        "hot_onet": hot_cell,
    }


def top_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Render a recorded run's windowed telemetry as a "
                    "terminal time series.",
    )
    parser.add_argument(
        "run", nargs="?", default=None,
        help="run id, unique id prefix, label substring, or 'latest' "
             "(omit to list recorded runs)",
    )
    parser.add_argument(
        "--rows", type=int, default=16, metavar="N",
        help="max table rows; adjacent windows are coalesced (default 16)",
    )
    args = parser.parse_args(argv)
    if args.run is None:
        return _list_runs()
    if args.rows < 1:
        print("--rows must be >= 1", file=sys.stderr)
        return 2
    try:
        run_dir, meta = resolve_run(args.run)
        header, windows = _read_jsonl(
            run_dir / "windows.jsonl", TELEMETRY_SCHEMA_VERSION
        )
    except (LookupError, OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    n_cores = meta.get("n_cores", 1)
    print(
        f"{meta.get('label') or run_dir.name}: {meta.get('app', '?')} on "
        f"{meta.get('network', '?')}, {meta.get('completion_cycles', '?')} "
        f"cycles, {len(windows)} window(s) of "
        f"{header.get('window_cycles', '?')} cycles"
    )
    if not windows:
        print("no closed windows (run shorter than one window?)")
        return 0
    rows = [_row(w, n_cores) for w in _aggregate(windows, args.rows)]
    print(format_table(rows, list(rows[0].keys())))
    trace_meta = meta.get("trace", {})
    print(
        f"\ntrace: {trace_meta.get('recorded', 0)} events recorded, "
        f"{trace_meta.get('dropped', 0)} dropped; "
        f"'repro trace {run_dir.name[:12]}' exports Perfetto JSON"
    )
    return 0


def main(argv: list[str]) -> int:
    """Entry point for the ``trace`` / ``top`` CLI verbs."""
    verb, rest = argv[0], argv[1:]
    if verb == "trace":
        return trace_main(rest)
    if verb == "top":
        return top_main(rest)
    print(f"unknown telemetry verb {verb!r}", file=sys.stderr)
    return 2
