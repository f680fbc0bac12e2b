"""The telemetry collector: opt-in, zero-cost-when-off instrumentation.

The collector is a probe (:mod:`repro.sim.probes`, DESIGN.md section
13) constructed only when telemetry is requested
(``ManycoreSystem(config, telemetry=...)`` or ``RunSpec(telemetry=True)``;
``repro --telemetry`` and ``REPRO_TELEMETRY=1`` reach it through
``spec_for``), so a plain run never imports, branches on, or calls any
of this.  It sits outside the sanitizer, so it records the sanitized
fabric without being audited by it.  Its seams are observational only:

* message send: assigns coherence transaction ids (stamped onto
  ``CoherenceMsg.txn``) and records begin/end trace events;
* network send: records packet slices and ONet laser mode transitions
  (derived by differencing the transition counter around the inner
  call -- ``AdaptiveSWMRLink`` has ``__slots__``, so its methods cannot
  be instance-patched);
* barrier arrive: records barrier slices;
* run start/end: windowed counter snapshots ride the event queue
  itself as periodic *heartbeat* events that only read state and
  reschedule themselves while the queue is non-empty -- no
  ``EventQueue`` subclass, so telemetry composes with the sanitizer's
  queue and the simulation stays byte-identical (a heartbeat only adds
  an entry to its time's list, preserving the relative order of every
  real event); run end closes the last window and persists.

Byte-identity with telemetry on is pinned by
``tests/telemetry/test_telemetry.py`` and the golden-number suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.coherence.messages import MsgType
from repro.network.types import BROADCAST
from repro.sim.probes import Probe
from repro.telemetry import TELEMETRY_SCHEMA_VERSION
from repro.telemetry.trace import (
    TRACE_SCHEMA_VERSION,
    TraceBuffer,
    event_to_dict,
    trace_header,
)
from repro.telemetry.windows import (
    DEFAULT_WINDOW_CYCLES,
    attach_window_energy,
    take_snapshot,
    window_between,
    windows_header,
)

#: Simulated cycles with no snapshot counter moving after which a run
#: is declared stalled (``_heartbeat`` raises).  A live run always has
#: a message in flight or a core retiring ops, so its counters move at
#: least once per round trip.  The longest zero-load round trip is on
#: the paper's 1024-core chip: a miss whose home directory and memory
#: controller sit across the chip, whose line EMesh-Pure must invalidate
#: with 1023 serialized two-flit unicasts -- under 3,000 cycles in all.
#: Healthy runs (every app on six networks at w8/0.2, four apps on six
#: networks at w16/0.6, barnes on three networks at w32/0.02) never
#: held every counter still for more than 112 cycles.
#: Given in cycles, not windows, so ``window_cycles=1`` stays bounded
#: too: a stalled run stops within 20,000 windows (about 60 MB).
STALL_CYCLES = 20_000

#: Transaction-opening and -closing message types (begin on the request
#: leaving the L2, end on the data reply leaving the home directory).
_TXN_OPEN = (MsgType.SH_REQ, MsgType.EX_REQ)
_TXN_CLOSE = (MsgType.SH_REP, MsgType.EX_REP)


@dataclass(frozen=True)
class TelemetryConfig:
    """How one run's telemetry is collected and (optionally) persisted.

    ``out_dir`` of ``None`` keeps everything in memory (bare
    ``ManycoreSystem`` users, the fuzzer's timeline capture); the
    experiment layer passes the telemetry root plus the spec's content
    hash as ``run_id`` so artifacts land next to the result store.
    """

    run_id: str | None = None
    label: str = ""
    out_dir: str | Path | None = None
    #: window length in simulated cycles.
    window_cycles: int = DEFAULT_WINDOW_CYCLES


class TelemetryCollector(Probe):
    """Per-system metrics/trace recorder probe (see module docstring)."""

    kind = "telemetry"

    def __init__(self, system, config: TelemetryConfig | None = None) -> None:
        self.system = system
        self.config = config if config is not None else TelemetryConfig()
        self.window_cycles = self.config.window_cycles
        if self.window_cycles < 1:
            raise ValueError(
                f"telemetry window must be >= 1 cycle, got {self.window_cycles}"
            )
        self.trace = TraceBuffer()
        #: closed window records, oldest first.
        self.windows: list[dict] = []
        self._prev_snapshot = None
        #: the last heartbeat cycle at which some counter had moved
        self._moved_at = 0
        #: (requester core, address) -> open transaction id
        self._open_txns: dict[tuple[int, int], int] = {}
        self._next_txn = 1
        self._barrier_first: dict[int, int] = {}
        self._barrier_latest: dict[int, int] = {}
        self.result = None
        self.out_path: Path | None = None

    # ------------------------------------------------------------------
    # fabric seams
    # ------------------------------------------------------------------
    def send_msg(self, inner, msg, time: int) -> None:
        now = self.system.eventq.now
        ts = time if time > now else now
        mt = msg.mtype
        if mt in _TXN_OPEN:
            tid = self._next_txn
            self._next_txn += 1
            msg.txn = tid
            self._open_txns[(msg.sender, msg.address)] = tid
            self.trace.record(
                "txn_begin", ts, 0, f"{mt.name} @{msg.address}", tid,
                {"core": msg.sender, "address": msg.address},
            )
        elif mt in _TXN_CLOSE:
            tid = self._open_txns.pop((msg.dest, msg.address), None)
            if tid is not None:
                msg.txn = tid
                self.trace.record(
                    "txn_end", ts, 0, f"{mt.name} @{msg.address}", tid,
                    {"core": msg.dest, "address": msg.address},
                )
        inner(msg, time)

    def net_send(self, inner, src, dst, size_bits, ts):
        stats = self.system.network.stats
        transitions_before = stats.onet_mode_transitions
        deliveries = inner(src, dst, size_bits, ts)
        transitions = stats.onet_mode_transitions - transitions_before
        if transitions:
            cluster_of = getattr(self.system.network, "_cluster_of_core", None)
            self.trace.record(
                "laser", ts, 0, "laser mode transition", None,
                {
                    "count": transitions,
                    "cluster": cluster_of[src] if cluster_of else None,
                },
            )
        last_arrival = ts
        for _, arrival in deliveries:
            if arrival > last_arrival:
                last_arrival = arrival
        if dst == BROADCAST:
            self.trace.record(
                "bcast", ts, last_arrival - ts, f"bcast<{src}", None,
                {"src": src, "receivers": len(deliveries)},
            )
        else:
            self.trace.record(
                "pkt", ts, last_arrival - ts, f"pkt {src}->{dst}", None,
                {"src": src, "dst": dst, "bits": size_bits},
            )
        return deliveries

    def arrive(self, inner, barrier_id: int, now: int, resume) -> None:
        barriers = self.system.barriers
        if barrier_id not in self._barrier_first:
            self._barrier_first[barrier_id] = now
            self._barrier_latest[barrier_id] = now
        elif now > self._barrier_latest[barrier_id]:
            self._barrier_latest[barrier_id] = now
        completed_before = barriers.barriers_completed
        inner(barrier_id, now, resume)
        if barriers.barriers_completed != completed_before:
            t0 = self._barrier_first.pop(barrier_id)
            t1 = self._barrier_latest.pop(barrier_id) + barriers.release_latency
            self.trace.record(
                "barrier", t0, t1 - t0, f"barrier {barrier_id}", None,
                {"id": barrier_id, "participants": barriers.participants},
            )

    # ------------------------------------------------------------------
    # run lifecycle
    # ------------------------------------------------------------------
    def run_start(self) -> None:
        eventq = self.system.eventq
        self._prev_snapshot = take_snapshot(self.system, eventq.now)
        self._moved_at = eventq.now
        eventq.schedule(eventq.now + self.window_cycles, self._heartbeat)

    def _heartbeat(self, now: int) -> None:
        """Close one window; re-arm while the simulation is still live.

        An empty queue while this event runs means no event can ever
        fire again (events beget events), so not rescheduling is exactly
        the end-of-run condition -- heartbeats never keep a finished or
        deadlocked simulation artificially alive.  A queue that never
        empties while no counter moves (events that do no work, or a
        ``len()`` that miscounts) raises ``RuntimeError`` once the stall
        reaches ``STALL_CYCLES``.
        """
        system = self.system
        cur = take_snapshot(system, now)
        prev = self._prev_snapshot
        self.windows.append(window_between(prev, cur, len(system.eventq)))
        self._prev_snapshot = cur
        if (cur.net != prev.net or cur.caches != prev.caches
                or cur.directory != prev.directory or cur.memory != prev.memory
                or cur.cores != prev.cores or cur.onet_busy != prev.onet_busy):
            self._moved_at = now
        elif now - self._moved_at >= STALL_CYCLES:
            raise RuntimeError(
                f"telemetry: no counter has moved since cycle "
                f"{self._moved_at} ({now - self._moved_at} cycles) while "
                f"the event queue reports {len(system.eventq)} pending; "
                f"the run is stalled"
            )
        if len(system.eventq) > 0:
            system.eventq.schedule(now + self.window_cycles, self._heartbeat)

    def run_end(self, result) -> None:
        """Close the final partial window, price windows, persist."""
        self.result = result
        system = self.system
        cur = take_snapshot(system, system.eventq.now)
        prev = self._prev_snapshot
        if prev is not None and (
            cur.t > prev.t or cur.net != prev.net or cur.caches != prev.caches
        ):
            self.windows.append(window_between(prev, cur, 0))
            self._prev_snapshot = cur
        attach_window_energy(self.windows, result, system.config)
        if self.config.out_dir is not None:
            self.out_path = self._write(result)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _write(self, result) -> Path:
        run_id = self.config.run_id or "adhoc"
        out = Path(self.config.out_dir) / run_id
        out.mkdir(parents=True, exist_ok=True)
        meta = {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "trace_schema": TRACE_SCHEMA_VERSION,
            "run_id": run_id,
            "label": self.config.label,
            "app": result.app,
            "network": result.network,
            "n_cores": result.n_cores,
            "n_compute_cores": result.n_compute_cores,
            "completion_cycles": result.completion_cycles,
            "freq_hz": result.freq_hz,
            "window_cycles": self.window_cycles,
            "n_windows": len(self.windows),
            "trace": trace_header(self.trace),
        }
        (out / "meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n"
        )
        with (out / "windows.jsonl").open("w", encoding="utf-8") as fh:
            fh.write(_dumps(windows_header(self.window_cycles)) + "\n")
            for window in self.windows:
                fh.write(_dumps(window) + "\n")
        with (out / "trace.jsonl").open("w", encoding="utf-8") as fh:
            fh.write(_dumps(trace_header(self.trace)) + "\n")
            for event in self.trace.events():
                fh.write(_dumps(event_to_dict(event)) + "\n")
        return out

    # ------------------------------------------------------------------
    # violation context (sanitizer / fuzzer integration)
    # ------------------------------------------------------------------
    def violation_context(self, n_windows: int = 8,
                          n_events: int = 64) -> dict:
        """The last windows + trace tail, for ``InvariantViolation`` and
        fuzz reproducers.  Works mid-run (deadlocks included): the
        currently open window is closed ephemerally, without mutating
        collector state."""
        windows = list(self.windows[-n_windows:])
        prev = self._prev_snapshot
        if prev is not None:
            cur = take_snapshot(self.system, self.system.eventq.now)
            if cur.t > prev.t or cur.net != prev.net:
                windows.append(
                    window_between(prev, cur, len(self.system.eventq))
                )
                windows = windows[-n_windows:]
        return {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "window_cycles": self.window_cycles,
            "windows": windows,
            "trace_tail": self.trace.tail(n_events),
            "trace_dropped": self.trace.dropped,
        }


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
