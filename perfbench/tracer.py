"""Layer tracer for the benchmark's traced run.

Patches the simulator's layer entry points from outside -- on their
classes or modules, and ``Network.send`` on each network instance, the
way the sanitizer hooks it -- and restores them on ``close()``.  Nothing
under ``src/`` knows it is being traced.

Two kinds of boundary:

* **spans** at the coarse boundaries (unit, trace generation, system
  build, ``EventQueue.run``, energy pricing, store access).  Each keeps
  a record ``[name, start, end, parent, unit]`` in memory; ``parent`` is
  the index of the enclosing span (-1 at top level) and ``unit`` the
  per-unit id.  They are written out by :meth:`Tracer.write`.
* **counters** at the per-message boundaries (coherence handlers,
  ``Network.send``, content hashing): a call count and self time only,
  since a barnes unit makes about a million of them.

Self time is a boundary's duration minus the time of the boundaries
nested in it, kept with one stack of child-time accumulators.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.coherence.directory import DirectoryController
from repro.coherence.l2controller import L2Controller
from repro.coherence.memory import MemoryController
from repro.energy.accounting import EnergyModel
from repro.experiments.runspec import LoadPointSpec, RunSpec
from repro.experiments.store import ResultStore
from repro.sim.eventq import EventQueue
from repro.sim.system import ManycoreSystem
from repro.workloads import splash, synthetic

#: (owner, attribute, boundary name, full span?) patched on the owner.
CLASS_BOUNDARIES = (
    (splash, "generate_traces", "workloads.gen", True),
    (synthetic.SyntheticTraffic, "generate", "workloads.gen", True),
    (EventQueue, "run", "sim.run", True),
    (L2Controller, "access", "coherence.access", False),
    (L2Controller, "handle", "coherence.l2", False),
    (L2Controller, "handle_broadcast", "coherence.bcast", False),
    (DirectoryController, "handle", "coherence.dir", False),
    (MemoryController, "handle", "coherence.mem", False),
    (EnergyModel, "evaluate", "energy.eval", True),
    (RunSpec, "content_hash", "experiments.hash", False),
    (LoadPointSpec, "content_hash", "experiments.hash", False),
    (ResultStore, "save", "experiments.store", True),
    (ResultStore, "load", "experiments.store", True),
)

#: Every boundary the tracer reports, in report order.
BOUNDARIES = (
    "unit", "workloads.gen", "sim.build", "sim.run",
    "coherence.access", "coherence.l2", "coherence.bcast", "coherence.dir",
    "coherence.mem", "network.send", "energy.eval",
    "experiments.hash", "experiments.store",
)


class Tracer:
    """Times layer boundaries while installed; see the module doc."""

    def __init__(self) -> None:
        #: boundary -> [calls, total_s, self_s]
        self.stats = {name: [0, 0.0, 0.0] for name in BOUNDARIES}
        self.spans: list[list] = []
        # One frame per open boundary: [child seconds, enclosing span].
        self._frames: list[list] = [[0.0, -1]]
        self._unit = -1
        self._restore: list[tuple[object, str, object]] = []
        #: networks watched since the last take(), for their ONet share
        self._networks: list = []

    # -- wrapping --------------------------------------------------------
    def wrap(self, name: str, fn, span: bool, new_unit: bool = False):
        """``fn`` timed as boundary ``name``."""
        stat = self.stats[name]
        frames = self._frames
        spans = self.spans
        clock = time.perf_counter

        if not span:
            def counted(*args, **kwargs):
                frame = [0.0, frames[-1][1]]
                frames.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    frames.pop()
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - frame[0]
                    frames[-1][0] += elapsed
            return counted

        def spanned(*args, **kwargs):
            if new_unit:
                self._unit += 1
            record = [name, 0.0, 0.0, frames[-1][1], self._unit]
            frame = [0.0, len(spans)]
            spans.append(record)
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                frames.pop()
                record[1] = t0
                record[2] = t1
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                frames[-1][0] += elapsed
        return spanned

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, workload) -> None:
        """Patch every boundary, plus ``workload.run_unit`` as the unit span.

        Must run before any system or network is built: ``Network.send``
        is patched on each instance as its system (or load point) builds
        it.
        """
        for owner, attr, name, span in CLASS_BOUNDARIES:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), span))

        tracer = self
        build = tracer.wrap("sim.build", ManycoreSystem.__init__, span=True)

        def traced_init(system, *args, **kwargs):
            build(system, *args, **kwargs)
            tracer.watch_network(system.network)

        self._patch(ManycoreSystem, "__init__", traced_init)

        run_load_point = synthetic.run_load_point

        def traced_load_point(network, *args, **kwargs):
            tracer.watch_network(network)
            return run_load_point(network, *args, **kwargs)

        self._patch(synthetic, "run_load_point", traced_load_point)
        workload.run_unit = self.wrap("unit", workload.run_unit, span=True,
                                      new_unit=True)
        self._restore.append((workload, "run_unit", None))

    def watch_network(self, network) -> None:
        network.send = self.wrap("network.send", network.send, span=False)
        self._networks.append((network, network.stats))

    def close(self) -> None:
        """Undo every patch, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def take(self) -> dict:
        """Per-boundary ``{calls, total_s, self_s}`` since the last take,
        plus the watched networks' unicast counts (``onet``: ONet
        unicasts, ``unicasts``: all unicasts).

        A load point swaps in a fresh ``NetworkStats`` after warm-up
        while the ONet links keep counting into the first one, so both
        bundles are summed: the totals cover the whole run either way.
        """
        out = {}
        for name, stat in self.stats.items():
            out[name] = {"calls": stat[0], "total_s": stat[1], "self_s": stat[2]}
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0
        bundles = [b for net, first in self._networks
                   for b in ((first,) if net.stats is first else (first, net.stats))]
        out["network.unicasts"] = {
            "onet": sum(b.onet_unicasts for b in bundles),
            "unicasts": sum(b.unicasts_sent for b in bundles),
        }
        self._networks.clear()
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Dump every span, with ``meta``, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "meta": meta,
            "span_fields": ["name", "start_s", "end_s", "parent", "unit"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
