"""The manycore chip: cores + caches + directories + network, one clock.

:class:`ManycoreSystem` is the "fabric" the coherence controllers talk
through.  Every protocol message is scheduled onto the event queue at
its logical send time, so the (stateful, reservation-based) network
model always sees time-ordered sends even though cores sprint through
compute phases inline -- the same loose-synchronization trick Graphite
uses, with the network as the serialization point.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import fields
from typing import TYPE_CHECKING

from repro.coherence.directory import DirectoryController
from repro.coherence.l2controller import CacheCounters, L2Controller
from repro.coherence.memory import MemoryController
from repro.coherence.messages import MSG_BITS, CoherenceMsg, MsgType
from repro.coherence.sequencing import DirectorySequencer
from repro.network.atac import AtacNetwork
from repro.network.types import BROADCAST
from repro.sim.barrier import BarrierManager
from repro.sim.config import SystemConfig, make_network
from repro.sim.core_model import CoreModel
from repro.sim.eventq import EventQueue
from repro.sim.probes import end_run, install, start_run
from repro.sim.results import FREQ_HZ, RunResult
from repro.workloads.trace import CoreTrace

if TYPE_CHECKING:
    from repro.telemetry.collector import TelemetryConfig

#: Message types delivered to a memory controller or to a home
#: directory; every other unicast goes to an L2 controller.
_MEMCTRL_TYPES = (MsgType.MEM_READ, MsgType.MEM_WRITE)
_DIRECTORY_TYPES = (
    MsgType.SH_REQ, MsgType.EX_REQ, MsgType.EVICT_NOTIFY,
    MsgType.DIRTY_WB, MsgType.INV_ACK, MsgType.FLUSH_REP,
    MsgType.WB_REP, MsgType.MEM_DATA, MsgType.MEM_WRITE_ACK,
)
#: Bound once: ``_inject`` tests it per message, and an enum member read
#: through its class costs about ten times a module-global read.
_INV_BCAST = MsgType.INV_BCAST
_CACHE_FIELDS = tuple(f.name for f in fields(CacheCounters))


class ManycoreSystem:
    """One configured chip, ready to run one workload.

    A broadcast is delivered with one event per distinct arrival time,
    dispatching to the member caches inline (DESIGN.md section 9);
    :class:`repro.sanitizer.fuzz.ReferenceBroadcastSystem` is the
    one-event-per-core oracle it is checked against.

    ``sanitize`` attaches the runtime invariant checker
    (:mod:`repro.sanitizer`, DESIGN.md section 10): every event is then
    audited for cross-layer consistency -- SWMR, directory/cache
    agreement, sequencing order, flit conservation -- at roughly 2-3x
    simulation cost, raising :class:`InvariantViolation` on failure.

    ``telemetry`` attaches the observability collector
    (:mod:`repro.telemetry`, DESIGN.md section 12): windowed counter
    snapshots plus a bounded event trace, simulation byte-identical.
    Accepts ``True`` or a
    :class:`~repro.telemetry.collector.TelemetryConfig` (to control the
    window length and output directory).

    Any falsy value means off.  The constructor reads no environment
    variable: the experiment layer's ``spec_for`` is the one place that
    turns ``REPRO_SANITIZE``/``REPRO_TELEMETRY`` into these arguments.

    Both observers are probes (:mod:`repro.sim.probes`, DESIGN.md
    section 13), installed in ``probes.ORDER``: sanitizer innermost,
    telemetry around it; fault injectors armed after construction go
    outermost.  With both off, nothing is imported or installed, and
    every seam is this class's own method.
    """

    def __init__(self, config: SystemConfig, sanitize: bool = False,
                 telemetry: TelemetryConfig | bool = False) -> None:
        self.config = config
        self.topology = config.topology
        self.network = make_network(config)
        self.eventq = EventQueue()

        topo = self.topology
        self.compute_cores = topo.compute_cores()
        if not self.compute_cores:
            raise ValueError(
                "degenerate topology: every core slot is a memory "
                "controller (cluster_width=1); use clusters of >= 4 cores"
            )
        self._compute_set = set(self.compute_cores)
        self._n_compute = len(self.compute_cores)
        self.memctrl_positions = topo.memctrl_cores()
        self._cluster_memctrl = {
            c: topo.memctrl_core(c) for c in range(topo.n_clusters)
        }
        # Flat per-core tables: home_of / slice_of_home / memctrl_for run
        # once per coherence message, so they must be plain indexed
        # lookups rather than repeated topology arithmetic.
        #: directory slice (= cluster) of each core, indexed by core id;
        #: the coherence controllers index it directly
        self.slice_of_core = tuple(
            topo.cluster_of(c) for c in range(topo.n_cores)
        )
        self._memctrl_of_core = tuple(
            self._cluster_memctrl[s] for s in self.slice_of_core
        )

        # The controllers refer back through a weak proxy: the system
        # owns them, and a strong back-reference would make every chip a
        # reference cycle that outlives its run (DESIGN.md section 9).
        fabric = weakref.proxy(self)
        self.memctrls = {
            pos: MemoryController(pos, fabric)
            for pos in self.memctrl_positions
        }

        # Built after the tables above and the sequencer: the coherence
        # controllers read them, with the config and topology, at
        # construction.
        self.sequencer = DirectorySequencer(topo.n_clusters)
        self.caches: dict[int, L2Controller] = {}
        self.directories: dict[int, DirectoryController] = {}
        for core in self.compute_cores:
            self.caches[core] = L2Controller(core, fabric)
            self.directories[core] = DirectoryController(core, fabric)
        self.cores: dict[int, CoreModel] = {}
        self.barriers: BarrierManager | None = None
        # Per message type: the controllers (by core) that handle it on
        # delivery, and its packet size.  ``_inject`` reads ``.handle``
        # off the controller per message, so a patched handler is seen.
        owners = {mt: self.caches for mt in MsgType}
        owners.update(dict.fromkeys(_MEMCTRL_TYPES, self.memctrls))
        owners.update(dict.fromkeys(_DIRECTORY_TYPES, self.directories))
        self._inject_table = {
            mt: (owners[mt], MSG_BITS[mt]) for mt in MsgType
        }

        #: Installed observers, innermost first (see repro.sim.probes).
        self.probes: tuple = ()
        if sanitize:
            # Imported only when enabled: a plain run never imports
            # the sanitizer or the telemetry package.
            from repro.sanitizer.core import Sanitizer

            install(self, Sanitizer(self))

        self.telemetry = None
        if telemetry:
            from repro.telemetry.collector import (
                TelemetryCollector, TelemetryConfig,
            )

            self.telemetry = TelemetryCollector(
                self, telemetry if isinstance(telemetry, TelemetryConfig)
                else None,
            )
            install(self, self.telemetry)

    # ------------------------------------------------------------------
    # Fabric interface used by the coherence controllers
    # ------------------------------------------------------------------
    def home_of(self, address: int) -> int:
        """Static home core for a line (directory distributed over all
        compute cores, Section III-B)."""
        return self.compute_cores[address % self._n_compute]

    def memctrl_for(self, core: int) -> int:
        """The memory controller nearest a home core: its own cluster's."""
        return self._memctrl_of_core[core]

    def slice_of_home(self, core: int) -> int:
        """Directory slice (= cluster) of a home core, for seq numbers."""
        return self.slice_of_core[core]

    def n_broadcast_ackers(self, home: int) -> int:
        """Cores that will acknowledge a Dir_kB broadcast from ``home``:
        every compute core (including the home itself, whose own L2
        receives the invalidation by local loopback)."""
        return len(self.compute_cores)

    # ------------------------------------------------------------------
    def send_msg(self, msg: CoherenceMsg, time: int) -> None:
        """Queue a protocol message for network injection at ``time``."""
        eventq = self.eventq
        now = eventq.now
        eventq.schedule(time if time > now else now, self._inject, msg)

    def _inject(self, msg: CoherenceMsg, now: int) -> None:
        mtype = msg.mtype
        owners, size_bits = self._inject_table[mtype]
        if mtype is _INV_BCAST:
            deliveries = self.network.send(msg.sender, BROADCAST,
                                           size_bits, now)
            # One event per distinct arrival time instead of one per
            # core.  Within one arrival the member caches are dispatched
            # inline in delivery-list order -- exactly the order per-core
            # events would run in, since they would be scheduled back to
            # back here, so no foreign event can interleave (DESIGN.md
            # sec. 9).
            compute = self._compute_set
            schedule = self.eventq.schedule
            groups: dict[int, list[int]] = {}
            for core, arrival in deliveries:
                if core in compute:
                    group = groups.get(arrival)
                    if group is None:
                        groups[arrival] = [core]
                    else:
                        group.append(core)
            deliver = self._deliver_broadcast_group
            for arrival, cores in groups.items():
                schedule(arrival, deliver, (msg, cores))
            # Local loopback: the home's own L2 must also see the
            # invalidation (the network never delivers to the sender).
            if msg.sender in self._compute_set:
                self.eventq.schedule(
                    now + 1, self.caches[msg.sender].handle, msg
                )
            return
        [(core, arrival)] = self.network.send(msg.sender, msg.dest,
                                              size_bits, now)
        self.eventq.schedule(arrival, owners[core].handle, msg)

    def _deliver_broadcast_group(
        self, batch: tuple[CoherenceMsg, list[int]], now: int
    ) -> None:
        """Dispatch one broadcast to every member cache of one arrival
        group, inline, in delivery order."""
        msg, cores = batch
        caches = self.caches
        for core in cores:
            caches[core].handle_broadcast(msg, now)

    # ------------------------------------------------------------------
    # Running workloads
    # ------------------------------------------------------------------
    def run(self, traces: dict[int, CoreTrace], app: str = "workload",
            max_events: int | None = None) -> RunResult:
        """Execute one trace per compute core to completion."""
        missing = self._compute_set - set(traces)
        if missing:
            raise ValueError(
                f"{len(missing)} compute cores have no trace "
                f"(e.g. core {min(missing)})"
            )
        extra = set(traces) - self._compute_set
        if extra:
            raise ValueError(
                f"traces supplied for non-compute cores: {sorted(extra)[:4]}"
            )
        # Hot-path note: the run, event loop and all, holds the cyclic
        # collector off.  A run makes no cyclic garbage, so each pass
        # would only rescan the live chip (8-11 % of an ocean_non_contig
        # run at w16-w32).  The pass the run's allocations are owed then
        # comes once the caller has dropped the system, and a probe-free
        # chip is already freed by then, so it is short (DESIGN.md
        # section 9).  The caller's collector state comes back even if
        # the run raises.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.barriers = BarrierManager(len(self.compute_cores),
                                           self.eventq)
            for core in self.compute_cores:
                cm = CoreModel(core, traces[core], self.caches[core],
                               self.barriers, self.eventq)
                self.cores[core] = cm
                cm.start()
            start_run(self)
            self.eventq.run(max_events=max_events)
            not_done = [c for c, cm in self.cores.items() if not cm.done]
            if not_done:
                raise RuntimeError(
                    f"deadlock: {len(not_done)} cores never finished "
                    f"(e.g. core {not_done[0]}); event queue drained"
                )
            result = self._collect(app)
            end_run(self, result)
        finally:
            if was_enabled:
                gc.enable()
        return result

    def counter_totals(self) -> tuple[tuple[int, ...], ...]:
        """Chip-wide sums of the per-controller event counters.

        Returns ``(caches, directory, memory, cores)``: ``caches`` in
        ``CacheCounters`` field order, ``directory`` as (lookups,
        updates, unicast invalidations, broadcast invalidations),
        ``memory`` as (reads, writes) and ``cores`` as (instructions,
        stalled cycles).  It only reads counters, so telemetry samples
        it mid-run; the telemetry window groups follow this order.
        """
        caches = [0] * len(_CACHE_FIELDS)
        for ctrl in self.caches.values():
            cc = ctrl.counters
            for i, name in enumerate(_CACHE_FIELDS):
                caches[i] += getattr(cc, name)
        lookups = updates = inv_u = inv_b = 0
        for d in self.directories.values():
            st = d.stats
            lookups += st.lookups
            updates += st.updates
            inv_u += st.invalidations_unicast
            inv_b += st.invalidations_broadcast
        reads = writes = 0
        for m in self.memctrls.values():
            reads += m.reads
            writes += m.writes
        instructions = stalled = 0
        for cm in self.cores.values():
            instructions += cm.instructions
            stalled += cm.stalled_cycles
        return (tuple(caches), (lookups, updates, inv_u, inv_b),
                (reads, writes), (instructions, stalled))

    def _collect(self, app: str) -> RunResult:
        completion = max(cm.done_at for cm in self.cores.values())
        caches, directory, memory, cores = self.counter_totals()
        dir_lookups, dir_updates, dir_inv_u, dir_inv_b = directory
        mem_reads, mem_writes = memory
        instructions, stalled = cores
        onet_util = 0.0
        if isinstance(self.network, AtacNetwork) and completion > 0:
            onet_util = self.network.onet_utilization(completion)
        per_core = [self.cores[c].instructions for c in self.compute_cores]
        return RunResult(
            app=app,
            network=self.network.name,
            completion_cycles=completion,
            n_cores=self.topology.n_cores,
            n_compute_cores=len(self.compute_cores),
            total_instructions=instructions,
            per_core_instructions=per_core,
            stalled_cycles=stalled,
            network_stats=self.network.stats,
            cache_counters=CacheCounters(*caches),
            dir_lookups=dir_lookups,
            dir_updates=dir_updates,
            dir_inv_unicast=dir_inv_u,
            dir_inv_broadcast=dir_inv_b,
            mem_reads=mem_reads,
            mem_writes=mem_writes,
            barriers_completed=self.barriers.barriers_completed,
            freq_hz=FREQ_HZ,
            onet_utilization=onet_util,
            flit_bits=self.config.flit_bits,
            hardware_sharers=self.config.hardware_sharers,
            protocol=self.config.protocol.value,
        )
