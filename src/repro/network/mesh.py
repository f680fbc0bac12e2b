"""The electrical baselines: EMesh-Pure and EMesh-BCast (Section V-A).

Both are 2-D packet-switched meshes with XY dimension-order (oblivious)
routing, wormhole flow control and a single virtual channel, 1-cycle
routers and 1-cycle links (Table I).  They differ only in broadcast
handling:

* **EMesh-Pure**: no multicast hardware -- a broadcast is the source
  injecting N-1 back-to-back unicasts, which serializes at the source
  router and "severely degrad[es] performance for broadcast-heavy
  applications".
* **EMesh-BCast**: routers replicate flits along an XY spanning tree,
  so a broadcast costs one tree traversal.

Hot-path note: ``_traverse`` is called once per mesh packet (and once
per EMesh-Pure broadcast destination).  Port state lives in flat
integer arrays indexed by ``core * 4 + direction``: ``_free_at`` holds
each output port's next free cycle, and a route leg is a tuple of such
indices, so the per-hop reservation is pure list arithmetic -- the same
arithmetic as ``PortResource.reserve``, without the object or the call.
A packet walks its X leg, then its Y leg, straight from a table shared
by every mesh of the same width (:func:`_xy_legs`): no network keeps a
table of the core pairs it has routed, so a fresh network routes at
warm speed and its memory does not grow with the pairs a run touches.

Port occupancy is counted once per leg, not once per hop: a leg walk
adds the packet's flits to that leg's slot in ``_xleg_flits`` or
``_yleg_flits``, and ``_busy`` holds only the per-port writes that are
not leg walks (EMesh-BCast tree edges, fault injection).
:meth:`_MeshBase.port_busy` expands the leg counts back into per-port
totals for the end-of-run port audit.
"""

from __future__ import annotations

from collections import deque
from functools import cache

from repro.network.engine import HOP_LATENCY, Network
from repro.network.topology import MeshTopology
from repro.network.types import Packet

#: Output-port direction indices in the flat port array.
_EAST, _WEST, _SOUTH, _NORTH = 0, 1, 2, 3


@cache
def _xy_legs(width: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The X and Y legs of every XY route on a ``width``-wide mesh.

    ``xlegs[core * width + col]`` holds the output ports crossed going
    from ``core`` along its row to column ``col``; ``ylegs[core * width
    + row]`` those going from ``core`` along its column to row ``row``.
    Geometry alone fixes them, so one table per width serves every
    network, built on first use.  Legs are slices of one port line per
    row and column, so legs and the routes concatenated from them share
    that line's int objects.
    """
    n = width * width

    def line(cores: range, d: int) -> tuple[int, ...]:
        return tuple(c * 4 + d for c in cores)

    rows = [range(y * width, (y + 1) * width) for y in range(width)]
    cols = [range(x, n, width) for x in range(width)]
    east = [line(r, _EAST) for r in rows]
    west = [line(r, _WEST) for r in rows]
    south = [line(c, _SOUTH) for c in cols]
    north = [line(c, _NORTH) for c in cols]
    xlegs: list[tuple[int, ...]] = []
    ylegs: list[tuple[int, ...]] = []
    for core in range(n):
        x, y = core % width, core // width
        # A forward leg is a slice of its row's (column's) port line; a
        # backward leg is a slice of the opposite line, read in reverse.
        e, w, s, nn = east[y], west[y], south[x], north[x]
        xlegs += [e[x:c] if c >= x else w[c + 1:x + 1][::-1]
                  for c in range(width)]
        ylegs += [s[y:r] if r >= y else nn[r + 1:y + 1][::-1]
                  for r in range(width)]
    return tuple(xlegs), tuple(ylegs)


class _MeshBase(Network):
    """Shared XY-routed mesh machinery."""

    def __init__(self, topology: MeshTopology, flit_bits: int = 64) -> None:
        super().__init__(topology, flit_bits)
        self._n_cores = topology.n_cores
        # Flat port-state array: entry core*4 + direction is the output
        # port of that core's router facing that neighbour, holding the
        # cycle the port next becomes free.
        self._free_at: list[int] = [0] * (topology.n_cores * 4)
        # The width's shared X/Y leg tables: a route is walked straight
        # from them, so no per-network route table grows with the core
        # pairs a run touches.
        self._width = topology.width
        self._xlegs, self._ylegs = _xy_legs(topology.width)
        # Occupied cycles, counted once per leg walk: slot k of
        # ``_xleg_flits`` is the flits sent down ``_xlegs[k]`` (likewise
        # for Y).  ``_busy`` takes the per-port writes that are not leg
        # walks.  ``port_busy`` sums the three per port.
        self._xleg_flits: list[int] = [0] * len(self._xlegs)
        self._yleg_flits: list[int] = [0] * len(self._ylegs)
        self._busy: list[int] = [0] * (topology.n_cores * 4)

    def port_busy(self) -> list[int]:
        """Occupied cycles of every output port, indexed like ``_free_at``:
        the direct ``_busy`` writes plus each leg's flits on every port
        of that leg (the sanitizer's port audit reads this)."""
        busy = list(self._busy)
        for legs, flits in ((self._xlegs, self._xleg_flits),
                            (self._ylegs, self._yleg_flits)):
            for leg, n in zip(legs, flits):
                if n:
                    for i in leg:
                        busy[i] += n
        return busy

    def _port(self, u: int, v: int) -> int:
        """Index of the output port of router ``u`` facing neighbour ``v``."""
        delta = v - u
        if delta == 1:
            d = _EAST
        elif delta == -1:
            d = _WEST
        elif delta == self.topology.width:
            d = _SOUTH
        elif delta == -self.topology.width:
            d = _NORTH
        else:
            raise ValueError(f"cores {u} and {v} are not mesh neighbours")
        return u * 4 + d

    def _leg_indices(self, src: int, dst: int) -> tuple[int, int]:
        """``(xi, yi)``: the XY route src -> dst is ``_xlegs[xi]`` (to
        ``dst``'s column) followed by ``_ylegs[yi]`` (from that corner)."""
        w = self._width
        col = dst % w
        return src * w + col, (src - src % w + col) * w + dst // w

    def _traverse(self, src: int, dst: int, t: int, n_flits: int) -> int:
        """Route one packet src->dst starting at time t; returns arrival.

        Reserves each output port along the XY route -- the X leg to
        ``dst``'s column, then the Y leg from that corner, read straight
        from the shared leg tables -- and counts router/link flit
        traversals for the energy model.  Occupancy is counted once per
        leg (``_xleg_flits``/``_yleg_flits``), not per hop, so a hop is
        one ``_free_at`` read and write.  Reservations are inlined (same
        arithmetic as ``PortResource.reserve``) -- this loop runs once
        per hop of every mesh packet and the call and attribute overhead
        dominated it.
        """
        w = self._width
        col = dst % w
        xi = src * w + col
        yi = (src - src % w + col) * w + dst // w
        xleg = self._xlegs[xi]
        yleg = self._ylegs[yi]
        hops = len(xleg) + len(yleg)
        s = self.stats
        s.router_flit_traversals += n_flits * (hops + 1)  # incl. ejection router
        s.link_flit_traversals += n_flits * hops
        s.router_arbitrations += hops + 1
        self._xleg_flits[xi] += n_flits
        self._yleg_flits[yi] += n_flits
        free_at = self._free_at
        hop = HOP_LATENCY
        head = t
        for i in xleg:
            free = free_at[i]
            if free > head:
                head = free
            free_at[i] = head + n_flits
            head += hop
        for i in yleg:
            free = free_at[i]
            if free > head:
                head = free
            free_at[i] = head + n_flits
            head += hop
        # head has arrived; the tail needs the serialization time.
        return head + n_flits

    def _send_unicast(self, pkt: Packet, n_flits: int) -> list[tuple[int, int]]:
        arrival = self._traverse(pkt.src, pkt.dst, pkt.time, n_flits)
        return [(pkt.dst, arrival)]


class EMeshPure(_MeshBase):
    """Plain electrical mesh: broadcasts are N-1 serialized unicasts."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # src -> ((dst, xi, yi), ...) for every dst -- the leg indices of
        # each route -- plus the total hop count, built on a source's
        # first broadcast.  A broadcast here is N-1 unicast traversals,
        # so the per-destination route lookup is the dominant cost
        # without this.
        self._bcast_plan: dict[int, tuple] = {}

    @property
    def name(self) -> str:
        return "EMesh-Pure"

    def _bcast_plan_for(self, src: int) -> tuple:
        legs = tuple(
            (dst, *self._leg_indices(src, dst))
            for dst in range(self._n_cores)
            if dst != src
        )
        xlegs, ylegs = self._xlegs, self._ylegs
        return legs, sum(len(xlegs[xi]) + len(ylegs[yi]) for _, xi, yi in legs)

    def _send_broadcast(self, pkt: Packet, n_flits: int) -> list[tuple[int, int]]:
        # The source's network interface injects one unicast per
        # destination; they contend for the source's output ports and
        # serialize there, which is exactly the EMesh-Pure penalty.
        # Same reservation math and leg counting as _traverse, run over
        # the precomputed per-source plan (destinations in ascending
        # order, as always).
        src = pkt.src
        plan = self._bcast_plan.get(src)
        if plan is None:
            plan = self._bcast_plan[src] = self._bcast_plan_for(src)
        legs, total_hops = plan
        s = self.stats
        n_dsts = len(legs)
        s.router_flit_traversals += n_flits * (total_hops + n_dsts)
        s.link_flit_traversals += n_flits * total_hops
        s.router_arbitrations += total_hops + n_dsts
        t = pkt.time
        free_at = self._free_at
        xlegs, ylegs = self._xlegs, self._ylegs
        xleg_flits, yleg_flits = self._xleg_flits, self._yleg_flits
        hop = HOP_LATENCY
        deliveries = []
        append = deliveries.append
        for dst, xi, yi in legs:
            xleg_flits[xi] += n_flits
            yleg_flits[yi] += n_flits
            head = t
            for i in xlegs[xi]:
                free = free_at[i]
                if free > head:
                    head = free
                free_at[i] = head + n_flits
                head += hop
            for i in ylegs[yi]:
                free = free_at[i]
                if free > head:
                    head = free
                free_at[i] = head + n_flits
                head += hop
            append((dst, head + n_flits))
        return deliveries


class EMeshBCast(_MeshBase):
    """Electrical mesh with native multicast at each router."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # src -> (edges, order): the spanning tree flattened breadth-
        # first into (parent_slot, port) pairs plus the canonical
        # delivery order as (core, slot) pairs; built on a source's
        # first broadcast.
        self._bcast_plan: dict[int, tuple] = {}

    @property
    def name(self) -> str:
        return "EMesh-BCast"

    def _bcast_plan_for(self, src: int) -> tuple:
        """Flatten the XY spanning tree rooted at ``src`` for replay.

        Nodes get *slots* in breadth-first visitation order (root = 0);
        ``edges[i]`` is ``(parent_slot, port_index)`` for the node in
        slot ``i + 1``, so a single pass over ``edges`` computes every
        head time (a parent's slot always precedes its children's).
        """
        topo = self.topology
        tree = topo.broadcast_tree(src)
        slot_of = {src: 0}
        edges: list[tuple[int, int]] = []
        frontier = deque((src,))
        while frontier:
            node = frontier.popleft()
            parent_slot = slot_of[node]
            for child in tree[node]:
                slot_of[child] = len(edges) + 1
                edges.append((parent_slot, self._port(node, child)))
                frontier.append(child)
        order = tuple(
            (core, slot_of[core]) for core in topo.broadcast_order(src)
        )
        return tuple(edges), order

    def _send_broadcast(self, pkt: Packet, n_flits: int) -> list[tuple[int, int]]:
        # Breadth-first replay of the (precomputed) XY spanning tree.
        # Each tree edge is an independently reserved port, so
        # replication fans out in parallel (native hardware multicast).
        # Per-node timing is traversal-order-independent (each tree edge
        # is reserved exactly once and a child's head time depends only
        # on its parent's), so the flattened BFS replay computes the
        # same arrivals the engine always has.  Deliveries are emitted
        # in the topology's canonical ``broadcast_order``: that order
        # decides event-queue tie-breaks downstream and is frozen as
        # part of the determinism contract.
        src = pkt.src
        plan = self._bcast_plan.get(src)
        if plan is None:
            plan = self._bcast_plan[src] = self._bcast_plan_for(src)
        edges, order = plan
        n_edges = len(edges)
        s = self.stats
        s.router_flit_traversals += n_flits * (n_edges + 1)  # + source router
        s.link_flit_traversals += n_flits * n_edges
        s.router_arbitrations += n_edges + 1
        free_at = self._free_at
        busy = self._busy
        heads = [0] * (n_edges + 1)
        heads[0] = pkt.time
        slot = 1
        hop = HOP_LATENCY
        for parent_slot, i in edges:
            head = heads[parent_slot]
            free = free_at[i]
            if free > head:
                head = free
            free_at[i] = head + n_flits
            busy[i] += n_flits
            heads[slot] = head + hop
            slot += 1
        return [(core, heads[slot] + n_flits) for core, slot in order]
