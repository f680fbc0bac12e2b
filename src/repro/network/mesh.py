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

Hot-path note: ``_traverse`` is called once per mesh packet; on the
meshes it *is* ``_send_unicast``, and ``AtacNetwork._send_window``
repeats its walk inline for each unicast of a Fig 3 window (together
with the optical channel and receive port, so a windowed unicast makes
no call at all).  Port state
lives in a flat integer array indexed by ``core * 4 + direction``:
``_free_at`` holds each output port's next free cycle, and a route leg
is a tuple of such indices, so the per-hop reservation is pure list
arithmetic -- the same arithmetic as ``PortResource.reserve``, without
the object or the call.  Every walk of the mesh is a walk of route legs
read from a table shared by every mesh of the same width
(:func:`_xy_legs`): a unicast walks its X leg, then its Y leg; an
EMesh-Pure broadcast walks each destination's two legs in turn; an
EMesh-BCast broadcast walks the source's two row legs, then the two
column legs of every row node -- exactly its XY spanning tree.  No
network keeps a table of the core pairs it has routed or of the sources
it has broadcast from, so a fresh network routes at warm speed and its
memory does not grow with what a run touches.

Port occupancy is counted once per leg walk, not once per hop, in
``_xleg_flits`` and ``_yleg_flits``; :meth:`_MeshBase.port_busy` expands
those counts into per-port totals for the end-of-run port audit.
"""

from __future__ import annotations

from functools import cache

from repro.network.engine import HOP_LATENCY, Network
from repro.network.topology import MeshTopology

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
        # Flat port-state array: entry core*4 + direction is the output
        # port of that core's router facing that neighbour, holding the
        # cycle the port next becomes free.
        self._free_at: list[int] = [0] * (topology.n_cores * 4)
        # The width's shared X/Y leg tables: every walk reads them, so
        # no per-network table grows with the core pairs a run touches.
        self._width = topology.width
        self._xlegs, self._ylegs = _xy_legs(topology.width)
        # Occupied cycles, counted once per leg walk: slot k of
        # ``_xleg_flits`` is the flits sent down ``_xlegs[k]`` (likewise
        # for Y).  ``port_busy`` expands them per port.
        self._xleg_flits: list[int] = [0] * len(self._xlegs)
        self._yleg_flits: list[int] = [0] * len(self._ylegs)

    def port_busy(self) -> list[int]:
        """Occupied cycles of every output port, indexed like ``_free_at``:
        each leg's flits on every port of that leg (the sanitizer's port
        audit reads this)."""
        busy = [0] * len(self._free_at)
        for legs, flits in ((self._xlegs, self._xleg_flits),
                            (self._ylegs, self._yleg_flits)):
            for leg, n in zip(legs, flits):
                if n:
                    for i in leg:
                        busy[i] += n
        return busy

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

    _send_unicast = _traverse


class EMeshPure(_MeshBase):
    """Plain electrical mesh: broadcasts are N-1 serialized unicasts."""

    @property
    def name(self) -> str:
        return "EMesh-Pure"

    def _send_broadcast(self, src: int, t: int,
                        n_flits: int) -> list[tuple[int, int]]:
        # The source's network interface injects one unicast per
        # destination, in ascending order; they contend for the source's
        # output ports and serialize there, which is exactly the
        # EMesh-Pure penalty.  Each is _traverse's leg walk, inlined:
        # destination (row, col) takes X leg src -> col, then the Y leg
        # from that column's corner to row.
        w = self._width
        row0 = src - src % w
        free_at = self._free_at
        xlegs, ylegs = self._xlegs, self._ylegs
        xleg_flits, yleg_flits = self._xleg_flits, self._yleg_flits
        hop = HOP_LATENCY
        hops = 0
        deliveries = []
        append = deliveries.append
        for row in range(w):
            for col in range(w):
                dst = row * w + col
                if dst == src:
                    continue
                xi = src * w + col
                yi = (row0 + col) * w + row
                xleg_flits[xi] += n_flits
                yleg_flits[yi] += n_flits
                xleg = xlegs[xi]
                yleg = ylegs[yi]
                hops += len(xleg) + len(yleg)
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
                append((dst, head + n_flits))
        n_dsts = len(deliveries)
        s = self.stats
        s.router_flit_traversals += n_flits * (hops + n_dsts)
        s.link_flit_traversals += n_flits * hops
        s.router_arbitrations += hops + n_dsts
        return deliveries


class EMeshBCast(_MeshBase):
    """Electrical mesh with native multicast at each router."""

    @property
    def name(self) -> str:
        return "EMesh-BCast"

    def _send_broadcast(self, src: int, t: int,
                        n_flits: int) -> list[tuple[int, int]]:
        # The XY spanning tree (``topology.broadcast_tree``) is the
        # source's east and west row legs plus, from every row node, its
        # south and north column legs.  Each tree edge is an
        # independently reserved port, so replication fans out in
        # parallel (native hardware multicast); a node's head time
        # depends only on its parent's, so walking the row legs before
        # the column legs computes every arrival.  Deliveries are
        # emitted in the topology's canonical ``broadcast_order``: that
        # order decides event-queue tie-breaks downstream and is frozen
        # as part of the determinism contract.
        w = self._width
        n = self._n_cores
        s = self.stats
        s.router_flit_traversals += n_flits * n  # every router, source's too
        s.link_flit_traversals += n_flits * (n - 1)
        s.router_arbitrations += n
        free_at = self._free_at
        hop = HOP_LATENCY
        heads = [0] * n
        heads[src] = t
        row0 = src - src % w
        # (leg table, its counts, core step per hop, nodes the legs start at)
        for legs, counts, step, roots in (
            (self._xlegs, self._xleg_flits, 1, (src,)),
            (self._ylegs, self._yleg_flits, w, range(row0, row0 + w)),
        ):
            for root in roots:
                # east (south) to the last column (row), then west (north)
                for k, d in ((root * w + w - 1, step), (root * w, -step)):
                    counts[k] += n_flits
                    node = root
                    head = heads[node]
                    for i in legs[k]:
                        free = free_at[i]
                        if free > head:
                            head = free
                        free_at[i] = head + n_flits
                        head += hop
                        node += d
                        heads[node] = head
        return [
            (core, heads[core] + n_flits)
            for core in self.topology.broadcast_order(src)
        ]
