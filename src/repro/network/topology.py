"""Mesh/cluster geometry: coordinates, clusters, hubs and broadcast trees.

The 1024-core ATAC chip is a 32x32 mesh of cores grouped into 64
clusters of 4x4 cores (Section III-A).  All geometric questions --
"what is the Manhattan distance between cores 37 and 901?", "which hub
serves core 512?", "which cores span a broadcast?" -- are answered
here, for any square mesh whose edge is a multiple of the cluster edge.

Geometry is pure and a :class:`MeshTopology` is immutable.  The timing
engines never ask for routes or spanning trees: a mesh walks its own
per-width port legs (:mod:`repro.network.mesh`), so ``broadcast_tree``
is plain geometry: ``broadcast_order`` derives from it, and the tests
check the engines against it.  What the engines do read per packet
or per broadcast -- ``cluster_cores``, the core-role lists and
``broadcast_order`` -- is memoized per instance as **tuples**, so a
cache hit can hand out the same object without aliasing bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class MeshTopology:
    """A ``width x width`` core mesh with ``cluster_width``-square clusters.

    Attributes
    ----------
    width:
        Cores per mesh edge (32 for the paper's 1024-core chip).
    cluster_width:
        Cores per cluster edge (4 for the paper's 16-core clusters).
    """

    width: int = 32
    cluster_width: int = 4
    # Per-instance memo tables.  Excluded from __eq__/__hash__/__repr__
    # so two topologies with equal dimensions stay equal; ``hash=False``
    # plus ``compare=False`` keeps the frozen dataclass hashable.
    _order_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )
    _cluster_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )
    _cluster_of_table: tuple = field(
        default=(), init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.cluster_width < 1:
            raise ValueError(f"cluster_width must be >= 1, got {self.cluster_width}")
        if self.width % self.cluster_width:
            raise ValueError(
                f"mesh width {self.width} not a multiple of cluster width "
                f"{self.cluster_width}"
            )
        w, cw, cpe = self.width, self.cluster_width, self.clusters_per_edge
        object.__setattr__(
            self,
            "_cluster_of_table",
            tuple((c // w // cw) * cpe + (c % w) // cw for c in range(w * w)),
        )

    # -- basic counts ---------------------------------------------------
    @property
    def n_cores(self) -> int:
        return self.width * self.width

    @property
    def cluster_size(self) -> int:
        """Cores per cluster (16 in the paper)."""
        return self.cluster_width * self.cluster_width

    @property
    def clusters_per_edge(self) -> int:
        return self.width // self.cluster_width

    @property
    def n_clusters(self) -> int:
        return self.clusters_per_edge * self.clusters_per_edge

    # -- coordinates ----------------------------------------------------
    def coords(self, core: int) -> tuple[int, int]:
        """(x, y) position of a core id (row-major)."""
        self._check_core(core)
        return core % self.width, core // self.width

    def core_at(self, x: int, y: int) -> int:
        """Core id at mesh position (x, y)."""
        if not (0 <= x < self.width and 0 <= y < self.width):
            raise ValueError(f"({x},{y}) outside {self.width}x{self.width} mesh")
        return y * self.width + x

    def manhattan(self, a: int, b: int) -> int:
        """Manhattan (mesh hop) distance between two cores.

        This is the distance metric of the distance-based routing
        protocol (Section IV-C): "distance is defined as the manhattan
        distance between the sender and receiver as measured over an
        electrical mesh network".
        """
        self._check_core(a)
        self._check_core(b)
        w = self.width
        return abs(a % w - b % w) + abs(a // w - b // w)

    # -- clusters and hubs ------------------------------------------------
    def cluster_of(self, core: int) -> int:
        """Cluster id containing a core (row-major over the cluster grid)."""
        self._check_core(core)
        return self._cluster_of_table[core]

    def cluster_cores(self, cluster: int) -> tuple[int, ...]:
        """All core ids in a cluster (memoized; same tuple per cluster)."""
        cached = self._cluster_cache.get(cluster)
        if cached is not None:
            return cached
        self._check_cluster(cluster)
        cx = (cluster % self.clusters_per_edge) * self.cluster_width
        cy = (cluster // self.clusters_per_edge) * self.cluster_width
        cores = tuple(
            self.core_at(cx + dx, cy + dy)
            for dy in range(self.cluster_width)
            for dx in range(self.cluster_width)
        )
        self._cluster_cache[cluster] = cores
        return cores

    def hub_core(self, cluster: int) -> int:
        """Mesh position (as a core id) of the cluster's ONet hub.

        The hub sits near the cluster centre so ENet trips to it are
        short from every member core.
        """
        self._check_cluster(cluster)
        cx = (cluster % self.clusters_per_edge) * self.cluster_width
        cy = (cluster // self.clusters_per_edge) * self.cluster_width
        mid = self.cluster_width // 2
        return self.core_at(cx + mid, cy + mid)

    def memctrl_core(self, cluster: int) -> int:
        """Core position replaced by the cluster's memory controller.

        Section III-B: "Each cluster has one core replaced by a memory
        controller."  We place it at the cluster's origin corner.
        """
        self._check_cluster(cluster)
        cx = (cluster % self.clusters_per_edge) * self.cluster_width
        cy = (cluster // self.clusters_per_edge) * self.cluster_width
        return self.core_at(cx, cy)

    def memctrl_cores(self) -> tuple[int, ...]:
        """All memory-controller positions, one per cluster (memoized)."""
        cached = self._cluster_cache.get("memctrl")
        if cached is None:
            cached = tuple(
                self.memctrl_core(c) for c in range(self.n_clusters)
            )
            self._cluster_cache["memctrl"] = cached
        return cached

    def compute_cores(self) -> tuple[int, ...]:
        """Core ids that execute application threads (memoized)."""
        cached = self._cluster_cache.get("compute")
        if cached is None:
            mem = set(self.memctrl_cores())
            cached = tuple(c for c in range(self.n_cores) if c not in mem)
            self._cluster_cache["compute"] = cached
        return cached

    # -- routing ----------------------------------------------------------
    def broadcast_tree(self, src: int) -> dict[int, tuple[int, ...]]:
        """XY-dimension-ordered multicast tree rooted at ``src``.

        Returns ``{node: (children...)}``.  The tree first spans the
        root's row (X dimension), then each row node spans its column
        (Y dimension) -- the standard mesh multicast used by routers
        with native broadcast support (EMesh-BCast).
        """
        children: dict[int, list[int]] = {src: []}
        sx, sy = self.coords(src)
        # span the row
        for direction in (-1, 1):
            prev = src
            x = sx + direction
            while 0 <= x < self.width:
                node = self.core_at(x, sy)
                children.setdefault(prev, []).append(node)
                children.setdefault(node, [])
                prev = node
                x += direction
        # each row node spans its column
        for x in range(self.width):
            row_node = self.core_at(x, sy)
            for direction in (-1, 1):
                prev = row_node
                y = sy + direction
                while 0 <= y < self.width:
                    node = self.core_at(x, y)
                    children.setdefault(prev, []).append(node)
                    children.setdefault(node, [])
                    prev = node
                    y += direction
        return {node: tuple(ch) for node, ch in children.items()}

    def broadcast_order(self, src: int) -> tuple[int, ...]:
        """Canonical delivery order of a broadcast from ``src`` (memoized).

        Every core except ``src``, in the order the EMesh-BCast engine
        has always emitted deliveries (the historical stack-order walk
        of :meth:`broadcast_tree`).  Delivery order is *observable*
        simulator behaviour -- it decides event-queue tie-breaks among
        same-cycle arrivals -- so it is pinned here as part of the
        determinism contract, independent of how the timing engine
        walks the tree.
        """
        cached = self._order_cache.get(src)
        if cached is not None:
            return cached
        tree = self.broadcast_tree(src)
        order: list[int] = []
        stack = [src]
        while stack:
            node = stack.pop()
            for child in tree[node]:
                order.append(child)
                stack.append(child)
        result = tuple(order)
        self._order_cache[src] = result
        return result

    # -- checks ---------------------------------------------------------
    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.n_cores:
            raise ValueError(f"core {core} outside [0, {self.n_cores})")

    def _check_cluster(self, cluster: int) -> None:
        if not 0 <= cluster < self.n_clusters:
            raise ValueError(f"cluster {cluster} outside [0, {self.n_clusters})")


#: The paper's chip: 32x32 cores, 4x4-core clusters, 64 hubs.
ATAC_1024 = MeshTopology(width=32, cluster_width=4)
