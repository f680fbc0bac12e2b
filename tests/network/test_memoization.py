"""Unit tests for the topology memo caches (DESIGN.md section 9).

Cluster membership, the core-role lists and ``broadcast_order`` are pure
functions of the (frozen) topology that the engines read per packet, so
they are computed once and returned as shared immutable tuples.  These
tests pin the cache contract: repeated calls return the *same* object,
the returns are immutable, and the pinned ``broadcast_order`` matches
the historical stack-order tree walk.  ``broadcast_tree`` and the
reference ``xy_route`` are plain geometry, not memoized.
"""

import pytest

from repro.network.topology import MeshTopology

from tests.network.test_topology import xy_route


@pytest.fixture
def topo():
    return MeshTopology(width=8, cluster_width=4)


class TestRouteMemo:
    def test_route_is_a_tuple(self, topo):
        assert isinstance(xy_route(topo, 0, 63), tuple)

    def test_cached_route_still_validates_args(self, topo):
        xy_route(topo, 0, 1)
        with pytest.raises(ValueError):
            xy_route(topo, 0, 64)


class TestTreeMemo:
    def test_cluster_cores_memoized(self, topo):
        assert topo.cluster_cores(2) is topo.cluster_cores(2)
        assert isinstance(topo.cluster_cores(2), tuple)

    def test_core_lists_memoized(self, topo):
        assert topo.memctrl_cores() is topo.memctrl_cores()
        assert topo.compute_cores() is topo.compute_cores()


class TestBroadcastOrder:
    def test_memoized(self, topo):
        assert topo.broadcast_order(5) is topo.broadcast_order(5)

    def test_covers_every_core_but_the_source(self, topo):
        for src in (0, 27, 63):
            order = topo.broadcast_order(src)
            assert sorted(order) == [c for c in range(64) if c != src]

    def test_matches_historical_stack_walk(self, topo):
        """The pinned order is the legacy DFS emission order: children
        are appended as their parent is popped off a LIFO stack."""
        for src in (0, 35):
            tree = topo.broadcast_tree(src)
            expected = []
            stack = [src]
            while stack:
                node = stack.pop()
                for child in tree[node]:
                    expected.append(child)
                    stack.append(child)
            assert topo.broadcast_order(src) == tuple(expected)

    def test_parents_precede_children(self, topo):
        """Sanity: no core is delivered before its tree parent."""
        src = 19
        tree = topo.broadcast_tree(src)
        seen = {src}
        parent_of = {
            child: parent for parent, kids in tree.items() for child in kids
        }
        for core in topo.broadcast_order(src):
            assert parent_of[core] in seen
            seen.add(core)


class TestMemoIsolation:
    def test_caches_are_per_instance(self):
        """Two equal topologies do not share cache storage."""
        a = MeshTopology(width=8, cluster_width=4)
        b = MeshTopology(width=8, cluster_width=4)
        assert a.broadcast_order(9) == b.broadcast_order(9)
        assert a.broadcast_order(9) is not b.broadcast_order(9)

    def test_equality_ignores_cache_population(self):
        a = MeshTopology(width=8, cluster_width=4)
        b = MeshTopology(width=8, cluster_width=4)
        a.broadcast_order(0)
        a.cluster_cores(1)
        assert a == b
