"""Unit tests for mesh/cluster geometry."""

import pytest
from hypothesis import given, strategies as st

from repro.network.topology import ATAC_1024, MeshTopology


def xy_route(topo: MeshTopology, src: int, dst: int) -> tuple[int, ...]:
    """Dimension-ordered (X then Y) route, inclusive of endpoints: the
    path the mesh engines' per-width port legs must reserve."""
    sx, sy = topo.coords(src)
    dx, dy = topo.coords(dst)
    path = [src]
    x, y = sx, sy
    step = 1 if dx > x else -1
    while x != dx:
        x += step
        path.append(topo.core_at(x, y))
    step = 1 if dy > y else -1
    while y != dy:
        y += step
        path.append(topo.core_at(x, y))
    return tuple(path)


@pytest.fixture
def topo64():
    """64 cores: 8x8 mesh, four 4x4 clusters."""
    return MeshTopology(width=8, cluster_width=4)


class TestPaperGeometry:
    def test_atac_1024_counts(self):
        assert ATAC_1024.n_cores == 1024
        assert ATAC_1024.n_clusters == 64
        assert ATAC_1024.cluster_size == 16

    def test_one_memctrl_per_cluster(self):
        assert len(ATAC_1024.memctrl_cores()) == 64
        assert len(set(ATAC_1024.memctrl_cores())) == 64

    def test_compute_cores_exclude_memctrls(self):
        compute = ATAC_1024.compute_cores()
        assert len(compute) == 1024 - 64
        assert set(compute).isdisjoint(ATAC_1024.memctrl_cores())


class TestCoordinates:
    def test_roundtrip(self, topo64):
        for core in range(topo64.n_cores):
            x, y = topo64.coords(core)
            assert topo64.core_at(x, y) == core

    def test_out_of_range_core(self, topo64):
        with pytest.raises(ValueError):
            topo64.coords(64)
        with pytest.raises(ValueError):
            topo64.coords(-1)

    def test_out_of_range_position(self, topo64):
        with pytest.raises(ValueError):
            topo64.core_at(8, 0)

    def test_manhattan_symmetric(self, topo64):
        assert topo64.manhattan(0, 63) == topo64.manhattan(63, 0) == 14

    def test_manhattan_zero_to_self(self, topo64):
        assert topo64.manhattan(17, 17) == 0


class TestClusters:
    def test_cluster_partition(self, topo64):
        """Every core is in exactly one cluster of the right size."""
        seen = []
        for c in range(topo64.n_clusters):
            cores = topo64.cluster_cores(c)
            assert len(cores) == 16
            for core in cores:
                assert topo64.cluster_of(core) == c
            seen.extend(cores)
        assert sorted(seen) == list(range(64))

    def test_hub_inside_its_cluster(self, topo64):
        for c in range(topo64.n_clusters):
            assert topo64.cluster_of(topo64.hub_core(c)) == c

    def test_hub_is_central(self, topo64):
        """Hub-to-member distance is bounded by the cluster diameter."""
        for c in range(topo64.n_clusters):
            hub = topo64.hub_core(c)
            for core in topo64.cluster_cores(c):
                assert topo64.manhattan(hub, core) <= 2 * (topo64.cluster_width - 1)

    def test_memctrl_inside_its_cluster(self, topo64):
        for c in range(topo64.n_clusters):
            assert topo64.cluster_of(topo64.memctrl_core(c)) == c

    def test_invalid_cluster(self, topo64):
        with pytest.raises(ValueError):
            topo64.cluster_cores(4)


class TestRouting:
    def test_xy_route_endpoints(self, topo64):
        path = xy_route(topo64, 0, 63)
        assert path[0] == 0 and path[-1] == 63

    def test_xy_route_length_is_manhattan(self, topo64):
        assert len(xy_route(topo64, 0, 63)) - 1 == topo64.manhattan(0, 63)

    def test_xy_route_goes_x_first(self, topo64):
        path = xy_route(topo64, 0, 63)  # (0,0) -> (7,7)
        xs = [topo64.coords(n)[0] for n in path]
        ys = [topo64.coords(n)[1] for n in path]
        # first 7 steps move x, remaining move y
        assert xs[:8] == list(range(8))
        assert all(y == 0 for y in ys[:8])

    def test_route_to_self(self, topo64):
        assert xy_route(topo64, 5, 5) == (5,)

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_route_steps_are_neighbors(self, a, b):
        topo = MeshTopology(width=8, cluster_width=4)
        path = xy_route(topo, a, b)
        for u, v in zip(path, path[1:]):
            assert topo.manhattan(u, v) == 1


class TestBroadcastTree:
    def test_tree_spans_all_nodes(self, topo64):
        tree = topo64.broadcast_tree(27)
        assert set(tree.keys()) == set(range(64))

    def test_tree_edges_count(self, topo64):
        """A spanning tree over N nodes has N-1 edges."""
        tree = topo64.broadcast_tree(0)
        n_edges = sum(len(ch) for ch in tree.values())
        assert n_edges == 63

    def test_tree_edges_are_mesh_links(self, topo64):
        tree = topo64.broadcast_tree(35)
        for parent, children in tree.items():
            for child in children:
                assert topo64.manhattan(parent, child) == 1

    @given(src=st.integers(0, 63))
    def test_every_node_has_one_parent(self, src):
        topo = MeshTopology(width=8, cluster_width=4)
        tree = topo.broadcast_tree(src)
        parents: dict[int, int] = {}
        for parent, children in tree.items():
            for child in children:
                assert child not in parents, "node has two parents"
                parents[child] = parent
        assert set(parents) == set(range(64)) - {src}


class TestValidation:
    def test_width_multiple_of_cluster(self):
        with pytest.raises(ValueError):
            MeshTopology(width=10, cluster_width=4)

    def test_positive_dims(self):
        with pytest.raises(ValueError):
            MeshTopology(width=0)
        with pytest.raises(ValueError):
            MeshTopology(width=8, cluster_width=0)
