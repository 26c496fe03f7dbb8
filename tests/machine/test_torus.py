"""Tests for the torus interconnect model."""

import pytest

from repro.machine import BLUE_GENE_P, TorusTopology, torus_shape_for


class TestShapes:
    def test_covers_node_count(self):
        for n, d in ((128, 3), (512, 3), (1024, 5), (7, 3)):
            shape = torus_shape_for(n, d)
            assert len(shape) == d
            total = 1
            for s in shape:
                total *= s
            assert total >= n

    def test_invalid(self):
        with pytest.raises(ValueError):
            torus_shape_for(0, 3)


class TestTopology:
    def setup_method(self):
        self.torus = TorusTopology((4, 4, 8), BLUE_GENE_P)

    def test_node_count(self):
        assert self.torus.num_nodes == 128

    def test_every_node_has_six_neighbors(self):
        for coord in ((0, 0, 0), (3, 3, 7), (1, 2, 4)):
            assert len(self.torus.neighbors(coord)) == 6

    def test_hop_distance_wraps(self):
        assert self.torus.hop_distance((0, 0, 0), (3, 0, 0)) == 1
        assert self.torus.hop_distance((0, 0, 0), (0, 0, 4)) == 4
        assert self.torus.hop_distance((0, 0, 0), (2, 2, 4)) == 8

    def test_rank_mapping_roundtrip(self):
        coords = [self.torus.rank_to_coord(r) for r in range(128)]
        assert len(set(coords)) == 128

    def test_consecutive_ranks_adjacent(self):
        """The default mapping keeps the 1-D chain on neighboring nodes
        (the assumption behind the paper's single-hop halo bound)."""
        adjacent = sum(
            self.torus.ranks_are_adjacent(r, r + 1) for r in range(127)
        )
        # z wraps break adjacency at 1/8 of the chain transitions
        assert adjacent / 127 > 0.85

    def test_bisection_bandwidth(self):
        # longest dim 8: cut severs 2*(128/8)=32 link pairs
        assert self.torus.bisection_bandwidth == pytest.approx(32 * 0.425e9)

    def test_transfer_times(self):
        t_soft = self.torus.link_transfer_time(1_000_000, software=True)
        t_hard = self.torus.link_transfer_time(1_000_000, software=False)
        assert t_soft == pytest.approx(1e6 / 0.375e9)
        assert t_hard < t_soft

    def test_halo_transfer_single_hop(self):
        t = self.torus.halo_transfer_time(500_000)
        assert t == self.torus.link_transfer_time(500_000)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            TorusTopology((0, 4), BLUE_GENE_P)


class TestNeighbors:
    @pytest.mark.parametrize(
        "shape",
        [(4, 4, 8), (2, 3), (1, 3), (3, 3, 3), (2, 2, 2), (1, 1, 4), (5, 2, 1)],
    )
    def test_matches_networkx_periodic_grid(self, shape):
        nx = pytest.importorskip("networkx")
        torus = TorusTopology(shape, BLUE_GENE_P)
        # grid_graph reads `dim` in reverse relative to its node tuples.
        graph = nx.grid_graph(dim=list(reversed(shape)), periodic=True)
        for coord in torus.coordinates():
            ours = torus.neighbors(coord)
            assert len(ours) == len(set(ours))
            # networkx lists a node as its own neighbor through the
            # self-loop an extent of 1 produces; a torus link never is.
            assert set(ours) == set(graph.neighbors(coord)) - {coord}

    @pytest.mark.parametrize(
        "shape, coord, expected",
        [
            ((2, 3), (0, 0), {(1, 0), (0, 1), (0, 2)}),
            ((2, 3), (1, 2), {(0, 2), (1, 1), (1, 0)}),
            ((1, 3), (0, 0), {(0, 1), (0, 2)}),
            ((1, 3), (0, 1), {(0, 0), (0, 2)}),
            ((2, 2, 2), (0, 0, 0), {(1, 0, 0), (0, 1, 0), (0, 0, 1)}),
            ((2, 2, 2), (1, 1, 1), {(0, 1, 1), (1, 0, 1), (1, 1, 0)}),
            ((5, 2, 1), (0, 0, 0), {(4, 0, 0), (1, 0, 0), (0, 1, 0)}),
            ((5, 2, 1), (2, 1, 0), {(1, 1, 0), (3, 1, 0), (2, 0, 0)}),
        ],
    )
    def test_edge_shapes_hard_coded(self, shape, coord, expected):
        """Extents of 2 (one link each way, listed once) and 1 (no
        link) without networkx, so a clean install checks them too."""
        ours = TorusTopology(shape, BLUE_GENE_P).neighbors(coord)
        assert len(ours) == len(set(ours))
        assert set(ours) == expected

    def test_one_dimensional_ring(self):
        torus = TorusTopology((4,), BLUE_GENE_P)
        assert sorted(torus.neighbors((0,))) == [(1,), (3,)]
        assert TorusTopology((2,), BLUE_GENE_P).neighbors((0,)) == [(1,)]
        assert TorusTopology((1,), BLUE_GENE_P).neighbors((0,)) == []

    def test_off_torus_coordinate_rejected(self):
        with pytest.raises(ValueError):
            TorusTopology((4, 4), BLUE_GENE_P).neighbors((4, 0))
        with pytest.raises(ValueError):
            TorusTopology((4, 4), BLUE_GENE_P).neighbors((0,))
