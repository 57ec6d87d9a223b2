"""View-direction construction and the spatial similarity graph."""

import hashlib

import numpy as np
import pytest

from oracles import reference_view_graph
from viewgraph.geometry import (
    DirectionError,
    ViewGraph,
    build_view_graph,
    default_viewpoints,
    fibonacci_sphere,
)

# SHA-256 of default_viewpoints(V).tobytes(). synth datasets store these bytes,
# so any rewrite of the rig constructions must keep them, -0.0 entries included.
VIEWPOINT_SHA256 = {
    4: "a9db484f26231f95c77dfc2bb13ff7392cfae9101239396fd7cd2ae1db712419",
    6: "4ed0f9e4a95651f669994ff38f168698f055d6ddc2b3103402ba73f9438ad5bb",
    7: "92889be133086f2c398924a1bab8f9650851075f1c53495b66d4c1021d8fb6ca",
    8: "d5f0f943aa6c9763c36e4de2fca7c9a99417ad6f23e057acbc09ea74f740502c",
    12: "e7f806349c27b1d1e97486f3eb2e22e6cdf1183dbb279db04c8463eb20ff0ff0",
    20: "e637d7df1c2d1e1572bebf06d6660557f8b6fc209a86650efd826d31e244ac2b",
    30: "5fc75d5126a91b7dc943cb50ef0dbcef08aca32d70359dc95d1eb93978bca8a7",
}


class TestDefaultViewpoints:
    @pytest.mark.parametrize("count", sorted(VIEWPOINT_SHA256))
    def test_bytes_are_pinned(self, count):
        digest = hashlib.sha256(default_viewpoints(count).tobytes()).hexdigest()
        assert digest == VIEWPOINT_SHA256[count]

    @pytest.mark.parametrize("count", [4, 6, 8, 12, 20])
    def test_platonic_counts_are_unit_vectors(self, count):
        dirs = default_viewpoints(count)
        assert dirs.shape == (count, 3)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_tetrahedron_mutual_angles(self):
        dirs = default_viewpoints(4)
        dots = dirs @ dirs.T
        off = dots[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / 3.0, atol=1e-12)

    def test_dodecahedron_nearest_neighbour_angle(self):
        # 20 vertices; closest pairs are separated by arccos(sqrt(5)/3)
        dirs = default_viewpoints(20)
        dots = dirs @ dirs.T
        np.fill_diagonal(dots, -2.0)
        assert dots.max() == pytest.approx(0.7453559924999299, abs=1e-12)

    def test_rows_are_sorted_and_deterministic(self):
        a = default_viewpoints(12)
        b = default_viewpoints(12)
        np.testing.assert_array_equal(a, b)
        order = np.lexsort((a[:, 2], a[:, 1], a[:, 0]))
        np.testing.assert_array_equal(order, np.arange(12))

    @pytest.mark.parametrize("count", [2, 3, 5, 7, 11, 33, 100])
    def test_spiral_fallback_counts(self, count):
        dirs = default_viewpoints(count)
        assert dirs.shape == (count, 3)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        # no duplicated directions
        dots = dirs @ dirs.T
        np.fill_diagonal(dots, 0.0)
        assert dots.max() < 1.0 - 1e-9

    def test_too_few_views_rejected(self):
        for bad in (0, 1, -3):
            with pytest.raises(ValueError):
                default_viewpoints(bad)

    def test_fibonacci_sphere_spread(self):
        pts = fibonacci_sphere(50)
        assert pts.shape == (50, 3)
        # hemisphere balance: mean should sit near the origin
        assert np.linalg.norm(pts.mean(axis=0)) < 0.1


def edge_from_graph(u, w):
    """Normalized edge length between two directions, read back from the
    graph's similarity at sigma 1, where the similarity is exp(-edge)."""
    return float(-np.log(build_view_graph(np.stack([u, w]), 1.0).similarity[0, 1]))


def direction_at_edge(edge):
    """Unit direction whose edge length to +z is ``edge``."""
    t = np.arccos(1.0 - 2.0 * edge)
    return np.array([np.sin(t), 0.0, np.cos(t)])


class TestEdgeLength:
    def test_identical_direction_is_zero(self):
        u = np.array([0.0, 0.0, 1.0])
        assert edge_from_graph(u, u) == 0.0

    def test_antipodal_is_one(self):
        u = np.array([0.0, 0.0, 1.0])
        assert edge_from_graph(u, -u) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_is_half(self):
        u = np.array([1.0, 0.0, 0.0])
        w = np.array([0.0, 1.0, 0.0])
        assert edge_from_graph(u, w) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_in_angle(self):
        rng = np.random.default_rng(7)
        u = np.array([0.0, 0.0, 1.0])
        angles = np.sort(rng.uniform(0.0, np.pi, size=25))
        dirs = np.array([[np.sin(t), 0.0, np.cos(t)] for t in angles])
        sim = build_view_graph(np.vstack([u, dirs]), 1.0).similarity[0, 1:]
        lengths = -np.log(sim)
        assert all(b >= a for a, b in zip(lengths, lengths[1:]))
        assert all(0.0 <= v <= 1.0 for v in lengths)

    def test_rejects_non_unit_input(self):
        with pytest.raises(ValueError):
            build_view_graph(np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 1.0)


class TestSpatialSimilarity:
    def test_zero_edge_gives_one(self):
        u = np.array([0.0, 0.0, 1.0])
        assert build_view_graph(np.stack([u, u]), 10.0).similarity[0, 1] == 1.0

    def test_zero_sigma_gives_one(self):
        dirs = np.stack([np.array([0.0, 0.0, 1.0]), direction_at_edge(0.77)])
        assert build_view_graph(dirs, 0.0).similarity[0, 1] == 1.0

    def test_frozen_values(self):
        u = np.array([0.0, 0.0, 1.0])
        # antipodal: edge 1
        assert build_view_graph(np.stack([u, -u]), 10.0).similarity[0, 1] == (
            pytest.approx(4.5399929762484854e-05, rel=1e-12)
        )
        # orthogonal: edge 0.5
        w = np.array([1.0, 0.0, 0.0])
        assert build_view_graph(np.stack([u, w]), 5.0).similarity[0, 1] == (
            pytest.approx(0.0820849986238988, rel=1e-12)
        )

    def test_decreasing_in_both_arguments(self):
        rng = np.random.default_rng(3)
        u = np.array([0.0, 0.0, 1.0])
        for _ in range(50):
            e1, e2 = np.sort(rng.uniform(0.0, 1.0, size=2))
            s1, s2 = np.sort(rng.uniform(0.0, 20.0, size=2))
            dirs = np.stack([u, direction_at_edge(e1), direction_at_edge(e2)])
            low, high = (build_view_graph(dirs, s).similarity for s in (s1, s2))
            assert low[0, 2] <= low[0, 1]
            assert high[0, 1] <= low[0, 1] and high[0, 2] <= low[0, 2]

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((6, 3))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        # every edge length stays in [0, 1], so similarities in [e^-sigma, 1]
        sim = build_view_graph(dirs, 3.0).similarity
        assert sim.min() >= np.exp(-3.0) and sim.max() <= 1.0
        with pytest.raises(ValueError):
            build_view_graph(dirs, -1.0)
        with pytest.raises(ValueError):
            build_view_graph(dirs * 1.2, 1.0)


class TestBuildViewGraph:
    def test_similarity_matrix_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            count = int(rng.integers(2, 15))
            raw = rng.standard_normal((count, 3))
            dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            sigma = float(rng.uniform(0.0, 15.0))
            graph = build_view_graph(dirs, sigma)
            sim = graph.similarity
            np.testing.assert_array_equal(sim, sim.T)  # exactly symmetric
            np.testing.assert_array_equal(np.diag(sim), np.ones(count))
            assert sim.min() > 0.0 and sim.max() <= 1.0

    def test_tighter_sigma_never_increases_offdiagonal(self):
        dirs = default_viewpoints(8)
        loose = build_view_graph(dirs, 2.0).similarity
        tight = build_view_graph(dirs, 9.0).similarity
        mask = ~np.eye(8, dtype=bool)
        assert np.all(tight[mask] <= loose[mask])

    def test_sigma_zero_is_all_ones(self):
        graph = build_view_graph(default_viewpoints(6), 0.0)
        np.testing.assert_array_equal(graph.similarity, np.ones((6, 6)))

    def test_renormalizes_within_tolerance(self):
        dirs = default_viewpoints(4) * (1.0 + 5e-7)
        graph = build_view_graph(dirs, 3.0)
        np.testing.assert_allclose(
            np.linalg.norm(graph.directions, axis=1), 1.0, atol=1e-12
        )

    def test_rejects_clearly_non_unit(self):
        dirs = default_viewpoints(4).copy()
        dirs[1] *= 1.5
        with pytest.raises(ValueError):
            build_view_graph(dirs, 3.0)

    def test_rejects_non_finite_directions(self):
        for poison in (np.nan, np.inf, 1e300):
            dirs = default_viewpoints(4).copy()
            dirs[2, 0] = poison
            with pytest.raises(ValueError, match="unit norm"):
                build_view_graph(dirs, 3.0)

    def test_rejects_negative_sigma_and_bad_shape(self):
        for sigma in (-2.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma"):
                build_view_graph(default_viewpoints(4), sigma)
        with pytest.raises(ValueError):
            build_view_graph(np.ones((3, 2)), 1.0)

    def test_arrays_are_read_only(self):
        graph = build_view_graph(default_viewpoints(4), 1.0)
        with pytest.raises(ValueError):
            graph.similarity[0, 0] = 5.0
        with pytest.raises(ValueError):
            graph.directions[0, 0] = 5.0

    def test_dataclass_fields(self):
        graph = build_view_graph(default_viewpoints(6), 4.5)
        assert isinstance(graph, ViewGraph)
        assert graph.num_views == 6
        assert graph.sigma == 4.5


def rotated_rigs(views, count, seed):
    """``count`` random rotations of the default rig of ``views`` views."""
    rng = np.random.default_rng(seed)
    rotations, _ = np.linalg.qr(rng.standard_normal((count, 3, 3)))
    return default_viewpoints(views) @ rotations.swapaxes(1, 2)


class TestStackedBuild:
    """A stack of rigs is built in one pass, and every graph in it is
    bit-identical to the rig-by-rig reference."""

    @pytest.mark.parametrize("renormalized", [False, True])
    @pytest.mark.parametrize("sigma", [0.0, 10.0, 2.5])
    @pytest.mark.parametrize("views", [20, 12])
    def test_every_graph_equals_the_reference(self, views, sigma, renormalized):
        rigs = rotated_rigs(views, 500, seed=views)
        if renormalized:
            scale = np.random.default_rng(1).choice([1 - 5e-7, 1 + 5e-7], (500, views, 1))
            rigs = rigs * scale
        graphs = build_view_graph(rigs, sigma)
        assert len(graphs) == 500
        for rig, graph in zip(rigs, graphs):
            unit, sim = reference_view_graph(rig, sigma)
            np.testing.assert_array_equal(graph.directions, unit)
            np.testing.assert_array_equal(graph.similarity, sim)
            assert graph.sigma == sigma
        # one rig alone, as (V, 3) and as a stack of one, gives the same graph
        for rig, graph in zip(rigs[:5], graphs):
            single = build_view_graph(rig, sigma)
            (stacked,) = build_view_graph(rig[None], sigma)
            for other in (single, stacked):
                np.testing.assert_array_equal(other.directions, graph.directions)
                np.testing.assert_array_equal(other.similarity, graph.similarity)

    @pytest.mark.parametrize("views", [1, 2])
    @pytest.mark.parametrize("sigma", [0.0, 10.0, 2.5])
    def test_one_and_two_views(self, views, sigma):
        raw = np.random.default_rng(views).standard_normal((50, views, 3))
        rigs = raw / np.linalg.norm(raw, axis=2, keepdims=True)
        for rig, graph in zip(rigs, build_view_graph(rigs, sigma)):
            unit, sim = reference_view_graph(rig, sigma)
            np.testing.assert_array_equal(graph.directions, unit)
            np.testing.assert_array_equal(graph.similarity, sim)

    def test_arrays_are_read_only(self):
        for graph in build_view_graph(rotated_rigs(12, 3, seed=0), 10.0):
            for arr in (graph.directions, graph.similarity):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0, 0] = 0.5
        single = build_view_graph(default_viewpoints(12), 10.0)
        assert not single.directions.flags.writeable
        assert not single.similarity.flags.writeable

    def test_first_bad_rig_and_its_worst_direction_are_named(self):
        rigs = rotated_rigs(6, 5, seed=2)
        rigs[2, 1] *= 1.1
        rigs[2, 4, 0] = np.nan  # NaN counts as the worst direction
        rigs[4, 0] *= 9.0  # worse, but in a later rig
        with pytest.raises(DirectionError, match=r"^direction 4 is not unit norm") as info:
            build_view_graph(rigs, 10.0)
        assert info.value.rig == 2
        with pytest.raises(DirectionError, match=r"direction 0 .*\(\|v\| = 9\)") as info:
            build_view_graph(rigs[4], 10.0)
        assert info.value.rig == 0

    def test_empty_stack_and_bad_shapes(self):
        assert build_view_graph(np.zeros((0, 4, 3)), 1.0) == []
        for shape in ((3,), (2, 4), (2, 3, 4), (1, 1, 2, 3)):
            with pytest.raises(ValueError, match="directions must be"):
                build_view_graph(np.ones(shape), 1.0)
        with pytest.raises(ValueError, match="at least one"):
            build_view_graph(np.ones((2, 0, 3)), 1.0)
