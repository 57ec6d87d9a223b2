"""Pairwise pattern correlations and their spatially weighted accumulation."""

import numpy as np
import pytest

from oracles import central_difference, naive_cumulative_correlation
from viewgraph.correlation import (
    all_correlation_backward,
    all_cumulative_correlations,
    pattern_correlation,
)
from viewgraph.geometry import build_view_graph, default_viewpoints


def random_simplex(rng, rows, width):
    raw = rng.uniform(0.1, 1.0, size=(rows, width))
    return raw / raw.sum(axis=1, keepdims=True)


def random_graph(rng, views, sigma=None):
    raw = rng.standard_normal((views, 3))
    dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    if sigma is None:
        sigma = float(rng.uniform(0.0, 12.0))
    return build_view_graph(dirs, sigma)


class TestPatternCorrelation:
    def test_outer_product_values(self):
        a = np.array([0.2, 0.8])
        b = np.array([0.5, 0.5])
        np.testing.assert_allclose(
            pattern_correlation(a, b), [[0.1, 0.1], [0.4, 0.4]], atol=1e-15
        )

    def test_mass_is_one_for_simplex_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            width = int(rng.integers(2, 9))
            a, b = random_simplex(rng, 2, width)
            c = pattern_correlation(a, b)
            assert c.min() >= 0.0
            assert abs(c.sum() - 1.0) < 1e-9

    def test_rank_is_one(self):
        rng = np.random.default_rng(1)
        a, b = random_simplex(rng, 2, 6)
        s = np.linalg.svd(pattern_correlation(a, b), compute_uv=False)
        assert s[1] < 1e-12 * s[0]

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            pattern_correlation(np.ones(3) / 3, np.ones(4) / 4)


class TestCumulativeCorrelation:
    def test_matches_bruteforce_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            views = int(rng.integers(2, 8))
            width = int(rng.integers(2, 7))
            graph = random_graph(rng, views)
            emb = random_simplex(rng, views, width)
            for node in range(views):
                want = naive_cumulative_correlation(emb, graph.similarity, node)
                got = all_cumulative_correlations(emb, graph.similarity)[0][node]
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_total_mass_equals_similarity_row_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            views = int(rng.integers(2, 8))
            graph = random_graph(rng, views)
            emb = random_simplex(rng, views, 5)
            cums, _ = all_cumulative_correlations(emb, graph.similarity)
            for node in range(views):
                assert abs(cums[node].sum() - graph.similarity[node].sum()) < 1e-8

    def test_all_nodes_vectorized_matches_per_node(self):
        rng = np.random.default_rng(4)
        graph = random_graph(rng, 6)
        emb = random_simplex(rng, 6, 4)
        cums, weighted = all_cumulative_correlations(emb, graph.similarity)
        assert cums.shape == (6, 4, 4)
        np.testing.assert_allclose(weighted, graph.similarity @ emb, atol=1e-15)
        for node in range(6):
            np.testing.assert_allclose(
                cums[node],
                np.outer(emb[node], graph.similarity[node] @ emb),
                atol=1e-12,
            )

    def test_single_view_graph(self):
        # one view: the only partner is the node itself at similarity 1
        graph = build_view_graph(np.array([[0.0, 0.0, 1.0]]), 7.0)
        emb = np.array([[0.3, 0.7]])
        cums, _ = all_cumulative_correlations(emb, graph.similarity)
        np.testing.assert_allclose(cums[0], np.outer(emb[0], emb[0]), atol=1e-15)


def factor_gradients(emb, weighted, probe):
    """The gradients a dense upstream probe on outer(d_j, w_j) sends to each factor."""
    grad_emb = np.einsum("jnm,jm->jn", probe, weighted)
    grad_weighted = np.einsum("jnm,jn->jm", probe, emb)
    return grad_emb, grad_weighted


class TestCorrelationBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            views = int(rng.integers(1, 6))
            width = int(rng.integers(2, 5))
            graph = random_graph(rng, views)
            emb = rng.uniform(0.05, 1.0, size=(views, width))
            probe = rng.standard_normal((views, width, width))

            def scalar():
                cums, _ = all_cumulative_correlations(emb, graph.similarity)
                return float((cums * probe).sum())

            _, weighted = all_cumulative_correlations(emb, graph.similarity)
            grad = all_correlation_backward(
                graph.similarity, *factor_gradients(emb, weighted, probe)
            )
            np.testing.assert_allclose(
                grad, central_difference(scalar, emb), atol=1e-8
            )
            # vector nodes: only the weighted sums carry a gradient
            np.testing.assert_allclose(
                all_correlation_backward(graph.similarity, None, probe[:, 0]),
                graph.similarity.T @ probe[:, 0],
                atol=1e-15,
            )

    def test_single_view_closed_form(self):
        # V=1: C = d d^T, so d(probe . C)/dd = (probe + probe^T) d
        rng = np.random.default_rng(6)
        graph = build_view_graph(np.array([[1.0, 0.0, 0.0]]), 2.0)
        emb = rng.uniform(0.1, 1.0, size=(1, 4))
        probe = rng.standard_normal((1, 4, 4))
        _, weighted = all_cumulative_correlations(emb, graph.similarity)
        grad = all_correlation_backward(
            graph.similarity, *factor_gradients(emb, weighted, probe)
        )
        want = (probe[0] + probe[0].T) @ emb[0]
        np.testing.assert_allclose(grad[0], want, atol=1e-12)

    def test_uniform_similarity_reduces_to_plain_sums(self):
        rng = np.random.default_rng(7)
        emb = rng.uniform(0.1, 1.0, size=(4, 3))
        ones = np.ones((4, 4))
        cums, weighted = all_cumulative_correlations(emb, ones)
        total = emb.sum(axis=0)
        for node in range(4):
            np.testing.assert_allclose(
                cums[node], np.outer(emb[node], total), atol=1e-12
            )
