"""Attention scoring, normalization, and aggregation over factored view nodes."""

import numpy as np
import pytest

from oracles import central_difference
from viewgraph.attention import (
    AttentionParams,
    _node_term,
    aggregate,
    aggregate_backward,
    attention_scores,
    init_attention,
    normalize_attention,
    scores_backward,
)
from viewgraph.model import TrainConfig, init_model, validate_params
from viewgraph.numeric import softmax_grad


def random_attention(rng, classes, width):
    return AttentionParams(
        node_proj=rng.standard_normal((classes, width)),
        node_vec=rng.standard_normal(width),
        out=rng.standard_normal(classes),
    )


def factors(rng, views, width, batch=()):
    """Random embeddings E and weighted sums W, the factors of the node matrices."""
    return (rng.standard_normal(batch + (views, width)),
            rng.standard_normal(batch + (views, width)))


def node_matrices(emb, weighted):
    """The dense (..., V, N, N) node matrices outer(d_j, w_j)."""
    return emb[..., :, None] * weighted[..., None, :]


class TestScores:
    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(0)
        views, width, classes = 5, 4, 3
        params = random_attention(rng, classes, width)
        emb, weighted = factors(rng, views, width, batch=(2,))
        scores = attention_scores(emb, weighted, params)
        assert scores.shape == (2, views)
        for b in range(2):
            for j in range(views):
                node = np.outer(emb[b, j], weighted[b, j])
                proj = params.node_proj @ (node @ params.node_vec)
                assert scores[b, j] == pytest.approx(float(params.out @ proj), rel=1e-12)

    def test_vector_node_input(self):
        # vector descriptors skip the node_vec contraction
        rng = np.random.default_rng(1)
        params = random_attention(rng, 3, 4)
        nodes = rng.standard_normal((5, 4))
        scores = attention_scores(None, nodes, params)
        for j in range(5):
            proj = params.node_proj @ nodes[j]
            assert scores[j] == pytest.approx(float(params.out @ proj), rel=1e-12)

    def test_shared_context_term_cannot_move_the_softmax(self):
        """The paper's context term ``(cls_weights @ ctx_vec + bias) @ out``
        is shared by every node and shifts all scores alike, which the
        softmax ignores, so the scores have no ctx_vec or bias."""
        rng = np.random.default_rng(2)
        params = random_attention(rng, 3, 4)
        emb, weighted = factors(rng, 5, 4)
        scores = attention_scores(emb, weighted, params)
        alpha = normalize_attention(scores)
        cls_w, ctx_vec, bias = (rng.standard_normal(s) for s in ((3, 6), 6, 3))
        shift = float((cls_w @ ctx_vec + bias) @ params.out)
        np.testing.assert_allclose(normalize_attention(scores + shift), alpha, atol=1e-12)

    def test_projections_shape(self):
        rng = np.random.default_rng(3)
        params = random_attention(rng, 2, 3)
        emb, weighted = factors(rng, 6, 3, batch=(4,))
        proj = _node_term(emb, weighted, params)
        assert proj.shape == (4, 6, 2)
        np.testing.assert_array_equal(
            attention_scores(emb, weighted, params), proj @ params.out
        )
        dense = node_matrices(emb, weighted) @ params.node_vec @ params.node_proj.T
        np.testing.assert_allclose(proj, dense, rtol=1e-12, atol=1e-14)


class TestNormalize:
    def test_simplex(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            scores = rng.standard_normal(int(rng.integers(1, 9))) * 5.0
            alpha = normalize_attention(scores)
            assert alpha.min() > 0.0
            assert abs(alpha.sum() - 1.0) < 1e-9

    def test_extreme_scores_stay_finite(self):
        alpha = normalize_attention(np.array([800.0, -800.0, 0.0]))
        assert np.isfinite(alpha).all()
        np.testing.assert_allclose(alpha.sum(), 1.0, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            normalize_attention(np.array([1.0, np.nan]))


class TestAggregate:
    def test_uniform_weights_give_mean(self):
        rng = np.random.default_rng(5)
        emb, weighted = factors(rng, 4, 3, batch=(2,))
        agg = aggregate(emb, weighted, np.full((2, 4), 0.25))
        want = node_matrices(emb, weighted).mean(axis=1)
        np.testing.assert_allclose(agg, want, atol=1e-12)
        vec = aggregate(None, weighted, np.full((2, 4), 0.25))
        np.testing.assert_allclose(vec, weighted.mean(axis=1), atol=1e-12)

    def test_one_hot_weight_selects_node(self):
        rng = np.random.default_rng(6)
        emb, weighted = factors(rng, 4, 3)
        alpha = np.array([0.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(
            aggregate(emb, weighted, alpha), np.outer(emb[2], weighted[2]), atol=1e-15
        )
        np.testing.assert_allclose(aggregate(None, weighted, alpha), weighted[2], atol=1e-15)

    def test_rejects_weights_of_another_shape(self):
        emb, weighted = factors(np.random.default_rng(6), 4, 3, batch=(2,))
        for e in (emb, None):
            with pytest.raises(ValueError, match=r"\(2, 3\) weights for \(2, 4\) nodes"):
                aggregate(e, weighted, np.full((2, 3), 0.25))

    def test_backward_shapes_and_values(self):
        rng = np.random.default_rng(7)
        emb, weighted = factors(rng, 5, 2, batch=(3,))
        alpha = normalize_attention(rng.standard_normal((3, 5)))
        for left, probe in ((emb, rng.standard_normal((3, 2, 2))),
                            (None, rng.standard_normal((3, 2)))):
            grad_alpha, grad_left, grad_weighted = aggregate_backward(
                left, weighted, alpha, probe
            )

            def scalar():
                return float((aggregate(left, weighted, alpha) * probe).sum())

            np.testing.assert_allclose(
                grad_weighted, central_difference(scalar, weighted), atol=1e-8
            )
            np.testing.assert_allclose(
                grad_alpha, central_difference(scalar, alpha), atol=1e-8
            )
            if left is None:
                assert grad_left is None
            else:
                np.testing.assert_allclose(
                    grad_left, central_difference(scalar, emb), atol=1e-8
                )


def attention_chain_backward(emb, weighted, params, grad_agg):
    """Backward of scores -> softmax -> aggregation, composed as model.backward does."""
    alpha = normalize_attention(attention_scores(emb, weighted, params))
    grad_alpha, agg_left, agg_weighted = aggregate_backward(emb, weighted, alpha, grad_agg)
    grad_scores = softmax_grad(alpha, grad_alpha)
    g_proj, g_vec, g_out, g_left, g_weighted = scores_backward(
        emb, weighted, params, grad_scores
    )
    g_left = None if emb is None else g_left + agg_left
    return g_proj, g_vec, g_out, g_left, g_weighted + agg_weighted


class TestBackward:
    def _scalar_through_attention(self, emb, weighted, params, probe):
        alpha = normalize_attention(attention_scores(emb, weighted, params))
        return float((aggregate(emb, weighted, alpha) * probe).sum())

    def test_full_chain_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        views, width, classes = 4, 3, 3
        params = random_attention(rng, classes, width)
        emb, weighted = factors(rng, views, width, batch=(2,))
        probe = rng.standard_normal((2, width, width))

        g_proj, g_vec, g_out, g_emb, g_weighted = attention_chain_backward(
            emb, weighted, params, probe
        )

        def scalar():
            return self._scalar_through_attention(emb, weighted, params, probe)

        np.testing.assert_allclose(g_emb, central_difference(scalar, emb), atol=1e-7)
        np.testing.assert_allclose(
            g_weighted, central_difference(scalar, weighted), atol=1e-7
        )
        np.testing.assert_allclose(
            g_proj, central_difference(scalar, params.node_proj), atol=1e-7
        )
        np.testing.assert_allclose(
            g_vec, central_difference(scalar, params.node_vec), atol=1e-7
        )
        np.testing.assert_allclose(g_out, central_difference(scalar, params.out), atol=1e-7)

    def test_scores_backward_composes_with_softmax_grad(self):
        rng = np.random.default_rng(9)
        params = random_attention(rng, 2, 3)
        emb, weighted = factors(rng, 5, 3)
        probe = rng.standard_normal(5)

        def scalar():
            alpha = normalize_attention(attention_scores(emb, weighted, params))
            return float(np.dot(alpha, probe))

        alpha = normalize_attention(attention_scores(emb, weighted, params))
        grad_scores = softmax_grad(alpha, probe)
        _, g_vec, _, g_emb, g_weighted = scores_backward(emb, weighted, params, grad_scores)
        np.testing.assert_allclose(g_emb, central_difference(scalar, emb), atol=1e-7)
        np.testing.assert_allclose(
            g_weighted, central_difference(scalar, weighted), atol=1e-7
        )
        np.testing.assert_allclose(
            g_vec, central_difference(scalar, params.node_vec), atol=1e-7
        )

    def test_vector_mode_backward(self):
        rng = np.random.default_rng(10)
        params = random_attention(rng, 3, 4)
        nodes = rng.standard_normal((2, 6, 4))
        probe = rng.standard_normal((2, 4))

        g_proj, g_vec, _, g_emb, g_nodes = attention_chain_backward(None, nodes, params, probe)

        def scalar():
            return self._scalar_through_attention(None, nodes, params, probe)

        np.testing.assert_allclose(g_nodes, central_difference(scalar, nodes), atol=1e-7)
        np.testing.assert_allclose(
            g_proj, central_difference(scalar, params.node_proj), atol=1e-7
        )
        # vector nodes skip the node_vec contraction, so it has no gradient
        assert g_vec is None and g_emb is None


class TestInit:
    def test_shapes_and_determinism(self):
        a = init_attention(3, 7, 9, np.random.default_rng(11))
        b = init_attention(3, 7, 9, np.random.default_rng(11))
        assert a.node_proj.shape == (3, 7)
        assert a.node_vec.shape == (7,)
        assert a.out.shape == (3,)
        assert set(vars(a)) == {"node_proj", "node_vec", "out"}
        for x, y in zip(vars(a).values(), vars(b).values()):
            np.testing.assert_array_equal(x, y)

    def test_retired_context_draws_are_still_taken(self):
        # node_proj, node_vec, then the F draws of the retired ctx_vec, then
        # out: the draw order checkpoint version 1 initialised from
        params = init_attention(3, 7, 9, np.random.default_rng(11))
        draws = np.random.default_rng(11).normal(0.0, 0.01, size=3 * 7 + 7 + 9 + 3)
        np.testing.assert_array_equal(params.node_vec, draws[21:28])
        np.testing.assert_array_equal(params.out, draws[-3:])

    def test_validation(self):
        # the group itself is plain fields: model.validate_params checks its
        # shapes against the config
        cfg = TrainConfig(num_classes=3, input_dim=5, views=4, n_patterns=4, feature_dim=6)
        params = init_model(cfg, np.random.default_rng(0))
        params.attn = AttentionParams(
            node_proj=np.zeros((3, 4)),
            node_vec=np.zeros(5),  # width mismatch
            out=np.zeros(3),
        )
        with pytest.raises(ValueError, match="attn_node_vec has shape"):
            validate_params(params, cfg)
        params.attn = AttentionParams(node_proj=np.zeros((3, 4)), node_vec=np.zeros(4),
                                      out=np.zeros(2))
        with pytest.raises(ValueError, match="attn_out has shape"):
            validate_params(params, cfg)
