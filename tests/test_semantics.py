"""Latent soft-assignment embedding: forward values and analytic gradients."""

import numpy as np
import pytest

from oracles import central_difference, gaussian_kernel_assignment
from viewgraph.model import ModelParams, TrainConfig, init_model, validate_params
from viewgraph.semantics import (
    LatentMapParams,
    embed,
    embed_backward,
    init_latent_map,
)


def random_params(rng, n, d):
    return LatentMapParams(
        filters=rng.standard_normal((n, d)),
        offsets=rng.standard_normal(n),
    )


class TestEmbed:
    def test_constant_logits_give_uniform(self):
        params = LatentMapParams(filters=np.zeros((5, 3)), offsets=np.zeros(5))
        d = embed(np.array([0.3, -1.0, 2.0]), params)
        np.testing.assert_allclose(d, np.full(5, 0.2), atol=1e-15)

    def test_two_pattern_logit_ratio(self):
        # logits (0, ln 3) -> assignments (0.25, 0.75)
        params = LatentMapParams(
            filters=np.array([[0.0], [np.log(3.0)]]), offsets=np.zeros(2)
        )
        d = embed(np.array([1.0]), params)
        np.testing.assert_allclose(d, [0.25, 0.75], atol=1e-15)

    def test_simplex_property(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            dim = int(rng.integers(1, 7))
            params = random_params(rng, n, dim)
            d = embed(rng.standard_normal(dim) * 3.0, params)
            assert d.min() >= 0.0
            assert abs(d.sum() - 1.0) < 1e-9

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, 6, 4)
        feats = rng.standard_normal((5, 4))
        batch = embed(feats, params)
        for j in range(5):
            np.testing.assert_allclose(batch[j], embed(feats[j], params), atol=1e-15)

    def test_large_logits_do_not_overflow(self):
        params = LatentMapParams(
            filters=np.array([[400.0], [-400.0]]), offsets=np.zeros(2)
        )
        d = embed(np.array([2.0]), params)
        assert np.isfinite(d).all()
        np.testing.assert_allclose(d.sum(), 1.0, atol=1e-12)

    def test_matches_gaussian_kernel_form(self):
        """Linear-plus-softmax with filters 2*beta*p and offsets -beta*||p||^2
        reproduces the normalized Gaussian kernel assignment."""
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            dim = int(rng.integers(1, 6))
            beta = float(rng.uniform(0.1, 2.0))
            prototypes = rng.standard_normal((n, dim))
            feature = rng.standard_normal(dim)
            params = LatentMapParams(
                filters=2.0 * beta * prototypes,
                offsets=-beta * (prototypes**2).sum(axis=1),
            )
            direct = gaussian_kernel_assignment(beta, prototypes, feature)
            np.testing.assert_allclose(embed(feature, params), direct, atol=1e-12)

    def test_rejects_bad_inputs(self):
        params = random_params(np.random.default_rng(3), 4, 3)
        with pytest.raises(ValueError):
            embed(np.zeros(2), params)
        with pytest.raises(ValueError):
            embed(np.array([1.0, np.nan, 0.0]), params)


class TestEmbedBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            dim = int(rng.integers(1, 5))
            views = int(rng.integers(1, 4))
            params = random_params(rng, n, dim)
            feats = rng.standard_normal((views, dim))
            probe = rng.standard_normal((views, n))

            def scalar():
                return float((embed(feats, params) * probe).sum())

            gfilters, goffsets = embed_backward(feats, embed(feats, params), probe)
            np.testing.assert_allclose(
                gfilters, central_difference(scalar, params.filters), atol=1e-8
            )
            np.testing.assert_allclose(
                goffsets, central_difference(scalar, params.offsets), atol=1e-8
            )

    def test_constant_upstream_gradient_vanishes(self):
        # shifting all logits equally cannot change a softmax, so a constant
        # upstream direction must map to (numerically) zero offset gradient
        rng = np.random.default_rng(6)
        params = random_params(rng, 5, 3)
        f = rng.standard_normal(3)
        _, goffsets = embed_backward(f, embed(f, params), np.ones(5))
        np.testing.assert_allclose(goffsets, 0.0, atol=1e-15)


class TestInit:
    def test_shapes_and_determinism(self):
        a = init_latent_map(8, 5, np.random.default_rng(9))
        b = init_latent_map(8, 5, np.random.default_rng(9))
        assert a.filters.shape == (8, 5)
        assert a.offsets.shape == (8,)
        np.testing.assert_array_equal(a.filters, b.filters)
        np.testing.assert_array_equal(a.offsets, b.offsets)

    def test_param_validation(self):
        # the map itself is plain fields: model.validate_params checks its
        # shapes against the config, and ModelParams its finiteness
        cfg = TrainConfig(num_classes=3, input_dim=3, views=4, n_patterns=5, feature_dim=4)
        params = init_model(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="n_patterns must be >= 2"):
            TrainConfig(num_classes=3, input_dim=3, n_patterns=1)
        params.latent = LatentMapParams(filters=np.zeros((1, 3)), offsets=np.zeros(1))
        with pytest.raises(ValueError, match="latent_filters has shape"):
            validate_params(params, cfg)
        params.latent = LatentMapParams(filters=np.zeros((5, 3)), offsets=np.zeros(4))
        with pytest.raises(ValueError, match="latent_offsets has shape"):
            validate_params(params, cfg)
        blocks = dict(params.blocks(), latent_filters=np.full((5, 3), np.inf),
                      latent_offsets=np.zeros(5))
        with pytest.raises(ValueError, match="latent_filters must be finite"):
            ModelParams.from_blocks(blocks)
