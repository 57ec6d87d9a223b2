"""Global-feature layer, softmax classifier head, and the training loss."""

from types import SimpleNamespace

import numpy as np
import pytest

from oracles import central_difference, masked_sigmoid
from viewgraph.classifier import (
    ClassifierParams,
    classifier_backward,
    classify,
    global_feature,
    init_classifier,
)
from viewgraph.model import dense_gradient, sample_loss
from viewgraph.numeric import sigmoid, stable_softmax


def loss_of(logits, label):
    """The training loss of one shape with these logits and this label."""
    trace = SimpleNamespace(logits=np.asarray(logits, dtype=np.float64))
    return sample_loss(trace, SimpleNamespace(label=label))


def random_classifier(rng, classes, feat, inp):
    return ClassifierParams(
        feat_weights=rng.standard_normal((feat, inp)),
        feat_bias=rng.standard_normal(feat),
        cls_weights=rng.standard_normal((classes, feat)),
        cls_bias=rng.standard_normal(classes),
    )


class TestSigmoid:
    @staticmethod
    def bits(x):
        return np.asarray(x, dtype=np.float64).view(np.uint64)

    def test_bitwise_equal_to_masked_branches(self):
        tiny = np.finfo(np.float64).tiny
        edges = np.array([0.0, -0.0, tiny, -tiny, 5e-324, -5e-324, 745.0, -745.0,
                          709.8, -709.8, 36.8, -36.8, np.inf, -np.inf, np.nan, -np.nan])
        rng = np.random.default_rng(7)
        for x in (edges, rng.standard_normal((32, 256)) * 40.0,
                  rng.standard_normal(1000) * 1e-300, rng.standard_normal((3, 5, 7))):
            np.testing.assert_array_equal(self.bits(sigmoid(x)), self.bits(masked_sigmoid(x)))

    def test_saturates_without_warnings(self):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = sigmoid(np.array([-1e308, -800.0, 800.0, 1e308]))
        assert got.tolist() == [0.0, 0.0, 1.0, 1.0]


class TestGlobalFeature:
    def test_bounded_by_sigmoid(self):
        rng = np.random.default_rng(0)
        params = random_classifier(rng, 3, 6, 4)
        feat = global_feature(rng.standard_normal((2, 4)) * 10.0, params)
        assert feat.shape == (2, 6)
        assert np.all(feat > 0.0) and np.all(feat < 1.0)

    def test_matrix_input_flattens_row_major(self):
        rng = np.random.default_rng(1)
        params = random_classifier(rng, 2, 3, 6)
        agg = rng.standard_normal((4, 2, 3))
        np.testing.assert_array_equal(
            global_feature(agg, params), global_feature(agg.reshape(4, -1), params)
        )
        # row-major: the first row's entries occupy the first columns
        for b in range(4):
            manual = 1.0 / (
                1.0 + np.exp(-(params.feat_weights @ agg[b].reshape(-1) + params.feat_bias))
            )
            np.testing.assert_allclose(global_feature(agg, params)[b], manual, atol=1e-12)

    def test_rejects_wrong_size(self):
        params = random_classifier(np.random.default_rng(2), 2, 3, 6)
        with pytest.raises(ValueError):
            global_feature(np.zeros((2, 5)), params)


class TestClassify:
    def test_simplex(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            params = random_classifier(rng, int(rng.integers(2, 7)), 4, 3)
            probs = stable_softmax(classify(rng.uniform(0.0, 1.0, size=4), params))
            assert probs.min() > 0.0
            assert abs(probs.sum() - 1.0) < 1e-9

    def test_rejects_wrong_width(self):
        params = random_classifier(np.random.default_rng(3), 2, 4, 3)
        with pytest.raises(ValueError, match=r"feature shape \(2, 5\), expected \(\.\.\., 4\)"):
            classify(np.zeros((2, 5)), params)

    def test_logit_ratio(self):
        # two classes, logits (0, ln 3) -> probabilities (0.25, 0.75)
        params = ClassifierParams(
            feat_weights=np.zeros((1, 1)),
            feat_bias=np.zeros(1),
            cls_weights=np.zeros((2, 1)),
            cls_bias=np.array([0.0, np.log(3.0)]),
        )
        logits = classify(np.array([0.5]), params)
        np.testing.assert_array_equal(logits, [0.0, np.log(3.0)])
        np.testing.assert_allclose(stable_softmax(logits), [0.25, 0.75], atol=1e-15)


class TestLoss:
    def test_uniform_prediction_costs_log_classes(self):
        for label in (0, 3, 7, 9):
            assert loss_of(np.full(10, 0.4), label) == pytest.approx(
                2.302585092994046, rel=1e-12
            )

    def test_confident_correct_prediction_is_cheap(self):
        assert loss_of(np.log([0.999, 0.0005, 0.0005]), 0) < 0.002

    def test_saturated_logits_give_the_exact_loss(self):
        # the true class's probability underflows; a clamp at 1e-12 gave 27.6
        assert loss_of([0.0, -800.0], 1) == 800.0
        assert loss_of([0.0, -800.0], 0) == 0.0

    def test_label_out_of_range_rejected(self):
        for label in (-1, 2):
            with pytest.raises(ValueError, match="out of range"):
                loss_of([0.0, 1.0], label)


class TestBackward:
    def test_all_blocks_match_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            classes = int(rng.integers(2, 5))
            feat = int(rng.integers(2, 5))
            inp = int(rng.integers(2, 6))
            params = random_classifier(rng, classes, feat, inp)
            # a batch of three: the parameter gradients are summed over it
            agg = rng.standard_normal((3, inp))
            labels = rng.integers(classes, size=3)

            def loss():
                logits = classify(global_feature(agg, params), params)
                return sum(loss_of(z, label) for z, label in zip(logits, labels))

            feature = global_feature(agg, params)
            probs = stable_softmax(classify(feature, params))
            g_pre, flat, gfb, gcw, gcb, gagg = classifier_backward(
                agg, feature, probs, labels, params
            )
            np.testing.assert_allclose(
                dense_gradient((g_pre, flat)), central_difference(loss, params.feat_weights),
                atol=1e-8,
            )
            np.testing.assert_allclose(
                gfb, central_difference(loss, params.feat_bias), atol=1e-8
            )
            np.testing.assert_allclose(
                gcw, central_difference(loss, params.cls_weights), atol=1e-8
            )
            np.testing.assert_allclose(
                gcb, central_difference(loss, params.cls_bias), atol=1e-8
            )
            np.testing.assert_allclose(
                gagg, central_difference(loss, agg), atol=1e-8
            )

    def test_logit_gradient_is_probability_error(self):
        rng = np.random.default_rng(5)
        params = random_classifier(rng, 3, 4, 2)
        agg = rng.standard_normal((1, 2))
        feature = global_feature(agg, params)
        probs = stable_softmax(classify(feature, params))
        *_, gcb, _ = classifier_backward(agg, feature, probs, [1], params)
        np.testing.assert_allclose(gcb, probs[0] - [0.0, 1.0, 0.0], atol=1e-15)
        with pytest.raises(ValueError, match="out of range"):
            classifier_backward(agg, feature, probs, [3], params)


class TestInit:
    def test_shapes(self):
        params = init_classifier(4, 8, 16, np.random.default_rng(6))
        assert params.feat_weights.shape == (8, 16)
        assert params.feat_bias.shape == (8,)
        assert params.cls_weights.shape == (4, 8)
        assert params.cls_bias.shape == (4,)
        np.testing.assert_array_equal(params.feat_bias, 0.0)
        np.testing.assert_array_equal(params.cls_bias, 0.0)

    def test_input_rms_scales_first_layer(self):
        a = init_classifier(4, 8, 16, np.random.default_rng(7), input_rms=1.0)
        b = init_classifier(4, 8, 16, np.random.default_rng(7), input_rms=0.01)
        np.testing.assert_allclose(
            b.feat_weights, a.feat_weights * 100.0, rtol=1e-12
        )
        with pytest.raises(ValueError):
            init_classifier(4, 8, 16, np.random.default_rng(8), input_rms=0.0)
