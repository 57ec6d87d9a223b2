"""SGD loop behavior: determinism, convergence, stopping, divergence guards,
the row-blocked feature-layer update."""

import numpy as np
import pytest

import viewgraph.trainer as vgt
from viewgraph.dataio import Dataset, ShapeSample, generate_synthetic
from viewgraph.errors import ValidationError
from viewgraph.evalmetrics import accuracy
from viewgraph.model import BLOCK_NAMES, TrainConfig, backward, forward, init_model
from viewgraph.trainer import grad_check, train


def small_task(noise=0.05, seed=11):
    return generate_synthetic(3, 6, 6, 8, noise, seed, split="train")


def small_config(**kw):
    base = dict(num_classes=3, input_dim=8, views=6, n_patterns=4, feature_dim=8,
                learning_rate=0.03, epochs=15, batch_size=4, seed=2,
                plateau_patience=0)
    base.update(kw)
    return TrainConfig(**base)


class TestDeterminism:
    def test_same_seed_same_parameters(self):
        ds = small_task()
        cfg = small_config(epochs=6)
        a = train(ds, cfg)
        b = train(ds, cfg)
        for name, arr in a.params.blocks():
            np.testing.assert_array_equal(arr, dict(b.params.blocks())[name])
        assert [s.loss for s in a.history] == [s.loss for s in b.history]

    def test_different_seed_differs(self):
        ds = small_task()
        a = train(ds, small_config(epochs=4, seed=1))
        b = train(ds, small_config(epochs=4, seed=2))
        assert not np.array_equal(a.params.latent.filters, b.params.latent.filters)

    def test_zero_learning_rate_freezes_parameters(self):
        ds = small_task()
        cfg = small_config(epochs=3, learning_rate=0.0)
        result = train(ds, cfg)
        fresh = init_model(cfg, np.random.default_rng([cfg.seed, 0]))
        for name, arr in result.params.blocks():
            np.testing.assert_array_equal(arr, dict(fresh.blocks())[name])
        # loss is then identical every epoch up to shuffle order
        losses = [s.loss for s in result.history]
        np.testing.assert_allclose(losses, losses[0], rtol=1e-12)


class TestConvergence:
    def test_memorizes_small_task(self):
        ds = small_task()
        cfg = small_config(epochs=50)
        result = train(ds, cfg)
        assert accuracy(result.params, cfg, ds) == 1.0
        assert result.history[-1].loss < result.history[0].loss * 0.7

    def test_loss_trend_is_downward(self):
        ds = small_task()
        result = train(ds, small_config(epochs=10))
        assert result.history[-1].loss < result.history[0].loss


class TestStopping:
    def test_plateau_stops_early(self):
        ds = small_task()
        # frozen parameters cannot improve, so patience trips immediately
        cfg = small_config(epochs=50, learning_rate=0.0, plateau_patience=3)
        result = train(ds, cfg)
        assert result.stopped_early
        assert result.epochs_run == 4  # first epoch sets the best, then 3 stalls

    def test_patience_zero_disables_early_stop(self):
        ds = small_task()
        cfg = small_config(epochs=8, learning_rate=0.0, plateau_patience=0)
        result = train(ds, cfg)
        assert not result.stopped_early
        assert result.epochs_run == 8

    def test_callback_can_stop_training(self):
        ds = small_task()
        seen = []

        def stop_at_three(stats):
            seen.append(stats.epoch)
            return stats.epoch == 2

        result = train(ds, small_config(epochs=30), callback=stop_at_three)
        assert result.stopped_early
        assert seen == [0, 1, 2]

    def test_resume_from_given_parameters(self):
        ds = small_task()
        cfg = small_config(epochs=4)
        first = train(ds, cfg)
        resumed = train(ds, cfg, params=first.params)
        # resuming re-runs the same shuffle stream on better parameters
        assert resumed.history[0].loss < first.history[0].loss


class TestGuards:
    def test_divergence_raises_runtime_error(self):
        ds = small_task()
        # a finite but huge step overflows the parameters after one update
        cfg = small_config(epochs=2, batch_size=32, learning_rate=1e300)
        with pytest.raises(RuntimeError, match="diverged"):
            train(ds, cfg)

    def test_dataset_config_mismatch(self):
        ds = small_task()
        with pytest.raises(ValueError):
            train(ds, small_config(num_classes=4))
        with pytest.raises(ValueError):
            train(ds, small_config(views=5))
        with pytest.raises(ValueError):
            train(ds, small_config(input_dim=9))

    def test_empty_dataset_is_rejected(self):
        empty = Dataset(samples=[], class_names=["a", "b", "c"])
        with pytest.raises(ValueError, match="cannot train on an empty dataset"):
            train(empty, small_config())

    def test_sigma_mismatch_is_rejected_before_any_epoch(self):
        ds = small_task()  # graphs built at sigma 10
        epochs = []
        with pytest.raises(ValueError, match="sigma=10.0, config has sigma=4.0") as excinfo:
            train(ds, small_config(epochs=2, sigma=4.0), callback=epochs.append)
        assert "diverged" not in str(excinfo.value)
        assert epochs == []

    # A hand-built dataset is not validated as a loaded one is: a bad later
    # sample must still be caught before any epoch, not reported as divergence.
    @pytest.mark.parametrize("bad,message", [
        (lambda s: ShapeSample(s.label, np.zeros((6, 7), np.float32), s.graph),
         r"sample 9: features \(6, 7\), expected \(6, 8\)"),
        (lambda s: ShapeSample(7, s.features, s.graph), r"sample 9: label 7 out of range"),
        (lambda s: ShapeSample(s.label, np.where(np.eye(6, 8) > 0, np.nan, s.features),
                               s.graph), "sample 9: non-finite feature values"),
    ], ids=["shape", "label", "nan"])
    def test_bad_sample_is_rejected_before_any_epoch(self, bad, message):
        ds = small_task()
        ds.samples[9] = bad(ds.samples[9])
        epochs = []
        with pytest.raises(ValidationError, match=message) as excinfo:
            train(ds, small_config(epochs=2), callback=epochs.append)
        assert "diverged" not in str(excinfo.value)
        assert epochs == []

    @pytest.mark.parametrize("flag", ["no_spatiality", "mean_pool"])
    def test_sigma_mismatch_is_ignored_when_similarities_are_unread(self, flag):
        ds = small_task()
        assert train(ds, small_config(epochs=1, sigma=4.0, **{flag: True})).epochs_run == 1


class TestRowBlockedUpdate:
    """The feature-layer update from its factors equals the dense
    ``W -= (lr/B) * (g_pre.T @ flat)`` bit for bit."""

    @staticmethod
    def _factors(batch, feature_dim, n_patterns=4, **flags):
        cfg = TrainConfig(num_classes=3, input_dim=5, views=3, n_patterns=n_patterns,
                          feature_dim=feature_dim, **flags)
        samples = generate_synthetic(3, 6, 3, 5, 0.3, 4).samples[:batch]
        rng = np.random.default_rng([feature_dim, batch])
        params = init_model(cfg, rng)
        for _, arr in params.blocks():
            arr[...] = rng.standard_normal(arr.shape)
        g_pre, flat = backward(forward(samples, params, cfg), params, cfg).feat_weights
        assert g_pre.shape == (batch, feature_dim) and flat.shape == (batch, cfg.descriptor_dim)
        return params.cls.feat_weights, g_pre, flat

    @staticmethod
    def _assert_dense_bytes(weights, g_pre, flat, step):
        grad = g_pre.T @ flat
        grad *= step
        # from zero weights every bit of the scaled product shows
        for start in (weights, np.zeros_like(weights)):
            want = start - grad
            got = start.copy()
            vgt._subtract_outer(got, g_pre, flat, step)
            np.testing.assert_array_equal(got, want)

    # Blocks of 4 rows: F = 3 fits in one block, F = 10 ends in a partial
    # block of 2 rows, and F = 9's one-row remainder joins the block before it.
    @pytest.mark.parametrize("batch", (1, 16))
    @pytest.mark.parametrize("feature_dim", (3, 9, 10))
    @pytest.mark.parametrize("flag", (None, "no_correlation", "mean_pool"))
    def test_matches_dense_update(self, monkeypatch, flag, feature_dim, batch):
        weights, g_pre, flat = self._factors(batch, feature_dim,
                                             **({flag: True} if flag else {}))
        monkeypatch.setattr(vgt, "UPDATE_BLOCK_BYTES", 4 * flat[0].nbytes)
        self._assert_dense_bytes(weights, g_pre, flat, 0.03 / batch)

    # K = 128^2 and the module's own block size of 16 rows: 40 rows end in a
    # partial block of 8. 33 rows leave one, whose one-row product would take
    # the GEMV path; at B = 2 that path rounds some of its sums differently.
    @pytest.mark.parametrize("feature_dim,batch", ((40, 16), (33, 2)))
    def test_matches_dense_update_at_paper_width(self, feature_dim, batch):
        weights, g_pre, flat = self._factors(batch, feature_dim, n_patterns=128)
        assert vgt.UPDATE_BLOCK_BYTES // flat[0].nbytes == 16
        self._assert_dense_bytes(weights, g_pre, flat, 0.009 / batch)


class TestGradCheck:
    def _instance(self, **flags):
        from viewgraph.dataio import ShapeSample
        from viewgraph.geometry import build_view_graph, default_viewpoints

        cfg = TrainConfig(num_classes=3, input_dim=5, views=3, n_patterns=4,
                          feature_dim=5, **flags)
        rng = np.random.default_rng(13)
        graph = build_view_graph(default_viewpoints(3), cfg.sigma)
        sample = ShapeSample(
            label=1, features=rng.standard_normal((3, 5)).astype(np.float32),
            graph=graph,
        )
        params = init_model(cfg, rng)
        for _, arr in params.blocks():
            arr[...] = rng.standard_normal(arr.shape)
        return sample, params, cfg

    def test_analytic_gradients_pass(self):
        sample, params, cfg = self._instance()
        report = grad_check(sample, params, cfg)
        assert set(report) == set(BLOCK_NAMES)
        assert max(report.values()) < 1e-5

    @pytest.mark.parametrize("name", BLOCK_NAMES)
    def test_corrupted_block_is_detected(self, name):
        sample, params, cfg = self._instance()

        def corrupt(grads):
            wrong = getattr(grads, name) + np.ones(dict(params.blocks())[name].shape)
            setattr(grads, name, wrong)

        report = grad_check(sample, params, cfg, grad_hook=corrupt)
        assert report[name] > 1e-2

    @pytest.mark.parametrize("flag", ["no_latent", "mean_pool"])
    def test_blocks_left_out_compare_as_zero(self, flag):
        sample, params, cfg = self._instance(**{flag: True})
        report = grad_check(sample, params, cfg)
        assert set(report) == set(BLOCK_NAMES)
        assert max(report.values()) < 1e-5

    def test_rejects_bad_step(self):
        sample, params, cfg = self._instance()
        for h in (0.0, -1e-5, np.nan, np.inf):
            with pytest.raises(ValueError, match="step h must be finite and > 0"):
                grad_check(sample, params, cfg, h=h)
