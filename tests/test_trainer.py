"""SGD loop behavior: determinism, convergence, stopping, divergence guards."""

import threading
import time

import numpy as np
import pytest

import viewgraph.trainer as vgt
from viewgraph.dataio import generate_synthetic
from viewgraph.evalmetrics import accuracy
from viewgraph.model import BLOCK_NAMES, Gradients, TrainConfig, init_model
from viewgraph.trainer import corrupt_block, grad_check, train


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
            np.testing.assert_array_equal(arr, b.params.block(name))
        assert [s.loss for s in a.history] == [s.loss for s in b.history]

    def test_different_seed_differs(self):
        ds = small_task()
        a = train(ds, small_config(epochs=4, seed=1))
        b = train(ds, small_config(epochs=4, seed=2))
        assert not np.array_equal(a.params.latent.filters, b.params.latent.filters)

    def test_threads_do_not_change_the_result(self):
        ds = small_task()
        single = train(ds, small_config(epochs=5, threads=1))
        multi = train(ds, small_config(epochs=5, threads=3))
        for name, arr in single.params.blocks():
            np.testing.assert_array_equal(arr, multi.params.block(name))

    def test_threads_bound_the_unsummed_gradients(self, monkeypatch):
        # A slow sum lets the workers run ahead; only a window of ``threads``
        # shapes may be in flight, so at most that many gradients wait.
        lock = threading.Lock()
        waiting = [0]
        most = [0]
        sample_pass, add = vgt._sample_pass, Gradients.add_

        def counted_pass(*args):
            out = sample_pass(*args)
            with lock:
                waiting[0] += 1
                most[0] = max(most[0], waiting[0])
            return out

        def slow_add(self, other):
            time.sleep(0.01)
            with lock:
                waiting[0] -= 1
            return add(self, other)

        monkeypatch.setattr(vgt, "_sample_pass", counted_pass)
        monkeypatch.setattr(Gradients, "add_", slow_add)
        train(small_task(), small_config(epochs=1, batch_size=12, threads=3))
        assert waiting[0] == 0
        assert 1 <= most[0] <= 3

    def test_zero_learning_rate_freezes_parameters(self):
        ds = small_task()
        cfg = small_config(epochs=3, learning_rate=0.0)
        result = train(ds, cfg)
        fresh = init_model(cfg, np.random.default_rng([cfg.seed, 0]))
        for name, arr in result.params.blocks():
            np.testing.assert_array_equal(arr, fresh.block(name))
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
        cfg = small_config(epochs=2, batch_size=32, learning_rate=float("inf"))
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

    def test_sigma_mismatch_is_rebuilt_not_rejected(self):
        ds = small_task()  # graphs built at sigma 10
        cfg = small_config(epochs=2, sigma=4.0)
        result = train(ds, cfg)
        assert result.epochs_run == 2


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
        report = grad_check(
            sample, params, cfg, grad_hook=lambda g: corrupt_block(g, name)
        )
        assert report[name] > 1e-2

    def test_rejects_bad_step(self):
        sample, params, cfg = self._instance()
        with pytest.raises(ValueError):
            grad_check(sample, params, cfg, h=0.0)
