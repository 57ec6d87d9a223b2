"""Acceptance gate: one test per shipped guarantee, each printing a single
PASS/FAIL line (visible with ``pytest -rA`` or ``-s``) before asserting.

The numbered checks cover: (1) finite-difference gradient certification,
(2) a 10,000-case algebraic-invariant suite, (3) view-permutation
invariance, (4) the kernel/filter evaluation equivalence, (5) learning on
the frozen synthetic task, (6) the ablation direction check, (7) exact
retrieval-metric agreement with the naive oracle, (8) bitwise training
determinism, and (9) loader robustness under fuzzing.
"""

import dataclasses
import filecmp
import struct
import time

import numpy as np

from oracles import gaussian_kernel_assignment
from test_evalmetrics import (
    assert_report_equals_oracle,
    random_run,
    summary_values,
)
from viewgraph import dataio
from viewgraph.cli import main as cli_main
from viewgraph.correlation import all_cumulative_correlations, pattern_correlation
from viewgraph.dataio import ShapeSample, generate_synthetic
from viewgraph.errors import ViewGraphError
from viewgraph.evalmetrics import (
    RetrievalRun,
    accuracy,
    mean_average_precision,
    shrec_metrics,
)
from viewgraph.geometry import build_view_graph, default_viewpoints
from viewgraph.model import TrainConfig, forward, init_model
from viewgraph.semantics import LatentMapParams, embed
from viewgraph.trainer import grad_check, train


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"acceptance {number} [{status}] {name}: {detail}")
    assert passed, f"acceptance {number} {name}: {detail}"


def generic_sample_and_params(config, seed):
    """Random instance with all parameter blocks at unit scale, where every
    gradient is far above the finite-difference noise floor."""
    rng = np.random.default_rng(seed)
    graph = build_view_graph(default_viewpoints(config.views), config.sigma)
    sample = ShapeSample(
        label=int(rng.integers(config.num_classes)),
        features=rng.standard_normal((config.views, config.input_dim)).astype(
            np.float32
        ),
        graph=graph,
    )
    params = init_model(config, rng)
    for _, arr in params.blocks():
        arr[...] = rng.standard_normal(arr.shape)
    return sample, params


class TestAcceptance:
    def test_1_gradient_certification(self):
        started = time.perf_counter()
        config = TrainConfig(
            num_classes=3, input_dim=6, views=3, n_patterns=4, feature_dim=5
        )
        worst = {}
        # the classifier-weight gradient has two routes (classifier path and
        # attention path); check the summed default and the dropped variant
        for dropped in (False, True):
            cfg = dataclasses.replace(config, drop_eq10_second_term=dropped)
            sample, params = generic_sample_and_params(cfg, seed=0)
            for name, err in grad_check(sample, params, cfg).items():
                key = f"{name}{'/dropped' if dropped else ''}"
                worst[key] = err
        elapsed = time.perf_counter() - started
        peak = max(worst.values())
        report(
            1,
            "gradient certification",
            peak < 1e-5 and elapsed < 30.0,
            f"max relative error {peak:.3e} over {len(worst)} blocks "
            f"(tolerance 1e-5), {elapsed:.1f}s (budget 30s)",
        )

    def test_2_algebraic_invariants(self):
        rng = np.random.default_rng(1)
        checks = 0
        iterations = 2500
        for _ in range(iterations):
            views = int(rng.integers(2, 7))
            config = TrainConfig(
                num_classes=int(rng.integers(2, 5)),
                input_dim=int(rng.integers(2, 7)),
                views=views,
                n_patterns=int(rng.integers(2, 6)),
                feature_dim=int(rng.integers(3, 7)),
                sigma=float(rng.uniform(0.0, 12.0)),
            )
            graph = build_view_graph(default_viewpoints(views), config.sigma)
            sample = ShapeSample(
                label=int(rng.integers(config.num_classes)),
                features=rng.standard_normal((views, config.input_dim)).astype(
                    np.float32
                ),
                graph=graph,
            )
            params = init_model(config, rng)
            trace = forward(sample, params, config)

            # softmax simplex: every embedding row sums to one
            rows = trace.embeddings.sum(axis=1)
            assert np.all(np.abs(rows - 1.0) < 1e-9)
            assert np.all(trace.embeddings >= 0.0)
            checks += 1

            # softmax simplex: attention weights and class posterior
            assert abs(trace.alpha.sum() - 1.0) < 1e-9
            assert abs(trace.probs.sum() - 1.0) < 1e-9
            assert np.all(trace.alpha >= 0.0) and np.all(trace.probs >= 0.0)
            checks += 1

            # correlation mass: a pairwise correlation has unit mass, and a
            # node's cumulative correlation carries its similarity-row mass
            a, b = rng.integers(views, size=2)
            pair = pattern_correlation(trace.embeddings[a], trace.embeddings[b])
            assert abs(pair.sum() - 1.0) < 1e-9
            cums, _ = all_cumulative_correlations(trace.embeddings, graph.similarity)
            masses = cums.reshape(views, -1).sum(axis=1)
            assert np.all(np.abs(masses - graph.similarity.sum(axis=1)) < 1e-8)
            checks += 1

            # spatial similarity: symmetric, unit diagonal, bounded, and
            # monotone — a larger decay rate can only shrink the weights
            sim = graph.similarity
            assert np.array_equal(sim, sim.T)
            assert np.array_equal(np.diag(sim), np.ones(views))
            assert np.all(sim > 0.0) and np.all(sim <= 1.0)
            steeper = build_view_graph(
                graph.directions, config.sigma + float(rng.uniform(0.5, 5.0))
            )
            assert np.all(steeper.similarity <= sim + 1e-15)
            checks += 1
        report(
            2,
            "algebraic invariants",
            checks == 4 * iterations,
            f"{checks} property checks across {iterations} random instances",
        )

    def test_3_permutation_invariance(self):
        rng = np.random.default_rng(2)
        config = TrainConfig(
            num_classes=3, input_dim=10, views=8, n_patterns=5, feature_dim=6
        )
        directions = default_viewpoints(config.views)
        worst_feature = 0.0
        worst_alpha = 0.0
        for _ in range(100):
            features = rng.standard_normal((config.views, config.input_dim)).astype(
                np.float32
            )
            params = init_model(config, rng)
            for _, arr in params.blocks():
                arr[...] = rng.standard_normal(arr.shape)
            graph = build_view_graph(directions, config.sigma)
            base = forward(ShapeSample(0, features, graph), params, config)

            perm = rng.permutation(config.views)
            shuffled_graph = build_view_graph(directions[perm], config.sigma)
            moved = forward(
                ShapeSample(0, features[perm], shuffled_graph), params, config
            )
            worst_feature = max(
                worst_feature,
                float(np.max(np.abs(moved.global_feature - base.global_feature))),
            )
            worst_alpha = max(
                worst_alpha, float(np.max(np.abs(moved.alpha - base.alpha[perm])))
            )
        report(
            3,
            "permutation invariance",
            worst_feature < 1e-10 and worst_alpha < 1e-10,
            f"100 shapes: max global-feature drift {worst_feature:.2e} "
            f"(tolerance 1e-10), max attention drift {worst_alpha:.2e}",
        )

    def test_4_kernel_equivalence(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(1000):
            num_patterns = int(rng.integers(2, 9))
            dim = int(rng.integers(2, 11))
            beta = float(rng.uniform(0.1, 2.0))
            prototypes = rng.standard_normal((num_patterns, dim))
            feature = rng.standard_normal(dim)
            direct = gaussian_kernel_assignment(beta, prototypes, feature)
            params = LatentMapParams(
                filters=2.0 * beta * prototypes,
                offsets=-beta * (prototypes**2).sum(axis=1),
            )
            worst = max(worst, float(np.max(np.abs(embed(feature, params) - direct))))
        report(
            4,
            "kernel equivalence",
            worst < 1e-12,
            f"1000 random instances: max assignment difference {worst:.2e} "
            f"(tolerance 1e-12)",
        )

    # the frozen synthetic operating point used by checks 5 and 6
    TASK_CONFIG = dict(
        num_classes=4, input_dim=32, views=12, n_patterns=8, feature_dim=16,
        sigma=10.0, learning_rate=0.009, epochs=50, batch_size=16,
    )

    def task_data(self):
        train_ds = generate_synthetic(4, 50, 12, 32, noise=0.1, seed=7, split="train")
        test_ds = generate_synthetic(4, 50, 12, 32, noise=0.1, seed=7, split="test")
        return train_ds, test_ds

    def test_5_synthetic_task_learning(self):
        started = time.perf_counter()
        train_ds, test_ds = self.task_data()
        config = TrainConfig(seed=7, **self.TASK_CONFIG)
        result = train(train_ds, config)
        train_acc = accuracy(result.params, config, train_ds)
        test_acc = accuracy(result.params, config, test_ds)
        elapsed = time.perf_counter() - started
        report(
            5,
            "synthetic-task learning",
            train_acc >= 0.95
            and test_acc >= 0.90
            and result.epochs_run <= 50
            and elapsed < 300.0,
            f"train accuracy {train_acc:.3f} (floor 0.95), test accuracy "
            f"{test_acc:.3f} (floor 0.90), {result.epochs_run} epochs, "
            f"{elapsed:.1f}s single-threaded (budget 300s)",
        )

    def test_6_ablation_direction(self):
        train_ds, test_ds = self.task_data()
        ablations = ("no_spatiality", "no_attention", "mean_pool", "max_pool")
        means = {}
        for variant in ("full",) + ablations:
            scores = []
            for seed in range(5):
                overrides = {variant: True} if variant != "full" else {}
                config = TrainConfig(seed=seed, **self.TASK_CONFIG, **overrides)
                result = train(train_ds, config)
                scores.append(accuracy(result.params, config, test_ds))
            means[variant] = float(np.mean(scores))
        passed = all(means["full"] >= means[a] - 0.01 for a in ablations)
        detail = ", ".join(f"{k} {v:.3f}" for k, v in means.items())
        report(
            6,
            "ablation direction",
            passed,
            f"5-seed mean test accuracy — {detail} (full may trail by at "
            f"most 0.01)",
        )

    def test_7_retrieval_oracle_equivalence(self):
        rng = np.random.default_rng(4)
        instances = 0
        for case in range(200):
            metric = "cosine" if case % 5 == 0 else "euclidean"
            run = random_run(rng, metric=metric, max_items=100)
            cutoff = None if rng.random() < 0.7 else int(rng.integers(1, 20))
            report_obj = assert_report_equals_oracle(run, cutoff=cutoff)
            assert mean_average_precision(run) == report_obj.micro.map
            instances += 1

        # hand-enumerable 6-item instance, frozen from the pairwise oracle
        feats = np.array([[0.0], [1.0], [4.0], [2.0], [3.0], [5.0]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        hand = shrec_metrics(RetrievalRun.self_retrieval(feats, labels))
        frozen_micro = (
            0.3333333333333333,
            0.5,
            0.4000000000000001,
            0.5597222222222222,
            0.44890440060287845,
        )
        hand_ok = summary_values(hand.micro) == frozen_micro
        report(
            7,
            "retrieval-metric oracle equivalence",
            instances == 200 and hand_ok,
            f"{instances} random instances of <=100 items matched the naive "
            f"reference exactly; 6-item hand example reproduced the frozen "
            f"oracle values",
        )

    def test_8_determinism(self, tmp_path):
        data = tmp_path / "train.3dvgd"
        assert (
            cli_main(
                [
                    "synth", "--out", str(data), "--classes", "2",
                    "--per-class", "4", "--views", "4", "--input-dim", "6",
                    "--seed", "5",
                ]
            )
            == 0
        )
        base_args = [
            "train", "--data", str(data), "--n-patterns", "4",
            "--feature-dim", "8", "--learning-rate", "0.02", "--epochs", "3",
            "--batch-size", "4", "--seed", "1", "--plateau-patience", "0",
        ]

        def run(out, *extra):
            assert cli_main(base_args + ["--out", str(out), *extra]) == 0
            return out

        def payload(path):
            """Learned parameter bytes, skipping the config header."""
            blob = path.read_bytes()
            (cfg_len,) = struct.unpack("<I", blob[10:14])
            return blob[14 + cfg_len:]

        first = run(tmp_path / "a.3dvgm")
        second = run(tmp_path / "b.3dvgm")
        same_seed_identical = filecmp.cmp(first, second, shallow=False)

        zero_sigma = run(tmp_path / "s0.3dvgm", "--sigma", "0")
        no_spatial = run(tmp_path / "ns.3dvgm", "--no-spatiality")
        flat_identical = payload(zero_sigma) == payload(no_spatial)
        report(
            8,
            "training determinism",
            same_seed_identical and flat_identical,
            "same-seed checkpoints bit-identical; sigma=0 and the "
            "no-spatiality flag learn bit-identical parameters",
        )

    def test_9_loader_fuzz(self, tmp_path):
        base_path = tmp_path / "base.3dvgd"
        dataio.save(generate_synthetic(3, 4, 6, 8, noise=0.1, seed=13), base_path)
        base = bytearray(base_path.read_bytes())
        target = tmp_path / "fuzzed.3dvgd"
        rng = np.random.default_rng(5)

        def noise(size: int) -> bytes:
            return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()

        loaded_ok = 0
        typed_errors = 0
        for case in range(1000):
            blob = bytearray(base)
            mode = case % 5
            if mode == 0:
                blob = blob[: int(rng.integers(0, len(blob)))]
            elif mode == 1:
                for _ in range(int(rng.integers(1, 9))):
                    pos = int(rng.integers(len(blob)))
                    blob[pos] ^= int(rng.integers(1, 256))
            elif mode == 2:
                blob += noise(int(rng.integers(1, 65)))
            elif mode == 3:
                blob = bytearray(noise(int(rng.integers(0, 201))))
            else:
                pos = int(rng.integers(max(1, len(blob) - 4)))
                blob[pos : pos + 4] = noise(4)
                assert len(blob) == len(base)
            target.write_bytes(bytes(blob))
            try:
                dataio.load(target)
            except ViewGraphError:
                typed_errors += 1
            except Exception as exc:  # noqa: BLE001 - the whole point
                report(
                    9,
                    "loader fuzz",
                    False,
                    f"case {case} escaped with {type(exc).__name__}: {exc}",
                )
            else:
                loaded_ok += 1
        report(
            9,
            "loader fuzz",
            typed_errors + loaded_ok == 1000 and typed_errors >= 300,
            f"1000 corrupted files: {typed_errors} typed errors, "
            f"{loaded_ok} still-valid loads, 0 crashes",
        )
