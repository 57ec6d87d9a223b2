"""The batched, factored model against the dense per-shape reference.

``forward`` and ``backward`` run a whole batch at once and never build the
(V, N, N) node matrices. ``oracles.dense_forward``/``dense_backward`` are
the model as first written, one shape at a time with every node matrix
explicit. Traces must agree shape by shape, and the batch gradients must
equal the per-shape gradients summed, to 1e-12 relative under the default
config and every ablation flag.
"""

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

import viewgraph.model as vgm
from oracles import dense_backward, dense_forward, dense_loss
from viewgraph.classifier import global_feature
from viewgraph.cli import main as cli_main
from viewgraph.dataio import Dataset, ShapeSample
from viewgraph.evalmetrics import accuracy
from viewgraph.geometry import build_view_graph
from viewgraph.model import (
    EVAL_CHUNK,
    TrainConfig,
    backward,
    dense_gradient,
    forward,
    infer,
    init_model,
    predict_features,
    sample_loss,
)
from viewgraph.numeric import row_blocks

# The ablation flags: the boolean fields of TrainConfig. The ignored
# drop_eq10_second_term keyword is an InitVar, not a field.
FLAGS = tuple(f.name for f in dataclasses.fields(TrainConfig) if f.type is bool)
TOLERANCE = 1e-12
TRACE_FIELDS = ("embeddings", "weighted_sums", "alpha", "agg", "global_feature",
                "logits", "probs")
SMALL = dict(num_classes=4, input_dim=32, views=12, n_patterns=8, feature_dim=16)
PAPER = dict(num_classes=10, input_dim=64, views=20, n_patterns=128, feature_dim=256)


def instance(size, flags=None, dims=None, seed=0):
    """``size`` shapes, each on its own randomly oriented rig, and unit-scale params."""
    dims = dims or dict(num_classes=4, input_dim=7, views=6, n_patterns=5, feature_dim=9)
    config = TrainConfig(**dims, **(flags or {}))
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(size):
        dirs = rng.standard_normal((config.views, 3))
        samples.append(ShapeSample(
            label=int(rng.integers(config.num_classes)),
            features=rng.standard_normal((config.views, config.input_dim)).astype(np.float32),
            graph=build_view_graph(dirs / np.linalg.norm(dirs, axis=1, keepdims=True),
                                   config.sigma),
        ))
    params = init_model(config, rng)
    for _, arr in params.blocks():
        arr[...] = rng.standard_normal(arr.shape)
    return config, samples, params


def relative_error(got, want):
    """Max abs difference over the reference's max abs; absolute when that is 0."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    scale = np.abs(want).max(initial=0.0)
    diff = np.abs(got - want).max(initial=0.0)
    return diff / scale if scale > 0.0 else diff


def assert_matches_dense(config, samples, params, single=False):
    arg = samples[0] if single else samples
    trace = forward(arg, params, config)
    grads = vars(backward(trace, params, config))
    losses = np.atleast_1d(sample_loss(trace, arg))
    dense = [dense_forward(s, params, config) for s in samples]
    for name in TRACE_FIELDS:
        got = getattr(trace, name)
        if dense[0][name] is None:
            assert got is None, name
            continue
        want = np.stack([d[name] for d in dense])
        err = relative_error(got[None] if single else got, want)
        assert err <= TOLERANCE, f"trace field {name}: relative error {err:.2e}"
    want_losses = [dense_loss(d, s.label) for d, s in zip(dense, samples)]
    assert relative_error(losses, want_losses) <= TOLERANCE
    summed = {}
    for d, s in zip(dense, samples):
        for name, g in dense_backward(d, s, params, config).items():
            summed[name] = summed.get(name, 0.0) + g
    assert set(grads) == set(summed)
    for name, g in grads.items():
        err = relative_error(dense_gradient(g), summed[name])
        assert err <= TOLERANCE, f"gradient {name}: relative error {err:.2e}"


@pytest.mark.parametrize("size", (1, 5, 16))
@pytest.mark.parametrize("flag", (None,) + FLAGS)
def test_batch_matches_dense_per_shape_oracle(flag, size):
    config, samples, params = instance(size, {flag: True} if flag else {}, seed=size)
    # B=1 goes through the single-sample view, which drops the batch axis
    assert_matches_dense(config, samples, params, single=size == 1)


def test_paper_point_batch_matches_dense_oracle():
    config, samples, params = instance(5, dims=PAPER, seed=3)
    # unit-scale weights would saturate every sigmoid at K = N^2 = 16,384
    params.cls.feat_weights[...] /= config.descriptor_dim
    assert_matches_dense(config, samples, params)


@pytest.mark.parametrize("flag", (None, "no_correlation", "max_pool"))
def test_predict_features_matches_per_shape_forward(flag):
    # more than two describe slices, the last one partial
    config, samples, params = instance(2 * EVAL_CHUNK + 7, {flag: True} if flag else {})
    dataset = Dataset(samples=samples, class_names=[str(i) for i in range(4)])
    per_shape = [forward(s, params, config) for s in samples]
    # every field the config computes; alpha, the similarities and the
    # weighted sums are None in the pooled modes
    names = [name for name, value in vars(per_shape[0]).items() if value is not None]
    got = infer(samples, params, config, *names)
    for name, value in vars(got).items():
        if name not in names:
            assert value is None, name
            continue
        want = np.stack([getattr(t, name) for t in per_shape])
        if name == "labels":
            np.testing.assert_array_equal(value, want)
        else:
            err = relative_error(value, want)
            assert err <= TOLERANCE, f"field {name}: relative error {err:.2e}"
    want = np.stack([t.global_feature for t in per_shape])
    assert relative_error(predict_features(params, config, dataset), want) <= TOLERANCE
    hits = sum(int(t.probs.argmax()) == s.label for t, s in zip(per_shape, samples))
    assert accuracy(params, config, dataset) == hits / len(samples)


@pytest.mark.parametrize("name", ("similarity", "weighted_sums", "alpha"))
@pytest.mark.parametrize("pool", ("mean_pool", "max_pool"))
def test_infer_names_a_field_the_config_does_not_compute(pool, name):
    # the pooled modes skip the view graph and attention, so the describe
    # step leaves these fields None, and infer says which was asked for
    config, samples, params = instance(3, {pool: True})
    with pytest.raises(ValueError, match=f"this config computes no {name}:"):
        infer(samples, params, config, "probs", name)


@pytest.mark.parametrize("size", (1, 2, EVAL_CHUNK, EVAL_CHUNK + 1, EVAL_CHUNK + 2,
                                  2 * EVAL_CHUNK + 1))
def test_infer_never_runs_a_lone_last_row(size, monkeypatch):
    # a one-row GEMM takes BLAS's GEMV path, whose sums differ in the last
    # bits: a lone last row in a feature-layer block or a describe slice
    # would make a shape's output depend on where the set's length falls
    config, samples, params = instance(size)
    gemm_rows, slice_rows = [], []
    describe, default_budget = vgm._describe, vgm.INFER_BLOCK_BYTES

    def recording_gemm(desc, cls):
        gemm_rows.append(len(desc))
        return global_feature(desc, cls)

    def recording_describe(batch, *args):
        slice_rows.append(len(batch))
        return describe(batch, *args)

    monkeypatch.setattr(vgm, "global_feature", recording_gemm)
    monkeypatch.setattr(vgm, "_describe", recording_describe)
    row_bytes = 8 * config.descriptor_dim
    # blocks of one 2-row slice, of two slices, and the default budget
    for chunk, budget in ((2, 2 * row_bytes), (2, 5 * row_bytes), (EVAL_CHUNK, default_budget)):
        monkeypatch.setattr(vgm, "EVAL_CHUNK", chunk)
        monkeypatch.setattr(vgm, "INFER_BLOCK_BYTES", budget)
        gemm_rows.clear()
        slice_rows.clear()
        infer(samples, params, config, "global_feature")
        # the describe slices are the ones forward would be given, at any budget
        assert slice_rows == [len(range(size)[rows]) for rows in row_blocks(size, chunk)]
        assert sum(gemm_rows) == size and max(gemm_rows) <= budget // row_bytes + 1
        assert 1 not in gemm_rows or size == 1


def test_infer_checks_its_samples_once_and_names_the_index_in_them(monkeypatch):
    # 80 samples span three describe slices; the one built at another sigma
    # is named by its index in the whole sequence, not within its slice
    config, samples, params = instance(80, {"sigma": 10.0})
    calls = []
    check = vgm.check_samples

    def counting_check(batch, *args):
        calls.append(len(batch))
        return check(batch, *args)

    monkeypatch.setattr(vgm, "check_samples", counting_check)
    infer(samples, params, config, "probs")
    assert calls == [80]
    bad = samples[70]
    samples[70] = ShapeSample(bad.label, bad.features,
                              build_view_graph(bad.graph.directions, 3.0))
    with pytest.raises(ValueError, match=r"^sample 70: graph built with sigma=3\.0,"):
        infer(samples, params, config, "probs")


@pytest.mark.parametrize("flag", (None,) + FLAGS)
@pytest.mark.parametrize("dims", (SMALL, PAPER), ids=("small", "paper"))
def test_infer_outputs_do_not_depend_on_the_block_budget(dims, flag, monkeypatch):
    # Blocks of one 2-row slice, uneven blocks (4 + 4 + 5 rows) and one
    # block of all 13 rows. Every stage but the feature layer runs on the
    # same slices at any budget, so alpha is the same bytes by construction.
    # A feature-GEMM row is the same bytes at any row count M >= 2 while
    # BLAS keeps one kernel, as at the paper point's K = 16,384 (4,096 under
    # no_latent). OpenBLAS has a small-matrix kernel that sums in another
    # order; with the paper point's vector descriptors (K = 128, F = 256) it
    # takes M <= 4 and not M = 13, so there the rows agree to rounding only.
    size = 13
    config, samples, params = instance(size, {flag: True} if flag else {}, dims=dims, seed=11)
    # unit-scale weights would saturate every sigmoid, which hides rounding
    params.cls.feat_weights[...] /= config.descriptor_dim
    names = ("logits", "probs", "global_feature") + (() if config.pooled_mode else ("alpha",))
    monkeypatch.setattr(vgm, "EVAL_CHUNK", 2)
    runs = []
    for budget_rows in (2, 5, size):
        monkeypatch.setattr(vgm, "INFER_BLOCK_BYTES", budget_rows * 8 * config.descriptor_dim)
        runs.append(infer(samples, params, config, *names))
    feature = runs[0].global_feature
    assert np.count_nonzero((feature > 0.01) & (feature < 0.99)) > feature.size // 2
    exact = dims is SMALL or not config.vector_descriptor
    for name in names:
        for run in runs[1:]:
            if exact or name == "alpha":
                np.testing.assert_array_equal(getattr(run, name), getattr(runs[0], name), name)
            else:
                assert relative_error(getattr(run, name), getattr(runs[0], name)) <= TOLERANCE


def test_infer_holds_one_descriptor_buffer():
    # 200 paper-size shapes run as feature-layer blocks of 96 rows from one
    # 12 MiB buffer; a describe slice holding its own (32, N, N) descriptors
    # would add 4 MiB
    config, samples, params = instance(200, dims=PAPER, seed=5)
    params.cls.feat_weights[...] /= config.descriptor_dim
    tracemalloc.start()
    try:
        infer(samples, params, config, "global_feature")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= vgm.INFER_BLOCK_BYTES + (4 << 20), f"peak {peak / 2**20:.1f} MiB"


def test_row_blocks_cover_the_rows_without_a_lone_row():
    for size in range(2, 41):
        for count in range(1, 101):
            blocks = row_blocks(count, size)
            assert [i for b in blocks for i in range(count)[b]] == list(range(count))
            lengths = [b.stop - b.start for b in blocks]
            assert 1 not in lengths or count == 1
            assert max(lengths) <= size + 1
    assert row_blocks(0, 32) == []
    assert row_blocks(33, 32) == [slice(0, 33)]
    assert row_blocks(34, 32) == [slice(0, 32), slice(32, 34)]


def test_sigma_zero_and_no_spatiality_give_the_same_checkpoint_bytes(tmp_path):
    data = tmp_path / "train.3dvgd"
    assert cli_main(["synth", "--out", str(data), "--classes", "3", "--per-class", "6",
                     "--views", "8", "--input-dim", "10", "--seed", "2"]) == 0
    base = ["train", "--data", str(data), "--n-patterns", "6", "--feature-dim", "8",
            "--learning-rate", "0.05", "--epochs", "3", "--batch-size", "5",
            "--seed", "4", "--plateau-patience", "0"]
    payloads = []
    for extra in (["--sigma", "0"], ["--no-spatiality"]):
        out = tmp_path / f"m{len(payloads)}.3dvgm"
        assert cli_main(base + ["--out", str(out)] + extra) == 0
        blob = out.read_bytes()
        (cfg_len,) = struct.unpack("<I", blob[10:14])
        payloads.append(blob[14 + cfg_len:])
    assert payloads[0] == payloads[1]
