"""The composed network: forward traces, ablation flags, checkpoints."""

import dataclasses
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

import viewgraph.model as vgm
from oracles import dense_backward, dense_forward
from viewgraph.dataio import ShapeSample, generate_synthetic
from viewgraph.errors import DataIOError, FormatError, ViewGraphError
from viewgraph.geometry import build_view_graph, default_viewpoints
from viewgraph.model import (
    BLOCK_NAMES,
    TrainConfig,
    backward,
    dense_gradient,
    forward,
    init_model,
    load_checkpoint,
    sample_loss,
    save_checkpoint,
    validate_params,
)

ALL_FLAGS = (
    "no_spatiality",
    "no_attention",
    "no_latent",
    "no_correlation",
    "mean_pool",
    "max_pool",
    "drop_eq10_second_term",
)


def make_instance(seed=0, views=4, classes=3, inp=5, patterns=4, feat=6, **flags):
    cfg = TrainConfig(
        num_classes=classes, input_dim=inp, views=views, n_patterns=patterns,
        feature_dim=feat, **flags,
    )
    rng = np.random.default_rng(seed)
    graph = build_view_graph(default_viewpoints(views), cfg.sigma)
    feats = rng.standard_normal((views, inp)).astype(np.float32)
    sample = ShapeSample(label=int(rng.integers(classes)), features=feats, graph=graph)
    params = init_model(cfg, rng)
    return cfg, sample, params


def read_config(path):
    data = path.read_bytes()
    (cfg_len,) = struct.unpack_from("<I", data, 10)
    return json.loads(data[14 : 14 + cfg_len])


def write_config(path, blob):
    """Replace a checkpoint's config block, keeping its parameter payload."""
    data = path.read_bytes()
    (cfg_len,) = struct.unpack_from("<I", data, 10)
    new = json.dumps(blob, sort_keys=True).encode()
    path.write_bytes(data[:10] + struct.pack("<I", len(new)) + new + data[14 + cfg_len :])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(num_classes=1)
        with pytest.raises(ValueError):
            TrainConfig(num_classes=3, n_patterns=1)
        for value in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(num_classes=3, learning_rate=value)
            with pytest.raises(ValueError, match="sigma"):
                TrainConfig(num_classes=3, sigma=value)
        with pytest.raises(ValueError):
            TrainConfig(num_classes=3, mean_pool=True, max_pool=True)
        # a zero learning rate is a legal frozen-parameter run
        TrainConfig(num_classes=3, learning_rate=0.0)

    def test_derived_dimensions(self):
        cfg = TrainConfig(num_classes=3, input_dim=7, n_patterns=5)
        assert cfg.effective_patterns == 5
        assert cfg.descriptor_dim == 25
        assert TrainConfig(num_classes=3, input_dim=7, no_latent=True).effective_patterns == 7
        assert TrainConfig(num_classes=3, n_patterns=5, no_correlation=True).descriptor_dim == 5
        assert TrainConfig(num_classes=3, n_patterns=5, mean_pool=True).descriptor_dim == 5


class TestForward:
    def test_trace_shapes_and_simplex(self):
        cfg, sample, params = make_instance()
        trace = forward(sample, params, cfg)
        assert trace.embeddings.shape == (4, 4)
        assert trace.weighted_sums.shape == (4, 4)
        assert trace.alpha.shape == (4,)
        assert trace.agg.shape == (4, 4)
        assert trace.global_feature.shape == (6,)
        assert trace.probs.shape == (3,)
        for simplex in (trace.embeddings.sum(axis=1), [trace.alpha.sum()], [trace.probs.sum()]):
            np.testing.assert_allclose(simplex, 1.0, atol=1e-9)
        # a sequence of samples keeps the batch axis
        batch = forward([sample] * 3, params, cfg)
        for name, value in vars(trace).items():
            assert getattr(batch, name).shape == (3,) + value.shape, name

    @pytest.mark.parametrize("flag", ALL_FLAGS)
    def test_every_flag_runs_and_classifies(self, flag):
        cfg, sample, params = make_instance(**{flag: True})
        trace = forward(sample, params, cfg)
        assert trace.probs.shape == (3,)
        np.testing.assert_allclose(trace.probs.sum(), 1.0, atol=1e-9)
        loss = sample_loss(trace, sample)
        assert np.isfinite(loss) and loss > 0.0

    def test_no_attention_gives_uniform_weights(self):
        cfg, sample, params = make_instance(no_attention=True)
        trace = forward(sample, params, cfg)
        np.testing.assert_array_equal(trace.alpha, np.full(4, 0.25))

    def test_no_attention_c_gives_uniform_weights(self, tmp_path):
        # scores blind to the node descriptors are equal for every view, so a
        # checkpoint with the retired ``no_attention_c`` set loads as no_attention
        cfg, sample, params = make_instance(views=6)
        path = tmp_path / "m"
        save_checkpoint(path, params, cfg)
        write_config(path, {**read_config(path), "no_attention_c": True})
        loaded_params, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == dataclasses.replace(cfg, no_attention=True)
        trace = forward(sample, loaded_params, loaded_cfg)
        np.testing.assert_array_equal(trace.alpha, np.full(6, 1.0 / 6.0))

    def test_probs_are_the_softmax_of_the_logits(self):
        cfg, sample, params = make_instance()
        trace = forward(sample, params, cfg)
        shifted = np.exp(trace.logits - trace.logits.max())
        np.testing.assert_array_equal(trace.probs, shifted / shifted.sum())
        want = -np.log(trace.probs[sample.label])
        assert sample_loss(trace, sample) == pytest.approx(want, rel=1e-12)

    def test_context_blind_scores_still_classify_identically(self, tmp_path):
        # the classifier-weight context entered all scores equally, so the
        # scores no longer see it: a checkpoint written with the retired
        # ``no_attention_wf`` set classifies exactly like the full model, and
        # new classifier weights leave the attention weights as they were
        cfg, sample, params = make_instance()
        path = tmp_path / "m"
        save_checkpoint(path, params, cfg)
        write_config(path, {**read_config(path), "no_attention_wf": True})
        blind_params, blind_cfg = load_checkpoint(path)
        full = forward(sample, params, cfg)
        blind = forward(sample, blind_params, blind_cfg)
        np.testing.assert_array_equal(blind.alpha, full.alpha)
        np.testing.assert_array_equal(blind.probs, full.probs)
        cls_weights = dict(blind_params.blocks())["cls_weights"]
        cls_weights[...] = np.random.default_rng(5).standard_normal(cls_weights.shape)
        np.testing.assert_array_equal(
            forward(sample, blind_params, cfg).alpha, full.alpha
        )

    def test_mean_pool_pools_embeddings(self):
        cfg, sample, params = make_instance(mean_pool=True)
        trace = forward(sample, params, cfg)
        np.testing.assert_allclose(
            trace.agg, trace.embeddings.mean(axis=0), atol=1e-15
        )
        assert trace.weighted_sums is None and trace.alpha is None

    def test_max_pool_records_argmax(self):
        # the backward routes each pattern's gradient to its argmax view, as
        # the dense reference does from the argmax it records
        cfg, sample, params = make_instance(max_pool=True)
        trace = forward(sample, params, cfg)
        np.testing.assert_array_equal(trace.agg, trace.embeddings.max(axis=0))
        dense = dense_forward(sample, params, cfg)
        np.testing.assert_array_equal(
            dense["pool_argmax"], trace.embeddings.argmax(axis=0)
        )
        want = dense_backward(dense, sample, params, cfg)
        for name, grad in vars(backward(trace, params, cfg)).items():
            np.testing.assert_allclose(dense_gradient(grad), want[name], rtol=1e-12,
                                       atol=1e-15)

    def test_no_latent_uses_raw_features(self):
        cfg, sample, params = make_instance(no_latent=True)
        trace = forward(sample, params, cfg)
        np.testing.assert_allclose(
            trace.embeddings, np.asarray(sample.features, dtype=np.float64), atol=1e-15
        )

    def test_sigma_zero_equals_no_spatiality_bitwise(self):
        cfg0 = TrainConfig(num_classes=3, input_dim=5, views=4, n_patterns=4,
                           feature_dim=6, sigma=0.0)
        cfgn = TrainConfig(num_classes=3, input_dim=5, views=4, n_patterns=4,
                           feature_dim=6, no_spatiality=True)
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((4, 5)).astype(np.float32)
        dirs = default_viewpoints(4)
        s0 = ShapeSample(0, feats, build_view_graph(dirs, 0.0))
        sn = ShapeSample(0, feats, build_view_graph(dirs, 10.0))
        params = init_model(cfg0, np.random.default_rng(1))
        t0 = forward(s0, params, cfg0)
        tn = forward(sn, params, cfgn)
        np.testing.assert_array_equal(t0.probs, tn.probs)
        np.testing.assert_array_equal(t0.global_feature, tn.global_feature)
        g0 = backward(t0, params, cfg0)
        gn = backward(tn, params, cfgn)
        assert vars(g0).keys() == vars(gn).keys()
        for name, arr in vars(g0).items():
            np.testing.assert_array_equal(dense_gradient(arr),
                                          dense_gradient(getattr(gn, name)))

    def test_permutation_invariance(self):
        cfg, sample, params = make_instance(views=6)
        rng = np.random.default_rng(9)
        trace = forward(sample, params, cfg)
        perm = rng.permutation(6)
        permuted = ShapeSample(
            label=sample.label,
            features=sample.features[perm],
            graph=build_view_graph(sample.graph.directions[perm], cfg.sigma),
        )
        ptrace = forward(permuted, params, cfg)
        assert np.abs(ptrace.global_feature - trace.global_feature).max() < 1e-10
        np.testing.assert_allclose(ptrace.alpha, trace.alpha[perm], atol=1e-12)

    def test_input_validation(self):
        cfg, sample, params = make_instance()
        bad_views = ShapeSample(0, sample.features[:3], sample.graph)
        with pytest.raises(ValueError):
            forward(bad_views, params, cfg)
        wrong_sigma = ShapeSample(
            0, sample.features, build_view_graph(sample.graph.directions, 3.0)
        )
        with pytest.raises(ValueError):
            forward(wrong_sigma, params, cfg)

    @pytest.mark.parametrize("case,message", [
        ("empty batch", "empty batch"),
        ("nan feature under no_latent", "features must be finite"),
        ("graph of another view count", "sample 1: graph and features disagree on the view count"),
        ("fewer samples than rows", "2 rows of logits for 1 samples"),
    ])
    def test_argument_errors(self, case, message):
        cfg, sample, params = make_instance(no_latent=case.endswith("no_latent"))
        with pytest.raises(ValueError, match=message):
            if case == "empty batch":
                forward([], params, cfg)
            elif case.endswith("no_latent"):
                nan = np.where(np.eye(*sample.features.shape) > 0, np.nan, sample.features)
                forward(ShapeSample(sample.label, nan, sample.graph), params, cfg)
            elif case == "graph of another view count":
                other = build_view_graph(default_viewpoints(cfg.views + 1), cfg.sigma)
                vgm.check_samples([sample, ShapeSample(0, sample.features, other)], cfg)
            else:
                sample_loss(forward([sample, sample], params, cfg), [sample])

    def test_stale_trace_detected(self):
        # backward reads the batch from the trace, so a trace made under
        # another config is the one mismatch left to catch
        cfg, sample, params = make_instance()
        other_cfg, _, other_params = make_instance(seed=1, patterns=6)
        trace = forward(sample, params, cfg)
        with pytest.raises(RuntimeError, match="stale trace"):
            backward(trace, other_params, other_cfg)


class TestBackwardRoutes:
    def test_dropping_second_route_changes_nothing(self):
        # the attention route ran through a score term shared by all views,
        # which softmax cancels, so there is no second route to drop: the
        # keyword is accepted and leaves the config as it was
        cfg, sample, params = make_instance()
        cfg_drop = dataclasses.replace(cfg, drop_eq10_second_term=True)
        assert cfg_drop == cfg and "drop_eq10_second_term" not in vars(cfg_drop)
        trace = forward(sample, params, cfg)
        g_full = backward(trace, params, cfg)
        g_drop = backward(trace, params, cfg_drop)
        assert vars(g_full).keys() == vars(g_drop).keys()
        for name, arr in vars(g_full).items():
            np.testing.assert_array_equal(dense_gradient(arr),
                                          dense_gradient(getattr(g_drop, name)))

    def test_gradient_zero_for_shared_context_blocks(self):
        # the scores have no shared context term, so its two blocks are gone
        cfg, sample, params = make_instance()
        trace = forward(sample, params, cfg)
        grads = backward(trace, params, cfg)
        for name in ("attn_ctx_vec", "attn_bias"):
            assert not hasattr(grads, name) and name not in BLOCK_NAMES


class TestBackwardBlocks:
    @pytest.mark.parametrize("flag", (None,) + ALL_FLAGS)
    def test_blocks_match_params_and_unused_are_zero(self, flag):
        # Unused blocks are absent, which train and grad_check read as zero.
        cfg, sample, params = make_instance(**({flag: True} if flag else {}))
        grads = backward(forward(sample, params, cfg), params, cfg)
        unused = set()
        if cfg.pooled_mode or cfg.no_attention:
            unused |= {n for n in BLOCK_NAMES if n.startswith("attn_")}
        if cfg.no_correlation:
            unused.add("attn_node_vec")
        if cfg.no_latent:
            unused |= {"latent_filters", "latent_offsets"}
        assert set(vars(grads)) == set(BLOCK_NAMES) - unused
        for name, g in vars(grads).items():
            assert dense_gradient(g).shape == dict(params.blocks())[name].shape, name


class TestParams:
    def test_block_iteration_order(self):
        cfg, _, params = make_instance()
        assert tuple(name for name, _ in params.blocks()) == BLOCK_NAMES

    def test_copy_is_independent(self):
        cfg, _, params = make_instance()
        dup = params.copy()
        dup.latent.filters += 1.0
        assert not np.array_equal(dup.latent.filters, params.latent.filters)

    def test_validate_params_rejects_mismatch(self):
        cfg, _, params = make_instance()
        other = TrainConfig(num_classes=3, input_dim=5, views=4, n_patterns=6,
                            feature_dim=6)
        with pytest.raises(ValueError):
            validate_params(params, other)

    @pytest.mark.parametrize("name", BLOCK_NAMES)
    def test_validate_params_checks_every_block(self, name):
        cfg, _, params = make_instance()
        _, group, attr, _ = next(b for b in vgm.BLOCKS if b[0] == name)
        wrong = np.zeros(dict(params.blocks())[name].shape + (1,))
        setattr(getattr(params, group), attr, wrong)
        with pytest.raises(ValueError, match=name):
            validate_params(params, cfg)


    @pytest.mark.parametrize("name", BLOCK_NAMES)
    def test_non_finite_block_is_named(self, name):
        # a NaN in this block and an inf in every later one: the error names
        # the first in table order, whichever way the set is built
        cfg, _, params = make_instance()
        later = BLOCK_NAMES[BLOCK_NAMES.index(name):]
        for i, block in enumerate(later):
            dict(params.blocks())[block].flat[0] = np.inf if i else np.nan
        with pytest.raises(ValueError, match=f"parameter block {name} must be finite"):
            params.copy()
        with pytest.raises(ValueError, match=f"parameter block {name} must be finite"):
            vgm.ModelParams(params.latent, params.attn, params.cls)


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        cfg, _, params = make_instance()
        path = tmp_path / "model.3dvgm"
        save_checkpoint(path, params, cfg)
        loaded_params, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        for name, arr in params.blocks():
            np.testing.assert_array_equal(arr, dict(loaded_params.blocks())[name])

    def test_same_state_same_bytes(self, tmp_path):
        cfg, _, params = make_instance()
        a, b = tmp_path / "a", tmp_path / "b"
        save_checkpoint(a, params, cfg)
        save_checkpoint(b, params, cfg)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x"
        path.write_bytes(b"NOTAMODEL" + b"\0" * 40)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        cfg, _, params = make_instance()
        path = tmp_path / "m"
        save_checkpoint(path, params, cfg)
        data = bytearray(path.read_bytes())
        data[6] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        cfg, _, params = make_instance()
        path = tmp_path / "m"
        save_checkpoint(path, params, cfg)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(DataIOError):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        cfg, _, params = make_instance()
        path = tmp_path / "m"
        save_checkpoint(path, params, cfg)
        path.write_bytes(path.read_bytes() + b"\0\0\0")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_config_field_tampering(self, tmp_path):
        cfg, _, params = make_instance()
        path = tmp_path / "m"
        save_checkpoint(path, params, cfg)
        blob = read_config(path)
        blob.pop("sigma")
        blob["mystery"] = 1
        write_config(path, blob)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field,value",
        [("n_patterns", 4.0), ("threads", 2.0), ("no_latent", "no"),
         ("batch_size", True), ("sigma", False), ("no_attention_wf", 1),
         ("no_attention_c", 0), ("drop_eq10_second_term", "yes")],
    )
    def test_config_value_type_tampering(self, tmp_path, field, value):
        cfg, _, params = make_instance()
        path = tmp_path / "m"
        save_checkpoint(path, params, cfg)
        write_config(path, {**read_config(path), field: value})
        with pytest.raises(FormatError, match=field):
            load_checkpoint(path)

    def test_saved_config_has_no_retired_fields(self, tmp_path):
        cfg, _, params = make_instance()
        path = tmp_path / "m"
        save_checkpoint(path, params, cfg)
        blob = read_config(path)
        assert not set(vgm._RETIRED_FIELDS) & set(blob)
        assert {"threads", "plateau_rel_tol", "no_attention_wf", "no_attention_c",
                "drop_eq10_second_term"} <= set(vgm._RETIRED_FIELDS)

    def test_retired_fields_still_load(self, tmp_path):
        # the layout written before ``threads``, ``plateau_rel_tol`` and
        # ``no_attention_wf`` left; the last hid the classifier weights from
        # a score term shared by all views, which could change nothing
        cfg, _, params = make_instance()
        path = tmp_path / "m"
        save_checkpoint(path, params, cfg)
        retired = {"threads": 1, "plateau_rel_tol": 1e-05, "no_attention_wf": True,
                   "no_attention_c": False, "drop_eq10_second_term": True}
        write_config(path, {**read_config(path), **retired})
        loaded_params, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert not set(retired) & set(vars(loaded_cfg))
        for name, arr in params.blocks():
            np.testing.assert_array_equal(arr, dict(loaded_params.blocks())[name])

    @pytest.mark.parametrize("field", ["sigma", "learning_rate"])
    def test_non_finite_config_float_is_rejected(self, tmp_path, field):
        cfg, _, params = make_instance()
        path = tmp_path / "m"
        save_checkpoint(path, params, cfg)
        write_config(path, {**read_config(path), field: float("nan")})
        with pytest.raises(FormatError, match=field):
            load_checkpoint(path)

    def test_float_field_accepts_int(self, tmp_path):
        cfg, _, params = make_instance()
        path = tmp_path / "m"
        save_checkpoint(path, params, cfg)
        write_config(path, {**read_config(path), "sigma": 10})
        _, loaded = load_checkpoint(path)
        assert loaded.sigma == 10

    @pytest.mark.parametrize("name", BLOCK_NAMES)
    def test_non_finite_block_is_a_format_error(self, tmp_path, name):
        # ModelParams rejects a non-finite block by name; save refuses them,
        # so the first value of the block is overwritten in the file
        cfg, _, params = make_instance()
        path = tmp_path / "m"
        save_checkpoint(path, params, cfg)
        data = bytearray(path.read_bytes())
        (cfg_len,) = struct.unpack_from("<I", data, 10)
        shapes = vgm.block_shapes(cfg)
        before = sum(int(np.prod(s)) for _, s in shapes[: BLOCK_NAMES.index(name)])
        struct.pack_into("<d", data, 14 + cfg_len + 8 * before, np.inf)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"{name} must be finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name,value", [("cls_bias", np.nan), ("latent_filters", -np.inf)])
    def test_save_refuses_a_non_finite_block(self, tmp_path, name, value):
        cfg, _, params = make_instance()
        path = tmp_path / "m"
        save_checkpoint(path, params, cfg)
        before = path.read_bytes()
        dict(params.blocks())[name][0] = value
        with pytest.raises(ValueError, match=name):
            save_checkpoint(path, params, cfg)
        assert path.read_bytes() == before
        fresh = tmp_path / "fresh"
        with pytest.raises(ValueError, match=name):
            save_checkpoint(fresh, params, cfg)
        assert not fresh.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataIOError):
            load_checkpoint(tmp_path / "absent")

    def test_pooled_checkpoint_round_trip(self, tmp_path):
        cfg, _, params = make_instance(mean_pool=True)
        path = tmp_path / "m"
        save_checkpoint(path, params, cfg)
        loaded_params, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg.mean_pool
        validate_params(loaded_params, loaded_cfg)


DATA = Path(__file__).parent / "data"

# The reference task the version-1 fixtures were trained on: ``viewgraph synth
# --classes 3 --per-class 8 --views 12 --input-dim 32 --seed 5``, then
# ``viewgraph train --n-patterns 8 --feature-dim 16 --learning-rate 0.02
# --epochs 4 --batch-size 5 --seed 1 --plateau-patience 0``, the second file
# with ``--no-attention-c``.
V1_CONFIG = TrainConfig(
    num_classes=3, input_dim=32, views=12, n_patterns=8, feature_dim=16,
    learning_rate=0.02, epochs=4, batch_size=5, seed=1, plateau_patience=0,
)
V1_FIXTURES = {"v1-default.3dvgm": V1_CONFIG,
               "v1-no-attention-c.3dvgm": dataclasses.replace(V1_CONFIG, no_attention=True)}


def v1_payload_slices(path, config):
    """{block name: raw bytes} of a version-1 file, laid out independently of
    the loader: the two retired blocks sat between attn_node_vec and attn_out."""
    data = path.read_bytes()
    (cfg_len,) = struct.unpack_from("<I", data, 10)
    shapes = dict(vgm.block_shapes(config))
    shapes.update(attn_ctx_vec=(config.feature_dim,), attn_bias=(config.num_classes,))
    order = ("latent_filters", "latent_offsets", "attn_node_proj", "attn_node_vec",
             "attn_ctx_vec", "attn_bias", "attn_out", "feat_weights", "feat_bias",
             "cls_weights", "cls_bias")
    offset, slices = 14 + cfg_len, {}
    for name in order:
        size = int(np.prod(shapes[name])) * 8
        slices[name] = data[offset : offset + size]
        offset += size
    assert offset == len(data)
    return slices


class TestCheckpointV1:
    @pytest.mark.parametrize("fixture", sorted(V1_FIXTURES))
    def test_blocks_are_the_payload_slices(self, fixture):
        path = DATA / fixture
        assert struct.unpack_from("<I", path.read_bytes(), 6) == (1,)
        params, config = load_checkpoint(path)
        slices = v1_payload_slices(path, config)
        assert tuple(name for name, _ in params.blocks()) == BLOCK_NAMES
        for name, arr in params.blocks():
            assert arr.astype("<f8").tobytes() == slices[name], name

    @pytest.mark.parametrize("fixture", sorted(V1_FIXTURES))
    def test_config_maps_without_retired_keys(self, fixture):
        path = DATA / fixture
        stored = read_config(path)
        assert {"no_attention_c", "drop_eq10_second_term"} <= set(stored)
        assert stored["no_attention"] is False
        _, config = load_checkpoint(path)
        assert config == V1_FIXTURES[fixture]
        assert not set(vgm._RETIRED_FIELDS) & set(vars(config))
        assert not set(vgm._RETIRED_FIELDS) & set(dataclasses.asdict(config))

    @pytest.mark.parametrize("fixture", sorted(V1_FIXTURES))
    def test_forward_survives_a_v2_round_trip(self, fixture, tmp_path):
        params, config = load_checkpoint(DATA / fixture)
        dataset = generate_synthetic(3, 8, 12, 32, noise=0.1, seed=5)
        path = tmp_path / "v2.3dvgm"
        save_checkpoint(path, params, config)
        data = path.read_bytes()
        assert struct.unpack_from("<I", data, 6) == (vgm.CHECKPOINT_VERSION,) == (2,)
        # the version-2 payload is version 1's without the two retired blocks
        slices = v1_payload_slices(DATA / fixture, config)
        assert data.endswith(b"".join(slices[name] for name in BLOCK_NAMES))
        again, again_cfg = load_checkpoint(path)
        assert again_cfg == config
        before = forward(dataset.samples, params, config)
        after = forward(dataset.samples, again, again_cfg)
        for name, value in vars(before).items():
            np.testing.assert_array_equal(getattr(after, name), value, err_msg=name)


def corrupt(base, rng, mode):
    """Acceptance 9's five corruption modes: truncate, flip bytes, append,
    replace with noise, overwrite four bytes. The noise here is one byte per
    draw (``bytes()`` of an int64 array would give eight, seven of them zero)."""

    def noise(size):
        return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()

    blob = bytearray(base)
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
    return bytes(blob)


class TestCheckpointReads:
    @pytest.mark.parametrize("version", [1, 2])
    def test_every_truncation_point_is_a_data_io_error(self, tmp_path, version):
        # a cut inside the magic or the version is a short file too
        source = DATA / "v1-default.3dvgm"
        if version == 2:
            source = tmp_path / "v2.3dvgm"
            save_checkpoint(source, *load_checkpoint(DATA / "v1-default.3dvgm"))
        target = tmp_path / "cut.3dvgm"
        target.write_bytes(source.read_bytes())
        for cut in reversed(range(target.stat().st_size)):
            os.truncate(target, cut)
            with pytest.raises(DataIOError):
                load_checkpoint(target)

    def test_blocks_are_aligned_writable_float64(self, tmp_path):
        # the payload starts at byte 14 + len(config JSON); the seed's digit
        # count walks that offset through every residue mod 8, and the blocks
        # must be 8-aligned at each (an unaligned feature GEMM is ~11x slower)
        cfg, _, params = make_instance()
        path = tmp_path / "m"
        residues = set()
        for digits in range(1, 9):
            seeded = dataclasses.replace(cfg, seed=10 ** (digits - 1))
            save_checkpoint(path, params, seeded)
            residues.add((14 + struct.unpack_from("<I", path.read_bytes(), 10)[0]) % 8)
            loaded, _ = load_checkpoint(path)
            for name, arr in loaded.blocks():
                assert arr.dtype == np.float64 and arr.dtype.isnative, name
                assert arr.flags.aligned and arr.flags.c_contiguous, name
                assert arr.flags.writeable and arr.ctypes.data % 8 == 0, name
                np.testing.assert_array_equal(arr, dict(params.blocks())[name])
        assert residues == set(range(8))


class TestCheckpointFuzz:
    @pytest.mark.parametrize("version", [1, 2])
    def test_corrupted_file_loads_or_raises_typed_error(self, tmp_path, version):
        source = DATA / "v1-default.3dvgm"
        if version == 2:
            source = tmp_path / "v2.3dvgm"
            save_checkpoint(source, *load_checkpoint(DATA / "v1-default.3dvgm"))
        base = source.read_bytes()
        target = tmp_path / "fuzzed.3dvgm"
        rng = np.random.default_rng(version)
        typed = 0
        cases = 500
        for case in range(cases):
            target.write_bytes(corrupt(base, rng, case % 5))
            try:
                load_checkpoint(target)
            except ViewGraphError:
                typed += 1
            except Exception as exc:  # noqa: BLE001 - any other type is the failure
                pytest.fail(f"v{version} case {case} escaped with {type(exc).__name__}: {exc}")
        # truncation, appended bytes and noise files are rejected every time
        assert typed >= 3 * cases // 5


class TestInitModel:
    def test_deterministic(self):
        cfg = TrainConfig(num_classes=3, input_dim=5, views=4, n_patterns=4,
                          feature_dim=6)
        a = init_model(cfg, np.random.default_rng(5))
        b = init_model(cfg, np.random.default_rng(5))
        for name, arr in a.blocks():
            np.testing.assert_array_equal(arr, dict(b.blocks())[name])

    def test_shapes_follow_flags(self):
        cfg = TrainConfig(num_classes=3, input_dim=5, views=4, n_patterns=4,
                          feature_dim=6, no_correlation=True)
        params = init_model(cfg, np.random.default_rng(0))
        assert params.cls.feat_weights.shape == (6, 4)
        cfg2 = TrainConfig(num_classes=3, input_dim=5, views=4, n_patterns=4,
                           feature_dim=6, no_latent=True)
        params2 = init_model(cfg2, np.random.default_rng(0))
        assert params2.attn.node_proj.shape == (3, 5)
        assert params2.cls.feat_weights.shape == (6, 25)
