"""Gradient check at the paper's operating point, along random directions.

Acceptance 1 checks every gradient entry at toy sizes (N=4, F=5), where the
F x N^2 feature layer and the (V, N, N) node descriptors are trivial. An
entry-wise check at V=20, D=64, N=128, F=256, L=10 would take millions of
forward passes, so this one checks directional derivatives instead: for two
random unit directions u per block, the central difference
(L(theta + h u) - L(theta - h u)) / 2h must match <g, u>. It runs on one
shape and on a batch of 16, whose loss is the sum over the batch.
"""

import dataclasses

import numpy as np
import pytest

from viewgraph.attention import attention_scores
from viewgraph.dataio import ShapeSample
from viewgraph.geometry import build_view_graph, default_viewpoints
from viewgraph.model import (
    TrainConfig,
    backward,
    dense_gradient,
    forward,
    init_model,
    sample_loss,
)
from viewgraph.trainer import GRAD_CHECK_FLOOR

# The ablation flags: the boolean fields of TrainConfig. The ignored
# drop_eq10_second_term keyword is an InitVar, not a field.
FLAGS = tuple(f.name for f in dataclasses.fields(TrainConfig) if f.type is bool)
STEP = 1e-5
TOLERANCE = 1e-5
DIRECTIONS = 2


def paper_point_instance(flags, batch=None):
    """Config, samples and params at the paper point; ``batch=None`` gives one
    sample, an int a list of that many."""
    config = TrainConfig(
        num_classes=10, input_dim=64, views=20, n_patterns=128, feature_dim=256, **flags
    )
    rng = np.random.default_rng(7)
    graph = build_view_graph(default_viewpoints(config.views), config.sigma)
    samples = [
        ShapeSample(
            label=int(rng.integers(config.num_classes)),
            features=rng.standard_normal((config.views, config.input_dim)).astype(np.float32),
            graph=graph,
        )
        for _ in range(batch or 1)
    ]
    samples = samples if batch else samples[0]
    params = init_model(config, rng)
    # Attention at active scale: unit-normal weights, then ``out`` rescaled so
    # the scores spread by about one across the views. At the init scale the
    # attention gradients sit near the finite-difference noise.
    attn = params.attn
    for arr in (attn.node_proj, attn.node_vec, attn.out):
        arr[...] = rng.standard_normal(arr.shape)
    if not (config.pooled_mode or config.no_attention):
        trace = forward(samples, params, config)
        left = None if config.no_correlation else trace.embeddings
        attn.out /= attention_scores(left, trace.weighted_sums, attn).std()
    return config, samples, params, rng


def check_directions(config, samples, params, rng):
    """Worst relative error of <g, u> against central differences of the
    loss summed over ``samples``, two random unit directions u per block."""
    grads = vars(backward(forward(samples, params, config), params, config))

    def loss() -> float:
        return float(np.sum(sample_loss(forward(samples, params, config), samples)))

    errors = {}
    for name, arr in params.blocks():
        keep = arr.copy()
        for k in range(DIRECTIONS):
            u = rng.standard_normal(arr.shape)
            u /= np.linalg.norm(u)
            arr[...] = keep + STEP * u
            up = loss()
            arr[...] = keep - STEP * u
            down = loss()
            arr[...] = keep
            numeric = (up - down) / (2.0 * STEP)
            # a block backward leaves out has a zero gradient
            analytic = float(np.vdot(dense_gradient(grads[name]), u)) if name in grads else 0.0
            # the floor keeps FD noise on a zero gradient from passing as error
            errors[f"{name}/{k}"] = abs(numeric - analytic) / max(
                abs(numeric), GRAD_CHECK_FLOOR
            )
    worst = max(errors, key=errors.get)
    return worst, errors[worst]


@pytest.mark.parametrize("flag", (None,) + FLAGS)
def test_directional_derivatives_match(flag):
    worst, error = check_directions(*paper_point_instance({flag: True} if flag else {}))
    assert error < TOLERANCE, f"{worst}: relative error {error:.3e}"


@pytest.mark.parametrize("flag", (None,) + FLAGS)
def test_batched_directional_derivatives_match(flag):
    # B=16 shapes, one backward call: the gradients summed over the batch
    instance = paper_point_instance({flag: True} if flag else {}, batch=16)
    worst, error = check_directions(*instance)
    assert error < TOLERANCE, f"{worst}: relative error {error:.3e}"
