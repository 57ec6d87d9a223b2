"""Gradient check at the paper's operating point, along random directions.

Acceptance 1 checks every gradient entry at toy sizes (N=4, F=5), where the
F x N^2 feature layer and the (V, N, N) node descriptors are trivial. An
entry-wise check at V=20, D=64, N=128, F=256, L=10 would take millions of
forward passes, so this one checks directional derivatives instead: for two
random unit directions u per block, the central difference
(L(theta + h u) - L(theta - h u)) / 2h must match <g, u>.
"""

import numpy as np
import pytest

from viewgraph.dataio import ShapeSample
from viewgraph.geometry import build_view_graph, default_viewpoints
from viewgraph.model import TrainConfig, backward, forward, init_model, sample_loss
from viewgraph.trainer import GRAD_CHECK_FLOOR

FLAGS = (
    "no_spatiality",
    "no_attention",
    "no_attention_c",
    "no_latent",
    "no_correlation",
    "mean_pool",
    "max_pool",
    "drop_eq10_second_term",
)
STEP = 1e-5
TOLERANCE = 1e-5
DIRECTIONS = 2


def paper_point_instance(flags):
    config = TrainConfig(
        num_classes=10, input_dim=64, views=20, n_patterns=128, feature_dim=256, **flags
    )
    rng = np.random.default_rng(7)
    sample = ShapeSample(
        label=int(rng.integers(config.num_classes)),
        features=rng.standard_normal((config.views, config.input_dim)).astype(np.float32),
        graph=build_view_graph(default_viewpoints(config.views), config.sigma),
    )
    params = init_model(config, rng)
    # Attention at active scale: unit-normal weights, then ``out`` rescaled so
    # the scores spread by about one across the views. At the init scale the
    # attention gradients sit near the finite-difference noise.
    attn = params.attn
    for arr in (attn.node_proj, attn.node_vec, attn.out):
        arr[...] = rng.standard_normal(arr.shape)
    scores = forward(sample, params, config).scores
    if scores is not None:
        attn.out /= scores.std()
    return config, sample, params, rng


@pytest.mark.parametrize("flag", (None,) + FLAGS)
def test_directional_derivatives_match(flag):
    config, sample, params, rng = paper_point_instance({flag: True} if flag else {})
    grads = vars(backward(forward(sample, params, config), sample, params, config))

    def loss() -> float:
        return sample_loss(forward(sample, params, config), sample)

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
            analytic = float(np.vdot(grads[name], u)) if name in grads else 0.0
            # the floor keeps FD noise on a zero gradient from passing as error
            errors[f"{name}/{k}"] = abs(numeric - analytic) / max(
                abs(numeric), GRAD_CHECK_FLOOR
            )
    worst = max(errors, key=errors.get)
    assert errors[worst] < TOLERANCE, f"{worst}: relative error {errors[worst]:.3e}"
