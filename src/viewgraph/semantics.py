"""Soft-assignment embedding of low-level view features onto latent patterns.

Each view feature ``f`` is projected to an N-dimensional probability vector
``d = softmax(filters @ f + offsets)``. Row ``n`` of ``filters`` together
with ``offsets[n]`` plays the role of a Gaussian kernel response against an
implicit pattern center: for any center ``phi_n`` and bandwidth ``beta``,
setting ``filters[n] = 2 * beta * phi_n`` and
``offsets[n] = -beta * ||phi_n||^2`` makes the softmax equal the normalized
Gaussian similarity, because the shared ``-beta * ||f||^2`` term cancels in
the ratio. Training the filters and offsets directly, decoupled from any
explicit centers, means the pattern set never has to be mined from data.
"""

from dataclasses import dataclass

import numpy as np

from .numeric import softmax_grad, stable_softmax


@dataclass
class LatentMapParams:
    """Learnable soft-assignment map: ``filters`` (N, D_low) and ``offsets`` (N,)."""

    filters: np.ndarray
    offsets: np.ndarray


def init_latent_map(
    num_patterns: int, input_dim: int, rng: np.random.Generator
) -> LatentMapParams:
    """Seeded init: filter entries ~ N(0, 1/sqrt(D_low)) std, zero offsets.

    The scale keeps initial logits O(1) for O(1) inputs so the softmax
    starts unsaturated.
    """
    filters = rng.normal(0.0, input_dim**-0.5, size=(num_patterns, input_dim))
    return LatentMapParams(filters=filters, offsets=np.zeros(num_patterns))


def embed(features: np.ndarray, params: LatentMapParams) -> np.ndarray:
    """Map features to soft-assignment embeddings on the probability simplex.

    Accepts a single (D_low,) vector or a (V, D_low) stack of view features;
    the softmax runs over the pattern axis either way.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim not in (1, 2):
        raise ValueError(f"features must be 1-D or 2-D, got shape {features.shape}")
    if features.shape[-1] != params.filters.shape[1]:
        raise ValueError(
            f"feature dim {features.shape[-1]} does not match "
            f"filter dim {params.filters.shape[1]}"
        )
    if not np.isfinite(features).all():
        raise ValueError("features must be finite")
    logits = features @ params.filters.T + params.offsets
    return stable_softmax(logits)


def embed_backward(features: np.ndarray, embeddings: np.ndarray,
                   grad_embedding: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backward pass of :func:`embed` to its parameters, ``(grad_filters,
    grad_offsets)``, from the ``embeddings`` that :func:`embed` returned for
    ``features`` ((D_low,) or (V, D_low)) and the upstream gradient of the
    same shape as the embeddings. The features are data: no gradient for them.
    """
    if np.shape(grad_embedding) != np.shape(embeddings):
        raise ValueError(f"upstream gradient shape {np.shape(grad_embedding)}, "
                         f"expected {np.shape(embeddings)}")
    # as rows: a single vector is one row, a K=1 product and a one-row sum
    rows = softmax_grad(embeddings, grad_embedding).reshape(-1, embeddings.shape[-1])
    return rows.T @ np.reshape(features, (len(rows), -1)), rows.sum(axis=0)
