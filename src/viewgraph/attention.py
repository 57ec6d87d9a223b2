"""Attention over view nodes and attention-weighted aggregation, batched.

Node j's descriptor is its cumulative correlation ``C_j = outer(d_j, w_j)``
(embedding times similarity-weighted embedding sum), or the vector ``w_j``
in the correlation-free ablation. It is projected into class space
(``node_proj @ C_j @ node_vec``) and reduced to a scalar score by ``out``;
softmax turns the scores into weights that convexly combine the node
descriptors into one shape descriptor, invariant to view relabeling. Every
function takes the factors ``E`` and ``W`` (..., V, N), with any leading
batch axes, so no (V, N, N) node tensor is built.

The score has no term shared across nodes: a shared term, such as the
classifier weights' context ``(cls_weights @ ctx_vec + bias) @ out`` of
the paper's score, shifts every score alike, which softmax ignores, so it
could change neither the weights nor any gradient. It has no parameters
here, and checkpoint version 1's ``attn_ctx_vec`` and ``attn_bias`` blocks
are read and dropped.
"""

from dataclasses import dataclass

import numpy as np

from .numeric import stable_softmax


@dataclass
class AttentionParams:
    """Learnable attention parameters.

    Attributes:
        node_proj: (L, N) projection applied to each node matrix from the left.
        node_vec: (N,) vector applied from the right (unused when nodes are
            vector-valued, as in the correlation-free ablation).
        out: (L,) final linear reduction to a scalar score.
    """

    node_proj: np.ndarray
    node_vec: np.ndarray
    out: np.ndarray


def init_attention(
    num_classes: int,
    num_patterns: int,
    feature_dim: int,
    rng: np.random.Generator,
) -> AttentionParams:
    """Seeded init: all weights ~ N(0, 0.01) std.

    Small weights keep the initial scores near zero so attention starts
    close to uniform instead of saturating on one view.
    """
    scale = 0.01
    node_proj = rng.normal(0.0, scale, size=(num_classes, num_patterns))
    node_vec = rng.normal(0.0, scale, size=num_patterns)
    # the retired context vector's F draws, discarded, keep ``out`` and every
    # later block bit-identical to checkpoint version 1
    rng.normal(0.0, scale, size=feature_dim)
    out = rng.normal(0.0, scale, size=num_classes)
    return AttentionParams(node_proj=node_proj, node_vec=node_vec, out=out)


def _collapse(embeddings, weighted: np.ndarray, params: AttentionParams) -> np.ndarray:
    """``C_j @ node_vec = d_j (w_j . node_vec)`` per node, (..., V, N); the
    vector nodes ``w_j`` themselves when ``embeddings`` is None."""
    if embeddings is None:
        return weighted
    return embeddings * (weighted @ params.node_vec)[..., None]


def _node_term(embeddings, weighted: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Per-node class-space term ``node_proj @ C_j @ node_vec``: (..., V, L)."""
    return _collapse(embeddings, weighted, params) @ params.node_proj.T


def attention_scores(embeddings, weighted: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Raw score per view node, (..., V), from the factors ``E`` and ``W``
    (``embeddings=None`` for vector nodes)."""
    return _node_term(embeddings, weighted, params) @ params.out


def normalize_attention(scores: np.ndarray) -> np.ndarray:
    """Softmax the raw scores over the view axis (the last) onto the simplex."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    return stable_softmax(scores)


def aggregate(embeddings, weighted: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """``sum_j alpha_j outer(d_j, w_j) = E^T diag(alpha) W``, (..., N, N), the
    bilinear-pooling identity; ``alpha^T W``, (..., N), for vector nodes."""
    if alpha.shape != weighted.shape[:-1]:
        raise ValueError(f"{alpha.shape} weights for {weighted.shape[:-1]} nodes")
    if embeddings is None:
        return (alpha[..., None, :] @ weighted)[..., 0, :]
    return np.swapaxes(embeddings * alpha[..., None], -1, -2) @ weighted


def aggregate_backward(embeddings, weighted: np.ndarray, alpha: np.ndarray, grad_agg: np.ndarray):
    """Backward of :func:`aggregate`: ``(grad_alpha, grad_embeddings, grad_weighted)``.

    With ``G`` the upstream gradient of a matrix aggregate,
    ``d alpha_j = d_j^T G w_j``, ``d d_j = alpha_j G w_j`` and
    ``d w_j = alpha_j G^T d_j``; ``grad_embeddings`` is None for vector nodes.
    """
    if embeddings is None:
        grad_alpha = (weighted @ grad_agg[..., :, None])[..., 0]
        return grad_alpha, None, alpha[..., None] * grad_agg[..., None, :]
    g_w = weighted @ np.swapaxes(grad_agg, -1, -2)  # row j: G w_j
    grad_alpha = np.sum(embeddings * g_w, axis=-1)
    return grad_alpha, alpha[..., None] * g_w, alpha[..., None] * (embeddings @ grad_agg)


def scores_backward(embeddings, weighted: np.ndarray, params: AttentionParams, grad_scores: np.ndarray):
    """Backward of :func:`attention_scores`, parameter gradients summed over nodes.

    Returns ``(grad_node_proj, grad_node_vec, grad_out, grad_embeddings,
    grad_weighted)``. With ``back_j = grad_scores_j * (out @ node_proj)``,
    ``d d_j = back_j (w_j . node_vec)`` and ``d w_j = node_vec (back_j . d_j)``;
    ``grad_node_vec`` and ``grad_embeddings`` are None for vector nodes.
    """
    collapsed = _collapse(embeddings, weighted, params)
    # sum_j grad_scores_j * collapsed_j carries both projection gradients
    pooled = grad_scores.reshape(-1) @ collapsed.reshape(-1, collapsed.shape[-1])
    grad_proj, grad_out = np.outer(params.out, pooled), params.node_proj @ pooled
    back = grad_scores[..., None] * (params.out @ params.node_proj)
    if embeddings is None:
        return grad_proj, None, grad_out, None, back
    grad_dot = np.sum(back * embeddings, axis=-1)  # gradient of w_j . node_vec
    grad_vec = grad_dot.reshape(-1) @ weighted.reshape(-1, weighted.shape[-1])
    grad_embeddings = back * (weighted @ params.node_vec)[..., None]
    return grad_proj, grad_vec, grad_out, grad_embeddings, grad_dot[..., None] * params.node_vec
