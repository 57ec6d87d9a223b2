"""Attention over view nodes and attention-weighted aggregation.

Each node's cumulative correlation is projected into class space
(``node_proj @ C_j @ node_vec``) and reduced to a scalar score by the
``out`` vector. Scores are softmax-normalized into weights that convexly
combine the per-node matrices into one shape descriptor. Because both the
weights and the matrices permute together under any reordering of the
views, the aggregate is invariant to view relabeling.

The score has no term shared across nodes. A shared term, such as the
classifier weights' context ``(cls_weights @ ctx_vec + bias) @ out``,
shifts every score by the same amount, and softmax ignores a shared
shift: it could change neither the weights nor any gradient, so it is not
computed. ``ctx_vec`` and ``bias`` stay in :class:`AttentionParams` (and in
the checkpoint layout) but take no part in the scores.
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
        ctx_vec: (F,) unused: a context term shared by all nodes.
        bias: (L,) unused: a class-space bias shared by all nodes.
        out: (L,) final linear reduction to a scalar score.
    """

    node_proj: np.ndarray
    node_vec: np.ndarray
    ctx_vec: np.ndarray
    bias: np.ndarray
    out: np.ndarray

    def __post_init__(self):
        for name in ("node_proj", "node_vec", "ctx_vec", "bias", "out"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        num_classes, num_patterns = self.node_proj.shape
        if self.node_vec.shape != (num_patterns,):
            raise ValueError(f"node_vec shape {self.node_vec.shape} != ({num_patterns},)")
        for name in ("bias", "out"):
            if getattr(self, name).shape != (num_classes,):
                raise ValueError(
                    f"{name} shape {getattr(self, name).shape} != ({num_classes},)"
                )
        if not all(
            np.isfinite(getattr(self, n)).all()
            for n in ("node_proj", "node_vec", "ctx_vec", "bias", "out")
        ):
            raise ValueError("attention parameters must be finite")


def init_attention(
    num_classes: int,
    num_patterns: int,
    feature_dim: int,
    rng: np.random.Generator,
) -> AttentionParams:
    """Seeded init: all weights ~ N(0, 0.01) std, zero bias.

    Small weights keep the initial scores near zero so attention starts
    close to uniform instead of saturating on one view.
    """
    scale = 0.01
    return AttentionParams(
        node_proj=rng.normal(0.0, scale, size=(num_classes, num_patterns)),
        node_vec=rng.normal(0.0, scale, size=num_patterns),
        ctx_vec=rng.normal(0.0, scale, size=feature_dim),
        bias=np.zeros(num_classes),
        out=rng.normal(0.0, scale, size=num_classes),
    )


def _node_term(node_corr: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Per-node class-space term: (V, L). Accepts (V, N, N) matrices or (V, N) vectors."""
    node_corr = np.asarray(node_corr, dtype=np.float64)
    num_patterns = params.node_proj.shape[1]
    if node_corr.ndim == 3:
        if node_corr.shape[1:] != (num_patterns, num_patterns):
            raise ValueError(
                f"node matrices must be (V, {num_patterns}, {num_patterns}), "
                f"got {node_corr.shape}"
            )
        return (node_corr @ params.node_vec) @ params.node_proj.T
    if node_corr.ndim == 2:
        if node_corr.shape[1] != num_patterns:
            raise ValueError(
                f"node vectors must be (V, {num_patterns}), got {node_corr.shape}"
            )
        return node_corr @ params.node_proj.T
    raise ValueError(f"node input must be 2-D or 3-D, got shape {node_corr.shape}")


def attention_scores(node_corr: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Raw (unnormalized) scalar score per view node, (V,)."""
    return _node_term(node_corr, params) @ params.out


def normalize_attention(scores: np.ndarray) -> np.ndarray:
    """Softmax the raw scores into weights on the probability simplex."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    return stable_softmax(scores)


def aggregate(node_corr: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Convex combination sum_j alpha[j] * node_corr[j] over the leading axis."""
    node_corr = np.asarray(node_corr, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 1 or alpha.shape[0] != node_corr.shape[0]:
        raise ValueError(
            f"{alpha.shape} weights for {node_corr.shape[0]} node descriptors"
        )
    return np.tensordot(alpha, node_corr, axes=1)


def aggregate_backward(
    node_corr: np.ndarray, alpha: np.ndarray, grad_agg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Backward of :func:`aggregate`: per-node and per-weight gradients."""
    grad_nodes = alpha.reshape((-1,) + (1,) * grad_agg.ndim) * grad_agg[None, ...]
    axes = tuple(range(1, node_corr.ndim))
    grad_alpha = np.tensordot(node_corr, grad_agg, axes=(axes, tuple(range(grad_agg.ndim))))
    return grad_nodes, grad_alpha


def scores_backward(
    node_corr: np.ndarray, params: AttentionParams, grad_scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """Backward of :func:`attention_scores`.

    Returns ``(grad_node_proj, grad_node_vec, grad_out, grad_nodes)``: the
    gradients of the three parameters the scores use and of the node
    descriptors. ``grad_node_vec`` is None for vector-valued nodes, which
    skip the ``node_vec`` contraction.
    """
    node_corr = np.asarray(node_corr, dtype=np.float64)
    grad_scores = np.asarray(grad_scores, dtype=np.float64)
    proj_grad = grad_scores[:, None] * params.out[None, :]  # (V, L)
    back = proj_grad @ params.node_proj  # (V, N)
    if node_corr.ndim == 3:
        collapsed = node_corr @ params.node_vec  # (V, N)
        grad_node_vec = np.einsum("vnm,vn->m", node_corr, back)
        grad_nodes = np.einsum("vn,m->vnm", back, params.node_vec)
    else:
        collapsed, grad_node_vec, grad_nodes = node_corr, None, back
    # (collapsed @ node_proj.T) is the node term the forward pass scored
    grad_out = (collapsed @ params.node_proj.T).T @ grad_scores
    return proj_grad.T @ collapsed, grad_node_vec, grad_out, grad_nodes
