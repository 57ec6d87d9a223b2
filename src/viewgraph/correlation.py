"""Pairwise pattern correlation and per-node cumulative correlation.

The correlation of two embeddings is their outer product: entry (n, n')
measures how strongly pattern n in one view co-occurs with pattern n' in
the other. Each view node accumulates its correlations with every node
(itself included, at similarity 1), weighted by spatial similarity, giving
an N x N descriptor of the shape as seen from that node. Because each
outer product of simplex vectors has entries summing to 1, the cumulative
matrix's entries sum to the node's total similarity mass.
"""

import numpy as np


def pattern_correlation(d_a: np.ndarray, d_b: np.ndarray) -> np.ndarray:
    """Outer product d_a d_b^T of two embeddings; (N, N), entries sum to 1."""
    d_a = np.asarray(d_a, dtype=np.float64)
    d_b = np.asarray(d_b, dtype=np.float64)
    if d_a.ndim != 1 or d_a.shape != d_b.shape:
        raise ValueError(
            f"embeddings must be equal-length vectors, got {d_a.shape} and {d_b.shape}"
        )
    return np.outer(d_a, d_b)


def all_cumulative_correlations(
    embeddings: np.ndarray, similarity: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative correlations of every node at once.

    Returns ``(cums, weighted)`` where ``weighted = similarity @ embeddings``
    holds each node's similarity-weighted embedding sum (V, N) and
    ``cums[j] = outer(embeddings[j], weighted[j])`` is (V, N, N).
    """
    weighted = similarity @ embeddings
    cums = np.einsum("jn,jm->jnm", embeddings, weighted)
    return cums, weighted


def all_correlation_backward(
    embeddings: np.ndarray,
    similarity: np.ndarray,
    weighted: np.ndarray,
    grad_cums: np.ndarray,
) -> np.ndarray:
    """Backward of :func:`all_cumulative_correlations` for per-node upstream grads.

    ``weighted`` is the (V, N) cache returned by the forward pass. Each
    embedding receives a left-factor term through its own cumulative matrix
    and right-factor terms from every node's.
    """
    left = np.einsum("jnm,jm->jn", grad_cums, weighted)
    right_per_node = np.einsum("jnm,jn->jm", grad_cums, embeddings)
    return left + similarity @ right_per_node
