"""Pairwise pattern correlation and per-node cumulative correlation.

The correlation of two embeddings is their outer product: entry (n, n')
measures how strongly pattern n in one view co-occurs with pattern n' in
the other. Each view node accumulates its correlations with every node
(itself included, at similarity 1), weighted by spatial similarity, giving
an N x N descriptor of the shape as seen from that node. Because each
outer product of simplex vectors has entries summing to 1, the cumulative
matrix's entries sum to the node's total similarity mass.

The model never builds these matrices; it keeps node j's as the factors
``d_j`` and ``w_j`` (row j of ``W = S @ E``), see ``viewgraph.attention``.
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


def all_correlation_backward(similarity: np.ndarray, grad_embeddings, grad_weighted: np.ndarray):
    """Embedding gradient through the factors of the cumulative correlations.

    The model keeps each node's matrix ``outer(d_j, w_j)`` factored as the
    embeddings ``E`` and the weighted sums ``W = S @ E`` (any leading batch
    axes). Given the gradients reaching each factor directly, the embeddings
    receive ``grad_embeddings + S^T @ grad_weighted``; ``grad_embeddings``
    is None when only ``W`` was used (vector nodes).
    """
    grad = np.swapaxes(similarity, -1, -2) @ grad_weighted
    if grad_embeddings is not None:
        grad += grad_embeddings
    return grad
