"""Shared numerical primitives: stabilized softmax, its backward pass, sigmoid,
and the row slicing of blocked matrix products."""

import numpy as np


def stable_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, with max-subtraction so large logits cannot overflow.

    Subtracting the per-row maximum is exact up to the usual shift
    invariance of softmax, so the result is unchanged mathematically.
    """
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=-1, keepdims=True)


def softmax_grad(output: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the logits given softmax ``output`` and an upstream gradient.

    Computes y * (g - <g, y>) row-wise, the softmax Jacobian-vector product.
    A constant upstream gradient is annihilated exactly, matching the shift
    invariance of the forward pass.
    """
    inner = np.sum(grad_output * output, axis=-1, keepdims=True)
    return output * (grad_output - inner)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically safe logistic function, exact at large |x| (saturates to 0/1)."""
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0
    # exp(-|x|) never overflows; NaN takes the x < 0 branch and keeps its sign.
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def row_blocks(count: int, size: int) -> list[slice]:
    """Slices of ``size`` rows (``size >= 2``) that cover ``[0, count)`` in
    order; no slice for ``count == 0``. A one-row remainder joins the slice
    before it, so no slice has one row unless ``count == 1``: a one-row matrix
    product takes BLAS's GEMV path, whose sums differ in the last bits."""
    ends = [*range(size, count - 1, size), count] if count else []
    return [slice(lo, hi) for lo, hi in zip([0, *ends], ends)]
