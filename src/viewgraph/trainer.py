"""Mini-batch SGD training loop and a finite-difference gradient checker.

Everything here is deterministic for a given (dataset, config): parameter
init draws from one seeded stream, epoch shuffles from another, and each
mini-batch takes one batched forward and one backward call, whose
gradients come summed over the batch in a fixed order. ``train`` checks its
data once, before epoch 0, and runs each batch through ``model._run``.
"""

import time
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .model import (
    ModelParams,
    TrainConfig,
    _run,
    backward,
    check_samples,
    count_hits,
    dense_gradient,
    forward,
    init_model,
    sample_loss,
    validate_params,
)
from .numeric import row_blocks

# Relative improvement of the epoch loss over its best value that resets the
# plateau counter.
PLATEAU_REL_TOL = 1e-5

# An epoch loss above this many times ln L, the loss of a uniform prediction
# over L classes, is divergence: the true classes' geometric-mean probability
# is then below L**-100. A run that overshoots and recovers stays far below
# it (on the trainer tests' 3-class task, learning rate 10 peaks at 6.9 ln L
# in epoch 0), while learning rate 1e3 starts at 1,010 ln L.
DIVERGED_LOSS_FACTOR = 100.0

# Bytes of the one buffer that holds a row block of the feature-layer update:
# 16 rows at the paper point's K = 16,384, which each block leaves in cache
# for its scaling and subtraction. Of 8, 16, 32 and 64 rows, 16 trained
# fastest on a 2-core Xeon with 2 MiB of L2 per core.
UPDATE_BLOCK_BYTES = 2 << 20


@dataclass
class EpochStats:
    """One epoch's running statistics, measured during the training pass."""

    epoch: int
    loss: float
    accuracy: float
    seconds: float


@dataclass
class TrainResult:
    params: ModelParams
    history: list
    stopped_early: bool

    @property
    def epochs_run(self) -> int:
        return len(self.history)


def _subtract_outer(arr, left, right, step: float) -> None:
    """``arr -= step * (left.T @ right)`` without the dense (F, K) product.

    Each block of rows of ``left.T @ right`` goes into one reused buffer and
    is scaled and subtracted before the next. Every entry is the same dot
    product over the batch axis as in the dense GEMM, and the blocks are
    ``row_blocks``, so the result is the dense update bit for bit.
    """
    rows = max(2, UPDATE_BLOCK_BYTES // arr[0].nbytes)
    buf = np.empty((min(rows + 1, len(arr)), arr.shape[1]))
    for block in row_blocks(len(arr), rows):
        product = np.matmul(left[:, block].T, right, out=buf[: block.stop - block.start])
        product *= step
        arr[block] -= product


def train(
    dataset: Dataset,
    config: TrainConfig,
    params: ModelParams = None,
    callback=None,
) -> TrainResult:
    """Train for ``config.epochs`` epochs of shuffled mini-batch SGD.

    ``params`` resumes from an existing parameter set instead of a fresh
    seeded init. ``callback``, if given, receives each epoch's
    :class:`EpochStats`; returning a truthy value stops training after that
    epoch. Training also stops once the epoch loss has gone
    ``plateau_patience`` consecutive epochs without improving on its best
    value by a relative ``PLATEAU_REL_TOL`` (patience 0 disables this).
    Raises RuntimeError ("training diverged") if the loss, a forward stage
    or any parameter goes non-finite, or if an epoch's mean loss exceeds
    ``DIVERGED_LOSS_FACTOR`` times ln L, the loss of a uniform prediction.
    """
    # the dataset checked itself when made; what remains needs the config,
    # so that a ValueError during training can only come from the parameters
    if dataset.num_classes != config.num_classes:
        raise ValueError(
            f"dataset has {dataset.num_classes} classes, config expects {config.num_classes}"
        )
    check_samples(dataset.samples, config)
    if params is None:
        params = init_model(config, np.random.default_rng([config.seed, 0]))
    else:
        params = params.copy()
        validate_params(params, config)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    num = dataset.num_samples
    history = []
    stopped_early = False
    best_loss = np.inf
    stall = 0
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = shuffle_rng.permutation(num)
        loss_sum = 0.0
        hits = 0
        for lo in range(0, num, config.batch_size):
            batch = [dataset.samples[i] for i in order[lo : lo + config.batch_size]]
            try:
                trace = _run(batch, params, config)
                losses = sample_loss(trace, batch)
                if not np.isfinite(losses).all():
                    raise ValueError("non-finite loss")
            except ValueError as exc:
                # The data passed its checks, so huge parameters made a
                # stage non-finite.
                raise RuntimeError(
                    f"training diverged: {exc} in epoch {epoch}, batch starting "
                    f"at {lo} (learning rate {config.learning_rate}, sigma "
                    f"{config.sigma})"
                ) from exc
            loss_sum += float(losses.sum())
            hits += count_hits(trace)
            grads = vars(backward(trace, params, config))
            del trace  # free it before the update
            step = config.learning_rate / len(batch)
            for name, arr in params.blocks():
                grad = grads.get(name)
                if isinstance(grad, tuple):  # feat_weights, as its two factors
                    _subtract_outer(arr, *grad, step)
                elif grad is not None:  # scaled in place: no temporary
                    arr -= np.multiply(grad, step, out=grad)
            del grads
        bad = params.non_finite_block()
        if bad is not None:
            raise RuntimeError(
                f"training diverged: block '{bad}' went non-finite during "
                f"epoch {epoch} (learning rate {config.learning_rate})"
            )
        loss = loss_sum / num
        if loss > DIVERGED_LOSS_FACTOR * np.log(config.num_classes):
            raise RuntimeError(f"training diverged: epoch loss {loss:.4g} is over "
                               f"{DIVERGED_LOSS_FACTOR:g} ln {config.num_classes} in epoch "
                               f"{epoch} (learning rate {config.learning_rate})")
        stats = EpochStats(
            epoch=epoch,
            loss=loss,
            accuracy=hits / num,
            seconds=time.perf_counter() - started,
        )
        history.append(stats)
        if callback is not None and callback(stats):
            stopped_early = True
            break
        if config.plateau_patience > 0:
            if stats.loss < best_loss * (1.0 - PLATEAU_REL_TOL):
                best_loss = stats.loss
                stall = 0
            else:
                stall += 1
                if stall >= config.plateau_patience:
                    stopped_early = True
                    break
    return TrainResult(params=params, history=history, stopped_early=stopped_early)


# Denominator floor for the per-block relative error. Central differences at
# h = 1e-5 on an O(1) loss carry ~1e-11 of roundoff noise; blocks whose true
# gradient is exactly zero (the ones ``backward`` leaves out, such as the
# ``attn_*`` blocks under ``no_attention``) would divide that noise by
# itself. The floor maps such noise to ~1e-7 while an actual gradient bug,
# which shows up at absolute size >= 1e-9, still exceeds any reasonable
# tolerance.
GRAD_CHECK_FLOOR = 1e-4


def grad_check(
    sample,
    params: ModelParams,
    config: TrainConfig,
    h: float = 1e-5,
) -> dict:
    """Compare analytic gradients against central finite differences.

    Returns {block name: relative error}, where the relative error is the
    block's max absolute analytic/numeric difference over the larger of the
    block's max absolute numeric gradient and a small floor (so blocks with
    genuinely zero gradient compare cleanly). A block ``backward`` leaves
    out has no analytic gradient and counts as zero. The ``feat_weights``
    factors are multiplied out (``dense_gradient``) before the comparison.
    """
    if not 0.0 < h < np.inf:
        raise ValueError(f"finite-difference step h must be finite and > 0, got {h}")
    work = params.copy()
    trace = forward(sample, work, config)
    analytic = backward(trace, work, config)
    analytic.feat_weights = dense_gradient(analytic.feat_weights)

    def loss_at() -> float:
        return sample_loss(forward(sample, work, config), sample)

    report = {}
    for name, arr in work.blocks():
        a = getattr(analytic, name, 0.0)
        numeric = np.zeros_like(arr)
        flat = arr.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_at()
            flat[i] = keep - h
            down = loss_at()
            flat[i] = keep
            nflat[i] = (up - down) / (2.0 * h)
        scale = max(np.abs(numeric).max(initial=0.0), GRAD_CHECK_FLOOR)
        report[name] = float(np.abs(a - numeric).max(initial=0.0) / scale)
    return report

