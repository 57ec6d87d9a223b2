"""Global feature layer and softmax classifier, batched along the leading axis.

Each shape's aggregated correlation matrix is flattened row-major, passed
through a fully connected layer with a sigmoid to give a bounded global
feature, and classified by a linear layer whose logits a softmax turns into
class probabilities; each layer is one matrix product per batch. The loss,
the negative log-likelihood of the true class, is computed from the logits
(``model.sample_loss``).
"""

from dataclasses import dataclass

import numpy as np

from .numeric import sigmoid


@dataclass
class ClassifierParams:
    """Global-feature layer (``feat_weights``/``feat_bias``) plus the softmax layer.

    ``feat_weights`` is (F, K) where K is the flattened descriptor size and
    ``cls_weights`` is (L, F).
    """

    feat_weights: np.ndarray
    feat_bias: np.ndarray
    cls_weights: np.ndarray
    cls_bias: np.ndarray

    def __post_init__(self):
        blocks = ("feat_weights", "feat_bias", "cls_weights", "cls_bias")
        for name in blocks:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        feature_dim = self.feat_weights.shape[0]
        num_classes = self.cls_weights.shape[0]
        if self.feat_bias.shape != (feature_dim,):
            raise ValueError(f"feat_bias shape {self.feat_bias.shape} != ({feature_dim},)")
        if self.cls_weights.shape[1] != feature_dim:
            raise ValueError(
                f"cls_weights shape {self.cls_weights.shape} does not take "
                f"{feature_dim}-dim features"
            )
        if self.cls_bias.shape != (num_classes,):
            raise ValueError(f"cls_bias shape {self.cls_bias.shape} != ({num_classes},)")
        if not all(np.isfinite(getattr(self, name)).all() for name in blocks):
            raise ValueError("classifier parameters must be finite")

    @property
    def feature_dim(self) -> int:
        return self.feat_weights.shape[0]

    @property
    def num_classes(self) -> int:
        return self.cls_weights.shape[0]

    @property
    def input_dim(self) -> int:
        return self.feat_weights.shape[1]


def init_classifier(
    num_classes: int,
    feature_dim: int,
    input_dim: int,
    rng: np.random.Generator,
    input_rms: float = 1.0,
) -> ClassifierParams:
    """Seeded init with variance-preserving weight scales and zero biases.

    ``input_rms`` is the expected root-mean-square of the descriptor entries
    feeding the first layer; the weight scale 1 / (sqrt(fan_in) * input_rms)
    then puts the pre-sigmoid activations at unit order. For unit-RMS inputs
    this is the usual 1/sqrt(fan_in). Descriptors built from soft-assignment
    products have entries far below unit scale, and seeding the weights as
    if they were unit-RMS leaves the sigmoid outputs pinned near 0.5 and the
    early gradient steps crawling.
    """
    if input_rms <= 0:
        raise ValueError(f"input_rms must be positive, got {input_rms}")
    feat_std = 1.0 / (input_dim**0.5 * input_rms)
    return ClassifierParams(
        feat_weights=rng.normal(0.0, feat_std, size=(feature_dim, input_dim)),
        feat_bias=np.zeros(feature_dim),
        cls_weights=rng.normal(0.0, feature_dim**-0.5, size=(num_classes, feature_dim)),
        cls_bias=np.zeros(num_classes),
    )


def _flatten_descriptor(agg: np.ndarray, params: ClassifierParams) -> np.ndarray:
    """(B, ...) descriptors as (B, K) rows, each flattened row-major."""
    agg = np.asarray(agg, dtype=np.float64)
    flat = agg.reshape(len(agg), -1)
    if flat.shape[1] != params.input_dim:
        raise ValueError(
            f"descriptor of size {flat.shape[1]} for a layer expecting {params.input_dim}"
        )
    if not np.isfinite(flat).all():
        raise ValueError("descriptor must be finite")
    return flat


def global_feature(agg: np.ndarray, params: ClassifierParams) -> np.ndarray:
    """Bounded global features sigmoid(W @ vec(agg_b) + b), (B, F), in (0, 1).

    ``agg`` holds one descriptor per shape along its leading axis: (B, N, N)
    matrices or (B, K) vectors, flattened row-major.
    """
    flat = _flatten_descriptor(agg, params)
    return sigmoid(flat @ params.feat_weights.T + params.feat_bias)


def classify(feature: np.ndarray, params: ClassifierParams) -> np.ndarray:
    """Class logits W @ feature + b along the last axis: (..., F) -> (..., L)."""
    feature = np.asarray(feature, dtype=np.float64)
    if feature.shape[-1:] != (params.feature_dim,):
        raise ValueError(f"feature shape {feature.shape}, expected (..., {params.feature_dim})")
    return feature @ params.cls_weights.T + params.cls_bias


def classifier_backward(agg, feature, probs, labels, params: ClassifierParams):
    """Backward pass of the summed -log P[label] over a batch.

    Takes the cached descriptors (B, ...), features (B, F) and probabilities
    (B, L) and the (B,) labels; returns ``(g_pre, flat, grad_feat_bias,
    grad_cls_weights, grad_cls_bias, grad_agg)``: the parameter gradients
    summed over the batch, and ``grad_agg`` shaped like ``agg``. The logit
    gradient is probs minus the one-hot label. The feature-layer gradient
    stays as its two factors, the pre-sigmoid gradient ``g_pre`` (B, F) and
    the flattened descriptors ``flat`` (B, K): it is ``g_pre.T @ flat``, which
    no caller but a gradient check needs dense (``model.dense_gradient``).
    The classifier weights get the classification route only.
    """
    flat = _flatten_descriptor(agg, params)
    labels = np.asarray(labels)
    if labels.shape != (len(flat),) or not np.all((labels >= 0) & (labels < params.num_classes)):
        raise ValueError(f"labels {labels} out of range [0, {params.num_classes})")
    grad_logits = np.array(probs, dtype=np.float64)
    grad_logits[np.arange(len(flat)), labels] -= 1.0
    grad_pre = (grad_logits @ params.cls_weights) * feature * (1.0 - feature)
    grad_agg = (grad_pre @ params.feat_weights).reshape(np.shape(agg))
    return (grad_pre, flat, grad_pre.sum(axis=0), grad_logits.T @ feature,
            grad_logits.sum(axis=0), grad_agg)
