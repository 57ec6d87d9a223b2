"""Global feature layer and softmax classifier with log-likelihood loss.

The aggregated correlation matrix is flattened row-major, passed through a
fully connected layer with a sigmoid to give a bounded global feature, and
classified by a linear layer whose logits a softmax turns into class
probabilities. The loss, the negative log-likelihood of the true class, is
computed from the logits (``model.sample_loss``).
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
        for name in ("feat_weights", "feat_bias", "cls_weights", "cls_bias"):
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
    agg = np.asarray(agg, dtype=np.float64)
    flat = agg.reshape(-1)  # row-major
    if flat.shape[0] != params.input_dim:
        raise ValueError(
            f"descriptor of size {flat.shape[0]} for a layer expecting {params.input_dim}"
        )
    if not np.isfinite(flat).all():
        raise ValueError("descriptor must be finite")
    return flat


def global_feature(agg: np.ndarray, params: ClassifierParams) -> np.ndarray:
    """Bounded global feature sigmoid(W @ vec(agg) + b), entries in (0, 1).

    ``agg`` may be the (N, N) aggregated matrix or an already-flat vector
    (the pooled-descriptor modes); flattening is row-major.
    """
    flat = _flatten_descriptor(agg, params)
    return sigmoid(params.feat_weights @ flat + params.feat_bias)


def classify(feature: np.ndarray, params: ClassifierParams) -> np.ndarray:
    """Class logits W @ feature + b, (L,); their softmax is the class posterior."""
    feature = np.asarray(feature, dtype=np.float64)
    if feature.shape != (params.feature_dim,):
        raise ValueError(
            f"feature shape {feature.shape}, expected ({params.feature_dim},)"
        )
    return params.cls_weights @ feature + params.cls_bias


def one_hot(label: int, num_classes: int) -> np.ndarray:
    """One-hot ground-truth distribution for a class label."""
    if not 0 <= label < num_classes:
        raise ValueError(f"label {label} out of range [0, {num_classes})")
    q = np.zeros(num_classes)
    q[label] = 1.0
    return q


def classifier_backward(
    agg: np.ndarray,
    feature: np.ndarray,
    probs: np.ndarray,
    label: int,
    params: ClassifierParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass for one sample's -log P[label].

    Takes the cached forward values (descriptor, feature, probabilities) and
    returns ``(grad_feat_weights, grad_feat_bias, grad_cls_weights,
    grad_cls_bias, grad_agg)`` where ``grad_agg`` matches the shape of
    ``agg``. The softmax/cross-entropy pair collapses to the logit gradient
    probs - one_hot(label); the classifier-weight gradient returned here is
    the classification route only.
    """
    flat = _flatten_descriptor(agg, params)
    grad_logits = probs - one_hot(label, params.num_classes)
    grad_cls_weights = np.outer(grad_logits, feature)
    grad_cls_bias = grad_logits
    grad_preact = (params.cls_weights.T @ grad_logits) * feature * (1.0 - feature)
    grad_feat_weights = np.outer(grad_preact, flat)
    grad_feat_bias = grad_preact
    grad_agg = (params.feat_weights.T @ grad_preact).reshape(np.asarray(agg).shape)
    return grad_feat_weights, grad_feat_bias, grad_cls_weights, grad_cls_bias, grad_agg
