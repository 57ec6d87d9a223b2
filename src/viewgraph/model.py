"""Full network: configuration, parameter container, forward and backward passes.

One forward and one backward call per batch of shapes: embed every view
feature, form each view node's similarity-weighted embedding sum ``w_j``,
score the nodes and softmax-attend over them, aggregate, and classify.
Node j's correlation matrix ``outer(d_j, w_j)`` stays factored as the
embeddings ``E`` and the weighted sums ``W = S @ E``, so the (V, N, N) node
tensor never exists, and the feature layer is one matrix product per batch
in each pass. A single sample is the batch of one, its trace without the
batch axis.

Ablation flags substitute stages rather than branching the math:
``no_spatiality`` feeds an all-ones similarity matrix, ``no_attention``
fixes uniform weights, ``no_latent`` uses raw features as embeddings (the
pattern count then equals the input dimension), ``no_correlation`` keeps
the spatially weighted sums as per-node vectors instead of outer-product
matrices, and ``mean_pool`` / ``max_pool`` bypass the graph entirely and
pool embeddings straight into the global-feature layer. The backward pass
always differentiates the computation that actually ran, so finite
differences agree under every flag combination.
"""

import json
import math
import struct
from dataclasses import InitVar, asdict, dataclass, fields
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .attention import (
    AttentionParams,
    aggregate,
    aggregate_backward,
    attention_scores,
    init_attention,
    normalize_attention,
    scores_backward,
)
from .classifier import (
    ClassifierParams,
    classifier_backward,
    classify,
    global_feature,
    init_classifier,
)
# The dense all_cumulative_correlations is not called here; perfbench/spans.py
# traces the correlation stage under this name.
from .correlation import all_correlation_backward, all_cumulative_correlations  # noqa: F401
from .dataio import DEFAULT_SIGMA, check_json_types, read_container, write_atomic
from .errors import FormatError
from .numeric import row_blocks, softmax_grad, stable_softmax
from .semantics import LatentMapParams, embed, embed_backward, init_latent_map

CHECKPOINT_MAGIC = b"3DVG-M"
CHECKPOINT_VERSION = 2


_LEAST = {"num_classes": 2, "input_dim": 1, "views": 1, "n_patterns": 2, "feature_dim": 1,
          "epochs": 0, "batch_size": 1, "seed": 0, "plateau_patience": 0}


@dataclass
class TrainConfig:
    """Model dimensions, optimization settings, and ablation flags.

    Defaults follow the reference operating point: learning rate 0.009,
    spatial decay sigma 10, 128 latent patterns, 256-dim global feature,
    20 views. ``drop_eq10_second_term`` is accepted and ignored, never
    stored: the attention route of the classifier-weight gradient (the
    second term of eq. 10) goes through a score term shared by all views,
    which softmax cancels, so there is nothing to drop.
    """

    num_classes: int
    input_dim: int = 64
    views: int = 20
    n_patterns: int = 128
    feature_dim: int = 256
    sigma: float = DEFAULT_SIGMA
    learning_rate: float = 0.009
    epochs: int = 100
    batch_size: int = 16
    seed: int = 0
    no_spatiality: bool = False
    no_attention: bool = False
    no_latent: bool = False
    no_correlation: bool = False
    mean_pool: bool = False
    max_pool: bool = False
    drop_eq10_second_term: InitVar[bool] = False
    plateau_patience: int = 5

    def __post_init__(self, _drop_eq10_second_term):
        for name, least in _LEAST.items():
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        # Zero learning rate is allowed: it runs the full pipeline with
        # parameters frozen, which the determinism checks rely on. The
        # comparisons are written so that NaN fails them.
        for name in ("learning_rate", "sigma"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.mean_pool and self.max_pool:
            raise ValueError("mean_pool and max_pool are mutually exclusive")

    @property
    def effective_patterns(self) -> int:
        """Embedding width: the pattern count, or the raw input dim under no_latent."""
        return self.input_dim if self.no_latent else self.n_patterns

    @property
    def pooled_mode(self) -> bool:
        return self.mean_pool or self.max_pool

    @property
    def vector_descriptor(self) -> bool:
        """True when the per-shape descriptor is a vector rather than a matrix."""
        return self.pooled_mode or self.no_correlation

    @property
    def descriptor_dim(self) -> int:
        n = self.effective_patterns
        return n if self.vector_descriptor else n * n


@dataclass
class ModelParams:
    """All learnable parameters, grouped by pipeline stage into plain fields
    whose shapes ``BLOCKS`` gives. A non-finite block is a ValueError."""

    latent: LatentMapParams
    attn: AttentionParams
    cls: ClassifierParams

    def __post_init__(self):
        bad = self.non_finite_block()
        if bad is not None:
            raise ValueError(f"parameter block {bad} must be finite")

    @classmethod
    def from_blocks(cls, arrays: dict) -> "ModelParams":
        """Assemble the stage groups from a {block name: array} mapping."""
        groups = {f.name: {} for f in fields(cls)}
        for name, group, attr, _ in BLOCKS:
            groups[group][attr] = arrays[name]
        return cls(**{f.name: f.type(**groups[f.name]) for f in fields(cls)})

    def blocks(self):
        """Yield (name, array) for every parameter block in table order."""
        for name, group, attr, _ in BLOCKS:
            yield name, getattr(getattr(self, group), attr)

    def non_finite_block(self) -> Optional[str]:
        """The first block, in table order, holding a NaN or an inf; else None."""
        return next((name for name, arr in self.blocks() if not np.isfinite(arr).all()), None)

    def copy(self) -> "ModelParams":
        """Deep copy; the new container's arrays are independent and writable."""
        return ModelParams.from_blocks({name: arr.copy() for name, arr in self.blocks()})


# The parameter-block table: block name, owning stage group and attribute on
# it, and the block's shape for a config. Its order is the order of the
# checkpoint payload and of the SGD update.
BLOCKS = (
    ("latent_filters", "latent", "filters", lambda c: (c.n_patterns, c.input_dim)),
    ("latent_offsets", "latent", "offsets", lambda c: (c.n_patterns,)),
    ("attn_node_proj", "attn", "node_proj",
     lambda c: (c.num_classes, c.effective_patterns)),
    ("attn_node_vec", "attn", "node_vec", lambda c: (c.effective_patterns,)),
    ("attn_out", "attn", "out", lambda c: (c.num_classes,)),
    ("feat_weights", "cls", "feat_weights", lambda c: (c.feature_dim, c.descriptor_dim)),
    ("feat_bias", "cls", "feat_bias", lambda c: (c.feature_dim,)),
    ("cls_weights", "cls", "cls_weights", lambda c: (c.num_classes, c.feature_dim)),
    ("cls_bias", "cls", "cls_bias", lambda c: (c.num_classes,)),
)

BLOCK_NAMES = tuple(name for name, *_ in BLOCKS)


def block_shapes(config: TrainConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter block under ``config``, in table order."""
    return [(name, shape(config)) for name, _, _, shape in BLOCKS]


def init_model(config: TrainConfig, rng: np.random.Generator) -> ModelParams:
    """Seeded parameter init; draw order is fixed so runs reproduce bit-for-bit."""
    latent = init_latent_map(config.n_patterns, config.input_dim, rng)
    attn = init_attention(
        config.num_classes, config.effective_patterns, config.feature_dim, rng
    )
    # Soft-assignment descriptors (matrix or vector) spread ~unit total mass
    # over their entries, so a typical entry has RMS around sqrt(2)/dim. Raw
    # features under no_latent have no such known scale; assume unit RMS.
    input_rms = 1.0 if config.no_latent else np.sqrt(2.0) / config.descriptor_dim
    cls = init_classifier(
        config.num_classes, config.feature_dim, config.descriptor_dim, rng,
        input_rms=input_rms,
    )
    return ModelParams(latent=latent, attn=attn, cls=cls)


def validate_params(params: ModelParams, config: TrainConfig) -> None:
    """Reject parameter containers whose block shapes do not match the config."""
    for (name, arr), (_, want) in zip(params.blocks(), block_shapes(config)):
        if arr.shape != want:
            raise ValueError(
                f"parameter block {name} has shape {arr.shape}, config expects {want}"
            )


@dataclass
class ForwardTrace:
    """Cached intermediates of one forward pass over a batch, batch axis first.

    The trace ``forward`` returns for a single sample drops the batch axis.
    ``features``, ``similarity`` and ``labels`` are the checked batch, which
    ``backward`` reads. ``embeddings`` and ``weighted_sums`` (V, N) are the
    factors of the node matrices; ``agg`` is the (N, N) descriptor, (N,) in
    the vector modes. ``similarity``, ``weighted_sums`` and ``alpha`` are
    None in the pooled modes.
    """

    features: np.ndarray
    similarity: Optional[np.ndarray]
    labels: np.ndarray
    embeddings: np.ndarray
    weighted_sums: Optional[np.ndarray]
    alpha: Optional[np.ndarray]
    agg: np.ndarray
    global_feature: np.ndarray
    logits: np.ndarray
    probs: np.ndarray

    def _map(self, fn) -> "ForwardTrace":
        return ForwardTrace(**{k: None if v is None else fn(v) for k, v in vars(self).items()})


# ``infer`` runs the feature-layer GEMM on blocks of about INFER_BLOCK_BYTES of
# descriptors (96 rows at the paper point), as BLAS packs all of ``feat_weights``
# per call, and every other stage on slices of EVAL_CHUNK shapes.
INFER_BLOCK_BYTES = 12 << 20
EVAL_CHUNK = 32


def check_samples(samples, config: TrainConfig, first: int = 0) -> None:
    """Reject a sample whose features are not (V, D), whose graph has another
    view count, or whose graph was built at another sigma while similarities
    are read. The error names the sample's index in ``samples`` plus ``first``."""
    spatial = not (config.pooled_mode or config.no_spatiality)
    for i, s in enumerate(samples, first):
        if np.shape(s.features) != (config.views, config.input_dim):
            raise ValueError(f"sample {i}: features are {np.shape(s.features)}, config "
                             f"expects ({config.views}, {config.input_dim}) (V, D)")
        if s.graph.num_views != config.views:
            raise ValueError(f"sample {i}: graph and features disagree on the view count")
        if spatial and s.graph.sigma != config.sigma:
            raise ValueError(f"sample {i}: graph built with sigma={s.graph.sigma}, config has "
                             f"sigma={config.sigma}; rebuild the graphs with dataio.load(path, "
                             f"sigma=...) or generate_synthetic(..., sigma=...)")


def _describe(batch, params: ModelParams, config: TrainConfig, out) -> ForwardTrace:
    """Every stage before the feature layer, on samples that ``check_samples``
    passed: embed, ``W = S @ E``, attention and aggregate. The descriptors are
    written straight into ``out``, (B, K) rows; the trace's ``agg`` views
    them, and its feature-layer and classifier fields are None.

    The flags pick each stage once per batch: identity embed (no_latent),
    all-ones similarity (no_spatiality), uniform weights (no_attention),
    vector aggregate (no_correlation) or a pooled descriptor (mean_pool,
    max_pool).
    """
    if not batch:
        raise ValueError("empty batch")
    feats = np.array([s.features for s in batch], dtype=np.float64)
    size, views, _ = feats.shape
    if config.no_latent:
        if not np.isfinite(feats).all():
            raise ValueError("features must be finite")
        emb = feats
    else:
        emb = embed(feats.reshape(size * views, -1), params.latent).reshape(size, views, -1)
    agg = out if config.vector_descriptor else out.reshape(size, *emb.shape[2:] * 2)
    sim = weighted = alpha = None
    if config.mean_pool:
        np.mean(emb, axis=1, out=agg)
    elif config.max_pool:
        np.max(emb, axis=1, out=agg)
    else:
        sim = (np.ones((size, views, views)) if config.no_spatiality
               else np.array([s.graph.similarity for s in batch]))
        weighted = sim @ emb
        left = None if config.no_correlation else emb
        if config.no_attention:
            alpha = np.full((size, views), 1.0 / views)
        else:
            alpha = normalize_attention(attention_scores(left, weighted, params.attn))
        aggregate(left, weighted, alpha, out=agg)
    labels = np.array([s.label for s in batch], dtype=np.int64)
    return ForwardTrace(feats, sim, labels, emb, weighted, alpha, agg, None, None, None)


def _run(batch, params: ModelParams, config: TrainConfig) -> ForwardTrace:
    """The whole pipeline on a list of samples that ``check_samples`` passed,
    with params that ``validate_params`` passed: ``_describe`` into a fresh
    descriptor buffer, the feature layer, the classifier and the softmax."""
    desc = np.empty((len(batch), config.descriptor_dim))
    trace = _describe(batch, params, config, desc)
    trace.global_feature = global_feature(desc, params.cls)
    trace.logits = classify(trace.global_feature, params.cls)
    trace.probs = stable_softmax(trace.logits)
    return trace


def forward(samples, params: ModelParams, config: TrainConfig) -> ForwardTrace:
    """Run the pipeline on a sequence of shapes, or one sample (the B=1 view,
    anything with a label): check the params and samples on every call, then ``_run``."""
    validate_params(params, config)
    single = hasattr(samples, "label")
    batch = [samples] if single else list(samples)
    check_samples(batch, config)
    trace = _run(batch, params, config)
    return trace._map(lambda v: v[0]) if single else trace


def backward(trace: ForwardTrace, params: ModelParams, config: TrainConfig):
    """Gradients of the -log P[label] summed over the batch, one attribute per block.

    ``trace`` is as ``forward`` gave it, with the same params and config;
    the batch is read from it. Only the blocks that can move the loss are
    present. Absent are ``latent_*`` under ``no_latent``, every ``attn_*``
    block under ``no_attention`` and the pooled modes, and ``attn_node_vec``
    under ``no_correlation``. ``feat_weights`` is the pair of factors
    ``(g_pre, flat)``, (B, F) and (B, K), whose product ``g_pre.T @ flat`` is
    its gradient: the trainer applies it in row blocks, and
    ``dense_gradient`` multiplies it out. The classifier weight matrix gets
    the classification-route gradient only; see ``TrainConfig`` on
    ``drop_eq10_second_term``.
    """
    trace = trace._map(lambda v: v[None]) if np.ndim(trace.labels) == 0 else trace
    emb = trace.embeddings
    size, views, _ = emb.shape
    if emb.shape[1:] != (config.views, config.effective_patterns) or (
            trace.probs.shape[1:] != (config.num_classes,)):
        raise RuntimeError("stale trace: cached shapes do not match the config")
    g_pre, flat, gfb, gcw, gcb, grad_agg = classifier_backward(
        trace.agg, trace.global_feature, trace.probs, trace.labels, params.cls
    )
    grads = {"feat_weights": (g_pre, flat), "feat_bias": gfb, "cls_weights": gcw,
             "cls_bias": gcb}
    if config.mean_pool:
        grad_embed = np.repeat(grad_agg[:, None, :] / views, views, axis=1)
    elif config.max_pool:
        grad_embed = np.zeros_like(emb)
        rows, cols = np.indices(grad_agg.shape)
        grad_embed[rows, emb.argmax(axis=1), cols] = grad_agg
    else:
        left = None if config.no_correlation else emb
        weighted = trace.weighted_sums
        grad_alpha, grad_left, grad_weighted = aggregate_backward(
            left, weighted, trace.alpha, grad_agg
        )
        if not config.no_attention:
            g_proj, g_vec, g_out, g_left, g_weighted = scores_backward(
                left, weighted, params.attn, softmax_grad(trace.alpha, grad_alpha)
            )
            grads.update(attn_node_proj=g_proj, attn_out=g_out)
            grad_weighted += g_weighted
            if g_vec is not None:
                grads["attn_node_vec"] = g_vec
                grad_left += g_left
        grad_embed = all_correlation_backward(trace.similarity, grad_left, grad_weighted)
    if not config.no_latent:
        flat = (size * views, -1)
        grads["latent_filters"], grads["latent_offsets"] = embed_backward(
            trace.features.reshape(flat), emb.reshape(flat), grad_embed.reshape(flat)
        )
    return SimpleNamespace(**grads)


def dense_gradient(grad) -> np.ndarray:
    """A ``backward`` entry as one array: the ``feat_weights`` factors
    ``(g_pre, flat)`` multiplied out to ``g_pre.T @ flat``, any other as is."""
    return grad[0].T @ grad[1] if isinstance(grad, tuple) else grad


def sample_loss(trace: ForwardTrace, samples=None):
    """Negative log-likelihood of each shape's true class, from the logits:
    a (B,) array for a sequence of samples, a float for one sample. The
    labels are the samples', or the trace's own when ``samples`` is None.

    ``logsumexp(z) - z[label]`` is exact where the true class's probability
    underflows, so a saturated prediction reports its real loss.
    """
    own = samples is None
    single = np.ndim(trace.labels) == 0 if own else hasattr(samples, "label")
    labels = np.atleast_1d(trace.labels if own else [samples.label] if single
                           else [s.label for s in samples])
    z = np.atleast_2d(trace.logits)
    if len(z) != len(labels):
        raise ValueError(f"{len(z)} rows of logits for {len(labels)} samples")
    bad = (labels < 0) | (labels >= z.shape[1])
    if bad.any():
        raise ValueError(f"label {labels[bad][0]} out of range [0, {z.shape[1]})")
    top = z.max(axis=1)
    loss = top - z[np.arange(len(labels)), labels] + np.log(np.exp(z - top[:, None]).sum(axis=1))
    return float(loss[0]) if single else loss


def count_hits(trace) -> int:
    """Shapes whose label is their most probable class; ties go to the lower index."""
    return int(np.count_nonzero(trace.probs.argmax(axis=-1) == trace.labels))


def infer(samples, params: ModelParams, config: TrainConfig, *names) -> ForwardTrace:
    """``forward`` over many shapes: the ``names`` fields, every other field
    None. ``samples`` is a sequence, sliced into the plan's blocks, or a reader
    that takes the plan and yields one Dataset per block, as ``read_blocks``
    of ``dataio`` does. The plan is made once from the shape count: whole
    slices of ``EVAL_CHUNK`` shapes, split evenly into blocks of at most
    ``INFER_BLOCK_BYTES`` of descriptors unless one slice is more. A block is
    checked (an error names a sample's index among all), then ``_describe``,
    ``classify`` and the softmax run on its slices and the feature layer once
    on it, in one reused buffer. So only the feature GEMM's row count depends
    on the budget: BLAS may sum a small GEMM's row, such as the classifier's,
    differently at another row count. A name whose field ``_describe`` leaves
    None under ``config`` is a ValueError."""
    width, buffer = config.descriptor_dim, None

    def plan(count: int) -> list:
        nonlocal buffer
        if count == 0:
            raise ValueError("cannot run inference on an empty dataset")
        slices = math.ceil(count / EVAL_CHUNK)
        per_block = max(1, INFER_BLOCK_BYTES // (8 * width * EVAL_CHUNK))
        blocks = row_blocks(count, EVAL_CHUNK * math.ceil(slices / math.ceil(slices / per_block)))
        buffer = np.empty((max(b.stop - b.start for b in blocks), width))
        return blocks

    source = samples(plan) if callable(samples) else (samples[b] for b in plan(len(samples)))
    validate_params(params, config)
    kept = {name: [] for name in names}
    head = ("global_feature", "logits", "probs")
    done = 0
    for block in source:
        batch = list(getattr(block, "samples", block))  # a reader yields Datasets
        check_samples(batch, config, done)
        done += len(batch)
        desc = buffer[:len(batch)]
        inner = row_blocks(len(batch), EVAL_CHUNK)
        for rows in inner:
            trace = _describe(batch[rows], params, config, desc[rows])
            for name in kept.keys() - set(head):  # agg views the reused buffer
                value = getattr(trace, name)
                if value is None:
                    raise ValueError(f"this config computes no {name}: it skips the "
                                     "view-graph and attention stages")
                kept[name].append(np.copy(value))
            del trace
        feature = global_feature(desc, params.cls)
        for rows in inner:
            logits = classify(feature[rows], params.cls)
            for name, value in zip(head, (feature[rows], logits, stable_softmax(logits))):
                if name in kept:
                    kept[name].append(value)
    columns = {name: np.concatenate(parts) for name, parts in kept.items()}
    return ForwardTrace(**{f.name: columns.get(f.name) for f in fields(ForwardTrace)})


def predict_features(params: ModelParams, config: TrainConfig, dataset) -> np.ndarray:
    """Global feature of every sample, (M, F); the retrieval representation."""
    return infer(dataset.samples, params, config, "global_feature").global_feature


# -- checkpoint container ("3DVG-M") ------------------------------------------
#
# magic (6 bytes) | version u32 LE | config-JSON length u32 LE | config JSON
# (UTF-8, sorted keys) | parameter payload: each block in the order of the
# BLOCKS table as little-endian float64, row-major. Block shapes are derived
# from the config, so the payload length is checked exactly. Version 1 held
# two more blocks after attn_node_vec, attn_ctx_vec (F) and attn_bias (L),
# which no computation reads; they are read and dropped.

# Fields that older checkpoints carry but TrainConfig no longer has. They are
# type-checked like the others and then dropped, so those checkpoints load;
# ``no_attention_c`` gave uniform weights and loads as ``no_attention``.
_RETIRED_FIELDS = {"threads": int, "plateau_rel_tol": float, "no_attention_wf": bool,
                   "no_attention_c": bool, "drop_eq10_second_term": bool}


def save_checkpoint(path, params: ModelParams, config: TrainConfig) -> None:
    """Write params + config to the binary checkpoint container, atomically.
    A non-finite block, which ``load_checkpoint`` rejects, is a ValueError."""
    validate_params(params, config)
    blob = json.dumps(asdict(config), sort_keys=True).encode("utf-8")
    parts = [CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(blob)) + blob]
    bad = params.non_finite_block()
    if bad is not None:
        raise ValueError(f"parameter block {bad} is not finite; not saving {path}")
    # written through the buffer protocol, not copied
    parts += [np.ascontiguousarray(arr, dtype="<f8") for _, arr in params.blocks()]
    write_atomic(path, parts, "checkpoint")


def load_checkpoint(path, digest=None) -> tuple[ModelParams, TrainConfig]:
    """Read a checkpoint back; raises FormatError/DataIOError on damage.
    The payload is read once into one float64 array, and each block is a view
    of it. Every byte read goes into ``digest`` when one is given."""
    with read_container(path, "checkpoint", digest) as r:
        version = r.header(CHECKPOINT_MAGIC, (1, CHECKPOINT_VERSION), "checkpoint")
        blob = r.take(r.uint(4, "config length"), "config block")
        try:
            cfg_dict = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"checkpoint config block is not valid JSON: {exc}") from exc
        known = {f.name for f in fields(TrainConfig)}
        if not isinstance(cfg_dict, dict) or set(cfg_dict) - set(_RETIRED_FIELDS) != known:
            raise FormatError("checkpoint config block has wrong fields")
        check_json_types(cfg_dict, {f.name: f.type for f in fields(TrainConfig)}
                         | _RETIRED_FIELDS, "checkpoint config")
        cfg_dict["no_attention"] |= cfg_dict.get("no_attention_c", False)
        try:
            config = TrainConfig(**{name: cfg_dict[name] for name in known})
        except (TypeError, ValueError) as exc:
            raise FormatError(f"invalid checkpoint config: {exc}") from exc

        shapes = block_shapes(config)
        if version == 1:  # attn_ctx_vec and attn_bias, just before attn_out
            retired = ("retired", (config.feature_dim + config.num_classes,))
            shapes.insert(BLOCK_NAMES.index("attn_out"), retired)
        sizes = [math.prod(shape) for _, shape in shapes]
        payload = r.array("<f8", sum(sizes), "parameter payload")
        r.finish()
    parts = np.split(payload, np.cumsum(sizes[:-1]))
    arrays = {name: part.reshape(shape) for (name, shape), part in zip(shapes, parts)}
    try:
        return ModelParams.from_blocks(arrays), config
    except ValueError as exc:  # ModelParams rejects a non-finite block
        raise FormatError(f"invalid checkpoint parameters: {exc}") from exc
