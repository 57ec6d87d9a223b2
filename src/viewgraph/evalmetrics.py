"""Classification accuracy and retrieval evaluation on global shape features.

Retrieval ranks the gallery by the Euclidean or the cosine distance between
global feature vectors (``DISTANCES``). A ranked list per query is produced
once and reduced to the depths of its relevant items (``RetrievalRun.hits``);
every metric is computed from those depths, so precision/recall/F1 at a
cutoff, average precision, NDCG, and the interpolated precision-recall curve
all agree on ordering and tie handling: equal distances rank by ascending
gallery index.

All multi-term accumulations inside the metrics use ``math.fsum``, which is
exactly rounded and therefore independent of summation order. A reference
implementation that computes the same quantities with explicit loops gets
bit-identical results, not merely close ones.
"""

import math
from dataclasses import astuple, dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .dataio import write_csv
from .model import count_hits, infer
from .model import forward  # noqa: F401 -- not called; perfbench/spans.py traces this binding


def accuracy(params, config, dataset) -> float:
    """Fraction of samples whose predicted class matches the label.

    Argmax ties resolve to the lowest class index.
    """
    trace = infer(dataset.samples, params, config, "probs", "labels")
    return count_hits(trace) / dataset.num_samples


DISTANCES = ("euclidean", "cosine")

# Queries per ranking block: a block's score rows stay near 0.5 MB at 2,000
# gallery items. The ranking is exact at any block size.
RANK_BLOCK = 32


class Hits(NamedTuple):
    """The relevant items of each query's ranked list, row after row: row
    ``q``'s hits are ``depths[starts[q]:starts[q + 1]]``, nearest first."""

    depths: np.ndarray  # 1-based list depth of each hit, int64
    precisions: np.ndarray  # precision at each hit's depth, float64
    starts: np.ndarray  # (rows + 1,) int64 offsets into the two arrays above


def _hit_depths(relevant) -> Hits:
    """``Hits`` of a (rows, list length) bool relevance matrix."""
    relevant = np.asarray(relevant, dtype=bool)
    counts = np.count_nonzero(relevant, axis=1)
    starts = np.zeros(len(relevant) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    depths = np.flatnonzero(relevant)
    depths %= relevant.shape[1]
    depths += 1
    # The hit's 1-based number within its row (exact in float64), over its depth.
    precisions = np.arange(1.0, depths.size + 1)
    precisions -= np.repeat(starts[:-1], counts)
    precisions /= depths
    return Hits(depths, precisions, starts)


@dataclass
class RetrievalRun:
    """Queries against a gallery; when a query is its own gallery entry,
    ``exclude_self`` drops that entry from its ranked list."""

    query_features: np.ndarray
    query_labels: np.ndarray
    gallery_features: np.ndarray
    gallery_labels: np.ndarray
    exclude_self: bool = False
    distance: str = "euclidean"

    def __post_init__(self):
        self.query_features = np.asarray(self.query_features, dtype=np.float64)
        self.gallery_features = np.asarray(self.gallery_features, dtype=np.float64)
        self.query_labels = np.asarray(self.query_labels, dtype=np.int64)
        self.gallery_labels = np.asarray(self.gallery_labels, dtype=np.int64)
        if self.distance not in DISTANCES:
            raise ValueError(f"distance must be one of {DISTANCES}, got {self.distance!r}")
        if self.query_features.ndim != 2 or self.gallery_features.ndim != 2:
            raise ValueError("feature arrays must be 2-D (items, feature dim)")
        if self.query_features.shape[1] != self.gallery_features.shape[1]:
            raise ValueError("query and gallery feature dims differ")
        if self.query_labels.shape != (self.query_features.shape[0],):
            raise ValueError("query labels must be 1-D, one per query")
        if self.gallery_labels.shape != (self.gallery_features.shape[0],):
            raise ValueError("gallery labels must be 1-D, one per gallery item")
        if self.query_features.shape[0] == 0 or self.gallery_features.shape[0] == 0:
            raise ValueError("retrieval needs at least one query and one gallery item")
        if self.exclude_self:
            if self.query_features.shape[0] != self.gallery_features.shape[0]:
                raise ValueError("exclude_self requires query set == gallery set")
            if self.gallery_features.shape[0] < 2:
                raise ValueError("exclude_self leaves an empty ranked list")

    @classmethod
    def self_retrieval(cls, features, labels, distance="euclidean") -> "RetrievalRun":
        """Every item queries the rest of its own set."""
        return cls(features, labels, features, labels,
                   exclude_self=True, distance=distance)

    @property
    def num_queries(self) -> int:
        return self.query_features.shape[0]

    @cached_property
    def hits(self) -> Hits:
        """``_hit_depths`` of ``rank_gallery(self)``'s relevance, computed on
        first use and kept; the (queries, list length) ranking is not."""
        return _hit_depths(rank_gallery(self)[1])


def distance_matrix(
    queries: np.ndarray, gallery: np.ndarray, metric: str = "euclidean"
) -> np.ndarray:
    """Pairwise distances, (num queries, num gallery).

    Cosine distance is 1 minus the cosine similarity; an all-zero vector is
    treated as maximally distant (distance 1) from everything.
    """
    queries = np.asarray(queries, dtype=np.float64)
    gallery = np.asarray(gallery, dtype=np.float64)
    if metric == "euclidean":
        rows = [np.sqrt(((gallery - q) ** 2).sum(axis=1)) for q in queries]
        return np.stack(rows)
    if metric == "cosine":
        gnorm = np.sqrt((gallery**2).sum(axis=1))
        rows = []
        for q in queries:
            qnorm = np.sqrt((q**2).sum())
            dots = (gallery * q).sum(axis=1)
            denom = qnorm * gnorm
            sim = np.where(denom > 0.0, dots / np.where(denom > 0.0, denom, 1.0), 0.0)
            rows.append(1.0 - sim)
        return np.stack(rows)
    raise ValueError(f"metric must be one of {DISTANCES}, got {metric!r}")


# Rounding-bound factor for ranking. Row i's approximate scores s_ij get
# the bound b_i = c*gamma_K*(|q_i|^2 + max_j |g_j|^2) (Euclidean) or
# c*gamma_K (cosine), with gamma_K = K*u/(1 - K*u), K the feature dim and
# u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).
# Any summation order, blocked or fused, keeps a K-term dot product within
# gamma_K*sum|q_k g_k| <= gamma_K*N/2 of its value, N = |q|^2 + |g|^2, so:
# - Euclidean: s = N - 2 q.g from the GEMM is within (2*gamma_K + 3u)*N of
#   |q - g|^2; distance_matrix's sum((g - q)**2) is within
#   2*(gamma_K + 3u)*N of it; and two exact sums round to the same sqrt only
#   within 4u*|q - g|^2 <= 8u*N of each other. With u <= gamma_K that is
#   <= 21*gamma_K*N. Underflowed products add at most K*2^-1075 each, which
#   the bound's N + tiny covers (2^-1074 = 2u*tiny).
# - Cosine: the two dot products differ by <= 2*gamma_K*|q||g|, and both
#   paths' norm products are within 2*gamma_K + 3u of |q||g|; with the
#   division and 1 - sim roundings the scores are within 12*gamma_K of the
#   exact distance, for norms^2 in [tiny, 1/tiny] (otherwise the bound is
#   infinite; zero norms give exactly 1 on both paths).
# c = 32 leaves room for the second-order terms. Two entries of a row whose
# scores differ by more than 2*b_i then have strictly ordered exact distances;
# one width per row lets sorted neighbours alone decide where runs split.
_BOUND_C = 32.0
_TINY = np.finfo(np.float64).tiny


def _approximate(queries, gallery, gallery_sq, metric):
    """Approximate distance scores of a block of queries against the gallery,
    from one GEMM, and each query row's rounding bound (see ``_BOUND_C``)."""
    dim = gallery.shape[1]
    bound = _BOUND_C * dim * 2.0**-53 / (1.0 - dim * 2.0**-53)
    query_sq = np.einsum("ij,ij->i", queries, queries)
    dots = queries @ gallery.T
    if metric == "euclidean":
        norms = query_sq[:, None] + gallery_sq
        dots *= -2.0
        dots += norms
        return dots, bound * (query_sq + (gallery_sq.max() + _TINY))
    denom = np.sqrt(query_sq)[:, None] * np.sqrt(gallery_sq)
    sim = np.where(denom > 0.0, dots / np.where(denom > 0.0, denom, 1.0), 0.0)

    def unsafe(sq):
        return (sq != 0.0) & ~((sq >= _TINY) & (sq <= 1.0 / _TINY))

    return 1.0 - sim, np.where(unsafe(query_sq) | unsafe(gallery_sq).any(), np.inf, bound)


def _repair(order, scores, bound, queries, gallery, metric):
    """Put each row of ``order`` (argsorted approximate scores) into exact
    (distance, index) order, in place.

    A row splits into runs wherever neighbouring scores differ by more than
    twice its bound; only runs of two or more can be out of order, and
    their exact distances come from ``distance_matrix``. A row with a
    non-finite score is one run.
    """
    s = scores[np.arange(len(order))[:, None], order]
    cut = s[:, 1:] - s[:, :-1] > 2.0 * bound[:, None]
    # Sorted rows hold -inf first and NaN or +inf last.
    cut &= np.isfinite(s[:, -1:] - s[:, :1])
    if cut.all():
        return
    edges = np.ones((len(order), order.shape[1] + 1), dtype=bool)
    edges[:, 1:-1] = cut
    alone = edges[:, :-1] & edges[:, 1:]
    for row in np.flatnonzero(~alone.all(axis=1)):
        pos = np.flatnonzero(~alone[row])
        idx = order[row, pos]
        exact = distance_matrix(queries[row:row + 1], gallery[idx], metric)[0]
        runs = np.cumsum(edges[row, :-1])[pos]
        order[row, pos] = idx[np.lexsort((idx, exact, runs))]


def rank_gallery(run: RetrievalRun) -> tuple[np.ndarray, np.ndarray]:
    """Ranked gallery indices per query, plus the relevance of each position.

    Returns ``(ranked, relevant)``: ranked is (queries, list length) int64,
    nearest first, with equal exact distances in ascending gallery index;
    relevant is the matching bool array. List length is the gallery size,
    minus one under ``exclude_self``. Metrics read its hit depths through
    ``run.hits``, which ranks once per run.

    The order is the one ``distance_matrix`` gives, computed from one GEMM
    per block of queries and repaired exactly where rounding could swap two
    entries (``_repair``).
    """
    gallery = run.gallery_features
    width = gallery.shape[0] - run.exclude_self
    ranked = np.empty((run.num_queries, width), dtype=np.int64)
    relevant = np.empty((run.num_queries, width), dtype=bool)
    # Non-finite features are ranked by the exact path; their warnings are noise.
    with np.errstate(invalid="ignore", over="ignore"):
        gallery_sq = np.einsum("ij,ij->i", gallery, gallery)
        # Blocks of queries: only one block's score rows exist at a time.
        for lo in range(0, run.num_queries, RANK_BLOCK):
            block = slice(lo, lo + RANK_BLOCK)
            queries = run.query_features[block]
            scores, bound = _approximate(queries, gallery, gallery_sq, run.distance)
            order = np.argsort(scores, axis=1)
            _repair(order, scores, bound, queries, gallery, run.distance)
            if run.exclude_self:
                # An exact order of the other items does not depend on the one removed.
                order = order[order != np.arange(lo, lo + len(order))[:, None]].reshape(
                    len(order), -1)
            ranked[block] = order
            relevant[block] = run.gallery_labels[order] == run.query_labels[block, None]
    return ranked, relevant


def _average_precisions(hits: Hits) -> list:
    """AP of every row: the mean precision at its hits, 0 for a row without any."""
    bounds = hits.starts.tolist()
    return [math.fsum(hits.precisions[lo:hi].tolist()) / (hi - lo) if hi > lo else 0.0
            for lo, hi in zip(bounds, bounds[1:])]


def _ndcgs(hits: Hits, cutoffs: np.ndarray, length: int) -> tuple[np.ndarray, list]:
    """Each row's number of hits within its first ``cutoff`` items, and its
    binary-gain NDCG over them; every cutoff is at most ``length``."""
    discounts = _discounts(length)
    bounds = hits.starts.tolist()
    within, ndcgs = [], []
    for lo, hi, k in zip(bounds, bounds[1:], cutoffs.tolist()):
        found = hits.depths[lo:hi]
        found = found[:found.searchsorted(k, side="right")]
        within.append(found.size)
        ndcgs.append(math.fsum(discounts[found - 1].tolist()) / _ideal_dcg(min(hi - lo, k))
                     if found.size else 0.0)
    return np.array(within, dtype=np.int64), ndcgs


def average_precision(relevant_row) -> float:
    """AP of one ranked list: mean of precision at each relevant position.

    A list with no relevant items scores 0.
    """
    return _average_precisions(_hit_depths([relevant_row]))[0]


def mean_average_precision(run: RetrievalRun) -> float:
    """Mean AP over all queries; zero-relevant queries count as 0."""
    return math.fsum(_average_precisions(run.hits)) / run.num_queries


@lru_cache(maxsize=None)
def _discounts(length: int) -> np.ndarray:
    """``1/log2(pos + 1)`` for positions 1..length."""
    return np.array([1.0 / math.log2(pos + 1) for pos in range(1, length + 1)])


@lru_cache(maxsize=None)
def _ideal_dcg(depth: int) -> float:
    """DCG of a list whose first ``depth`` items are all relevant."""
    return math.fsum(_discounts(depth))


@dataclass
class QueryMetrics:
    """One query's scores at its cutoff (AP always uses the full list)."""

    query: int
    label: int
    cutoff: int
    precision: float
    recall: float
    f1: float
    ap: float
    ndcg: float


@dataclass
class MetricSummary:
    precision: float
    recall: float
    f1: float
    map: float
    ndcg: float


@dataclass
class RetrievalReport:
    """Per-query scores plus query-averaged (micro) and class-averaged
    (macro) summaries."""

    per_query: list
    micro: MetricSummary
    macro: MetricSummary


def _mean_summary(rows: list) -> MetricSummary:
    """Field-wise mean of (precision, recall, F1, AP, NDCG) tuples."""
    return MetricSummary(*(math.fsum(col) / len(rows) for col in zip(*rows)))


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` elementwise, 0 where ``den`` is 0."""
    return np.divide(num, den, out=np.zeros(len(num)), where=den > 0)


def shrec_metrics(run: RetrievalRun, cutoff: Optional[int] = None) -> RetrievalReport:
    """Precision/recall/F1/NDCG at a cutoff plus AP, per query and averaged.

    The default cutoff for a query is the gallery population of its class,
    counted before any self-exclusion, clamped to the ranked-list length; an
    explicit ``cutoff`` applies to every query (same clamp). Queries with no
    relevant gallery items score 0 everywhere and still count in averages.
    The macro summary averages per-class means over the classes present
    among the queries, each class weighted equally.
    """
    if cutoff is not None and cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    hits = run.hits
    length = run.gallery_features.shape[0] - run.exclude_self
    if cutoff is None:
        classes, counts = np.unique(run.gallery_labels, return_counts=True)
        population = dict(zip(classes.tolist(), counts.tolist()))
        cutoffs = np.array([min(population.get(label, 0), length)
                            for label in run.query_labels.tolist()], dtype=np.int64)
    else:
        cutoffs = np.full(run.num_queries, min(cutoff, length), dtype=np.int64)
    within, ndcgs = _ndcgs(hits, cutoffs, length)
    precision = _ratio(within, cutoffs)
    recall = _ratio(within, np.diff(hits.starts))
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    columns = (run.query_labels.tolist(), cutoffs.tolist(), precision.tolist(),
               recall.tolist(), f1.tolist(), _average_precisions(hits), ndcgs)
    per_query = [QueryMetrics(qi, *row) for qi, row in enumerate(zip(*columns))]
    scores = [(r.precision, r.recall, r.f1, r.ap, r.ndcg) for r in per_query]
    class_means = [
        astuple(_mean_summary([s for s, r in zip(scores, per_query) if r.label == label]))
        for label in sorted({r.label for r in per_query})
    ]
    micro, macro = _mean_summary(scores), _mean_summary(class_means)
    return RetrievalReport(per_query=per_query, micro=micro, macro=macro)


def pr_curve(run: RetrievalRun, points: int = 21) -> tuple[np.ndarray, np.ndarray]:
    """Interpolated precision at a uniform recall grid, averaged over queries.

    At each grid recall r, a query contributes the maximum precision over
    all list depths whose recall reaches r (the standard interpolation), or
    0 if none does. Returns ``(recalls, precisions)``, both (points,).
    """
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    hits = run.hits
    # Grid point t is exactly t/(points-1), correctly rounded, as is every
    # hit recall k/n, so the threshold comparisons are reproducible.
    grid = np.arange(points) / (points - 1)
    table = np.zeros((run.num_queries, points))
    bounds = hits.starts.tolist()
    for qi, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        n = hi - lo
        if n == 0:
            continue
        # Recall rises only at hits, and precision falls between them, so
        # the best precision at recall >= r is the best over the hits from
        # the first one reaching r on. The last hit has recall exactly 1.
        best = np.maximum.accumulate(hits.precisions[lo:hi][::-1])[::-1]
        table[qi] = best[np.searchsorted(np.arange(1, n + 1) / n, grid)]
    precisions = np.array([math.fsum(col) / run.num_queries for col in table.T.tolist()])
    return grid, precisions


def _digits(*values) -> list:
    """Each float with 17 significant digits, enough to read it back exactly."""
    return [f"{v:.17g}" for v in values]


def write_metrics_csv(path, report: RetrievalReport) -> None:
    """Two-row summary table: micro and macro averages."""
    rows = [["scope", "precision", "recall", "f1", "map", "ndcg"]]
    for scope, s in (("micro", report.micro), ("macro", report.macro)):
        rows.append([scope] + _digits(s.precision, s.recall, s.f1, s.map, s.ndcg))
    write_csv(path, rows, "metrics CSV")


def write_per_query_csv(path, report: RetrievalReport) -> None:
    rows = [["query", "label", "cutoff", "precision", "recall", "f1", "ap", "ndcg"]]
    for r in report.per_query:
        rows.append(
            [r.query, r.label, r.cutoff]
            + _digits(r.precision, r.recall, r.f1, r.ap, r.ndcg)
        )
    write_csv(path, rows, "per-query CSV")


def write_pr_csv(path, recalls: np.ndarray, precisions: np.ndarray) -> None:
    rows = [["recall", "precision"]]
    rows += [_digits(r, p) for r, p in zip(recalls, precisions)]
    write_csv(path, rows, "PR-curve CSV")
