import csv
import math

import numpy as np
import pytest

import viewgraph.evalmetrics as vge
from oracles import (
    naive_average_precision,
    naive_hits,
    naive_ndcg,
    naive_pr_curve,
    naive_precision_recall_f1,
    naive_ranked_lists,
    naive_shrec,
)
from viewgraph.dataio import generate_synthetic
from viewgraph.evalmetrics import (
    DISTANCES,
    RetrievalRun,
    _hit_depths,
    _ndcgs,
    accuracy,
    average_precision,
    distance_matrix,
    mean_average_precision,
    pr_curve,
    rank_gallery,
    shrec_metrics,
    write_metrics_csv,
    write_per_query_csv,
    write_pr_csv,
)
from viewgraph.model import TrainConfig, infer, init_model


def random_run(rng, force_self=None, metric="euclidean", max_items=25):
    """Random retrieval instance; occasionally injects duplicate rows so the
    tie-break path gets exercised."""
    if force_self is None:
        self_mode = bool(rng.integers(2))
    else:
        self_mode = force_self
    dim = int(rng.integers(1, 7))
    num_labels = int(rng.integers(2, 5))
    if self_mode:
        n = int(rng.integers(2, max_items + 1))
        feats = rng.standard_normal((n, dim))
        labels = rng.integers(num_labels, size=n)
        if n >= 4 and rng.random() < 0.5:
            feats[1] = feats[0]  # exact duplicate forces a distance tie
        run = RetrievalRun.self_retrieval(feats, labels, distance=metric)
    else:
        nq = int(rng.integers(1, 16))
        ng = int(rng.integers(1, max_items + 1))
        qf = rng.standard_normal((nq, dim))
        gf = rng.standard_normal((ng, dim))
        ql = rng.integers(num_labels, size=nq)
        gl = rng.integers(num_labels, size=ng)
        if ng >= 3 and rng.random() < 0.5:
            gf[2] = gf[0]
        if ng >= 1 and rng.random() < 0.3:
            gf[0] = qf[0]  # gallery entry at distance zero from a query
        run = RetrievalRun(qf, ql, gf, gl, distance=metric)
    return run


def summary_values(summary):
    return (summary.precision, summary.recall, summary.f1, summary.map, summary.ndcg)


def oracle_values(mean_dict):
    return (
        mean_dict["precision"],
        mean_dict["recall"],
        mean_dict["f1"],
        mean_dict["ap"],
        mean_dict["ndcg"],
    )


def assert_report_equals_oracle(run, cutoff=None):
    report = shrec_metrics(run, cutoff=cutoff)
    rows, micro, macro = naive_shrec(
        run.query_features,
        run.query_labels,
        run.gallery_features,
        run.gallery_labels,
        exclude_self=run.exclude_self,
        cutoff=cutoff,
        metric=run.distance,
    )
    assert len(report.per_query) == len(rows)
    for got, want in zip(report.per_query, rows):
        assert got.query == want["query"]
        assert got.label == want["label"]
        assert got.cutoff == want["cutoff"]
        assert got.precision == want["precision"]
        assert got.recall == want["recall"]
        assert got.f1 == want["f1"]
        assert got.ap == want["ap"]
        assert got.ndcg == want["ndcg"]
    assert summary_values(report.micro) == oracle_values(micro)
    assert summary_values(report.macro) == oracle_values(macro)
    return report


class TestDistanceMatrix:
    def test_euclidean_matches_pairwise_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.standard_normal((int(rng.integers(1, 6)), 4))
            g = rng.standard_normal((int(rng.integers(1, 8)), 4))
            dists = distance_matrix(q, g)
            assert dists.shape == (q.shape[0], g.shape[0])
            for i in range(q.shape[0]):
                for j in range(g.shape[0]):
                    diff = g[j] - q[i]
                    assert dists[i, j] == math.sqrt(float(np.sum(diff * diff)))

    def test_self_distance_zero_and_symmetric(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((7, 3))
        dists = distance_matrix(x, x)
        assert np.array_equal(np.diag(dists), np.zeros(7))
        assert np.array_equal(dists, dists.T)

    def test_cosine_reference_directions(self):
        q = np.array([[1.0, 0.0]])
        gallery = np.array([[2.0, 0.0], [0.0, 5.0], [-3.0, 0.0]])
        dists = distance_matrix(q, gallery, metric="cosine")
        assert abs(dists[0, 0]) < 1e-15  # parallel
        assert dists[0, 1] == 1.0  # orthogonal
        assert abs(dists[0, 2] - 2.0) < 1e-15  # antiparallel

    def test_cosine_zero_vector_maximally_distant(self):
        q = np.zeros((1, 3))
        gallery = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        dists = distance_matrix(q, gallery, metric="cosine")
        assert np.array_equal(dists, np.ones((1, 2)))

    def test_cosine_range(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((5, 4))
        g = rng.standard_normal((9, 4))
        dists = distance_matrix(q, g, metric="cosine")
        assert np.all(dists >= -1e-12)
        assert np.all(dists <= 2.0 + 1e-12)

    def test_unknown_metric_rejected(self):
        x = np.ones((2, 2))
        with pytest.raises(ValueError, match="metric"):
            distance_matrix(x, x, metric="manhattan")


ADVERSARIAL = ("duplicates", "near_ties", "scale_1e-8", "scale_1", "scale_1e8",
               "non_finite", "zero_vectors", "overflow")


class TestRankGallery:
    def test_orders_nearest_first(self):
        run = RetrievalRun(
            np.array([[0.0]]),
            np.array([0]),
            np.array([[3.0], [0.5], [2.0]]),
            np.array([1, 0, 0]),
        )
        ranked, relevant = rank_gallery(run)
        assert ranked.tolist() == [[1, 2, 0]]
        assert relevant.tolist() == [[True, True, False]]

    def test_ties_break_to_lower_gallery_index(self):
        run = RetrievalRun(
            np.array([[0.0]]),
            np.array([0]),
            np.array([[1.0], [-1.0], [1.0]]),
            np.array([0, 1, 2]),
        )
        ranked, _ = rank_gallery(run)
        assert ranked.tolist() == [[0, 1, 2]]

    def test_exclude_self_drops_own_entry(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((6, 2))
        run = RetrievalRun.self_retrieval(feats, np.zeros(6, dtype=int))
        ranked, _ = rank_gallery(run)
        assert ranked.shape == (6, 5)
        for qi in range(6):
            assert qi not in ranked[qi]

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(4)
        for case in range(30):
            metric = "cosine" if case % 3 == 0 else "euclidean"
            run = random_run(rng, metric=metric)
            ranked, relevant = rank_gallery(run)
            want_ranked, want_rel = naive_ranked_lists(
                run.query_features,
                run.query_labels,
                run.gallery_features,
                run.gallery_labels,
                exclude_self=run.exclude_self,
                metric=run.distance,
            )
            assert ranked.tolist() == want_ranked
            assert relevant.tolist() == want_rel

    @staticmethod
    def adversarial_features(case):
        """Items that tie or nearly tie in distance, so that the ranking's
        approximate scores cannot order them and the exact repair must."""
        rng = np.random.default_rng(ADVERSARIAL.index(case))
        feats = rng.standard_normal((6, 8))[rng.integers(6, size=40)]  # duplicates
        if case == "near_ties" or case.startswith("scale_"):
            feats += rng.integers(-1, 2, size=feats.shape) * np.spacing(feats)
        if case.startswith("scale_"):
            feats *= float(case[len("scale_"):])
        if case == "non_finite":
            feats[3, 1] = np.nan
            feats[17, 0] = np.inf
            feats[29, 5] = -np.inf
        if case == "zero_vectors":
            feats[[2, 9, 30]] = 0.0
        if case == "overflow":
            # |g|^2 overflows for 1.35e154, its distance to 0.3e154 does not,
            # and is below that of -0.8e154, whose score stays finite.
            feats = np.array([0.3, 1.35, -0.8, 0.5, 1.35, 0.3] * 3)[:, None] * 1e154
        return feats

    @pytest.mark.parametrize("metric", DISTANCES)
    @pytest.mark.parametrize("case", ADVERSARIAL)
    def test_adversarial_matches_pairwise_oracle(self, case, metric):
        feats = self.adversarial_features(case)
        labels = np.arange(len(feats)) % 3

        def check(queries, exclude_self):
            run = RetrievalRun(feats[queries], labels[queries], feats, labels,
                               exclude_self=exclude_self, distance=metric)
            ranked, relevant = rank_gallery(run)
            want_ranked, want_rel = naive_ranked_lists(
                feats[queries], labels[queries], feats, labels,
                exclude_self=exclude_self, metric=metric)
            assert ranked.tolist() == want_ranked
            assert relevant.tolist() == want_rel
            assert [a.tolist() for a in run.hits] == list(naive_hits(want_rel))

        every = np.arange(len(feats))
        check(every, False)
        check(every, True)
        for qi in (0, 3, 17):
            check(np.array([qi]), False)

    @pytest.mark.parametrize("metric", DISTANCES)
    @pytest.mark.parametrize("exclude_self", (True, False))
    def test_block_size_does_not_change_the_ranking(self, monkeypatch, exclude_self, metric):
        # 70 items drawn from 9 rows: exact duplicates tie, and rows moved by
        # one ulp (about 1e-16) nearly tie
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((9, 5))[rng.integers(9, size=70)]
        feats[::3] += np.spacing(feats[::3])
        labels = np.arange(len(feats)) % 4
        queries = slice(None) if exclude_self else slice(0, 50)
        run = RetrievalRun(feats[queries], labels[queries], feats, labels,
                           exclude_self=exclude_self, distance=metric)
        results = []
        for size in (1, 2, 5, 33, run.num_queries, 200):
            monkeypatch.setattr(vge, "RANK_BLOCK", size)
            results.append([a.tolist() for a in rank_gallery(run)])
        assert all(r == results[0] for r in results)


class TestAveragePrecision:
    def test_alternating_example(self):
        got = average_precision([True, False, True])
        assert got == (1.0 + 2.0 / 3.0) / 2.0
        assert got == 0.8333333333333333
        assert got == naive_average_precision([True, False, True])

    def test_no_relevant_scores_zero(self):
        assert average_precision([False, False, False]) == 0.0
        assert average_precision([]) == 0.0

    def test_all_relevant_scores_one(self):
        assert average_precision([True] * 7) == 1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            row = (rng.random(int(rng.integers(1, 30))) < 0.4).tolist()
            assert average_precision(row) == naive_average_precision(row)


def ndcg_at(row, k):
    """One ranked list's NDCG over its first k, through the report path."""
    _, [ndcg] = _ndcgs(_hit_depths([row]), np.array([min(k, len(row))]), len(row))
    return ndcg


class TestNdcg:
    def test_skip_one_example(self):
        assert ndcg_at([True, False, True], 3) == 0.9197207891481876
        assert ndcg_at([True, False, True], 3) == naive_ndcg([True, False, True], 3)

    def test_perfect_prefix_is_one(self):
        assert ndcg_at([True, True, False], 3) == 1.0
        assert ndcg_at([True, True, True], 2) == 1.0

    def test_degenerate_cases(self):
        assert ndcg_at([True, True], 0) == 0.0
        assert ndcg_at([False, False], 5) == 0.0

    def test_bounded_and_matches_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            row = (rng.random(int(rng.integers(1, 25))) < 0.5).tolist()
            k = int(rng.integers(1, len(row) + 3))
            got = ndcg_at(row, k)
            assert got == naive_ndcg(row, k)
            assert 0.0 <= got <= 1.0


class TestSixItemHandExample:
    """Two balanced classes laid out on a line so the ranked lists are known
    by inspection; every number below was frozen from the pairwise oracle."""

    FEATURES = np.array([[0.0], [1.0], [4.0], [2.0], [3.0], [5.0]])
    LABELS = np.array([0, 0, 0, 1, 1, 1])

    def run(self):
        return RetrievalRun.self_retrieval(self.FEATURES, self.LABELS)

    def test_ranked_lists(self):
        ranked, _ = rank_gallery(self.run())
        assert ranked.tolist() == [
            [1, 3, 4, 2, 5],
            [0, 3, 4, 2, 5],
            [4, 5, 3, 1, 0],
            [1, 4, 0, 2, 5],
            [2, 3, 1, 5, 0],
            [2, 4, 3, 1, 0],
        ]

    def test_per_query_values(self):
        report = shrec_metrics(self.run())
        frozen = [
            # (cutoff, precision, recall, f1, ap, ndcg)
            (3, 0.3333333333333333, 0.5, 0.4, 0.75, 0.6131471927654584),
            (3, 0.3333333333333333, 0.5, 0.4, 0.75, 0.6131471927654584),
            (3, 0.0, 0.0, 0.0, 0.325, 0.0),
            (3, 0.3333333333333333, 0.5, 0.4, 0.45, 0.38685280723454163),
            (3, 0.3333333333333333, 0.5, 0.4, 0.5, 0.38685280723454163),
            (3, 0.6666666666666666, 1.0, 0.8, 0.5833333333333333, 0.6934264036172708),
        ]
        for qi, (row, want) in enumerate(zip(report.per_query, frozen)):
            assert row.query == qi
            assert row.label == int(self.LABELS[qi])
            assert (row.cutoff, row.precision, row.recall, row.f1, row.ap, row.ndcg) == want

    def test_summaries(self):
        report = shrec_metrics(self.run())
        assert summary_values(report.micro) == (
            0.3333333333333333,
            0.5,
            0.4000000000000001,
            0.5597222222222222,
            0.44890440060287845,
        )
        assert summary_values(report.macro) == (
            0.3333333333333333,
            0.5,
            0.4,
            0.5597222222222222,
            0.44890440060287845,
        )

    def test_equals_oracle(self):
        assert_report_equals_oracle(self.run())

    def test_csv_text_is_pinned(self, tmp_path):
        # the three report CSVs byte for byte: headers, row order, 17
        # significant digits, "0" and "1" for whole floats, CRLF line ends
        run = self.run()
        report = shrec_metrics(run)
        write_metrics_csv(tmp_path / "metrics.csv", report)
        write_per_query_csv(tmp_path / "per-query.csv", report)
        write_pr_csv(tmp_path / "pr.csv", *pr_curve(run))
        third, half, fifth = "0.33333333333333331", "0.5", "0.40000000000000002"
        assert (tmp_path / "metrics.csv").read_bytes().decode().split("\r\n") == [
            "scope,precision,recall,f1,map,ndcg",
            f"micro,{third},{half},0.40000000000000008,0.55972222222222223,0.44890440060287845",
            f"macro,{third},{half},{fifth},0.55972222222222223,0.44890440060287845",
            "",
        ]
        assert (tmp_path / "per-query.csv").read_bytes().decode().split("\r\n") == [
            "query,label,cutoff,precision,recall,f1,ap,ndcg",
            f"0,0,3,{third},{half},{fifth},0.75,0.61314719276545837",
            f"1,0,3,{third},{half},{fifth},0.75,0.61314719276545837",
            "2,0,3,0,0,0,0.32500000000000001,0",
            f"3,1,3,{third},{half},{fifth},0.45000000000000001,0.38685280723454163",
            f"4,1,3,{third},{half},{fifth},0.5,0.38685280723454163",
            "5,1,3,0.66666666666666663,1,0.80000000000000004,0.58333333333333326,"
            "0.69342640361727081",
            "",
        ]
        recalls = ["0", "0.050000000000000003", "0.10000000000000001", "0.14999999999999999",
                   "0.20000000000000001", "0.25", "0.29999999999999999", "0.34999999999999998",
                   "0.40000000000000002", "0.45000000000000001", "0.5", "0.55000000000000004",
                   "0.59999999999999998", "0.65000000000000002", "0.69999999999999996", "0.75",
                   "0.80000000000000004", "0.84999999999999998", "0.90000000000000002",
                   "0.94999999999999996", "1"]
        precisions = ["0.6777777777777777"] * 11 + ["0.49444444444444446"] * 10
        assert (tmp_path / "pr.csv").read_bytes().decode().split("\r\n") == [
            "recall,precision", *map(",".join, zip(recalls, precisions)), ""]


class TestShrecMetrics:
    def test_single_class_gallery_scores_one_everywhere(self):
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((5, 3))
        run = RetrievalRun.self_retrieval(feats, np.zeros(5, dtype=int))
        report = shrec_metrics(run)
        for row in report.per_query:
            assert (row.precision, row.recall, row.f1, row.ap, row.ndcg) == (
                1.0,
                1.0,
                1.0,
                1.0,
                1.0,
            )
            assert row.cutoff == 4  # class population clamped to list length
        assert summary_values(report.micro) == (1.0, 1.0, 1.0, 1.0, 1.0)
        assert summary_values(report.macro) == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_default_cutoff_is_class_population(self):
        gallery = np.array([[0.0], [1.0], [2.0], [10.0], [11.0]])
        gl = np.array([0, 0, 0, 1, 1])
        run = RetrievalRun(np.array([[0.5], [10.5]]), np.array([0, 1]), gallery, gl)
        report = shrec_metrics(run)
        assert report.per_query[0].cutoff == 3
        assert report.per_query[1].cutoff == 2

    def test_explicit_cutoff_clamps_to_list_length(self):
        gallery = np.array([[0.0], [1.0]])
        run = RetrievalRun(np.array([[0.0]]), np.array([0]), gallery, np.array([0, 0]))
        report = shrec_metrics(run, cutoff=50)
        assert report.per_query[0].cutoff == 2
        assert report.per_query[0].precision == 1.0

    def test_cutoff_below_one_rejected(self):
        run = RetrievalRun(
            np.ones((1, 2)), np.array([0]), np.ones((2, 2)), np.array([0, 0])
        )
        with pytest.raises(ValueError, match="cutoff"):
            shrec_metrics(run, cutoff=0)

    def test_query_class_absent_from_gallery_scores_zero(self):
        gallery = np.array([[0.0], [1.0]])
        run = RetrievalRun(
            np.array([[0.0], [0.2]]),
            np.array([5, 0]),
            gallery,
            np.array([0, 0]),
        )
        report = shrec_metrics(run)
        missing = report.per_query[0]
        assert (missing.precision, missing.recall, missing.f1, missing.ap, missing.ndcg) == (
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
        )
        assert missing.cutoff == 0
        # the zero-scoring query still counts in the micro average
        assert report.micro.map == (0.0 + 1.0) / 2.0

    def test_macro_equals_micro_on_symmetric_instance(self):
        # equal class sizes and identical per-class scores: the class means
        # coincide with the plain query mean, so both summaries agree
        gallery = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])
        gl = np.array([0, 0, 0, 1, 1, 1])
        queries = np.array([[0.05], [0.15], [10.05], [10.15]])
        ql = np.array([0, 0, 1, 1])
        report = shrec_metrics(RetrievalRun(queries, ql, gallery, gl))
        assert summary_values(report.micro) == (1.0, 1.0, 1.0, 1.0, 1.0)
        assert summary_values(report.macro) == summary_values(report.micro)

    def test_self_retrieval_precision_capped_by_exclusion(self):
        # the default cutoff counts the class population before the query
        # itself is dropped, so a perfectly separated self-retrieval tops out
        # at (n-1)/n precision while recall still reaches 1
        feats = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        report = shrec_metrics(RetrievalRun.self_retrieval(feats, labels))
        for row in report.per_query:
            assert row.cutoff == 3
            assert row.precision == 2 / 3
            assert row.recall == 1.0
            assert row.ap == 1.0

    def test_macro_weighs_unbalanced_classes_equally(self):
        # class 0: four clean items, class 1: two items mixed into class 0
        feats = np.array([[0.0], [0.1], [0.2], [0.3], [0.15], [9.0]])
        labels = np.array([0, 0, 0, 0, 1, 1])
        report = shrec_metrics(RetrievalRun.self_retrieval(feats, labels))
        assert report.micro.map != report.macro.map

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(8)
        for case in range(40):
            metric = "cosine" if case % 4 == 0 else "euclidean"
            run = random_run(rng, metric=metric)
            cutoff = None if rng.random() < 0.7 else int(rng.integers(1, 12))
            assert_report_equals_oracle(run, cutoff=cutoff)


class TestPrCurve:
    def test_grid_is_uniform(self):
        feats = np.array([[0.0], [1.0], [2.0]])
        run = RetrievalRun.self_retrieval(feats, np.array([0, 0, 1]))
        recalls, precisions = pr_curve(run, points=11)
        assert recalls.tolist() == [t / 10 for t in range(11)]
        assert precisions.shape == (11,)

    def test_perfect_ranking_is_flat_one(self):
        feats = np.array([[0.0], [0.1], [0.2], [9.0], [9.1], [9.2]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        _, precisions = pr_curve(RetrievalRun.self_retrieval(feats, labels))
        assert np.array_equal(precisions, np.ones(21))

    def test_reversed_ranking_single_relevant(self):
        # the one relevant item lands at the last of 5 ranks -> precision 1/5
        # at every recall level after interpolation
        run = RetrievalRun(
            np.array([[0.0]]),
            np.array([1]),
            np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]),
            np.array([0, 0, 0, 0, 1]),
        )
        _, precisions = pr_curve(run, points=6)
        assert np.array_equal(precisions, np.full(6, 0.2))

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            run = random_run(rng)
            _, precisions = pr_curve(run, points=int(rng.integers(2, 40)))
            assert np.all(np.diff(precisions) <= 0.0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            run = random_run(rng)
            points = int(rng.integers(2, 40))
            recalls, precisions = pr_curve(run, points=points)
            _, want_rel = naive_ranked_lists(
                run.query_features,
                run.query_labels,
                run.gallery_features,
                run.gallery_labels,
                exclude_self=run.exclude_self,
                metric=run.distance,
            )
            want_recalls, want_precisions = naive_pr_curve(want_rel, points)
            assert np.array_equal(recalls, want_recalls)
            assert np.array_equal(precisions, want_precisions)

    def test_too_few_points_rejected(self):
        run = RetrievalRun(
            np.ones((1, 1)), np.array([0]), np.ones((2, 1)), np.array([0, 0])
        )
        with pytest.raises(ValueError, match="grid"):
            pr_curve(run, points=1)


class TestMeanAveragePrecision:
    def test_equals_micro_map(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            run = random_run(rng)
            assert mean_average_precision(run) == shrec_metrics(run).micro.map

    def test_random_ranking_beats_relevant_fraction(self):
        # features carry no label signal, so each ranking is effectively a
        # random permutation; expected AP then sits at or above the relevant
        # fraction
        rng = np.random.default_rng(12)
        labels = np.array([0] * 10 + [1] * 10)
        values = []
        for _ in range(100):
            run = RetrievalRun.self_retrieval(rng.standard_normal((20, 3)), labels)
            values.append(mean_average_precision(run))
        fraction = 9 / 19
        mean_map = float(np.mean(values))
        assert fraction <= mean_map <= fraction + 0.15


class TestAccuracy:
    CONFIG = TrainConfig(
        num_classes=4, input_dim=8, views=6, n_patterns=8, feature_dim=16
    )

    def noise_dataset(self):
        # noise dominates the class signal, so an untrained model's
        # predictions are label-independent and accuracy sits at chance
        return generate_synthetic(4, 100, 6, 8, noise=30.0, seed=21)

    def test_untrained_model_scores_near_chance(self):
        ds = self.noise_dataset()
        for seed in range(3):
            params = init_model(self.CONFIG, np.random.default_rng(seed))
            acc = accuracy(params, self.CONFIG, ds)
            assert 0.25 - 0.07 <= acc <= 0.25 + 0.07

    def test_argmax_ties_resolve_to_lowest_class(self):
        ds = self.noise_dataset()
        params = init_model(self.CONFIG, np.random.default_rng(0))
        params.cls.cls_weights[:] = 0.0
        params.cls.cls_bias[:] = 0.0
        # uniform probabilities everywhere -> always predict class 0
        assert accuracy(params, self.CONFIG, ds) == float(np.mean(ds.labels == 0))

    def test_empty_dataset_rejected(self):
        params = init_model(self.CONFIG, np.random.default_rng(0))
        with pytest.raises(ValueError, match="cannot run inference on an empty dataset"):
            infer([], params, self.CONFIG, "probs")


class TestRetrievalRunValidation:
    def test_distance_choices_frozen(self):
        assert DISTANCES == ("euclidean", "cosine")

    def test_accepts_both_distances(self):
        feats = np.ones((2, 2))
        labels = np.array([0, 1])
        for metric in DISTANCES:
            run = RetrievalRun(feats, labels, feats, labels, distance=metric)
            assert run.distance == metric

    def test_unknown_distance_rejected(self):
        feats = np.ones((2, 2))
        labels = np.array([0, 1])
        with pytest.raises(ValueError, match="distance"):
            RetrievalRun(feats, labels, feats, labels, distance="hamming")

    def test_features_coerced_to_float64(self):
        run = RetrievalRun(
            np.ones((1, 2), dtype=np.float32),
            [0],
            np.ones((3, 2), dtype=int),
            [0, 1, 0],
        )
        assert run.query_features.dtype == np.float64
        assert run.gallery_features.dtype == np.float64
        assert run.gallery_labels.dtype == np.int64

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(qf=np.ones(3), ql=[0], gf=np.ones((2, 3)), gl=[0, 1]),
            dict(qf=np.ones((1, 3)), ql=[0], gf=np.ones((2, 4)), gl=[0, 1]),
            dict(qf=np.ones((1, 3)), ql=[0, 1], gf=np.ones((2, 3)), gl=[0, 1]),
            dict(qf=np.ones((1, 3)), ql=[0], gf=np.ones((2, 3)), gl=[0]),
            dict(qf=np.ones((0, 3)), ql=[], gf=np.ones((2, 3)), gl=[0, 1]),
            dict(qf=np.ones((1, 3)), ql=[0], gf=np.ones((0, 3)), gl=[]),
        ],
    )
    def test_bad_shapes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetrievalRun(kwargs["qf"], kwargs["ql"], kwargs["gf"], kwargs["gl"])

    def test_exclude_self_requires_matching_sets(self):
        with pytest.raises(ValueError, match="exclude_self"):
            RetrievalRun(
                np.ones((1, 2)),
                [0],
                np.ones((2, 2)),
                [0, 1],
                exclude_self=True,
            )

    def test_exclude_self_needs_two_items(self):
        with pytest.raises(ValueError, match="empty"):
            RetrievalRun.self_retrieval(np.ones((1, 2)), [0])


class TestDistanceMonotoneInvariance:
    """Strictly increasing transforms of the distances cannot change any
    ranking metric. Power-of-two feature scaling multiplies every Euclidean
    distance exactly, so the invariance holds bit for bit."""

    def scaled(self, run, factor):
        return RetrievalRun(
            run.query_features * factor,
            run.query_labels,
            run.gallery_features * factor,
            run.gallery_labels,
            exclude_self=run.exclude_self,
            distance=run.distance,
        )

    @pytest.mark.parametrize("factor", [0.25, 4.0, 3.7])
    def test_euclidean_metrics_unchanged_by_scaling(self, factor):
        rng = np.random.default_rng(13)
        for _ in range(10):
            run = random_run(rng)
            other = self.scaled(run, factor)
            base = shrec_metrics(run)
            moved = shrec_metrics(other)
            assert summary_values(base.micro) == summary_values(moved.micro)
            assert summary_values(base.macro) == summary_values(moved.macro)
            assert mean_average_precision(run) == mean_average_precision(other)
            _, p0 = pr_curve(run)
            _, p1 = pr_curve(other)
            assert np.array_equal(p0, p1)

    def test_cosine_metrics_unchanged_by_scaling(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            run = random_run(rng, metric="cosine")
            other = self.scaled(run, 4.0)
            assert summary_values(shrec_metrics(run).micro) == summary_values(
                shrec_metrics(other).micro
            )

    def test_ranking_identical_under_scaling(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            run = random_run(rng)
            ranked, _ = rank_gallery(run)
            scaled_ranked, _ = rank_gallery(self.scaled(run, 0.25))
            assert np.array_equal(ranked, scaled_ranked)


class TestCsvOutputs:
    def report_and_run(self):
        rng = np.random.default_rng(16)
        run = random_run(rng, force_self=True)
        return shrec_metrics(run), run

    def test_metrics_csv_round_trip(self, tmp_path):
        report, _ = self.report_and_run()
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, report)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["scope", "precision", "recall", "f1", "map", "ndcg"]
        assert [r[0] for r in rows[1:]] == ["micro", "macro"]
        for row, summary in zip(rows[1:], (report.micro, report.macro)):
            assert tuple(float(v) for v in row[1:]) == summary_values(summary)

    def test_per_query_csv_round_trip(self, tmp_path):
        report, _ = self.report_and_run()
        path = tmp_path / "per_query.csv"
        write_per_query_csv(path, report)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "query",
            "label",
            "cutoff",
            "precision",
            "recall",
            "f1",
            "ap",
            "ndcg",
        ]
        assert len(rows) == 1 + len(report.per_query)
        for row, want in zip(rows[1:], report.per_query):
            assert int(row[0]) == want.query
            assert int(row[1]) == want.label
            assert int(row[2]) == want.cutoff
            assert tuple(float(v) for v in row[3:]) == (
                want.precision,
                want.recall,
                want.f1,
                want.ap,
                want.ndcg,
            )

    def test_pr_csv_round_trip(self, tmp_path):
        _, run = self.report_and_run()
        recalls, precisions = pr_curve(run, points=9)
        path = tmp_path / "pr.csv"
        write_pr_csv(path, recalls, precisions)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["recall", "precision"]
        got_r = np.array([float(r[0]) for r in rows[1:]])
        got_p = np.array([float(r[1]) for r in rows[1:]])
        assert np.array_equal(got_r, recalls)
        assert np.array_equal(got_p, precisions)
