"""One workload unit and the checks on its outputs.

Every workload runs the same closed loop with one client, sized by its
``Spec``: ``viewgraph train`` on the train split, ``viewgraph eval`` and
``viewgraph retrieve`` (all three CSV reports) on the gallery split, then
each query-split shape sent alone through ``forward`` and ranked against the
gallery features. A unit is a fixed amount of work: the epoch count is fixed
and plateau stopping is off, so a change in the last bits of the numerics
cannot change how much work a unit does.

An operation is one training batch, one evaluated shape, one retrieval
query of ``viewgraph retrieve`` or one single-shape query. It fails if its
call raised, gave a non-finite result or failed its check.
"""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import EVAL_CHECK_SHAPES, Spec, sha256
from viewgraph import cli, dataio, evalmetrics, geometry, model

ROOT = Path(__file__).resolve().parents[1]

# Queries whose per-query retrieval rows are compared with the naive oracle.
ORACLE_QUERIES = 16
TOLERANCE = 1e-12


@dataclass
class Unit:
    """Timings and outputs of one unit; eval and retrieve run ``gallery_repeats`` times."""

    train_s: float = math.nan
    eval_s: list = field(default_factory=list)
    retrieve_s: list = field(default_factory=list)
    query_ms: list = field(default_factory=list)
    checkpoint_sha256: str = ""
    losses: list = field(default_factory=list)
    eval_summaries: list = field(default_factory=list)
    retrieve_summaries: list = field(default_factory=list)
    report_sha256: list = field(default_factory=list)
    # Every query's feature and ranked list; later units keep only a digest,
    # so the outputs held do not grow with the number of units.
    query_count: int = 0
    query_digest: str = ""
    query_features: list = field(default_factory=list)
    query_ranked: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.train_s + sum(self.eval_s) + sum(self.retrieve_s) + sum(self.query_ms) / 1e3


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _json(text: str) -> dict:
    return json.loads(text) if text.strip() else {}


class Workload:
    def __init__(self, spec: Spec, seed: int, inputs: Path, work: Path):
        self.spec = spec
        self.seed = seed
        self.inputs = inputs
        self.work = work
        self.work.mkdir(parents=True, exist_ok=True)
        self.index = None  # gallery features, labels, params and config
        queries = dataio.load(inputs / "query.3dvgd", sigma=spec.sigma)
        self.queries = [(s.label, s.features, s.graph.directions) for s in queries.samples]
        self.query_set = queries

    def _data(self, split: str) -> Path:
        return self.inputs / f"{split}.3dvgd"

    def run_unit(self, index: int, tracer=None) -> Unit:
        """Run one unit; errors are recorded per phase, never raised."""
        unit = Unit()
        ckpt = self.work / f"model-{index}.3dvgm"
        log = self.work / f"epochs-{index}.jsonl"
        spec = self.spec
        train = ["train", "--data", self._data("train"), "--out", ckpt, "--log-file", log,
                 "--manifest", self.work / "train.json", "--n-patterns", spec.n_patterns,
                 "--feature-dim", spec.feature_dim, "--sigma", spec.sigma,
                 "--learning-rate", spec.learning_rate, "--epochs", spec.epochs,
                 "--batch-size", spec.batch_size, "--seed", self.seed,
                 "--plateau-patience", 0]
        evaluate = ["eval", "--model", ckpt, "--data", self._data("gallery"),
                    "--manifest", self.work / "eval.json"]
        retrieve = ["retrieve", "--model", ckpt, "--data", self._data("gallery"),
                    "--metrics-csv", self.work / "summary.csv",
                    "--per-query-csv", self.work / "queries.csv",
                    "--pr-csv", self.work / "pr.csv", "--manifest", self.work / "retrieve.json"]
        phases = [("train", train)]
        phases += [("eval", evaluate), ("retrieve", retrieve)] * spec.gallery_repeats
        # Queries run in one chunk after each phase, so that their latencies
        # sample the whole unit, not one stretch of it.
        chunks = np.array_split(np.arange(len(self.queries)), len(phases))
        digest = hashlib.sha256()
        for i, (phase, argv) in enumerate(phases):
            if phase in unit.errors or "train" in unit.errors:
                continue
            try:
                started = time.perf_counter()
                code, out = _cli(argv)
                seconds = time.perf_counter() - started
                if code != 0:
                    raise RuntimeError(f"viewgraph {phase} exited with {code}")
                if phase == "train":
                    unit.train_s = seconds
                    unit.checkpoint_sha256 = sha256(ckpt)
                    unit.losses = [json.loads(line)["loss"] for line in log.open()]
                elif phase == "eval":
                    unit.eval_s.append(seconds)
                    unit.eval_summaries.append(_json(out))
                else:
                    unit.retrieve_s.append(seconds)
                    unit.retrieve_summaries.append(_json(out))
                    unit.report_sha256.append(
                        [sha256(self.work / n) for n in ("summary.csv", "queries.csv", "pr.csv")]
                    )
            except Exception:
                unit.errors[phase] = traceback.format_exc()
                print(unit.errors[phase], file=sys.stderr)
                if phase == "train":
                    unit.errors["query"] = "no checkpoint"
                    continue
            if self.index is None:
                with tracer.paused() if tracer else contextlib.nullcontext():
                    self._build_index(ckpt)
            if "query" not in unit.errors:
                self._run_queries(unit, chunks[i], digest, keep=index == 0)
        unit.query_digest = digest.hexdigest()
        if index > 0:
            ckpt.unlink(missing_ok=True)
        return unit

    def _build_index(self, ckpt: Path) -> None:
        params, config = model.load_checkpoint(ckpt)
        gallery = dataio.load(self._data("gallery"), sigma=config.sigma)
        features = model.predict_features(params, config, gallery)
        self.index = (features, gallery.labels, params, config)

    def _run_queries(self, unit: Unit, chunk, digest, keep: bool) -> None:
        features, labels, params, config = self.index
        for i in chunk:
            label, feats, dirs = self.queries[i]
            try:
                started = time.perf_counter()
                graph = geometry.build_view_graph(dirs, config.sigma)
                sample = dataio.ShapeSample(label=label, features=feats, graph=graph)
                feature = model.forward(sample, params, config).global_feature
                run = evalmetrics.RetrievalRun(feature[None, :], [label], features, labels)
                ranked, _ = evalmetrics.rank_gallery(run)
                unit.query_ms.append((time.perf_counter() - started) * 1e3)
            except Exception:
                unit.errors["query"] = traceback.format_exc()
                print(unit.errors["query"], file=sys.stderr)
                return
            unit.query_count += 1
            digest.update(feature.tobytes())
            digest.update(ranked[0].tobytes())
            if keep:
                unit.query_features.append(feature)
                unit.query_ranked.append(ranked[0])

    # -- checks ---------------------------------------------------------------

    def check(self, units: list) -> tuple[int, int, list]:
        """Check every unit's outputs; returns (attempted, failed, problems)."""
        spec = self.spec
        sizes = {
            "train": spec.train_batches,
            "eval": spec.count("gallery") * spec.gallery_repeats,
            "retrieve": spec.count("gallery") * spec.gallery_repeats,
            "query": spec.count("query"),
        }
        problems = []
        bad = {phase: set() for phase in sizes}
        for i, unit in enumerate(units):
            for phase in unit.errors:
                bad[phase].add(i)
                problems.append(f"unit {i}: {phase} raised")
        first = units[0]
        checks = {
            "train": self._check_train,
            "eval": self._check_eval,
            "retrieve": self._check_retrieve,
            "query": self._check_queries,
        }
        for phase, fn in checks.items():
            for i, unit in enumerate(units):
                if i in bad[phase]:
                    continue
                try:
                    problem = fn(unit, first if first is not unit else None)
                except Exception:
                    problem = traceback.format_exc()
                if problem:
                    bad[phase].add(i)
                    problems.append(f"unit {i}: {phase}: {problem}")
        attempted = len(units) * sum(sizes.values())
        failed = sum(len(bad[phase]) * sizes[phase] for phase in sizes)
        return attempted, failed, problems

    def _check_train(self, unit: Unit, first) -> str:
        if first is not None:
            if unit.checkpoint_sha256 != first.checkpoint_sha256:
                return "checkpoint bytes differ from the first repeat"
            return ""
        if len(unit.losses) != self.spec.epochs or not np.isfinite(unit.losses).all():
            return f"epoch losses {unit.losses}"
        params, _ = model.load_checkpoint(self.work / "model-0.3dvgm")
        for name, arr in params.blocks():
            if not np.isfinite(arr).all():
                return f"checkpoint block {name} is not finite"
        return ""

    def _check_eval(self, unit: Unit, first) -> str:
        reference = (first or unit).eval_summaries[0]
        if len(unit.eval_summaries) != self.spec.gallery_repeats or any(
            summary != reference for summary in unit.eval_summaries
        ):
            return "eval output differs between repeats"
        if first is not None:
            return ""
        summary = reference
        if summary.get("num_samples") != self.spec.count("gallery"):
            return f"eval summary {summary}"
        if not (np.isfinite(summary["mean_loss"]) and 0.0 <= summary["accuracy"] <= 1.0):
            return f"eval summary {summary}"
        if summary["accuracy"] < self.spec.accuracy_floor:
            return f"accuracy {summary['accuracy']} below {self.spec.accuracy_floor}"
        # The fixed subset, recomputed shape by shape with the reference forward.
        subset_file = self.inputs / "gallery-subset.3dvgd"
        code, out = _cli(["eval", "--model", self.work / "model-0.3dvgm",
                          "--data", subset_file])
        got = _json(out)
        if code != 0:
            return "eval of the fixed subset failed"
        _, _, params, config = self.index
        subset = dataio.load(subset_file, sigma=config.sigma)
        losses, hits = [], 0
        for sample in subset.samples:
            trace = model.forward(sample, params, config)
            losses.append(model.sample_loss(trace, sample))
            hits += int(np.argmax(trace.probs)) == sample.label
        want_loss = float(np.mean(losses))
        if got["accuracy"] != hits / EVAL_CHECK_SHAPES:
            return f"subset accuracy {got['accuracy']}, per-shape {hits / EVAL_CHECK_SHAPES}"
        if abs(got["mean_loss"] - want_loss) > TOLERANCE * abs(want_loss):
            return f"subset mean loss {got['mean_loss']}, per-shape {want_loss}"
        return ""

    def _check_retrieve(self, unit: Unit, first) -> str:
        reference = (first or unit).report_sha256[0]
        if len(unit.report_sha256) != self.spec.gallery_repeats or any(
            hashes != reference for hashes in unit.report_sha256
        ):
            return "retrieval reports differ between repeats"
        if first is not None:
            return ""
        if any(s.get("num_queries") != self.spec.count("gallery")
               for s in unit.retrieve_summaries):
            return f"retrieve summary {unit.retrieve_summaries[0]}"
        oracles = _load_oracles()
        features, labels = self.index[0], self.index[1]
        rows, _, _ = oracles.naive_shrec(
            features[:ORACLE_QUERIES], labels[:ORACLE_QUERIES], features, labels,
            exclude_self=True,
        )
        with (self.work / "queries.csv").open(newline="") as fh:
            got = list(csv.DictReader(fh))[:ORACLE_QUERIES]
        if len(got) != len(rows):
            return f"per-query report has {len(got)} rows"
        for want, row in zip(rows, got):
            for key, value in want.items():
                parsed = int(row[key]) if isinstance(value, int) else float(row[key])
                if parsed != value:
                    return f"query {want['query']}: {key} {parsed}, oracle {value}"
        return ""

    def _check_queries(self, unit: Unit, first) -> str:
        if unit.query_count != self.spec.count("query"):
            return "not every query ran"
        if first is not None:
            same = unit.query_digest == first.query_digest
            return "" if same else "query results differ between repeats"
        features, _, params, config = self.index
        batch = model.predict_features(params, config, self.query_set)
        single = np.stack(unit.query_features)
        scale = np.abs(batch).max()
        if not np.isfinite(single).all() or np.abs(single - batch).max() > TOLERANCE * scale:
            return "single-shape features differ from the batch path"
        everyone = np.arange(features.shape[0])
        if any(not np.array_equal(np.sort(r), everyone) for r in unit.query_ranked):
            return "a ranked list is not a permutation of the gallery"
        return ""


def _load_oracles():
    """The naive reference implementations the repository's tests use."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("viewgraph_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
