"""Command-line entry points.

Subcommands: ``synth`` writes a synthetic dataset, ``train`` fits a model
and writes a checkpoint, ``eval`` scores classification accuracy,
``retrieve`` runs retrieval evaluation and writes CSV reports,
``gradcheck`` compares analytic and numeric gradients on a small random
instance, and ``attention-dump`` exports per-view attention weights.

Exit codes: 0 on success, 1 on an expected failure (unreadable or invalid
files, incompatible shapes, divergence, a failed gradient check), 2 on
command-line usage errors. The ``THREEDVG_LOG`` environment variable sets
verbosity: debug, info (default), warning, error, or quiet.
"""

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import logging
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from . import dataio, evalmetrics, trainer
from .errors import ViewGraphError
from .model import (TrainConfig, count_hits, infer, load_checkpoint, sample_loss,
                    save_checkpoint)
from .model import forward  # noqa: F401 -- not called; perfbench/spans.py traces this binding

log = logging.getLogger("viewgraph")

_LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
    "quiet": logging.CRITICAL + 10,
}


def _setup_logging() -> None:
    wanted = os.environ.get("THREEDVG_LOG", "info").strip().lower()
    level = _LOG_LEVELS.get(wanted, logging.INFO)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    log.handlers.clear()
    log.addHandler(handler)
    log.setLevel(level)
    log.propagate = False


def _hashes(args, **paths) -> dict:
    """``{name: (path, SHA-256 object)}`` of each input given a path. The
    loader of that input feeds the hash with the bytes it reads; without
    ``--manifest`` the hash is None."""
    return {name: (path, hashlib.sha256() if args.manifest else None)
            for name, path in paths.items() if path}


@functools.lru_cache(maxsize=None)
def _software() -> dict:
    """Python, numpy and BLAS versions, and ``git describe`` of the source
    tree (None outside a git checkout); looked up once per process."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True,
                             text=True, timeout=10, cwd=os.path.dirname(os.path.abspath(__file__)))
        described = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        described = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "git_describe": described or None}


def _write_manifest(args, config, inputs: dict, outputs: list) -> int:
    """Under ``--manifest``, record what the run did and return exit code 0:
    config, inputs (``_hashes``), outputs, wall time since ``main`` parsed the
    command line, the software it ran on and the process's peak resident memory."""
    if not args.manifest:
        return 0
    payload = {
        "command": args.command,
        "config": None if config is None else vars(config).copy(),
        "inputs": {name: {"path": str(p), "sha256": digest.hexdigest()}
                   for name, (p, digest) in inputs.items()},
        "outputs": [str(p) for p in outputs],
        "wall_seconds": time.perf_counter() - args.started,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **_software(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    dataio.write_atomic(args.manifest, [text.encode()], "manifest")
    return 0


# The help text of each TrainConfig field's option, where it has one.
_OPTION_HELP = {
    "n_patterns": "latent pattern count (default %(default)s)",
    "feature_dim": "global feature width (default %(default)s)",
    "sigma": "spatial decay of the view graph (default %(default)s)",
    "learning_rate": "SGD step size (default %(default)s)",
    "seed": "seed of the run's random draws",
    "plateau_patience": "epochs without loss improvement before stopping; 0 disables",
    "no_spatiality": "weight all view pairs equally",
    "no_attention": "replace attention with uniform weights",
    "no_latent": "skip the latent embedding, use raw features",
    "no_correlation": "keep weighted sums as vectors instead of outer products",
    "mean_pool": "mean-pool embeddings, bypassing the view graph",
    "max_pool": "max-pool embeddings, bypassing the view graph",
}


def _add_config_args(parser: argparse.ArgumentParser, *skip: str) -> None:
    """An option for each TrainConfig field not in ``skip``, of the field's name
    (``--n-patterns``), type and default; a bool field is an "ablations" flag."""
    config, ablations = (parser.add_argument_group(g) for g in ("configuration", "ablations"))
    for f in (f for f in fields(TrainConfig) if f.name not in skip):
        option, text = "--" + f.name.replace("_", "-"), _OPTION_HELP.get(f.name)
        if f.type is bool:
            ablations.add_argument(option, action="store_true", help=text)
        else:
            config.add_argument(option, type=f.type, default=f.default, help=text)


def _config_from_args(args, **dims) -> TrainConfig:
    """Every TrainConfig field the command has an option for, plus ``dims``."""
    options = {f.name: getattr(args, f.name)
               for f in fields(TrainConfig) if hasattr(args, f.name)}
    return TrainConfig(**{**options, **dims})


def _cmd_synth(args) -> int:
    dataset = dataio.generate_synthetic(
        num_classes=args.classes,
        shapes_per_class=args.per_class,
        views=args.views,
        feature_dim=args.input_dim,
        noise=args.noise,
        seed=args.seed,
        split=args.split,
    )
    inputs = _hashes(args, dataset=args.out)
    dataio.save(dataset, *inputs["dataset"])
    log.info(
        "wrote %s: %d shapes, %d classes, %d views x %d dims",
        args.out, dataset.num_samples, dataset.num_classes,
        dataset.views, dataset.feature_dim,
    )
    return _write_manifest(args, None, inputs, [args.out])


def _cmd_train(args) -> int:
    inputs = _hashes(args, data=args.data, resume=args.resume)
    dataset = dataio.load(args.data, sigma=args.sigma, digest=inputs["data"][1])
    config = _config_from_args(args, num_classes=dataset.num_classes,
                               views=dataset.views, input_dim=dataset.feature_dim)
    resume = None
    if args.resume:
        resume, resume_cfg = load_checkpoint(*inputs["resume"])
        log.info("resuming from %s (trained with seed %d)", args.resume, resume_cfg.seed)

    def on_epoch(stats):
        log.info(
            "epoch %d: loss %.6f, accuracy %.4f (%.2fs)",
            stats.epoch, stats.loss, stats.accuracy, stats.seconds,
        )
        if log_fh is not None:
            json.dump(asdict(stats), log_fh)
            log_fh.write("\n")
            log_fh.flush()
        return False

    with open(args.log_file, "w") if args.log_file else contextlib.nullcontext() as log_fh:
        result = trainer.train(dataset, config, params=resume, callback=on_epoch)
    save_checkpoint(args.out, result.params, config)
    final = result.history[-1] if result.history else None
    if final is not None:
        log.info(
            "finished after %d epochs%s: loss %.6f, accuracy %.4f",
            result.epochs_run,
            " (stopped early)" if result.stopped_early else "",
            final.loss, final.accuracy,
        )
    outputs = [args.out] + ([args.log_file] if args.log_file else [])
    return _write_manifest(args, config, inputs, outputs)


def _infer_file(params, config, path, digest, *names):
    """``infer``'s ``names`` over the dataset file ``path``, read one planned block
    at a time into ``digest``; a bad later sample fails after earlier blocks ran."""
    reader = functools.partial(dataio.read_blocks, path, sigma=config.sigma, digest=digest)
    return infer(reader, params, config, *names)


def _cmd_eval(args) -> int:
    inputs = _hashes(args, model=args.model, data=args.data)
    params, config = load_checkpoint(*inputs["model"])
    trace = _infer_file(params, config, *inputs["data"], "logits", "probs", "labels")
    summary = {
        "num_samples": len(trace.labels),
        "accuracy": count_hits(trace) / len(trace.labels),
        "mean_loss": float(np.mean(sample_loss(trace))),
    }
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return _write_manifest(args, config, inputs, [])


def _split_features(params, config, path, digest) -> tuple[np.ndarray, np.ndarray]:
    """Global features and labels of one dataset file, streamed through
    ``infer``; nothing else of the file outlives the call."""
    trace = _infer_file(params, config, path, digest, "global_feature", "labels")
    return trace.global_feature, trace.labels


def _retrieval_run(args, inputs: dict):
    """The retrieval run of ``args`` and the model's config. Only features
    and labels outlive this call: the model and the datasets are freed
    before anything is ranked."""
    params, config = load_checkpoint(*inputs["model"])
    queries = _split_features(params, config, *inputs["data"])
    if not args.gallery:
        return evalmetrics.RetrievalRun.self_retrieval(*queries, distance=args.distance), config
    gallery = _split_features(params, config, *inputs["gallery"])
    return evalmetrics.RetrievalRun(*queries, *gallery, distance=args.distance), config


def _cmd_retrieve(args) -> int:
    inputs = _hashes(args, model=args.model, data=args.data, gallery=args.gallery)
    run, config = _retrieval_run(args, inputs)
    report = evalmetrics.shrec_metrics(run, cutoff=args.cutoff)
    outputs = []
    if args.metrics_csv:
        evalmetrics.write_metrics_csv(args.metrics_csv, report)
        outputs.append(args.metrics_csv)
    if args.per_query_csv:
        evalmetrics.write_per_query_csv(args.per_query_csv, report)
        outputs.append(args.per_query_csv)
    if args.pr_csv:
        recalls, precisions = evalmetrics.pr_curve(run, points=args.pr_points)
        evalmetrics.write_pr_csv(args.pr_csv, recalls, precisions)
        outputs.append(args.pr_csv)
    summary = {
        "num_queries": run.num_queries,
        "micro": vars(report.micro),
        "macro": vars(report.macro),
    }
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return _write_manifest(args, config, inputs, outputs)


def _cmd_gradcheck(args) -> int:
    if not 0.0 < args.tol < np.inf:
        raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
    config = _config_from_args(args, num_classes=args.classes)
    rng = np.random.default_rng(args.seed)
    from .geometry import build_view_graph, default_viewpoints
    from .model import init_model

    graph = build_view_graph(default_viewpoints(config.views), config.sigma)
    features = rng.standard_normal((config.views, config.input_dim)).astype(np.float32)
    sample = dataio.ShapeSample(
        label=int(rng.integers(config.num_classes)), features=features, graph=graph
    )
    params = init_model(config, rng)
    # Check at generic O(1) parameters: every block's gradient is then well
    # above the finite-difference noise floor, unlike at the tiny init scale.
    for _, arr in params.blocks():
        arr[...] = rng.standard_normal(arr.shape)
    report = trainer.grad_check(sample, params, config, h=args.h)
    worst = max(report.values())
    for name, err in report.items():
        print(f"{name:16s} relative error {err:.3e}")
    print(f"max relative error {worst:.3e} (tolerance {args.tol:.1e})")
    return 0 if worst < args.tol else 1


def _cmd_attention_dump(args) -> int:
    params, config = load_checkpoint(args.model)
    alphas = _infer_file(params, config, args.data, None, "alpha").alpha
    extremes = enumerate(zip(alphas, alphas.argmax(axis=1), alphas.argmin(axis=1)))
    rows = ((si, vi, a, int(vi == top), int(vi == bottom))  # made one at a time, never held
            for si, (alpha, top, bottom) in extremes for vi, a in enumerate(alpha.tolist()))
    header = ("shape_index", "view_index", "alpha", "is_max", "is_min")
    dataio.write_csv(args.out, itertools.chain([header], rows), "attention CSV")
    log.info("wrote %s for %d shapes x %d views", args.out, *alphas.shape)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viewgraph",
        description="Multi-view 3D shape recognition over spatial view graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset path")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True, help="shapes per class")
    p.add_argument("--views", type=int, default=20)
    p.add_argument("--input-dim", type=int, default=64, help="per-view feature dim")
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default="train", help="split tag stored in the file")
    p.add_argument("--manifest", help="write a JSON run manifest here")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--data", required=True, help="training dataset path")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--log-file", help="write per-epoch stats as JSON lines")
    p.add_argument("--manifest", help="write a JSON run manifest here")
    _add_config_args(p, "num_classes", "input_dim", "views")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score classification accuracy")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--manifest", help="write a JSON run manifest here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("retrieve", help="retrieval metrics over global features")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="query dataset path")
    p.add_argument("--gallery", help="separate gallery dataset (default: self-retrieval)")
    p.add_argument("--cutoff", type=int, help="fixed cutoff (default: per-query class size)")
    p.add_argument("--distance", choices=sorted(evalmetrics.DISTANCES),
                   default="euclidean", help="feature-space distance for ranking")
    p.add_argument("--metrics-csv", help="write the micro/macro summary CSV here")
    p.add_argument("--per-query-csv", help="write per-query scores CSV here")
    p.add_argument("--pr-csv", help="write the interpolated PR curve CSV here")
    p.add_argument("--pr-points", type=int, default=21)
    p.add_argument("--manifest", help="write a JSON run manifest here")
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("gradcheck", help="finite-difference check on a random instance")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--h", type=float, default=1e-5, help="finite-difference step")
    p.add_argument("--tol", type=float, default=1e-5, help="max relative error to pass")
    _add_config_args(p, "num_classes", "learning_rate", "epochs", "batch_size",
                     "plateau_patience")
    # Small dims by default: the check walks every parameter entry.
    p.set_defaults(func=_cmd_gradcheck, views=3, input_dim=5, n_patterns=4, feature_dim=6)

    p = sub.add_parser("attention-dump", help="export per-view attention weights")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_attention_dump)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    args.started = time.perf_counter()  # the manifest's clock
    try:
        return args.func(args)
    except (ViewGraphError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
