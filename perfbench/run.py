"""viewgraph benchmark: one workload, one seed, one JSON result line.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 40 --trace 0

Each call is a fresh process, so the peak resident set size is the
workload's own. Set-up runs ``SETUP_REPEATS`` times, each in a fresh
interpreter that imports the library, writes the seeded inputs and trains
one warm-up batch; ``setup_s`` is the median. The measured loop then repeats whole units
(see ``workloads.py``) as long as the next one is expected to end within
``--seconds``, and at least ``Spec.min_units`` times.

With ``--trace 0`` the last line carries the end-to-end metrics. With
``--trace 1`` units alternate between untraced and traced, the per-layer
metrics come from the traced units and ``trace.overhead_frac`` compares the
two kinds. Lines before the last give a readable table, the machine, the
input hashes and any failed check.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))
from inputs import SPECS, warm_up, write_inputs  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "train_shapes_per_s": "shapes/s",
    "eval_shapes_per_s": "shapes/s",
    "retrieve_s": "s",
    "query_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile: the 95th of 200 samples has 10 above it."""
    ordered = sorted(values)
    return ordered[max(1, -(-pct * len(ordered) // 100)) - 1]


def set_up(workload: str, seed: int, out: Path) -> tuple[float, dict]:
    """One set-up in a fresh interpreter; returns (seconds, input hashes)."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    seconds = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return seconds, json.loads(proc.stdout.splitlines()[-1])


def blas_threads():
    """OpenBLAS thread count as numpy's bundled library reports it, if it can."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    git = None
    if (ROOT / ".git").exists():
        try:
            described = subprocess.run(
                ["git", "describe", "--always", "--dirty"], capture_output=True,
                text=True, timeout=10, cwd=ROOT,
            )
            git = described.stdout.strip() if described.returncode == 0 else None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_describe": git,
    }


def end_to_end(spec, units: list, setup_s: float, peak_rss_mb: float) -> dict:
    query_ms = [ms for u in units for ms in u.query_ms]
    values = {
        "setup_s": setup_s,
        "train_shapes_per_s": statistics.median(
            [spec.count("train") * spec.epochs / u.train_s for u in units]),
        "eval_shapes_per_s": statistics.median(
            [spec.count("gallery") / s for u in units for s in u.eval_s]),
        "retrieve_s": statistics.median([s for u in units for s in u.retrieve_s]),
        "query_ms_p50": percentile(query_ms, 50),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run(args, work: Path) -> int:
    spec = SPECS[args.workload]
    setups = [set_up(args.workload, args.seed, work / f"setup-{i}")
              for i in range(SETUP_REPEATS)]
    setup_s = statistics.median(s for s, _ in setups)
    hashes = setups[0][1]
    problems = [] if all(h == hashes for _, h in setups) else ["set-up inputs differ"]

    os.environ["THREEDVG_LOG"] = "warning"
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    workload = workloads.Workload(spec, args.seed, work / "setup-0", work / "run")
    warm_up(spec, args.seed)

    tracer = spans.Tracer() if args.trace else None
    save_s = None
    if tracer is not None:
        with tracer.recording():
            write_inputs(spec, args.seed, work / "traced-setup")
        save_s = tracer.summary().get("dataio.save", {}).get("total_s")

    units, traced, summaries = [], [], []
    started = time.perf_counter()
    # A traced run needs an untraced and a traced unit to compare.
    min_units = max(spec.min_units, 2 * args.trace)
    # Start another unit while it is expected to end inside the window.
    while len(units) < min_units or (
        (time.perf_counter() - started) * (len(units) + 1) / len(units) <= args.seconds
    ):
        if tracer is not None and len(units) % 2 == 1:
            with tracer.recording():
                unit = workload.run_unit(len(units), tracer)
                summaries.append(tracer.summary())
            traced.append(len(units))
        else:
            unit = workload.run_unit(len(units))
        units.append(unit)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed, unit_problems = workload.check(units)
    problems += unit_problems
    traced_units = [units[i] for i in traced]
    untraced = [u for i, u in enumerate(units) if i not in traced]
    if tracer is None:
        try:
            metrics = end_to_end(spec, untraced, setup_s, peak_rss_mb)
        except (statistics.StatisticsError, IndexError):
            metrics = {}
        if not all(math.isfinite(m["value"]) for m in metrics.values()) or not metrics:
            print(f"error: no complete unit to measure: {problems}", file=sys.stderr)
            return 1
    else:
        metrics = spans.layer_metrics(summaries, tracer.missing, spec.gallery_repeats)
        if "dataio.save" not in tracer.missing and save_s is not None:
            metrics["dataio.save_s"] = {"value": save_s, "unit": "s"}
        overhead = (statistics.median(u.wall_s for u in traced_units)
                    / statistics.median(u.wall_s for u in untraced) - 1.0)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}

    # Printed but not bounded: the p95 query latency follows bursts of
    # contention on a shared host too closely to stay within any bound, and
    # failed_frac is 0 whenever a run is correct.
    shown = dict(metrics)
    if tracer is None:
        query_ms = [ms for u in untraced for ms in u.query_ms]
        shown["query_ms_p95"] = {"value": percentile(query_ms, 95), "unit": "ms"}
    shown["failed_frac"] = {"value": failed / attempted, "unit": "fraction"}
    for name, m in sorted(shown.items()):
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "units": len(units),
        "traced_units": len(traced_units),
        "samples": {
            "train": sum(math.isfinite(u.train_s) for u in untraced),
            "eval": sum(len(u.eval_s) for u in untraced),
            "retrieve": sum(len(u.retrieve_s) for u in untraced),
            "query": sum(len(u.query_ms) for u in untraced),
        },
        "setup_s_samples": [s for s, _ in setups],
        "inputs_sha256": hashes,
        "machine": machine_facts(),
        "problems": problems,
    }))
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="viewgraph benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "viewgraph" / "__init__.py").is_file():
        print(f"error: no viewgraph package under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
