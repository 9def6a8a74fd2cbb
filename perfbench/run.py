"""choruscvr benchmark: one workload per process, timed and checked.

    python3 perfbench/run.py --workload compare --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. The workload's inputs are built from ``--seed`` (set
up three times; the median counts), then the workload repeats for about
``--seconds`` seconds, each repeat checked outside the timed region.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median import time of the program (this process and two
  fresh interpreters) plus the median of three input builds.
- ``wall_s``: median wall clock of one repeat.
- ``exposures_per_s``: the workload's exposure rows per repeat / ``wall_s``.
- ``peak_rss_mb``: peak resident memory of this process.
- ``ok_ops_ratio``: 1 - failed / attempted operations. An operation is a
  ``run_train``, ``simulate`` or ``read`` call; it fails if it raises or
  fails its output check. (A failure ratio would read 0, and a relative
  bound on a zero median is meaningless.)
- ``cvr_auc_entire``: entire-space counterfactual CVR-AUC of chorus
  (untrained model on ``ingest``); deterministic, so a speed-up that
  changes the model shows here.

``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics of ``spans.py`` from the traced ones, plus the tracing
overhead (traced minus untraced median wall clock).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The machine, versions and thread settings,
every repeat's wall clock and, when traced, every span are written to
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUPS = 3
MIN_REPEATS = 3
# Pinned before numpy loads: the model's matrices are small, one thread
# keeps timings steady, and a process pool would want one per worker.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = "import time; t = time.perf_counter(); import workloads; print(time.perf_counter() - t)"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "exposures_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
    "cvr_auc_entire": "auc",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("compare", "train", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def import_program():
    """Import the checkout's ``src/choruscvr`` and the workloads that use it."""
    src = ROOT / "src"
    if not (src / "choruscvr" / "__init__.py").is_file():
        raise ImportError(f"no choruscvr sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import choruscvr
    import workloads

    if Path(choruscvr.__file__).resolve().parent != src / "choruscvr":
        raise ImportError(f"choruscvr imported from {choruscvr.__file__}, not {src}")
    return workloads


def import_seconds(first: float) -> float:
    """Median of ``first`` and the import time in fresh interpreters."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    times = [first]
    for _ in range(SETUPS - 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in BLAS_ENV},
        "git_sha": sha,
        "machine": platform.machine(),
    }


def measure(workload, seconds: int, trace: bool, work: Path) -> dict:
    """Repeat the workload until ``seconds`` is spent (at least
    ``MIN_REPEATS`` times); with ``trace``, every second repeat is traced."""
    import spans as tracing

    untraced: list[float] = []
    traced: list[float] = []
    op_spans: list[list] = []
    attempted = failed = 0
    aucs: list[float] = []
    deadline = time.perf_counter() + seconds
    rep = 0
    while True:
        out = work / f"rep{rep}"
        out.mkdir(parents=True)
        is_traced = trace and rep % 2 == 1
        recorder = tracing.Recorder()
        gc.collect()
        start = time.perf_counter()
        try:
            with tracing.Tracing(recorder) if is_traced else nullcontext():
                result = workload.run(out)
        except Exception:
            traceback.print_exc()
            result = None
        wall = time.perf_counter() - start
        try:
            n_failed, auc = workload.check(out, result)
        except Exception:
            traceback.print_exc()
            n_failed, auc = workload.ops, float("nan")
        shutil.rmtree(out)
        attempted += workload.ops
        failed += n_failed
        aucs.append(auc)
        if is_traced:
            traced.append(wall)
            op_spans.append(recorder.spans)
        else:
            untraced.append(wall)
        rep += 1
        typical = statistics.median(untraced + traced)
        if rep >= MIN_REPEATS and (not trace or traced) and time.perf_counter() + typical > deadline:
            break
    return {
        "untraced": untraced,
        "traced": traced,
        "op_spans": op_spans,
        "attempted": attempted,
        "failed": failed,
        "aucs": aucs,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    t0 = time.perf_counter()
    try:
        workloads = import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = import_seconds(time.perf_counter() - t0)
    import spans as tracing

    builds = []
    for _ in range(SETUPS):
        workload = None
        gc.collect()
        t0 = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
        builds.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(builds)

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{os.getpid()}"
    try:
        run = measure(workload, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    finite_aucs = [a for a in run["aucs"] if a == a]
    failed_ratio = run["failed"] / run["attempted"]
    if args.trace:
        metrics = tracing.layer_metrics(run["op_spans"], run["traced"], run["untraced"])
        units = tracing.layer_metric_units()
    else:
        wall_s = statistics.median(run["untraced"])
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "exposures_per_s": workload.rows / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ops_ratio": 1.0 - failed_ratio,
            "cvr_auc_entire": statistics.median(finite_aucs) if finite_aucs else 0.0,
        }
        units = END_TO_END_UNITS

    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_import_s": import_s,
        "setup_build_s": builds,
        "untraced_wall_s": run["untraced"],
        "traced_wall_s": run["traced"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failed_ops_ratio": failed_ratio,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        with (OUT / f"{label}-spans.jsonl").open("w", encoding="utf-8") as fh:
            for op, recorded in enumerate(run["op_spans"]):
                for span in recorded:
                    fh.write(json.dumps({"op": op, **asdict(span)}) + "\n")

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_ops_ratio {failed_ratio:.6g} ({run['failed']}/{run['attempted']})")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
