"""Alternating parent/change runs of the benchmark, with the pair rule.

    python tools/ab_bench.py PARENT_DIR CHANGE_DIR --workload train --pairs 10

Runs ``perfbench/run.py`` of each checkout (each from its own root, on
its own ``src/``) with identical arguments, one parent and one change run
per pair, the parent first in even pairs and the change first in odd
ones, so drift over the session falls on both sides alike. For every
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
quartiles and how many pairs the change won (ties count for neither),
then its verdict. "gain": the change wins at least nine tenths of the
pairs and its median beats the parent's by more than the parent's
interquartile range. "regression": the change's median is worse than
the parent's by more than the metric's bound in ``BENCHMARK.json`` (a
fraction of the parent's median). "unresolved": the parent's
interquartile range is wider than that bound, unless every change run
beats every parent run. "within bound" otherwise. Every run is as long
as ``BENCHMARK.json`` sets (``run_seconds``), and every run's metrics
are printed to stderr as it ends. A run that exits non-zero or fails its
output check stops the comparison with an error naming its checkout.

The same comparison is written to ``BENCH_<workload>.json`` in the
current directory: every run's metrics on each side, each metric's
medians, quartiles, wins and verdict, ``nproc``, the BLAS thread
variables each side's ``run.py`` reported, and each checkout's
``git rev-parse HEAD`` (``null`` outside a git checkout).

Each run is reaped with ``os.wait4``, whose resource usage covers the
run and every process it waited for, so ``tree_peak_rss_mb`` is the
largest peak resident memory among ``perfbench/run.py`` and the workers
it waited for (``compare``'s seed pool). ``peak_rss_mb`` counts only
``run.py``'s own process. The tree line is printed beside the others
for information, without a verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# Reported beside the end-to-end metrics, with no verdict.
TREE_RSS = {"name": "tree_peak_rss_mb", "unit": "MB", "better": "lower"}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="workload name, as perfbench/run.py takes it")
    parser.add_argument("--pairs", type=int, default=10, help="parent/change pairs to run (default 10)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed of every run (default 0)")
    return parser.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict[str, float], dict]:
    """One untraced benchmark run: its end-to-end metric values with
    ``tree_peak_rss_mb``, and the environment ``run.py`` reported.

    Raises ``RuntimeError`` naming the checkout when ``run.py`` exits
    non-zero or its last line reports a failed output check
    (``"correct": false``): such a run measured broken work, so it is
    never counted."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(argv, cwd=checkout, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}\n{stderr}")
    lines = stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(
            f"{checkout}: run.py's output check failed: {result['failed']} of {result['attempted']} operations\n{stderr}"
        )
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics[TREE_RSS["name"]] = usage.ru_maxrss / 1024.0
    return metrics, env


def git_head(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(spec: list[dict], runs: dict[str, list[dict[str, float]]]) -> list[dict]:
    """Per metric: each side's median and quartiles, the change's wins
    and the verdict ("informational" for a metric without a bound)."""
    pairs = len(runs["parent"])
    rows = []
    for metric in spec:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        gain = sign * (cm - pm)
        bound = metric["bound"] * abs(pm) if "bound" in metric else None
        if bound is None:
            verdict = "informational"
        elif wins >= 0.9 * pairs and gain > p3 - p1:
            verdict = "gain"
        elif -gain > bound:
            verdict = "regression"
        elif p3 - p1 > bound and not all(sign * (c - p) > 0 for c in change for p in parent):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        rows.append(
            {
                **metric,
                "parent": {"median": pm, "q1": p1, "q3": p3},
                "change": {"median": cm, "q1": c1, "q3": c3},
                "wins": wins,
                "pairs": pairs,
                "verdict": verdict,
            }
        )
    return rows


def summarize(rows: list[dict]) -> list[str]:
    """One line per metric: medians, quartiles, wins and the verdict."""
    lines = [f"{'metric':16s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}  wins  verdict"]
    for row in rows:
        p, c = row["parent"], row["change"]
        ratio = f"{c['median'] / p['median']:.3f}x" if p["median"] else "-"
        lines.append(
            f"{row['name']:16s} {p['median']:12.6g} [{p['q1']:.6g}, {p['q3']:.6g}]".ljust(51)
            + f" {c['median']:12.6g} [{c['q1']:.6g}, {c['q3']:.6g}]".ljust(35)
            + f" {row['wins']:2d}/{row['pairs']}  {row['verdict']} ({ratio} of parent)"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.pairs < 2:
        print("error: --pairs must be at least 2", file=sys.stderr)
        return 2
    bench = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = int(bench["run_seconds"])
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    envs: dict[str, dict] = {}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            metrics, envs[side] = run_once(sides[side], args.workload, args.seed, seconds)
            runs[side].append(metrics)
            shown = " ".join(f"{m['name']}={metrics[m['name']]:.6g}" for m in [*bench["end_to_end"], TREE_RSS])
            print(f"pair {pair} {side}: {shown}", file=sys.stderr, flush=True)
    rows = compare([*bench["end_to_end"], TREE_RSS], runs)
    print(f"workload {args.workload}, seed {args.seed}, {seconds} s runs, {args.pairs} alternating pairs")
    print("\n".join(summarize(rows)))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": seconds,
        "pairs": args.pairs,
        "nproc": os.cpu_count(),
        "blas_threads": {side: {var: env.get(var) for var in BLAS_ENV} for side, env in envs.items()},
        "git_head": {side: git_head(path) for side, path in sides.items()},
        "metrics": rows,
        "runs": runs,
    }
    Path(f"BENCH_{args.workload}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
