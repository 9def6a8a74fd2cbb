"""Command-line experiment runner: simulate / train / evaluate / compare.

One YAML config file with ``sim``, ``model``, ``objective``, ``trainer``
and ``compare`` sections drives everything; the raw config text is
embedded verbatim in every run manifest together with a content digest
of the dataset, so any artifact can be traced back to its exact inputs.

Exit codes: 0 success, 2 usage or config error (bad flags, bad YAML,
unknown section or key, unknown method, missing files), 1 runtime
failure (calibration or training aborts, a metric or objective the data
cannot define, unwritable outputs).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np
import yaml

from . import __version__
from .data import ExposureLog, IngestionReport, read_log, screen_log, write_log
from .features import FeatureSchema, build_schema
from .metrics import UndefinedMetricError, write_report
from .model import Architecture, save_checkpoint, load_checkpoint
from .objectives import METHODS, IpwConfig, LossWeights, ObjectiveError
from .simulator import SimConfig, generate, sim_schema, space_stats
from .trainer import ExperimentConfig, OptimizerConfig, evaluate, split_indices, train, write_history, write_timing

__all__ = ["main", "run_simulate", "run_train", "run_evaluate", "run_compare", "UsageError"]


class UsageError(Exception):
    """Config or invocation problem; maps to exit code 2."""


# -- config plumbing -----------------------------------------------------------

# Keys of the sections read key by key; ``sim`` and ``objective.*`` are
# checked against their dataclass fields instead.
SECTION_KEYS = {
    "model": ("embed_width", "encoder_widths", "tower_widths", "tower_input_width"),
    "objective": ("weights", "ipw"),
    "trainer": (
        "method",
        "optimizer",
        "learning_rate",
        "batch_size",
        "epochs",
        "patience",
        "seed",
        "dataset",
        "eval_bins",
    ),
    "compare": ("methods", "seeds", "reference", "dataset"),
    "evaluate": ("checkpoint", "dataset", "eval_bins"),
}
SECTIONS = ("sim", "features", *SECTION_KEYS)


def load_config(path: str | Path) -> tuple[dict, str]:
    """Parse the YAML config; returns (dict, verbatim text)."""
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {p}")
    text = p.read_text(encoding="utf-8")
    try:
        cfg = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise UsageError(f"config is not valid YAML: {exc}") from exc
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise UsageError("config root must be a mapping of sections")
    unknown = set(cfg) - set(SECTIONS)
    if unknown:
        raise UsageError(f"unknown config sections: {sorted(unknown, key=str)}")
    return cfg, text


def _section(cfg: Mapping, name: str) -> dict:
    sec = cfg.get(name, {})
    if sec is None:
        sec = {}
    if not isinstance(sec, Mapping):
        raise UsageError(f"config section {name!r} must be a mapping")
    if name in SECTION_KEYS:
        unknown = set(sec) - set(SECTION_KEYS[name])
        if unknown:
            raise UsageError(f"unknown keys in {name}: {sorted(unknown, key=str)}")
    return dict(sec)


def _build(cls, section: dict, label: str, **overrides):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(section) - known
    if unknown:
        raise UsageError(f"unknown keys in {label}: {sorted(unknown)}")
    try:
        return cls(**{**section, **overrides})
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {label}: {exc}") from exc


def sim_config(cfg: Mapping, seed_override: int | None = None) -> SimConfig:
    section = _section(cfg, "sim")
    if seed_override is not None:
        section["seed"] = seed_override
    return _build(SimConfig, section, "sim config")


def schema_from_config(cfg: Mapping) -> FeatureSchema:
    """Feature schema: explicit ``features`` section, else derived from
    the simulator section."""
    if "features" in cfg and cfg["features"]:
        try:
            return build_schema(cfg["features"])
        except (KeyError, ValueError) as exc:
            raise UsageError(f"bad features section: {exc}") from exc
    model = _section(cfg, "model")
    return sim_schema(sim_config(cfg), embed_width=int(model.get("embed_width", 8)))


def experiment_config(cfg: Mapping, method: str | None = None, seed: int | None = None) -> ExperimentConfig:
    model = _section(cfg, "model")
    objective = _section(cfg, "objective")
    trainer = _section(cfg, "trainer")
    arch = _build(
        Architecture,
        {
            "encoder_widths": tuple(model.get("encoder_widths", (64, 32))),
            "tower_widths": tuple(model.get("tower_widths", (16,))),
            "tower_input_width": model.get("tower_input_width"),
        },
        "model section",
    )
    weights = _build(LossWeights, _section(objective, "weights"), "objective.weights")
    ipw = _build(IpwConfig, _section(objective, "ipw"), "objective.ipw")
    optimizer = _build(
        OptimizerConfig,
        {
            "method": trainer.get("optimizer", "adam"),
            "learning_rate": float(trainer.get("learning_rate", 1e-3)),
        },
        "optimizer config",
    )
    return _build(
        ExperimentConfig,
        {
            "method": method if method is not None else trainer.get("method", "chorus"),
            "weights": weights,
            "ipw": ipw,
            "arch": arch,
            "optimizer": optimizer,
            "batch_size": int(trainer.get("batch_size", 1024)),
            "epochs": int(trainer.get("epochs", 20)),
            "patience": int(trainer.get("patience", 3)),
            "seed": seed if seed is not None else int(trainer.get("seed", 0)),
        },
        "trainer config",
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Itemized skipped rows kept in a manifest; the count is always complete.
MANIFEST_SKIPPED_ROWS = 100


def _ingestion(report: IngestionReport) -> dict[str, Any]:
    return {
        "lines": report.n_lines,
        "records": report.n_records,
        "skipped": len(report.skipped),
        "skipped_rows": [list(item) for item in report.skipped[:MANIFEST_SKIPPED_ROWS]],
        "funnel_violations": report.funnel_violations,
        "oov_folds": dict(report.oov_folds),
    }


def write_manifest(
    out_dir: Path,
    command: str,
    config_text: str,
    seed: int,
    dataset: Path | None,
    artifacts: Mapping[str, str],
    ingestion: IngestionReport | None = None,
    nondeterministic: Sequence[str] = (),
    dataset_sha256: str | None = None,
) -> Path:
    """``manifest.json``: config, dataset digest, artifact names, and, for
    commands that read a log, what reading it kept and dropped. Artifacts
    named in ``nondeterministic`` hold wall clock and differ between
    reruns. ``dataset_sha256`` is the digest of ``dataset``."""
    manifest = {
        "tool_version": __version__,
        "command": command,
        "seed": seed,
        "config_text": config_text,
        "config_sha256": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
        "dataset_path": str(dataset) if dataset else None,
        "dataset_sha256": dataset_sha256,
        "artifacts": dict(artifacts),
    }
    if ingestion is not None:
        manifest["ingestion"] = _ingestion(ingestion)
    if nondeterministic:
        manifest["nondeterministic"] = list(nondeterministic)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


# -- commands ------------------------------------------------------------------


def run_simulate(cfg: Mapping, config_text: str, out_dir: Path, seed: int | None = None) -> Path:
    """Generate a dataset CSV + manifest; returns the dataset path."""
    config = sim_config(cfg, seed_override=seed)
    log, report = generate(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = out_dir / "dataset.csv"
    write_log(log, dataset, sim_schema(config))
    stats = space_stats(log)
    print(
        f"simulated {stats.n_exposure} exposures: click rate {report.click_rate:.4f}, "
        f"conversion|click {report.conv_rate_given_click:.4f}"
    )
    print(
        f"spaces: click {stats.n_click}, unclick {stats.n_unclick}, "
        f"conv {stats.n_conv}, unconv {stats.n_unconv}"
    )
    print(
        f"selection bias: mean true conversion propensity {report.mean_p_conv_clicked:.4f} (clicked) "
        f"vs {report.mean_p_conv_unclicked:.4f} (unclicked)"
    )
    artifacts = {"dataset": dataset.name}
    write_manifest(out_dir, "simulate", config_text, config.seed, dataset, artifacts, dataset_sha256=_sha256(dataset))
    return dataset


@dataclass(frozen=True)
class LoadedLog:
    """A dataset as loaded once: its path, content digest, columns, report
    and load time (the read; for a log ``compare`` simulates, also its
    generate and write)."""

    path: Path
    sha256: str
    log: ExposureLog
    report: IngestionReport
    read_s: float


def _load_dataset(cfg: Mapping, schema: FeatureSchema, dataset_path: str | None) -> LoadedLog:
    trainer_cfg = _section(cfg, "trainer")
    path_str = dataset_path or trainer_cfg.get("dataset")
    if not path_str:
        raise UsageError("no dataset configured (trainer.dataset)")
    path = Path(path_str)
    if not path.is_file():
        raise UsageError(f"dataset not found: {path}")
    t0 = time.perf_counter()
    log, report = read_log(path, schema)
    return _loaded(path, log, report, time.perf_counter() - t0)


def _loaded(path: Path, log: ExposureLog, report: IngestionReport, read_s: float) -> LoadedLog:
    n_oov = sum(report.oov_folds.values())
    if report.funnel_violations or report.skipped or n_oov:
        print(
            f"ingestion: {report.n_records} records, {report.funnel_violations} funnel "
            f"violations dropped, {len(report.skipped)} rows skipped, "
            f"{n_oov} out-of-vocabulary ids folded"
        )
    return LoadedLog(path, _sha256(path), log, report, read_s)


def run_train(
    cfg: Mapping,
    config_text: str,
    out_dir: Path,
    seed: int | None = None,
    method: str | None = None,
    dataset_path: str | None = None,
    loaded: LoadedLog | None = None,
) -> dict[str, Any]:
    """Train one method on the configured dataset; write artifacts.

    ``loaded`` is a dataset already loaded (``compare`` loads each
    seed's log once for all its methods); otherwise it is read here.
    """
    schema = schema_from_config(cfg)
    config = experiment_config(cfg, method=method, seed=seed)
    data = loaded or _load_dataset(cfg, schema, dataset_path)
    log = data.log
    idx_train, idx_val, idx_test = split_indices(len(log), config.seed)

    params, history = train(config, log.take(idx_train), log.take(idx_val), schema)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / "checkpoint.bin"
    save_checkpoint(params, ckpt)
    hist = out_dir / "history.csv"
    write_history(history, hist)
    n_bins = int(_section(cfg, "trainer").get("eval_bins", 10))
    t0 = time.perf_counter()
    report = evaluate(params, log.take(idx_test), n_bins=n_bins)
    eval_s = time.perf_counter() - t0
    write_report(report, out_dir / "metrics.txt", out_dir / "curve.csv")
    timing = out_dir / "timing.csv"
    write_timing(history, timing, data.read_s, eval_s)
    write_manifest(
        out_dir,
        "train",
        config_text,
        config.seed,
        data.path,
        {
            "checkpoint": ckpt.name,
            "history": hist.name,
            "metrics": "metrics.txt",
            "curve": "curve.csv",
            "timing": timing.name,
        },
        ingestion=data.report,
        nondeterministic=[timing.name],
        dataset_sha256=data.sha256,
    )
    best = history.best_epoch
    print(f"trained {config.method} for {len(history.epochs)} epochs (best epoch {best})")
    for (space, target), entry in sorted(report.entries.items()):
        print(f"  {space}.{target}: auc={entry.auc:.4f} logloss={entry.logloss:.4f} pcoc={entry.pcoc:.4f}")
    return {"params": params, "history": history, "report": report, "out_dir": out_dir}


def run_evaluate(
    cfg: Mapping,
    config_text: str,
    out_dir: Path,
    checkpoint: str | None = None,
    dataset_path: str | None = None,
) -> dict[str, Any]:
    """Score an existing checkpoint on a dataset."""
    eval_cfg = _section(cfg, "evaluate")
    ckpt_str = checkpoint or eval_cfg.get("checkpoint")
    if not ckpt_str:
        raise UsageError("no checkpoint configured (evaluate.checkpoint)")
    ckpt = Path(ckpt_str)
    if not ckpt.is_file():
        raise UsageError(f"checkpoint not found: {ckpt}")
    params = load_checkpoint(ckpt)
    data = _load_dataset(cfg, params.schema, dataset_path or eval_cfg.get("dataset"))
    n_bins = int(eval_cfg.get("eval_bins", _section(cfg, "trainer").get("eval_bins", 10)))
    report = evaluate(params, data.log, n_bins=n_bins)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report(report, out_dir / "metrics.txt", out_dir / "curve.csv")
    write_manifest(
        out_dir,
        "evaluate",
        config_text,
        0,
        data.path,
        {"metrics": "metrics.txt", "curve": "curve.csv"},
        ingestion=data.report,
        dataset_sha256=data.sha256,
    )
    for (space, target), entry in sorted(report.entries.items()):
        print(f"{space}.{target}: auc={entry.auc:.4f} logloss={entry.logloss:.4f} pcoc={entry.pcoc:.4f}")
    return {"report": report, "out_dir": out_dir}


RUN_METRICS = (
    "ctr_auc",
    "ctcvr_auc",
    "cvr_auc_click",
    "cvr_auc_entire",
    "cvr_logloss_entire",
    "pcoc_unclick",
    "low_bin_bias",
)


def _run_row(method: str, seed: int, result: Mapping[str, Any]) -> dict[str, Any]:
    report = result["report"]
    history = result["history"]
    row: dict[str, Any] = {"row_type": "run", "method": method, "seed": seed}
    entries = report.entries
    row["ctr_auc"] = entries[("exposure", "ctr")].auc
    row["ctcvr_auc"] = entries[("exposure", "ctcvr")].auc
    row["cvr_auc_click"] = entries[("click", "cvr")].auc
    cf = entries.get(("exposure", "cvr_counterfactual"))
    row["cvr_auc_entire"] = cf.auc if cf else float("nan")
    row["cvr_logloss_entire"] = cf.logloss if cf else float("nan")
    un = entries.get(("unclick", "cvr_counterfactual"))
    row["pcoc_unclick"] = un.pcoc if un else float("nan")
    row["low_bin_bias"] = (
        abs(report.curve[0].mean_pred - report.curve[0].mean_actual) if report.curve else float("nan")
    )
    row["epochs"] = len(history.epochs)
    row["best_epoch"] = history.best_epoch
    return row


@dataclass(frozen=True)
class _SeedJob:
    """What every seed of one ``compare`` shares: the config, the output
    root, the methods in table order, and either the simulator config
    (one dataset per seed) or the pinned dataset, already read."""

    cfg: Mapping
    config_text: str
    out_dir: Path
    methods: tuple[str, ...]
    schema: FeatureSchema
    sim: SimConfig | None
    pinned: LoadedLog | None


def _simulate_seed(job: _SeedJob, seed: int) -> LoadedLog:
    """The seed's dataset, written and kept in memory as ``read_log`` would
    read it back; a schema not naming exactly its id columns reads it.
    Its load time covers the generate and the write as well."""
    # Regenerated on every run, so a changed ``sim`` section never meets
    # a stale file; generation is deterministic.
    per_seed = dataclasses.replace(job.sim, seed=job.sim.seed + seed)
    path = job.out_dir / "datasets" / f"sim_seed{seed}.csv"
    t0 = time.perf_counter()
    log, _ = generate(per_seed)
    write_log(log, path, sim_schema(per_seed))
    if [(f.name, f.kind) for f in job.schema.features] != [(name, "categorical") for name in log.id_names]:
        log, report = read_log(path, job.schema)
    else:
        log, report = screen_log(log, job.schema, len(log), [])
    return _loaded(path, log, report, time.perf_counter() - t0)


def _compare_seed(job: _SeedJob, seed: int) -> tuple[str, list[dict[str, Any]], Exception | None]:
    """One seed of ``compare``: its dataset (simulated, written and kept
    in memory, unless pinned), then every method's run on that log.

    Returns what the seed printed, its run rows in method order, and the
    error that stopped it, if any, so that the caller prints exactly
    what a serial run would have printed before the error.
    """
    stdout = io.StringIO()
    rows: list[dict[str, Any]] = []
    try:
        with contextlib.redirect_stdout(stdout):
            loaded = job.pinned or _simulate_seed(job, seed)
            for method in job.methods:
                run_dir = job.out_dir / "runs" / f"{method}_seed{seed}"
                result = run_train(job.cfg, job.config_text, run_dir, seed=seed, method=method, loaded=loaded)
                rows.append(_run_row(method, seed, result))
    except Exception as exc:
        return stdout.getvalue(), rows, exc
    return stdout.getvalue(), rows, None


# A pool worker's job, set once as the worker starts; never set in the
# process that runs ``compare``.
_worker_job: _SeedJob | None = None


def _adopt_job(job: _SeedJob) -> None:
    global _worker_job
    _worker_job = job


def _pooled_seed(seed: int) -> tuple[str, list[dict[str, Any]], Exception | None]:
    from multiprocessing.pool import ExceptionWithTraceback

    text, rows, error = _compare_seed(_worker_job, seed)
    if error is not None:
        # Unpickles as ``error`` with the worker's traceback as its cause.
        error = ExceptionWithTraceback(error, error.__traceback__)
    return text, rows, error


@contextlib.contextmanager
def _seed_pool(job: _SeedJob, n_seeds: int):
    """A pool of ``min(cpus, seeds)`` workers that hold ``job``, or None
    (run inline) when that is one worker or BLAS may run threads. The
    CPUs are those this process may run on (its affinity mask, where the
    platform has one), not every CPU of the machine.

    ``fork``: a worker starts with the modules already imported and
    shares a pinned log instead of importing numpy and unpickling the
    log. Forking is safe only while no other thread runs, so it needs
    BLAS pinned to one thread (``compare`` itself starts none); forked
    workers sharing multi-threaded BLAS also ran slower than one serial
    process.
    """
    from . import BLAS_PINNED

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, n_seeds)
    if workers < 2 or not BLAS_PINNED:
        yield None
        return
    import multiprocessing  # here, not at module level: ``train`` never pays for it

    pool = multiprocessing.get_context("fork").Pool(workers, _adopt_job, (job,))
    try:
        yield pool
    finally:
        pool.terminate()
        pool.join()


def run_compare(
    cfg: Mapping,
    config_text: str,
    out_dir: Path,
    methods: Sequence[str] | None = None,
    seeds: Sequence[int] | None = None,
) -> list[dict[str, Any]]:
    """Fan out (method, seed) runs, then aggregate.

    Each seed gets its own simulated dataset (simulator seed = config
    seed + run seed) shared by all methods at that seed, unless
    ``compare.dataset`` pins one file for everything. A simulated log is
    written, hashed and kept in memory, a pinned file read once, and the
    log handed to every run that uses it. Seeds run in a process pool
    (see ``_seed_pool``), one worker per seed at a time; their output and
    rows are taken in seed order, so every artifact and the printed text
    match a serial run byte for byte.
    Aggregate rows carry per-metric means plus paired mean differences
    and win counts against the reference method (first method by
    default).
    """
    compare_cfg = _section(cfg, "compare")
    methods = list(methods) if methods else list(compare_cfg.get("methods", []))
    seeds = [int(s) for s in (seeds if seeds is not None else compare_cfg.get("seeds", []))]
    for label, values in (("methods", methods), ("seeds", seeds)):
        repeated = [v for v in dict.fromkeys(values) if values.count(v) > 1]
        if repeated:
            raise UsageError(f"compare {label} must be distinct; repeated: {repeated}")
    if len(methods) < 2:
        raise UsageError("compare needs at least 2 methods")
    if not seeds:
        raise UsageError("compare needs at least 1 seed")
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}; expected one of {METHODS}")
    reference = compare_cfg.get("reference", methods[0])
    if reference not in methods:
        raise UsageError(f"reference method {reference!r} is not among the compared methods")

    out_dir.mkdir(parents=True, exist_ok=True)
    schema = schema_from_config(cfg)
    fixed_dataset = compare_cfg.get("dataset")
    if fixed_dataset:
        sim, pinned = None, _load_dataset(cfg, schema, str(fixed_dataset))
    else:
        (out_dir / "datasets").mkdir(exist_ok=True)
        sim, pinned = sim_config(cfg), None
    job = _SeedJob(cfg, config_text, out_dir, tuple(methods), schema, sim, pinned)

    per_method: dict[str, dict[int, dict[str, Any]]] = {m: {} for m in methods}
    with _seed_pool(job, len(seeds)) as pool:
        results = pool.imap(_pooled_seed, seeds) if pool else (_compare_seed(job, s) for s in seeds)
        for text, seed_rows, error in results:
            sys.stdout.write(text)
            if error is not None:
                raise error
            for row in seed_rows:
                per_method[row["method"]][row["seed"]] = row

    rows = [per_method[m][s] for m in methods for s in seeds]

    for method in methods:
        agg: dict[str, Any] = {"row_type": "aggregate", "method": method, "seed": ""}
        for metric in RUN_METRICS:
            vals = [per_method[method][s][metric] for s in seeds]
            agg[metric] = float(np.mean(vals))
        if method != reference:
            diffs = [
                per_method[method][s]["cvr_auc_entire"] - per_method[reference][s]["cvr_auc_entire"]
                for s in seeds
            ]
            agg["diff_cvr_auc_entire_vs_ref"] = float(np.mean(diffs))
            agg["wins_cvr_auc_entire_vs_ref"] = int(sum(1 for d in diffs if d > 0))
        else:
            agg["diff_cvr_auc_entire_vs_ref"] = 0.0
            agg["wins_cvr_auc_entire_vs_ref"] = ""
        rows.append(agg)

    columns = [
        "row_type",
        "method",
        "seed",
        *RUN_METRICS,
        "epochs",
        "best_epoch",
        "diff_cvr_auc_entire_vs_ref",
        "wins_cvr_auc_entire_vs_ref",
    ]
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row.get(col, "")
            cells.append(repr(v) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    table = out_dir / "comparison.csv"
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_manifest(out_dir, "compare", config_text, seeds[0], None, {"comparison": table.name})
    print(f"compared {len(methods)} methods x {len(seeds)} seeds; table at {table}")
    return rows


# -- argparse wiring -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choruscvr",
        description="Debiased conversion-rate experiments on synthetic funnel logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("simulate", "generate a synthetic exposure log"),
        ("train", "train one method and evaluate the test split"),
        ("evaluate", "score an existing checkpoint"),
        ("compare", "train methods x seeds and tabulate"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--out", required=True, help="output directory")
        if name in ("simulate", "train"):
            p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        if name == "train":
            p.add_argument("--method", default=None, help="override trainer.method")
        if name == "evaluate":
            p.add_argument("--checkpoint", default=None, help="override evaluate.checkpoint")
        if name == "compare":
            p.add_argument("--methods", default=None, help="comma-separated method tags")
            p.add_argument("--seeds", default=None, help="comma-separated integer seeds")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, text = load_config(args.config)
        out_dir = Path(args.out)
        if args.command == "simulate":
            run_simulate(cfg, text, out_dir, seed=args.seed)
        elif args.command == "train":
            run_train(cfg, text, out_dir, seed=args.seed, method=args.method)
        elif args.command == "evaluate":
            run_evaluate(cfg, text, out_dir, checkpoint=args.checkpoint)
        elif args.command == "compare":
            methods = args.methods.split(",") if args.methods else None
            seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else None
            run_compare(cfg, text, out_dir, methods=methods, seeds=seeds)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UndefinedMetricError, ObjectiveError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
