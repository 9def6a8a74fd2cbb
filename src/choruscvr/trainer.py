"""Seeded training/evaluation orchestration for all method tags.

One run: shuffle exposure batches each epoch, take one optimizer step
per batch on the method's objective, monitor entire-space
click-and-convert AUC on the validation split, keep the best snapshot,
stop early after `patience` non-improving epochs. Everything is a pure
function of (config, seed, data).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import OptimizerConfig, OptimizerState, no_grad, optimizer_step
from .data import ExposureRecord, batch_iter, label_arrays, truth_arrays
from .features import FeatureMatrix, FeatureSchema, build_matrix
from .metrics import MetricEntry, MetricsReport, UndefinedMetricError, auc, bias_curve, logloss, pcoc
from .model import Architecture, ModelParams, init_model, predict_batch
from .objectives import METHODS, IpwConfig, LossWeights, training_step

__all__ = [
    "ExperimentConfig",
    "TrainingError",
    "EpochRecord",
    "TrainHistory",
    "split_indices",
    "train",
    "evaluate",
    "default_eval_pairs",
    "write_history",
]

EVAL_CHUNK = 32_768


class TrainingError(RuntimeError):
    """Aborted run: non-finite loss or inconsistent configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = "chorus"
    weights: LossWeights = field(default_factory=LossWeights)
    ipw: IpwConfig = field(default_factory=IpwConfig)
    arch: Architecture = field(default_factory=Architecture)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    batch_size: int = 1024
    epochs: int = 20
    patience: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class EpochRecord:
    epoch: int
    train_terms: dict[str, float]
    val_ctcvr_auc: float
    wall_clock_s: float  # kept in memory only; never serialized


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0  # 1-based; 0 means no epoch ran


def split_indices(n: int, seed: int, fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded permutation split into train/validation/test."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x5B17))))
    perm = rng.permutation(n)
    n_train = int(n * fractions[0])
    n_val = int(n * fractions[1])
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence((seed, epoch)).generate_state(1)[0])


def _scores(params: ModelParams, fm: FeatureMatrix) -> dict[str, np.ndarray]:
    """The training forward without a graph."""
    with no_grad():
        return predict_batch(params, fm).values()


def _predict_chunked(params: ModelParams, fm: FeatureMatrix) -> dict[str, np.ndarray]:
    if fm.n_rows <= EVAL_CHUNK:
        return _scores(params, fm)
    chunks = [
        _scores(params, fm.rows(np.arange(lo, min(lo + EVAL_CHUNK, fm.n_rows))))
        for lo in range(0, fm.n_rows, EVAL_CHUNK)
    ]
    return {k: np.concatenate([c[k] for c in chunks]) for k in chunks[0]}


def _diagnostics(term_values: dict[str, float], ctr_scores: np.ndarray) -> str:
    terms = ", ".join(f"{k}={v:.6g}" for k, v in sorted(term_values.items()))
    return f"terms: {terms}; propensity min={ctr_scores.min():.3e} max={ctr_scores.max():.3e}"


def train(
    config: ExperimentConfig,
    train_records: Sequence[ExposureRecord],
    val_records: Sequence[ExposureRecord],
    schema: FeatureSchema,
) -> tuple[ModelParams, TrainHistory]:
    """Run the configured method; returns the best-epoch parameters.

    Raises :class:`TrainingError` with term values and the propensity
    extremes of the offending batch when the loss stops being finite.
    """
    if not train_records:
        raise TrainingError("no training records")
    fm_train = build_matrix([rec.features for rec in train_records], schema)
    o_train, r_train = label_arrays(train_records)
    fm_val = build_matrix([rec.features for rec in val_records], schema) if val_records else None
    if fm_val is not None:
        o_val, r_val = label_arrays(val_records)

    params = init_model(schema, config.arch, config.seed)
    history = TrainHistory()
    if config.epochs == 0:
        return params, history

    opt_state = OptimizerState.for_params(params.parameters())
    best_params = params.copy()
    best_auc = -np.inf
    stale = 0
    for epoch in range(1, config.epochs + 1):
        t0 = time.monotonic()
        term_sums: dict[str, float] = {}
        n_seen = 0
        for step, idx in enumerate(batch_iter(fm_train.n_rows, config.batch_size, _epoch_seed(config.seed, epoch))):
            batch = fm_train.rows(idx)
            bundle, grads = training_step(
                params, batch, o_train[idx], r_train[idx], config.method, config.weights, config.ipw
            )
            values = bundle.term_values()
            if not np.isfinite(values["total"]):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} step {step}: "
                    + _diagnostics(values, _scores(params, batch)["ctr"])
                )
            optimizer_step(params.parameters(), grads, opt_state, config.optimizer)
            for k, v in values.items():
                term_sums[k] = term_sums.get(k, 0.0) + v * len(idx)
            n_seen += len(idx)
        term_means = {k: v / n_seen for k, v in term_sums.items()}

        if fm_val is not None and fm_val.n_rows > 0:
            val_out = _predict_chunked(params, fm_val)
            val_auc = auc(val_out["ctcvr"], (o_val * r_val).astype(np.int64))
        else:
            val_auc = float("nan")
        history.epochs.append(
            EpochRecord(epoch=epoch, train_terms=term_means, val_ctcvr_auc=val_auc, wall_clock_s=time.monotonic() - t0)
        )
        improved = np.isfinite(val_auc) and val_auc > best_auc
        if improved or fm_val is None or fm_val.n_rows == 0:
            best_auc = val_auc if np.isfinite(val_auc) else best_auc
            best_params = params.copy()
            history.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return best_params, history


# -- evaluation ---------------------------------------------------------------

OBSERVED_PAIRS = (
    ("exposure", "ctr"),
    ("exposure", "ctcvr"),
    ("exposure", "ctuncvr"),
    ("click", "cvr"),
)
COUNTERFACTUAL_PAIRS = (
    ("exposure", "cvr_counterfactual"),
    ("unclick", "cvr_counterfactual"),
)


def default_eval_pairs(records: Sequence[ExposureRecord]) -> tuple[tuple[str, str], ...]:
    """Every applicable (space, target) pair for this dataset."""
    if truth_arrays(records) is not None:
        return OBSERVED_PAIRS + COUNTERFACTUAL_PAIRS
    return OBSERVED_PAIRS


def _space_mask(space: str, o: np.ndarray) -> np.ndarray:
    if space == "exposure":
        return np.ones_like(o, dtype=bool)
    if space == "click":
        return o == 1
    if space == "unclick":
        return o == 0
    raise ValueError(f"unknown space {space!r}")


def _entry(scores: np.ndarray, labels: np.ndarray, pcoc_actual: np.ndarray) -> MetricEntry:
    return MetricEntry(
        auc=auc(scores, labels.astype(np.int64)),
        logloss=logloss(scores, labels),
        pcoc=pcoc(scores, pcoc_actual),
        count=int(scores.size),
    )


def evaluate(
    params: ModelParams,
    records: Sequence[ExposureRecord],
    pairs: Sequence[tuple[str, str]] | None = None,
    n_bins: int = 10,
) -> MetricsReport:
    """Score the records and compute metrics for the requested pairs.

    Observed targets: ``ctr``, ``ctcvr``, ``ctuncvr`` (exposure space)
    and ``cvr`` (click space). ``cvr_counterfactual`` compares the
    conversion head against the counterfactual outcome (AUC, logloss)
    and against the true conversion propensity (calibration ratio);
    available only on simulator data. The bias curve bins all records
    by predicted click propensity; without ground truth it falls back
    to observed conversions among clicked records and is flagged a
    biased proxy.
    """
    if not records:
        raise UndefinedMetricError("cannot evaluate an empty record set")
    if pairs is None:
        pairs = default_eval_pairs(records)
    fm = build_matrix([rec.features for rec in records], params.schema)
    o, r = label_arrays(records)
    truth = truth_arrays(records)
    out = _predict_chunked(params, fm)

    report = MetricsReport()
    for space, target in pairs:
        mask = _space_mask(space, o)
        if not mask.any():
            raise UndefinedMetricError(f"requested space {space!r} is empty")
        if target == "ctr":
            scores, labels, actual = out["ctr"][mask], o[mask], o[mask]
        elif target == "ctcvr":
            scores, labels, actual = out["ctcvr"][mask], (o * r)[mask], (o * r)[mask]
        elif target == "ctuncvr":
            scores, labels, actual = out["ctuncvr"][mask], (o * (1 - r))[mask], (o * (1 - r))[mask]
        elif target == "cvr":
            scores, labels, actual = out["cvr"][mask], r[mask], r[mask]
        elif target == "cvr_counterfactual":
            if truth is None:
                raise UndefinedMetricError("cvr_counterfactual needs ground-truth columns")
            _, p_conv, r_cf = truth
            scores, labels, actual = out["cvr"][mask], r_cf[mask], p_conv[mask]
        else:
            raise ValueError(f"unknown target {target!r}")
        report.entries[(space, target)] = _entry(scores, labels, actual)

    if truth is not None:
        _, p_conv, r_cf = truth
        report.curve = bias_curve(out["ctr"], out["cvr"], r_cf, n_bins=n_bins)
        report.curve_actual_is_proxy = False
    elif (o == 1).sum() >= n_bins:
        clicked = o == 1
        report.curve = bias_curve(out["ctr"][clicked], out["cvr"][clicked], r[clicked], n_bins=n_bins)
        report.curve_actual_is_proxy = True
    return report


def write_history(history: TrainHistory, path: str | Path) -> None:
    """Per-epoch CSV; deterministic, so wall-clock stays out of it."""
    term_names = sorted({k for rec in history.epochs for k in rec.train_terms})
    header = ["epoch", *term_names, "val_ctcvr_auc", "is_best"]
    lines = [",".join(header)]
    for rec in history.epochs:
        row = [str(rec.epoch)]
        row += [repr(rec.train_terms.get(k, 0.0)) for k in term_names]
        row.append(repr(rec.val_ctcvr_auc))
        row.append(str(int(rec.epoch == history.best_epoch)))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
