"""Seeded training/evaluation orchestration for all method tags, and
the optimizer.

One run: shuffle exposure batches each epoch, take one optimizer step
(:func:`optimizer_step`) per batch on the method's objective, monitor
entire-space click-and-convert AUC on the validation split, keep the
best snapshot, stop early after `patience` non-improving epochs.
Everything is a pure function of (config, seed, data).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import ExposureLog, Row, as_log, batch_iter, label_arrays, truth_arrays
from .features import FeatureMatrix, FeatureSchema, build_matrix
from .metrics import MetricEntry, MetricsReport, UndefinedMetricError, auc, bias_curve, logloss, pcoc
from .model import Architecture, ModelParams, Tensor, init_model, predict_batch
from .objectives import METHODS, IpwConfig, LossWeights, training_step

__all__ = [
    "OptimizerConfig",
    "OptimizerState",
    "OptimizerError",
    "optimizer_step",
    "ExperimentConfig",
    "TrainingError",
    "EpochRecord",
    "TrainHistory",
    "split_indices",
    "train",
    "evaluate",
    "default_eval_pairs",
    "write_history",
    "write_timing",
]

EVAL_CHUNK = 2048  # a power of two: chunked scores keep the bits of one pass
# Train, validation and test shares of a log.
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)
# Adam's moment decay rates and denominator offset.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class OptimizerError(RuntimeError):
    """Raised on non-finite gradients or malformed optimizer inputs."""


class TrainingError(RuntimeError):
    """Aborted run: non-finite loss or inconsistent configuration."""


# -- optimizer ---------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Adaptive-moment update by default; plain SGD selectable."""

    method: str = "adam"
    learning_rate: float = 1e-3

    def __post_init__(self) -> None:
        if self.method not in ("adam", "sgd"):
            raise OptimizerError(f"unknown optimizer method {self.method!r}")
        if self.learning_rate <= 0:
            raise OptimizerError("learning_rate must be positive")


@dataclass
class OptimizerState:
    """The step counter and both moment accumulators, each one flat
    vector over all parameters in order; ``shapes`` holds the parameter
    shapes that order lays out."""

    step_count: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    shapes: tuple[tuple[int, ...], ...] = ()

    @classmethod
    def for_params(cls, params: Sequence[Tensor]) -> "OptimizerState":
        total = sum(p.value.size for p in params)
        return cls(m=np.zeros(total), v=np.zeros(total), shapes=tuple(p.value.shape for p in params))


def _first_non_finite(params: Sequence[Tensor], *flats: np.ndarray) -> str:
    """Label of the first parameter whose slice of any ``flats`` is not finite."""
    end = 0
    for i, p in enumerate(params):
        start, end = end, end + p.value.size
        if not all(np.isfinite(f[start:end]).all() for f in flats):
            return p.name or f"param[{i}]"
    raise ValueError("every value is finite")


def optimizer_step(
    params: Sequence[Tensor],
    grads: Sequence[np.ndarray],
    state: OptimizerState,
    config: OptimizerConfig,
) -> OptimizerState:
    """Apply one update in place; increments and returns the state.

    Gradients must be finite and aligned with ``params`` (same order the
    state was created with). The update runs once on the flat vector of
    all gradients; every operation is elementwise, so each parameter
    gets the same bits a per-parameter loop would give it.
    """
    shapes = tuple(p.value.shape for p in params)
    if shapes != state.shapes or tuple(np.shape(g) for g in grads) != shapes:
        raise OptimizerError("params, grads and state are not aligned")
    step = state.step_count + 1
    g = np.concatenate(grads, axis=None) if grads else np.zeros(0)
    if not np.isfinite(g).all():
        raise OptimizerError(f"non-finite gradient for {_first_non_finite(params, g)} at step {step}")
    if config.method == "sgd":
        update = config.learning_rate * g
    else:
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1**step
        bias2 = 1.0 - b2**step
        with np.errstate(over="ignore"):  # an overflow is reported by the moment check below
            state.m *= b1
            state.m += (1.0 - b1) * g
            state.v *= b2
            state.v += (1.0 - b2) * g * g
        m_hat = state.m / bias1
        v_hat = state.v / bias2
        update = config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    offset = 0
    for p in params:
        p.value -= update[offset : offset + p.value.size].reshape(p.value.shape)
        offset += p.value.size
    state.step_count = step
    if not (np.isfinite(state.m).all() and np.isfinite(state.v).all()):
        raise OptimizerError(f"non-finite moment for {_first_non_finite(params, state.m, state.v)} at step {step}")
    return state


# -- training -----------------------------------------------------------------


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
    # Wall clock of the optimizer steps and of the validation pass; only
    # ``write_timing`` serializes them.
    steps_s: float
    val_s: float


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0  # 1-based; 0 means no epoch ran
    build_s: float = 0.0  # wall clock of the training feature matrix and the labels


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded permutation split into train/validation/test, in
    ``SPLIT_FRACTIONS``."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x5B17))))
    perm = rng.permutation(n)
    n_train = int(n * SPLIT_FRACTIONS[0])
    n_val = int(n * SPLIT_FRACTIONS[1])
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence((seed, epoch)).generate_state(1)[0])


def predict_values(params: ModelParams, fm: FeatureMatrix) -> dict[str, np.ndarray]:
    """Every score of ``fm`` (:meth:`~choruscvr.model.TowerOutputs.values`);
    what only the backward reads of the forward is dropped."""
    return predict_batch(params, fm).values()


def _score_log(params: ModelParams, log: ExposureLog) -> dict[str, np.ndarray]:
    """Every head's scores of the log's rows, ``EVAL_CHUNK`` rows at a
    time: only one chunk's feature matrix and forward pass exist at once."""
    out: dict[str, np.ndarray] = {}
    for lo in range(0, len(log), EVAL_CHUNK):
        chunk = predict_values(params, build_matrix(log[lo : lo + EVAL_CHUNK], params.schema))
        if not out:
            out = {k: np.empty(len(log), dtype=v.dtype) for k, v in chunk.items()}
        for k, v in chunk.items():
            out[k][lo : lo + len(v)] = v
    return out


def _diagnostics(term_values: dict[str, float], ctr_scores: np.ndarray) -> str:
    terms = ", ".join(f"{k}={v:.6g}" for k, v in sorted(term_values.items()))
    return f"terms: {terms}; propensity min={ctr_scores.min():.3e} max={ctr_scores.max():.3e}"


def train(
    config: ExperimentConfig,
    train_records: ExposureLog | Sequence[Row],
    val_records: ExposureLog | Sequence[Row],
    schema: FeatureSchema,
) -> tuple[ModelParams, TrainHistory]:
    """Run the configured method; returns the best-epoch parameters.

    Validation monitors the click-and-convert AUC. A validation split
    that is empty or whose labels hold one class cannot define it: then
    every epoch records ``nan``, counts as the best so far, and patience
    never stops the run.

    Raises :class:`TrainingError` with term values and the propensity
    extremes of the offending batch when the loss stops being finite.
    """
    t0 = time.perf_counter()
    if not len(train_records):
        raise TrainingError("no training records")
    train_log = as_log(train_records)
    fm_train = build_matrix(train_log, schema)
    o_train, r_train = label_arrays(train_log)
    val_log = as_log(val_records) if len(val_records) else None
    if val_log is not None:
        o_val, r_val = label_arrays(val_log)
        y_val = (o_val * r_val).astype(np.int64)
        if not 0 < y_val.sum() < len(y_val):
            val_log = None  # one class: no AUC to monitor

    params = init_model(schema, config.arch, config.seed)
    history = TrainHistory(build_s=time.perf_counter() - t0)
    if config.epochs == 0:
        return params, history

    param_list = params.parameters()
    opt_state = OptimizerState.for_params(param_list)
    best_params = params.copy()
    best_auc = -np.inf
    stale = 0
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        term_sums: dict[str, float] = {}
        n_seen = 0
        for step, idx in enumerate(batch_iter(fm_train.n_rows, config.batch_size, _epoch_seed(config.seed, epoch))):
            batch = fm_train.rows(idx)
            bundle, grads = training_step(
                params, batch, o_train[idx], r_train[idx], config.method, config.weights, config.ipw, param_list
            )
            values = bundle.term_values()
            if not np.isfinite(values["total"]):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} step {step}: "
                    + _diagnostics(values, predict_values(params, batch)["ctr"])
                )
            optimizer_step(param_list, grads, opt_state, config.optimizer)
            for k, v in values.items():
                term_sums[k] = term_sums.get(k, 0.0) + v * len(idx)
            n_seen += len(idx)
        term_means = {k: v / n_seen for k, v in term_sums.items()}
        t1 = time.perf_counter()

        val_auc = float("nan") if val_log is None else auc(_score_log(params, val_log)["ctcvr"], y_val)
        history.epochs.append(
            EpochRecord(epoch, term_means, val_auc, steps_s=t1 - t0, val_s=time.perf_counter() - t1)
        )
        if val_log is None or val_auc > best_auc:
            best_auc = val_auc
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


def default_eval_pairs(log: ExposureLog) -> tuple[tuple[str, str], ...]:
    """Every applicable (space, target) pair for this log."""
    if truth_arrays(log) is not None:
        return OBSERVED_PAIRS + COUNTERFACTUAL_PAIRS
    return OBSERVED_PAIRS


def _entry(scores: np.ndarray, labels: np.ndarray, pcoc_actual: np.ndarray) -> MetricEntry:
    return MetricEntry(
        auc=auc(scores, labels),
        logloss=logloss(scores, labels),
        pcoc=pcoc(scores, pcoc_actual),
        count=int(scores.size),
    )


def evaluate(
    params: ModelParams,
    records: ExposureLog | Sequence[Row],
    n_bins: int = 10,
) -> MetricsReport:
    """Score the records and compute metrics for every applicable pair.

    Observed targets: ``ctr``, ``ctcvr``, ``ctuncvr`` (exposure space)
    and ``cvr`` (click space). ``cvr_counterfactual`` compares the
    conversion head against the counterfactual outcome (AUC, logloss)
    and against the true conversion propensity (calibration ratio) on
    the exposure and un-click spaces; available only on simulator data.
    The bias curve bins all records by predicted click propensity;
    without ground truth it falls back to observed conversions among
    clicked records and is flagged a biased proxy.
    """
    if not len(records):
        raise UndefinedMetricError("cannot evaluate an empty record set")
    log = as_log(records)
    o, r = label_arrays(log)
    truth = truth_arrays(log)
    out = _score_log(params, log)

    clicked = o == 1
    # The exposure space is every row: a slice, so its pairs copy nothing.
    spaces = {"exposure": slice(None), "click": clicked, "unclick": o == 0}
    ctcvr, ctuncvr = o * r, o * (1 - r)
    # target -> (scores, labels, what the calibration ratio compares against)
    targets = {
        "ctr": (out["ctr"], o, o),
        "ctcvr": (out["ctcvr"], ctcvr, ctcvr),
        "ctuncvr": (out["ctuncvr"], ctuncvr, ctuncvr),
        "cvr": (out["cvr"], r, r),
    }
    if truth is not None:
        _, p_conv, r_cf = truth
        targets["cvr_counterfactual"] = (out["cvr"], r_cf, p_conv)
    report = MetricsReport()
    for space, target in default_eval_pairs(log):
        rows = spaces[space]
        if space != "exposure" and not rows.any():
            raise UndefinedMetricError(f"space {space!r} is empty")
        scores, labels, actual = targets[target]
        report.entries[(space, target)] = _entry(scores[rows], labels[rows], actual[rows])

    if truth is not None:
        report.curve = bias_curve(out["ctr"], out["cvr"], r_cf, n_bins=n_bins)
        report.curve_actual_is_proxy = False
    elif clicked.sum() >= n_bins:
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


def write_timing(history: TrainHistory, path: str | Path, load_s: float, eval_s: float) -> None:
    """Wall clock per phase as ``phase,epoch,wall_s`` rows: reading the
    log, building the matrices, each epoch's steps and validation, and
    the test evaluation. Never byte-stable, so kept out of the history."""
    rows = [("load", "", load_s), ("build", "", history.build_s)]
    for rec in history.epochs:
        rows += [("steps", rec.epoch, rec.steps_s), ("validate", rec.epoch, rec.val_s)]
    rows.append(("eval", "", eval_s))
    lines = ["phase,epoch,wall_s"] + [f"{phase},{epoch},{seconds!r}" for phase, epoch, seconds in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
