"""Offline evaluation: AUC, logloss, calibration ratio, bias curves.

Pure functions over numpy arrays plus a small report container. The
bias curve sorts samples by predicted click propensity into
equal-count bins and compares mean predicted conversion probability
against mean actual outcome per bin; on simulator data the actuals can
be counterfactual, on real logs only clicked samples have conversion
labels and the curve must be flagged as a biased proxy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "UndefinedMetricError",
    "auc",
    "logloss",
    "pcoc",
    "BiasBin",
    "bias_curve",
    "MetricEntry",
    "MetricsReport",
    "write_report",
]

SCORE_CLAMP = 1e-7


class UndefinedMetricError(ValueError):
    """The metric does not exist for this input (single class, empty)."""


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability that a random positive outranks a random negative,
    ties counting one half. Average-rank estimator, O(n log n)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(f"scores shape {scores.shape} != labels shape {labels.shape}")
    pos = labels == 1
    n_pos = int(np.count_nonzero(pos))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(f"AUC needs both classes, got {n_pos} positives / {n_neg} negatives")
    if np.isnan(scores).any():
        return float("nan")
    # Average ranks: each run of equal sorted scores [start, end) shares
    # rank (start + end + 1) / 2. Half-integer sums are exact below 2**53.
    order = np.argsort(scores, axis=None, kind="stable")
    ranked, pos = scores.ravel()[order], pos.ravel()[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    ends = np.r_[starts[1:], scores.size]
    ranks = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def logloss(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy with scores clamped off {0, 1}."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.size == 0:
        raise UndefinedMetricError("logloss of an empty sample is undefined")
    p = np.clip(scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))


def pcoc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Predicted-over-actual ratio: mean(scores) / mean(labels).

    1.0 is perfectly calibrated; above 1 overestimates.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if labels.size == 0 or labels.mean() <= 0.0:
        raise UndefinedMetricError("PCOC needs a positive actual mean")
    return float(scores.mean() / labels.mean())


@dataclass(frozen=True)
class BiasBin:
    bin_lo: float
    bin_hi: float
    mean_pred: float
    mean_actual: float
    count: int


def bias_curve(
    pctr: np.ndarray,
    pcvr: np.ndarray,
    actual: np.ndarray,
    n_bins: int = 10,
) -> list[BiasBin]:
    """Equal-count bins by predicted click propensity, low to high.

    Bin sizes differ by at most one. ``actual`` is the conversion
    outcome the predictions are compared against.
    """
    pctr = np.asarray(pctr, dtype=np.float64)
    pcvr = np.asarray(pcvr, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if not (pctr.shape == pcvr.shape == actual.shape):
        raise ValueError("pctr, pcvr and actual must be aligned")
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    if pctr.size < n_bins:
        raise ValueError(f"{pctr.size} samples cannot fill {n_bins} bins")
    order = np.argsort(pctr, kind="stable")
    bins = []
    for idx in np.array_split(order, n_bins):
        bins.append(
            BiasBin(
                bin_lo=float(pctr[idx].min()),
                bin_hi=float(pctr[idx].max()),
                mean_pred=float(pcvr[idx].mean()),
                mean_actual=float(actual[idx].mean()),
                count=int(idx.size),
            )
        )
    return bins


@dataclass(frozen=True)
class MetricEntry:
    auc: float
    logloss: float
    pcoc: float
    count: int


@dataclass
class MetricsReport:
    """Metrics keyed by (space, target) plus one bias curve.

    ``curve_actual_is_proxy`` marks curves whose actuals are observed
    conversions restricted to clicked samples rather than
    counterfactual outcomes.
    """

    entries: dict[tuple[str, str], MetricEntry] = field(default_factory=dict)
    curve: list[BiasBin] = field(default_factory=list)
    curve_actual_is_proxy: bool = False


def write_report(report: MetricsReport, txt_path: str | Path, curve_path: str | Path | None = None) -> None:
    """Flat key=value text file, plus the curve CSV when requested."""
    lines = []
    for (space, target), e in sorted(report.entries.items()):
        prefix = f"{space}.{target}"
        lines.append(f"{prefix}.auc={e.auc!r}")
        lines.append(f"{prefix}.logloss={e.logloss!r}")
        lines.append(f"{prefix}.pcoc={e.pcoc!r}")
        lines.append(f"{prefix}.count={e.count}")
    if report.curve:
        lines.append(f"curve.actual_is_proxy={int(report.curve_actual_is_proxy)}")
    Path(txt_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if curve_path is not None:
        rows = ["bin_lo,bin_hi,mean_pred,mean_actual,count"]
        for b in report.curve:
            rows.append(f"{b.bin_lo!r},{b.bin_hi!r},{b.mean_pred!r},{b.mean_actual!r},{b.count}")
        Path(curve_path).write_text("\n".join(rows) + "\n", encoding="utf-8")
