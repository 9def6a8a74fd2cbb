"""Exposure-log ingestion, funnel validation, batching.

One on-disk format: UTF-8 CSV with header
``sample_id,click,conversion,<feature columns...>`` optionally followed
by ``true_p_click,true_p_conv,r_counterfactual`` (simulator output).
Labels are strictly 0/1, categorical ids are integers, and a conversion
without a click violates the funnel; such rows are dropped and counted,
never kept.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .features import FeatureSchema

__all__ = [
    "GroundTruth",
    "ExposureRecord",
    "IngestionReport",
    "LogFormatError",
    "read_log",
    "write_log",
    "batch_iter",
    "label_arrays",
    "truth_arrays",
]

TRUTH_COLUMNS = ("true_p_click", "true_p_conv", "r_counterfactual")


class LogFormatError(ValueError):
    """The file cannot be interpreted as an exposure log at all."""


@dataclass(frozen=True)
class GroundTruth:
    """Simulator-only block: true propensities and the counterfactual
    conversion outcome that would be observed had the click happened."""

    true_p_click: float
    true_p_conv: float
    r_counterfactual: int


@dataclass(frozen=True)
class ExposureRecord:
    sample_id: int
    click: int
    conversion: int
    features: Mapping[str, float]
    truth: GroundTruth | None = None


@dataclass
class IngestionReport:
    n_lines: int = 0
    n_records: int = 0
    skipped: list[tuple[int, str]] = field(default_factory=list)
    funnel_violations: int = 0


def _parse_label(raw: str, column: str) -> int:
    if raw == "0":
        return 0
    if raw == "1":
        return 1
    raise ValueError(f"{column} must be 0 or 1, got {raw!r}")


def read_log(path: str | Path, schema: FeatureSchema) -> tuple[list[ExposureRecord], IngestionReport]:
    """Parse a CSV exposure log against the schema.

    Malformed rows, including a categorical id that is not an integer
    (``nan``, ``2.7``), are skipped and itemized (line number, reason);
    funnel violations are dropped and counted. A header missing the
    label columns or any schema feature is fatal.
    """
    path = Path(path)
    feature_names = [f.name for f in schema.features]
    id_names = [f.name for f in schema.features if f.kind == "categorical"]
    report = IngestionReport()
    records: list[ExposureRecord] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LogFormatError(f"{path}: empty file") from None
        for required in ("sample_id", "click", "conversion"):
            if required not in header:
                raise LogFormatError(f"{path}: missing required column {required!r}")
        for name in feature_names:
            if name not in header:
                raise LogFormatError(f"{path}: missing feature column {name!r}")
        known = {"sample_id", "click", "conversion", *feature_names, *TRUTH_COLUMNS}
        unknown = [c for c in header if c not in known]
        if unknown:
            raise LogFormatError(f"{path}: unknown columns {unknown}")
        has_truth = all(c in header for c in TRUTH_COLUMNS)
        col = {name: header.index(name) for name in header}
        for line_no, row in enumerate(reader, start=2):
            report.n_lines += 1
            if len(row) != len(header):
                report.skipped.append((line_no, f"expected {len(header)} fields, got {len(row)}"))
                continue
            try:
                sample_id = int(row[col["sample_id"]])
                click = _parse_label(row[col["click"]], "click")
                conversion = _parse_label(row[col["conversion"]], "conversion")
                feats = {name: float(row[col[name]]) for name in feature_names}
                for name in id_names:
                    if not feats[name].is_integer():
                        raise ValueError(f"{name} must be an integer id, got {row[col[name]]!r}")
                truth = None
                if has_truth:
                    truth = GroundTruth(
                        true_p_click=float(row[col["true_p_click"]]),
                        true_p_conv=float(row[col["true_p_conv"]]),
                        r_counterfactual=_parse_label(row[col["r_counterfactual"]], "r_counterfactual"),
                    )
            except ValueError as exc:
                report.skipped.append((line_no, str(exc)))
                continue
            if conversion == 1 and click == 0:
                report.funnel_violations += 1
                continue
            records.append(ExposureRecord(sample_id, click, conversion, feats, truth))
            report.n_records += 1
    return records, report


def _format_value(x: float) -> str:
    f = float(x)
    if f.is_integer():
        return str(int(f))
    return repr(f)


def write_log(records: Sequence[ExposureRecord], path: str | Path, schema: FeatureSchema) -> None:
    """Write records in the canonical column order, byte-stable.

    Truth columns are included exactly when every record carries a
    truth block; a mixture is rejected.
    """
    path = Path(path)
    feature_names = [f.name for f in schema.features]
    n_truth = sum(1 for r in records if r.truth is not None)
    if n_truth not in (0, len(records)):
        raise LogFormatError("cannot write a log where only some records carry ground truth")
    with_truth = n_truth > 0 and len(records) > 0
    header = ["sample_id", "click", "conversion", *feature_names]
    if with_truth:
        header += list(TRUTH_COLUMNS)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rec in records:
            row = [str(rec.sample_id), str(rec.click), str(rec.conversion)]
            row += [_format_value(rec.features[name]) for name in feature_names]
            if with_truth:
                t = rec.truth
                row += [repr(float(t.true_p_click)), repr(float(t.true_p_conv)), str(t.r_counterfactual)]
            writer.writerow(row)


def label_arrays(records: Sequence[ExposureRecord]) -> tuple[np.ndarray, np.ndarray]:
    o = np.fromiter((rec.click for rec in records), dtype=np.float64, count=len(records))
    r = np.fromiter((rec.conversion for rec in records), dtype=np.float64, count=len(records))
    return o, r


def truth_arrays(records: Sequence[ExposureRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(true_p_click, true_p_conv, r_counterfactual) or None if absent."""
    if not records or any(rec.truth is None for rec in records):
        return None
    p_click = np.array([rec.truth.true_p_click for rec in records])
    p_conv = np.array([rec.truth.true_p_conv for rec in records])
    r_cf = np.array([float(rec.truth.r_counterfactual) for rec in records])
    return p_click, p_conv, r_cf


def batch_iter(n_records: int, batch_size: int, epoch_seed: int) -> Iterator[np.ndarray]:
    """Seeded permutation of row indices, sliced into batches.

    The final short batch is kept; every index appears exactly once per
    epoch.
    """
    if n_records < 1:
        raise ValueError("cannot batch an empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.Generator(np.random.PCG64(epoch_seed))
    perm = rng.permutation(n_records)
    for start in range(0, n_records, batch_size):
        yield perm[start : start + batch_size]
