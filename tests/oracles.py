"""Reference estimators the acceptance and objective tests check against,
a log built from feature dicts for tests that write rows by hand, and a
per-value CSV writer that ``write_log``'s bytes are checked against."""

import csv
from pathlib import Path

import numpy as np

from choruscvr.data import TRUTH_COLUMNS, ExposureLog


def ipw_mean(values: np.ndarray, mask: np.ndarray, propensity: np.ndarray, floor: float = 0.01) -> float:
    """Inverse-propensity estimate of the population mean of ``values``
    from only the samples where ``mask`` is 1.

    It divides by the number of all samples. The training objective's
    click-space terms divide by the number of masked samples instead, so
    they estimate this mean divided by the mask rate.
    """
    w = np.asarray(mask, dtype=np.float64) / np.maximum(propensity, floor)
    return float(np.mean(w * values))


def log_of(rows, schema, click=None, conversion=None) -> ExposureLog:
    """A log of feature dicts, one per row: sample ids count from 0 and
    labels default to 0. A schema feature some row lacks is left out of
    the log, so building its matrix names that feature."""
    n = len(rows)

    def block(kind, dtype):
        names = tuple(f.name for f in schema.features if f.kind == kind and all(f.name in row for row in rows))
        return names, np.array([[row[k] for k in names] for row in rows], dtype=dtype).reshape(n, len(names))

    id_names, ids = block("categorical", np.int64)
    numeric_names, numeric = block("numeric", np.float64)
    zeros = np.zeros(n, dtype=np.int64)
    return ExposureLog(
        sample_id=np.arange(n, dtype=np.int64),
        click=zeros if click is None else np.asarray(click, dtype=np.int64),
        conversion=zeros if conversion is None else np.asarray(conversion, dtype=np.int64),
        id_names=id_names,
        ids=ids,
        numeric_names=numeric_names,
        numeric=numeric,
    )


def _format_value(x: float) -> str:
    f = float(x)
    if f.is_integer():
        return str(int(f))
    return repr(f)


def write_log_reference(log: ExposureLog, path, schema) -> None:
    """``write_log`` one value at a time: ``str`` of each integer,
    ``repr`` of each truth probability, an integer-valued numeric as an
    integer and any other numeric as its ``repr``."""
    with_truth = log.has_truth and len(log) > 0
    header = ["sample_id", "click", "conversion", *(f.name for f in schema.features)]
    columns = [map(str, log.sample_id.tolist()), map(str, log.click.tolist()), map(str, log.conversion.tolist())]
    for f in schema.features:
        values = log.column(f.name, f.kind).tolist()
        columns.append(map(str, values) if f.kind == "categorical" else map(_format_value, values))
    if with_truth:
        header += list(TRUTH_COLUMNS)
        columns += [
            map(repr, log.true_p_click.tolist()),
            map(repr, log.true_p_conv.tolist()),
            map(str, log.r_counterfactual.tolist()),
        ]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        if len(log):
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")
