"""Reference estimators the acceptance and objective tests check against,
a log built from feature dicts for tests that write rows by hand, a
per-value CSV writer that ``write_log``'s bytes are checked against, and
the plain bisection that the simulator's intercept calibration must
reproduce bit for bit."""

import csv
from pathlib import Path

import numpy as np

from choruscvr import simulator
from choruscvr.autodiff import stable_sigmoid
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


def bisect_intercept(score_fn, target: float, label: str) -> float:
    """Bisect the intercept in [-30, 30] so the Monte-Carlo rate
    ``score_fn(b)`` hits the target: ``CALIBRATION_MAX_ITERS`` halvings,
    then one more rate at the final midpoint, checked against the
    tolerance."""
    lo, hi = -30.0, 30.0
    for _ in range(simulator.CALIBRATION_MAX_ITERS):
        mid = 0.5 * (lo + hi)
        if score_fn(mid) < target:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    achieved = score_fn(mid)
    if abs(achieved - target) > simulator.RATE_REL_TOL * target:
        raise simulator.SimulationError(
            f"{label} calibration failed after {simulator.CALIBRATION_MAX_ITERS} iterations: "
            f"achieved {achieved:.6f}, target {target:.6f}"
        )
    return mid


def bisected_intercepts(config: simulator.SimConfig) -> tuple[float, float]:
    """The click and conversion intercepts of ``config`` by
    :func:`bisect_intercept`, on the same calibration draws and rates
    as ``simulator.generate``."""
    root = np.random.SeedSequence(config.seed)
    dir_seq, cal_seq = root.spawn(2)
    u_click, u_conv = simulator._directions(config, np.random.Generator(np.random.PCG64(dir_seq)))
    cal_rng = np.random.Generator(np.random.PCG64(cal_seq))
    z_cal = cal_rng.standard_normal((simulator.CALIBRATION_DRAWS, config.latent_dim))
    click_score = simulator.SCORE_GAIN_CLICK * (z_cal @ u_click)
    conv_score = simulator.SCORE_GAIN_CONV * (z_cal @ u_conv)
    scratch = np.empty_like(click_score)  # no fresh temporary per rate

    def click_rate(b):
        return float(stable_sigmoid(np.add(click_score, b, out=scratch), out=scratch).mean())

    b0 = bisect_intercept(click_rate, config.target_click_rate, "click rate")
    p_click = stable_sigmoid(click_score + b0)

    def conv_given_click(c):
        p_conv = stable_sigmoid(np.add(conv_score, c, out=scratch), out=scratch)
        return float(np.multiply(p_click, p_conv, out=p_conv).mean() / p_click.mean())

    c0 = bisect_intercept(conv_given_click, config.target_conv_rate_given_click, "conversion rate")
    return b0, c0
