"""Synthetic exposure→click→conversion logs with known ground truth.

Each exposure draws a latent vector z; click and conversion
propensities are sigmoids of two linear scores whose directions share a
configurable fraction of alignment, which is exactly the
sample-selection bias under study: clicked exposures are tilted toward
high conversion propensity. The counterfactual conversion outcome is
drawn for every exposure, clicked or not, so entire-space metrics have
real labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .autodiff import stable_sigmoid
from .data import ExposureLog
from .features import FeatureSchema, build_schema

__all__ = [
    "SimConfig",
    "SimulationError",
    "GenerationReport",
    "generate",
    "space_stats",
    "sim_schema",
]

# Slope of each linear score; steeper separates propensities more.
SCORE_GAIN_CLICK = 2.0
SCORE_GAIN_CONV = 2.0
# Generation is chunked so shards could run in parallel; chunking is
# part of the stream layout, so it must stay fixed for determinism. Each
# shard fills its rows of preallocated columns.
SHARD_SIZE = 50_000
CALIBRATION_DRAWS = 50_000
CALIBRATION_MAX_ITERS = 60
RATE_REL_TOL = 0.10


class SimulationError(RuntimeError):
    """Calibration failed or the config cannot produce a valid dataset."""


@dataclass(frozen=True)
class SimConfig:
    n_exposures: int = 200_000
    latent_dim: int = 8
    target_click_rate: float = 0.10
    target_conv_rate_given_click: float = 0.20
    correlation: float = 0.8
    feature_bins: int = 16
    noise_scale: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_exposures < 1:
            raise ValueError("n_exposures must be >= 1")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        for name in ("target_click_rate", "target_conv_rate_given_click"):
            rate = getattr(self, name)
            if not 0.0 < rate < 1.0:
                raise ValueError(f"{name} must be strictly inside (0, 1), got {rate}")
        if not 0.0 <= self.correlation <= 1.0:
            raise ValueError(f"correlation must be in [0, 1], got {self.correlation}")
        if self.feature_bins < 2:
            raise ValueError("feature_bins must be >= 2")
        if self.noise_scale < 0.0:
            raise ValueError("noise_scale must be non-negative")


@dataclass(frozen=True)
class GenerationReport:
    n_exposures: int
    click_rate: float
    conv_rate_given_click: float
    click_intercept: float
    conv_intercept: float
    mean_p_conv_clicked: float
    mean_p_conv_unclicked: float


@dataclass(frozen=True)
class SpaceStats:
    n_exposure: int
    n_click: int
    n_unclick: int
    n_conv: int
    n_unconv: int
    click_rate: float
    conv_rate_given_click: float


def sim_schema(config: SimConfig, embed_width: int = 8) -> FeatureSchema:
    """Schema matching the simulator's feature columns."""
    return build_schema(
        [
            {
                "name": f"f{d}",
                "kind": "categorical",
                "side": "cross",
                "vocab_size": config.feature_bins,
                "embed_width": embed_width,
            }
            for d in range(config.latent_dim)
        ]
    )


def _directions(config: SimConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Unit click direction and a conversion direction sharing
    ``correlation`` of it."""
    u_click = rng.standard_normal(config.latent_dim)
    u_click /= np.linalg.norm(u_click)
    rho = config.correlation
    if rho == 1.0:
        return u_click, u_click.copy()
    if config.latent_dim < 2:
        raise SimulationError("correlation < 1 needs latent_dim >= 2 for an orthogonal component")
    raw = rng.standard_normal(config.latent_dim)
    raw -= raw @ u_click * u_click
    norm = np.linalg.norm(raw)
    if norm < 1e-12:
        raise SimulationError("degenerate orthogonal draw, re-seed the simulator")
    u_perp = raw / norm
    u_conv = rho * u_click + np.sqrt(1.0 - rho * rho) * u_perp
    return u_click, u_conv


def _calibrate_intercept(rate_fn, score: np.ndarray, target: float, label: str) -> float:
    """The intercept at which the Monte-Carlo rate hits the target: the
    bits that ``CALIBRATION_MAX_ITERS`` halvings of [-30, 30] return, from
    far fewer rate passes. ``rate_fn(b)`` is the rate at intercept ``b``
    and its slope there; ``score`` is the linear score ``b`` shifts.

    The computed rate, a float mean of sigmoids, is taken as monotone in
    ``b``. Newton steps from ``logit(target) - mean(score)``,
    then single-ulp steps, close a bracket of adjacent evaluated
    intercepts ``rate(lo) < target <= rate(hi)``; a slope that is not
    positive and finite, or a step out of the bracket, takes its
    midpoint. The bisection is then replayed on memoised rates: only a
    midpoint strictly inside ``(lo, hi)`` is evaluated, and the bracket
    decides every other.
    """
    memo: dict[float, tuple[float, float]] = {}
    lo, hi = -math.inf, math.inf

    def rate(b: float) -> tuple[float, float]:
        nonlocal lo, hi
        if b not in memo:  # a new b lies inside (lo, hi), or is the last midpoint
            memo[b] = rate_fn(b)
            lo, hi = (b, hi) if memo[b][0] < target else (lo, b)
        return memo[b]

    # Newton aims half an ulp below the target, where the rounded rate
    # reaches it, so it lands by the crossing even where the rate stays
    # flat across many ulps of the intercept.
    half_ulp = 0.5 * float(np.spacing(target))
    b = math.log(target / (1.0 - target)) - float(score.mean())
    while np.nextafter(left := max(lo, -30.0), right := min(hi, 30.0)) < right:
        if not left < b < right:
            b = 0.5 * (left + right)
        r, slope = rate(b)
        step = b - (r - target + half_ulp) / slope if 0.0 < slope < math.inf else math.nan
        b = np.nextafter(b, math.inf if r < target else -math.inf) if step == b else step

    left, right = -30.0, 30.0
    for _ in range(CALIBRATION_MAX_ITERS):
        mid = 0.5 * (left + right)
        if mid <= lo or (mid < hi and rate(mid)[0] < target):
            left = mid
        else:
            right = mid
    mid = 0.5 * (left + right)
    achieved = rate(mid)[0]
    if abs(achieved - target) > RATE_REL_TOL * target:
        raise SimulationError(
            f"{label} calibration failed after {CALIBRATION_MAX_ITERS} iterations: "
            f"achieved {achieved:.6f}, target {target:.6f}"
        )
    return mid


def _bin_edges(config: SimConfig) -> np.ndarray:
    """Equal-probability bin edges for z + noise ~ N(0, 1 + noise²)."""
    sigma = np.sqrt(1.0 + config.noise_scale**2)
    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf(k / config.feature_bins) for k in range(1, config.feature_bins)]) * sigma


def generate(config: SimConfig) -> tuple[ExposureLog, GenerationReport]:
    """Draw the dataset; deterministic per config, byte-stable.

    Raises :class:`SimulationError` if intercept calibration cannot
    reach the target rates.
    """
    root = np.random.SeedSequence(config.seed)
    dir_seq, cal_seq = root.spawn(2)
    u_click, u_conv = _directions(config, np.random.Generator(np.random.PCG64(dir_seq)))

    cal_rng = np.random.Generator(np.random.PCG64(cal_seq))
    z_cal = cal_rng.standard_normal((CALIBRATION_DRAWS, config.latent_dim))
    click_score = SCORE_GAIN_CLICK * (z_cal @ u_click)
    conv_score = SCORE_GAIN_CONV * (z_cal @ u_conv)

    # Rates are computed in scratch arrays: a fresh process (a ``compare``
    # worker) pays a page fault per 4 KB of every new temporary this size.
    scratch, product = np.empty_like(click_score), np.empty_like(click_score)

    def click_rate(b: float) -> tuple[float, float]:
        p = stable_sigmoid(np.add(click_score, b, out=scratch), out=scratch)
        rate = float(p.mean())
        return rate, rate - float(p @ p) / len(p)  # mean p(1 - p)

    b0 = _calibrate_intercept(click_rate, click_score, config.target_click_rate, "click rate")
    p_click_cal = stable_sigmoid(click_score + b0)
    click_mean = p_click_cal.mean()

    def conv_given_click(c: float) -> tuple[float, float]:
        p = stable_sigmoid(np.add(conv_score, c, out=scratch), out=scratch)
        q = np.multiply(p_click_cal, p, out=product)
        rate = q.mean() / click_mean
        return float(rate), float(rate - (q @ p) / len(p) / click_mean)  # mean p_click p(1 - p) / mean p_click

    c0 = _calibrate_intercept(conv_given_click, conv_score, config.target_conv_rate_given_click, "conversion rate")
    del z_cal, click_score, conv_score, scratch, product, p_click_cal  # before the shards allocate

    edges = _bin_edges(config)
    n, dim = config.n_exposures, config.latent_dim
    o, r_cf, bins = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64), np.empty((n, dim), dtype=np.int64)
    p_click, p_conv = np.empty(n), np.empty(n)
    for shard, seq in enumerate(root.spawn((n + SHARD_SIZE - 1) // SHARD_SIZE)):
        rows = slice(shard * SHARD_SIZE, min((shard + 1) * SHARD_SIZE, n))
        m = rows.stop - rows.start
        rng = np.random.Generator(np.random.PCG64(seq))
        z = rng.standard_normal((m, dim))
        stable_sigmoid(np.add(SCORE_GAIN_CLICK * (z @ u_click), b0, out=p_click[rows]), out=p_click[rows])
        stable_sigmoid(np.add(SCORE_GAIN_CONV * (z @ u_conv), c0, out=p_conv[rows]), out=p_conv[rows])
        o[rows] = rng.random(m) < p_click[rows]
        r_cf[rows] = rng.random(m) < p_conv[rows]
        noise = rng.standard_normal((m, dim))
        noise *= config.noise_scale
        z += noise
        bins[rows] = np.searchsorted(edges, z)
    r_obs = o * r_cf
    log = ExposureLog(
        sample_id=np.arange(n, dtype=np.int64),
        click=o,
        conversion=r_obs,
        id_names=tuple(f"f{d}" for d in range(dim)),
        ids=bins,
        numeric_names=(),
        numeric=np.zeros((n, 0)),
        true_p_click=p_click,
        true_p_conv=p_conv,
        r_counterfactual=r_cf,
    )

    n_click = int(o.sum())
    n_conv = int(r_obs.sum())
    report = GenerationReport(
        n_exposures=config.n_exposures,
        click_rate=n_click / config.n_exposures,
        conv_rate_given_click=n_conv / n_click if n_click else float("nan"),
        click_intercept=b0,
        conv_intercept=c0,
        mean_p_conv_clicked=float(p_conv[o == 1].mean()) if n_click else float("nan"),
        mean_p_conv_unclicked=float(p_conv[o == 0].mean()) if n_click < len(log) else float("nan"),
    )
    return log, report


def space_stats(log: ExposureLog) -> SpaceStats:
    """Counts of the funnel spaces plus the two observed rates."""
    n = len(log)
    n_click = int(log.click.sum())
    n_conv = int(log.conversion.sum())
    return SpaceStats(
        n_exposure=n,
        n_click=n_click,
        n_unclick=n - n_click,
        n_conv=n_conv,
        n_unconv=n_click - n_conv,
        click_rate=n_click / n if n else float("nan"),
        conv_rate_given_click=n_conv / n_click if n_click else float("nan"),
    )
