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

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .autodiff import stable_sigmoid
from .data import ExposureRecord, GroundTruth
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
# part of the stream layout, so it must stay fixed for determinism.
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


def _calibrate_intercept(score_fn, target: float, label: str) -> float:
    """Bisect the intercept so the Monte-Carlo rate hits the target."""
    lo, hi = -30.0, 30.0
    for _ in range(CALIBRATION_MAX_ITERS):
        mid = 0.5 * (lo + hi)
        if score_fn(mid) < target:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    achieved = score_fn(mid)
    if abs(achieved - target) > RATE_REL_TOL * target:
        raise SimulationError(
            f"{label} calibration failed after {CALIBRATION_MAX_ITERS} iterations: "
            f"achieved {achieved:.6f}, target {target:.6f}"
        )
    return mid


def _bin_edges(config: SimConfig) -> np.ndarray:
    """Equal-probability bin edges for z + noise ~ N(0, 1 + noise²)."""
    sigma = np.sqrt(1.0 + config.noise_scale**2)
    quantiles = np.arange(1, config.feature_bins) / config.feature_bins
    return ndtri(quantiles) * sigma


def generate(config: SimConfig) -> tuple[list[ExposureRecord], GenerationReport]:
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

    b0 = _calibrate_intercept(
        lambda b: float(stable_sigmoid(click_score + b).mean()),
        config.target_click_rate,
        "click rate",
    )
    p_click_cal = stable_sigmoid(click_score + b0)

    def conv_given_click(c: float) -> float:
        p_conv = stable_sigmoid(conv_score + c)
        return float((p_click_cal * p_conv).mean() / p_click_cal.mean())

    c0 = _calibrate_intercept(conv_given_click, config.target_conv_rate_given_click, "conversion rate")

    edges = _bin_edges(config)
    n_shards = (config.n_exposures + SHARD_SIZE - 1) // SHARD_SIZE
    shard_seqs = root.spawn(n_shards)
    records: list[ExposureRecord] = []
    sample_id = 0
    for shard, seq in enumerate(shard_seqs):
        n = min(SHARD_SIZE, config.n_exposures - shard * SHARD_SIZE)
        rng = np.random.Generator(np.random.PCG64(seq))
        z = rng.standard_normal((n, config.latent_dim))
        p_click = stable_sigmoid(SCORE_GAIN_CLICK * (z @ u_click) + b0)
        p_conv = stable_sigmoid(SCORE_GAIN_CONV * (z @ u_conv) + c0)
        o = (rng.random(n) < p_click).astype(np.int64)
        r_cf = (rng.random(n) < p_conv).astype(np.int64)
        noise = config.noise_scale * rng.standard_normal((n, config.latent_dim))
        bins = np.searchsorted(edges, z + noise)
        r_obs = o * r_cf
        for i in range(n):
            records.append(
                ExposureRecord(
                    sample_id=sample_id,
                    click=int(o[i]),
                    conversion=int(r_obs[i]),
                    features={f"f{d}": int(bins[i, d]) for d in range(config.latent_dim)},
                    truth=GroundTruth(float(p_click[i]), float(p_conv[i]), int(r_cf[i])),
                )
            )
            sample_id += 1

    o_all = np.array([rec.click for rec in records])
    p_conv_all = np.array([rec.truth.true_p_conv for rec in records])
    n_click = int(o_all.sum())
    n_conv = sum(rec.conversion for rec in records)
    report = GenerationReport(
        n_exposures=config.n_exposures,
        click_rate=n_click / config.n_exposures,
        conv_rate_given_click=n_conv / n_click if n_click else float("nan"),
        click_intercept=b0,
        conv_intercept=c0,
        mean_p_conv_clicked=float(p_conv_all[o_all == 1].mean()) if n_click else float("nan"),
        mean_p_conv_unclicked=float(p_conv_all[o_all == 0].mean()) if n_click < len(records) else float("nan"),
    )
    return records, report


def space_stats(records: Sequence[ExposureRecord]) -> SpaceStats:
    """Counts of the funnel spaces plus the two observed rates."""
    n = len(records)
    n_click = sum(rec.click for rec in records)
    n_conv = sum(rec.conversion for rec in records)
    return SpaceStats(
        n_exposure=n,
        n_click=n_click,
        n_unclick=n - n_click,
        n_conv=n_conv,
        n_unconv=n_click - n_conv,
        click_rate=n_click / n if n else float("nan"),
        conv_rate_given_click=n_conv / n_click if n_click else float("nan"),
    )
