"""Training objectives: funnel losses, IPW debiasing, soft alignment.

All losses are negated mean log-likelihoods over a space within the
mini-batch. Conversion-side terms are inversely weighted by the click
propensity so click-space means estimate exposure-space means; the
un-click analog weights by one minus the propensity. The un-conversion
(unCVR) head discriminates clicked-but-unconverted samples, and the
mutual alignment terms tie the two conversion heads together through
stop-gradient soft labels.

Space conventions within a batch: exposure = every sample, click =
samples with o = 1, un-click = o = 0. A space absent from the batch
contributes zero for its terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .autodiff import Tensor, backward, stop_gradient
from .features import FeatureMatrix
from .model import ModelParams, TowerOutputs, predict_batch

__all__ = [
    "ObjectiveError",
    "IpwConfig",
    "LossWeights",
    "LossBundle",
    "METHODS",
    "bce",
    "loss_ctr",
    "loss_ctcvr",
    "loss_cvr_ipw",
    "ctuncvr_label",
    "loss_ctuncvr",
    "loss_uncvr_ipw",
    "align_terms",
    "loss_align_ipw",
    "total_loss",
    "compose_method_loss",
    "training_step",
    "ipw_mean",
]

SOFT_LABEL_CLAMP = 1e-6

METHODS = (
    "chorus",
    "chorus_wo_ndm",
    "chorus_wo_sam",
    "esmm",
    "escm2_ipw",
    "nise",
    "dcmt_lite",
)


class ObjectiveError(ValueError):
    """Bad labels, empty batch where a mean is required, unknown method."""


@dataclass(frozen=True)
class IpwConfig:
    """Inverse-propensity weighting knobs.

    ``floor`` clamps the propensity (and its complement) from below, so
    weights never exceed 1/floor. ``detach`` keeps the weights out of
    the gradient; they are estimates of a fixed quantity, not a
    training signal.
    """

    floor: float = 0.01
    detach: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.floor < 0.5:
            raise ValueError(f"floor must be in (0, 0.5), got {self.floor}")


@dataclass(frozen=True)
class LossWeights:
    """Per-term multipliers of the combined objective.

    ``ctr`` is the auxiliary click-loss weight; the conversion terms
    default to 1. Set a weight to 0 to drop its term exactly.
    """

    ctr: float = 1.0
    ctcvr: float = 1.0
    cvr_ipw: float = 1.0
    ctuncvr: float = 1.0
    uncvr_ipw: float = 1.0
    align: float = 1.0

    def __post_init__(self) -> None:
        for name in ("ctr", "ctcvr", "cvr_ipw", "ctuncvr", "uncvr_ipw", "align"):
            if getattr(self, name) < 0:
                raise ValueError(f"loss weight {name} must be non-negative")


@dataclass
class LossBundle:
    """All term values of one batch plus their weighted total.

    ``extras`` holds method-specific terms (self-distillation,
    counterfactual constraints) that enter the total with weight 1.
    """

    l_ctr: Tensor
    l_ctcvr: Tensor
    l_cvr_ipw: Tensor
    l_ctuncvr: Tensor
    l_uncvr_ipw: Tensor
    l_align_ipw: Tensor
    weights: LossWeights
    total: Tensor
    extras: dict[str, Tensor] = field(default_factory=dict)

    def active_terms(self) -> frozenset[str]:
        """Names of the terms that actually enter the total."""
        named = {
            "ctr": self.weights.ctr,
            "ctcvr": self.weights.ctcvr,
            "cvr_ipw": self.weights.cvr_ipw,
            "ctuncvr": self.weights.ctuncvr,
            "uncvr_ipw": self.weights.uncvr_ipw,
            "align_ipw": self.weights.align,
        }
        return frozenset(k for k, w in named.items() if w > 0) | frozenset(self.extras)

    def term_values(self) -> dict[str, float]:
        vals = {
            "ctr": self.l_ctr.item(),
            "ctcvr": self.l_ctcvr.item(),
            "cvr_ipw": self.l_cvr_ipw.item(),
            "ctuncvr": self.l_ctuncvr.item(),
            "uncvr_ipw": self.l_uncvr_ipw.item(),
            "align_ipw": self.l_align_ipw.item(),
        }
        for name, t in self.extras.items():
            vals[name] = t.item()
        vals["total"] = self.total.item()
        return vals


def bce(y_hat: Tensor, y) -> Tensor:
    """Elementwise -[y ln p + (1-y) ln(1-p)]; y may be soft and may be
    a graph node (soft labels). ``y_hat`` must already sit inside (0,1)."""
    if isinstance(y, Tensor):
        return -(y * y_hat.log() + (1.0 - y) * (1.0 - y_hat).log())
    y = np.asarray(y, dtype=np.float64)
    return -(y_hat.log() * y + (1.0 - y_hat).log() * (1.0 - y))


def _require_batch(o: np.ndarray) -> None:
    if o.size == 0:
        raise ObjectiveError("loss over an empty batch is undefined")


def _space_mean(per_sample: Tensor, mask: np.ndarray, weights=None) -> Tensor:
    """Mean of weighted per-sample values over a masked space.

    Returns a graph zero when the space is absent from the batch.
    Masking multiplies by 0/1 so excluded samples pass exactly zero
    gradient.
    """
    count = float(mask.sum())
    if count == 0.0:
        return Tensor(0.0)
    if isinstance(weights, Tensor):
        masked = per_sample * weights * mask
    elif weights is not None:
        masked = per_sample * (weights * mask)
    else:
        masked = per_sample * mask
    return masked.sum() * (1.0 / count)


def _click_weights(outputs: TowerOutputs, ipw: IpwConfig):
    """1 / max(p_click, floor); numpy when detached, graph otherwise."""
    if ipw.detach:
        return 1.0 / np.maximum(outputs.ctr.value, ipw.floor)
    return outputs.ctr.clamp_min(ipw.floor).reciprocal()


def _unclick_weights(outputs: TowerOutputs, ipw: IpwConfig):
    if ipw.detach:
        return 1.0 / np.maximum(1.0 - outputs.ctr.value, ipw.floor)
    return (1.0 - outputs.ctr).clamp_min(ipw.floor).reciprocal()


def _soft_label(source: Tensor, complement: bool) -> Tensor:
    """Detached soft label, optionally 1 - source, clamped off {0,1}."""
    label = stop_gradient(source)
    if complement:
        label = 1.0 - label
    return label.clip(SOFT_LABEL_CLAMP, 1.0 - SOFT_LABEL_CLAMP)


def loss_ctr(outputs: TowerOutputs, o: np.ndarray) -> Tensor:
    """Mean click loss over the batch."""
    _require_batch(o)
    return bce(outputs.ctr, o).mean()


def loss_ctcvr(outputs: TowerOutputs, o: np.ndarray, r: np.ndarray) -> Tensor:
    """Mean click-and-convert loss over the batch; label o * r."""
    _require_batch(o)
    return bce(outputs.ctcvr, o * r).mean()


def loss_cvr_ipw(outputs: TowerOutputs, o: np.ndarray, r: np.ndarray, ipw: IpwConfig) -> Tensor:
    """Click-space conversion loss, inversely weighted by click
    propensity; zero when the batch has no clicks."""
    return _space_mean(bce(outputs.cvr, r), o, _click_weights(outputs, ipw))


def ctuncvr_label(o: np.ndarray, r: np.ndarray) -> np.ndarray:
    """o * (1 - r): positive exactly for clicked-but-unconverted."""
    o = np.asarray(o, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if np.any(r > o):
        raise ObjectiveError("funnel violation: conversion without click")
    return o * (1.0 - r)


def loss_ctuncvr(outputs: TowerOutputs, o: np.ndarray, r: np.ndarray) -> Tensor:
    """Mean click-and-not-convert loss over the batch."""
    _require_batch(o)
    return bce(outputs.ctuncvr, ctuncvr_label(o, r)).mean()


def loss_uncvr_ipw(outputs: TowerOutputs, o: np.ndarray, r: np.ndarray, ipw: IpwConfig) -> Tensor:
    """Click-space un-conversion loss (label 1 - r), inversely weighted
    by click propensity."""
    return _space_mean(bce(outputs.uncvr, 1.0 - r), o, _click_weights(outputs, ipw))


def align_terms(outputs: TowerOutputs, o: np.ndarray, ipw: IpwConfig) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """The four mutual-alignment addends, separately.

    Order: (cvr←uncvr on click, uncvr←cvr on click, cvr←uncvr on
    un-click, uncvr←cvr on un-click). Each is a per-space mean within
    the batch; click terms weight by 1/p_click, un-click terms by
    1/(1 - p_click). The arrow's source is stop-gradient wrapped.
    """
    o = np.asarray(o, dtype=np.float64)
    n_mask = 1.0 - o
    w_click = _click_weights(outputs, ipw)
    w_unclick = _unclick_weights(outputs, ipw)
    cvr_to_uncvr = bce(outputs.cvr, _soft_label(outputs.uncvr, complement=True))
    uncvr_to_cvr = bce(outputs.uncvr, _soft_label(outputs.cvr, complement=True))
    return (
        _space_mean(cvr_to_uncvr, o, w_click),
        _space_mean(uncvr_to_cvr, o, w_click),
        _space_mean(cvr_to_uncvr, n_mask, w_unclick),
        _space_mean(uncvr_to_cvr, n_mask, w_unclick),
    )


def loss_align_ipw(outputs: TowerOutputs, o: np.ndarray, ipw: IpwConfig) -> Tensor:
    """Mutual soft alignment of the two conversion heads: the sum of
    the four :func:`align_terms`."""
    t1, t2, t3, t4 = align_terms(outputs, o, ipw)
    return t1 + t2 + t3 + t4


def total_loss(
    l_ctr: Tensor,
    l_ctcvr: Tensor,
    l_cvr_ipw: Tensor,
    l_ctuncvr: Tensor,
    l_uncvr_ipw: Tensor,
    l_align_ipw: Tensor,
    weights: LossWeights,
    extras: Mapping[str, Tensor] | None = None,
) -> LossBundle:
    """Weighted sum of the terms; zero-weight terms are skipped so they
    contribute no gradient at all."""
    pairs = [
        (l_ctr, weights.ctr),
        (l_ctcvr, weights.ctcvr),
        (l_cvr_ipw, weights.cvr_ipw),
        (l_ctuncvr, weights.ctuncvr),
        (l_uncvr_ipw, weights.uncvr_ipw),
        (l_align_ipw, weights.align),
    ]
    total: Tensor | None = None
    for term, w in pairs:
        if w == 0.0:
            continue
        piece = term * w
        total = piece if total is None else total + piece
    for term in (extras or {}).values():
        total = term if total is None else total + term
    if total is None:
        total = Tensor(0.0)
    return LossBundle(
        l_ctr=l_ctr,
        l_ctcvr=l_ctcvr,
        l_cvr_ipw=l_cvr_ipw,
        l_ctuncvr=l_ctuncvr,
        l_uncvr_ipw=l_uncvr_ipw,
        l_align_ipw=l_align_ipw,
        weights=weights,
        total=total,
        extras=dict(extras or {}),
    )


def _zero() -> Tensor:
    return Tensor(0.0)


def compose_method_loss(
    method: str,
    outputs: TowerOutputs,
    o: np.ndarray,
    r: np.ndarray,
    weights: LossWeights,
    ipw: IpwConfig,
) -> LossBundle:
    """Assemble the objective for a method tag on one batch.

    ``weights`` applies to the full model and its ablations; baseline
    compositions are fixed. Ablations: ``chorus_wo_ndm`` drops the two
    discrimination terms and instead trains the un-conversion head on
    the soft label 1 - sg(cvr) in click space; ``chorus_wo_sam`` zeroes
    the alignment weight.
    """
    o = np.asarray(o, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    _require_batch(o)
    ctuncvr_label(o, r)  # reject funnel violations up front

    if method == "chorus":
        eff = weights
        extras: dict[str, Tensor] = {}
    elif method == "chorus_wo_ndm":
        eff = replace(weights, ctuncvr=0.0, uncvr_ipw=0.0)
        extras = {"uncvr_soft": _space_mean(bce(outputs.uncvr, _soft_label(outputs.cvr, complement=True)), o)}
    elif method == "chorus_wo_sam":
        eff = replace(weights, align=0.0)
        extras = {}
    elif method == "esmm":
        eff = LossWeights(ctr=1.0, ctcvr=1.0, cvr_ipw=0.0, ctuncvr=0.0, uncvr_ipw=0.0, align=0.0)
        extras = {}
    elif method == "escm2_ipw":
        eff = LossWeights(ctr=1.0, ctcvr=1.0, cvr_ipw=1.0, ctuncvr=0.0, uncvr_ipw=0.0, align=0.0)
        extras = {}
    elif method == "nise":
        eff = LossWeights(ctr=1.0, ctcvr=1.0, cvr_ipw=1.0, ctuncvr=0.0, uncvr_ipw=0.0, align=0.0)
        extras = {
            "cvr_self_distill": _space_mean(bce(outputs.cvr, _soft_label(outputs.cvr, complement=False)), 1.0 - o)
        }
    elif method == "dcmt_lite":
        eff = LossWeights(ctr=1.0, ctcvr=1.0, cvr_ipw=1.0, ctuncvr=0.0, uncvr_ipw=0.0, align=0.0)
        extras = {
            "cf_tower": _space_mean(bce(outputs.uncvr, 1.0 - r), o),
            "cf_constraint": bce(outputs.cvr, _soft_label(outputs.uncvr, complement=True)).mean(),
        }
    else:
        raise ObjectiveError(f"unknown method {method!r}; expected one of {METHODS}")

    return total_loss(
        l_ctr=loss_ctr(outputs, o) if eff.ctr > 0 else _zero(),
        l_ctcvr=loss_ctcvr(outputs, o, r) if eff.ctcvr > 0 else _zero(),
        l_cvr_ipw=loss_cvr_ipw(outputs, o, r, ipw) if eff.cvr_ipw > 0 else _zero(),
        l_ctuncvr=loss_ctuncvr(outputs, o, r) if eff.ctuncvr > 0 else _zero(),
        l_uncvr_ipw=loss_uncvr_ipw(outputs, o, r, ipw) if eff.uncvr_ipw > 0 else _zero(),
        l_align_ipw=loss_align_ipw(outputs, o, ipw) if eff.align > 0 else _zero(),
        weights=eff,
        extras=extras,
    )


def training_step(
    params: ModelParams,
    fm: FeatureMatrix,
    o: np.ndarray,
    r: np.ndarray,
    method: str,
    weights: LossWeights,
    ipw: IpwConfig,
) -> tuple[LossBundle, list[np.ndarray]]:
    """Forward one batch, assemble the method objective, backward once.

    Returns the bundle and gradients aligned with
    ``params.parameters()``; parameters outside the graph (a tower the
    method never touches) get zero gradients.
    """
    outputs = predict_batch(params, fm)
    bundle = compose_method_loss(method, outputs, o, r, weights, ipw)
    leaf_grads = backward(bundle.total)
    grads = [leaf_grads[p] if p in leaf_grads else np.zeros_like(p.value) for p in params.parameters()]
    return bundle, grads


def ipw_mean(values: np.ndarray, mask: np.ndarray, propensity: np.ndarray, floor: float = 0.01) -> float:
    """Inverse-propensity estimate of the population mean of ``values``
    from only the samples where ``mask`` is 1."""
    w = np.asarray(mask, dtype=np.float64) / np.maximum(propensity, floor)
    return float(np.mean(w * values))
