"""Training objectives: funnel losses, IPW debiasing, soft alignment.

All losses are negated mean log-likelihoods over a space within the
mini-batch. Conversion-side terms weight each clicked sample by
1/p_click and divide by the number of clicks in the batch, so they
estimate the exposure-space mean divided by the click rate, not the
exposure-space mean itself (that would divide by the batch size); the
un-click analog weights by one minus the propensity and divides by the
un-click count. The un-conversion (unCVR) head discriminates
clicked-but-unconverted samples, and the mutual alignment terms tie the
two conversion heads together through stop-gradient soft labels.

Each method is one row of :data:`METHOD_TERMS`: the terms its total
adds, in order.

Space conventions within a batch: exposure = every sample, click =
samples with o = 1, un-click = o = 0. A space absent from the batch
contributes zero for its terms.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor, backward, bce, inverse_propensity, masked_mean, stop_gradient, weighted_sum
from .features import FeatureMatrix
from .model import ModelParams, TowerOutputs, predict_batch

__all__ = [
    "ObjectiveError",
    "IpwConfig",
    "LossWeights",
    "LossBundle",
    "TERMS",
    "METHOD_TERMS",
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
    "compose_method_loss",
    "training_step",
]

SOFT_LABEL_CLAMP = 1e-6

# The base terms, in the order of the LossWeights fields that scale them.
TERMS = ("ctr", "ctcvr", "cvr_ipw", "ctuncvr", "uncvr_ipw", "align_ipw")

# Each method's terms, in the order its total adds them.
METHOD_TERMS: dict[str, tuple[str, ...]] = {
    "chorus": TERMS,
    "chorus_wo_ndm": ("ctr", "ctcvr", "cvr_ipw", "align_ipw", "uncvr_soft"),
    "chorus_wo_sam": ("ctr", "ctcvr", "cvr_ipw", "ctuncvr", "uncvr_ipw"),
    "esmm": ("ctr", "ctcvr"),
    "escm2_ipw": ("ctr", "ctcvr", "cvr_ipw"),
    "nise": ("ctr", "ctcvr", "cvr_ipw", "cvr_self_distill"),
    "dcmt_lite": ("ctr", "ctcvr", "cvr_ipw", "cf_tower", "cf_constraint"),
}
METHODS = tuple(METHOD_TERMS)

# The methods whose base terms LossWeights scales; every other term has weight 1.
_WEIGHTED_METHODS = frozenset({"chorus", "chorus_wo_ndm", "chorus_wo_sam"})


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
    """Multipliers of the base terms of the chorus family, one field per
    entry of :data:`TERMS` in order (``align`` scales ``align_ipw``).

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
        for f in fields(self):
            if not 0.0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"loss weight {f.name} must be finite and non-negative")


@dataclass
class LossBundle:
    """The terms that enter one batch's total, by name in the order the
    total adds them, and the total itself."""

    terms: dict[str, Tensor]
    total: Tensor

    def term_values(self) -> dict[str, float]:
        """Every base term (0.0 when left out), the method's own terms,
        then ``total``: one ``history.csv`` column each."""
        vals = dict.fromkeys(TERMS, 0.0)
        vals.update((name, t.item()) for name, t in self.terms.items())
        vals["total"] = self.total.item()
        return vals


def _require_batch(o: np.ndarray) -> None:
    if o.size == 0:
        raise ObjectiveError("loss over an empty batch is undefined")


def _space_mean(per_sample: Tensor, mask: np.ndarray, weights=None) -> Tensor:
    """Mean of weighted per-sample values over a masked space.

    Returns a graph zero when the space is absent from the batch.
    Excluded samples pass exactly zero gradient.
    """
    if not mask.any():
        return Tensor(0.0)
    return masked_mean(per_sample, mask, weights)


def _propensity_weights(outputs: TowerOutputs, ipw: IpwConfig, complement: bool = False):
    """1 / max(q, floor) with q = p_click, or 1 - p_click when
    ``complement`` is set: the :func:`inverse_propensity` node, or its
    value when detached."""
    w = inverse_propensity(outputs.ctr, ipw.floor, complement)
    return w.value if ipw.detach else w


def _soft_label(source: Tensor, complement: bool) -> Tensor:
    """Detached soft label, optionally 1 - source, clamped off {0,1}: one
    stop-gradient node whose parent is the source."""
    value = 1.0 - source.value if complement else source.value
    return stop_gradient(source, np.clip(value, SOFT_LABEL_CLAMP, 1.0 - SOFT_LABEL_CLAMP))


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
    return _space_mean(bce(outputs.cvr, r), o, _propensity_weights(outputs, ipw))


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
    return _space_mean(bce(outputs.uncvr, 1.0 - r), o, _propensity_weights(outputs, ipw))


def align_terms(outputs: TowerOutputs, o: np.ndarray, ipw: IpwConfig) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """The four mutual-alignment addends, separately.

    Order: (cvr←uncvr on click, uncvr←cvr on click, cvr←uncvr on
    un-click, uncvr←cvr on un-click). Each is a per-space mean within
    the batch; click terms weight by 1/p_click, un-click terms by
    1/(1 - p_click). The arrow's source is stop-gradient wrapped.
    """
    o = np.asarray(o, dtype=np.float64)
    n_mask = 1.0 - o
    w_click = _propensity_weights(outputs, ipw)
    w_unclick = _propensity_weights(outputs, ipw, complement=True)
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
    return weighted_sum(align_terms(outputs, o, ipw), (1.0,) * 4)


# Every term as a function of (outputs, o, r, ipw): the base terms, then
# the ablation's and the baselines' own terms.
_TERM_FNS: dict[str, Callable[[TowerOutputs, np.ndarray, np.ndarray, IpwConfig], Tensor]] = {
    "ctr": lambda out, o, r, ipw: loss_ctr(out, o),
    "ctcvr": lambda out, o, r, ipw: loss_ctcvr(out, o, r),
    "cvr_ipw": loss_cvr_ipw,
    "ctuncvr": lambda out, o, r, ipw: loss_ctuncvr(out, o, r),
    "uncvr_ipw": loss_uncvr_ipw,
    "align_ipw": lambda out, o, r, ipw: loss_align_ipw(out, o, ipw),
    # chorus_wo_ndm: the un-conversion head on the soft label 1 - sg(cvr), click space
    "uncvr_soft": lambda out, o, r, ipw: _space_mean(bce(out.uncvr, _soft_label(out.cvr, complement=True)), o),
    # nise: self-distillation of the conversion head on un-clicked samples
    "cvr_self_distill": lambda out, o, r, ipw: _space_mean(
        bce(out.cvr, _soft_label(out.cvr, complement=False)), 1.0 - o
    ),
    # dcmt_lite: counterfactual tower (label 1 - r) on clicks, soft constraint on exposures
    "cf_tower": lambda out, o, r, ipw: _space_mean(bce(out.uncvr, 1.0 - r), o),
    "cf_constraint": lambda out, o, r, ipw: bce(out.cvr, _soft_label(out.uncvr, complement=True)).mean(),
}


def compose_method_loss(
    method: str,
    outputs: TowerOutputs,
    o: np.ndarray,
    r: np.ndarray,
    weights: LossWeights,
    ipw: IpwConfig,
) -> LossBundle:
    """The objective of a method tag on one batch: the weighted sum of
    its :data:`METHOD_TERMS` row, added in order.

    ``weights`` scales the base terms of ``chorus``, ``chorus_wo_ndm``
    and ``chorus_wo_sam``; baseline terms and method-specific terms have
    weight 1. A zero-weight term is never built, so it contributes no
    gradient at all.
    """
    if method not in METHOD_TERMS:
        raise ObjectiveError(f"unknown method {method!r}; expected one of {METHODS}")
    o = np.asarray(o, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    _require_batch(o)
    ctuncvr_label(o, r)  # reject funnel violations up front

    scale = dict(zip(TERMS, astuple(weights))) if method in _WEIGHTED_METHODS else {}
    row = [(name, scale.get(name, 1.0)) for name in METHOD_TERMS[method]]
    row = [(name, w) for name, w in row if w > 0]
    terms = {name: _TERM_FNS[name](outputs, o, r, ipw) for name, _ in row}
    total = weighted_sum(list(terms.values()), [w for _, w in row]) if row else Tensor(0.0)
    return LossBundle(terms, total)


def training_step(
    params: ModelParams,
    fm: FeatureMatrix,
    o: np.ndarray,
    r: np.ndarray,
    method: str,
    weights: LossWeights,
    ipw: IpwConfig,
    parameters: Sequence[Tensor],
) -> tuple[LossBundle, list[np.ndarray]]:
    """Forward one batch, assemble the method objective, backward once.

    Returns the bundle and gradients aligned with ``parameters`` (as
    ``params.parameters()`` lists them); parameters outside the graph (a
    tower the method never touches) get zero gradients.
    """
    outputs = predict_batch(params, fm)
    bundle = compose_method_loss(method, outputs, o, r, weights, ipw)
    leaf_grads = backward(bundle.total)
    grads = [leaf_grads[p] if p in leaf_grads else np.zeros_like(p.value) for p in parameters]
    return bundle, grads
