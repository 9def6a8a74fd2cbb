"""Training objectives: funnel losses, IPW debiasing, soft alignment.

Every term is a sum of parts of one form, ``sum(m * w * bce(p, y)) / D``:
the binary cross-entropy of a prediction ``p`` against a label ``y``,
weighted by ``w`` and averaged over one space ``m`` of the mini-batch.

- ``p`` is a head (ctr, cvr or uncvr) or the funnel product of ctr with
  a conversion head.
- ``y`` is a batch label, or a soft label: a head, or one minus a head,
  clipped off {0, 1} and held constant (a stop-gradient).
- The space is the whole batch (``D`` is its size), the click space
  (o = 1) or the un-click space (o = 0), where ``D`` is the space's
  count. A space absent from the batch contributes zero.
- ``w`` is 1 or the inverse propensity of the space: 1/p_click on
  clicks, 1/(1 - p_click) on un-clicks, floored. Dividing by the click
  count, the click-space terms estimate the exposure-space mean divided
  by the click rate, not the exposure-space mean itself (that would
  divide by the batch size).

The un-conversion (unCVR) head discriminates clicked-but-unconverted
samples, and the mutual alignment terms tie the two conversion heads
together through soft labels. Each method is one row of
:data:`METHOD_TERMS`: the terms its total adds, in order.

:func:`compose_method_loss` computes each term's value, the total and
every head's gradient in numpy; :func:`training_step` hands the head
gradients to ``model.backward``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .features import FeatureMatrix
from .model import TOWER_NAMES, ModelParams, ShapeError, Tensor, TowerOutputs, backward, predict_batch

__all__ = [
    "ObjectiveError",
    "IpwConfig",
    "LossWeights",
    "LossBundle",
    "TERMS",
    "METHOD_TERMS",
    "METHODS",
    "ctuncvr_label",
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

# Every term as its parts, added in order: (prediction, label, space,
# IPW-weighted). A prediction is a head, or "ctcvr" / "ctuncvr", the
# product of ctr with cvr / uncvr. A label is a batch label ("o", "r",
# "o*r", "o*(1-r)", "1-r") or a soft label ("cvr", "1-cvr", "1-uncvr").
# The base terms come first, then the ablation's and the baselines' own.
_PARTS: dict[str, tuple[tuple[str, str, str, bool], ...]] = {
    "ctr": (("ctr", "o", "batch", False),),
    "ctcvr": (("ctcvr", "o*r", "batch", False),),
    "cvr_ipw": (("cvr", "r", "click", True),),
    "ctuncvr": (("ctuncvr", "o*(1-r)", "batch", False),),
    "uncvr_ipw": (("uncvr", "1-r", "click", True),),
    # mutual soft alignment: cvr <- uncvr and uncvr <- cvr, on clicks then un-clicks
    "align_ipw": (
        ("cvr", "1-uncvr", "click", True),
        ("uncvr", "1-cvr", "click", True),
        ("cvr", "1-uncvr", "unclick", True),
        ("uncvr", "1-cvr", "unclick", True),
    ),
    # chorus_wo_ndm: the un-conversion head on the soft label 1 - cvr, click space
    "uncvr_soft": (("uncvr", "1-cvr", "click", False),),
    # nise: self-distillation of the conversion head on un-clicked samples
    "cvr_self_distill": (("cvr", "cvr", "unclick", False),),
    # dcmt_lite: counterfactual tower (label 1 - r) on clicks, soft constraint on exposures
    "cf_tower": (("uncvr", "1-r", "click", False),),
    "cf_constraint": (("cvr", "1-uncvr", "batch", False),),
}

# The funnel products: ctr times a conversion head.
_PRODUCTS = {"ctcvr": "cvr", "ctuncvr": "uncvr"}

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
    """The values of the terms that enter one batch's total, by name in
    the order the total adds them; the total; and the total's gradient
    on each head it reads, by head name in the order the towers add
    their input gradients (see :func:`compose_method_loss`)."""

    terms: dict[str, float]
    total: Tensor  # a leaf; the benchmark's traced run counts nodes through ``parents``
    head_grads: dict[str, np.ndarray]

    def term_values(self) -> dict[str, float]:
        """Every base term (0.0 when left out), the method's own terms,
        then ``total``: one ``history.csv`` column each."""
        vals = dict.fromkeys(TERMS, 0.0)
        vals.update(self.terms)
        vals["total"] = self.total.item()
        return vals


def ctuncvr_label(o: np.ndarray, r: np.ndarray) -> np.ndarray:
    """o * (1 - r): positive exactly for clicked-but-unconverted."""
    o = np.asarray(o, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if (r > o).any():
        raise ObjectiveError("funnel violation: conversion without click")
    return o * (1.0 - r)


def _add(sums: dict, key, g: np.ndarray) -> None:
    """Add ``g`` into ``sums[key]``: the first addend as it is, later
    ones by ``+`` in arrival order, as the graph's accumulation did."""
    sums[key] = sums[key] + g if key in sums else g


def _soft_label(label: str, v: dict[str, np.ndarray]) -> np.ndarray:
    """A head, or one minus a head, clipped off {0, 1}: ``np.clip``'s
    bits, without its Python wrapper."""
    y = v[label] if label in v else 1.0 - v[label.removeprefix("1-")]
    return np.minimum(np.maximum(y, SOFT_LABEL_CLAMP), 1.0 - SOFT_LABEL_CLAMP)


def _first_reached(pred: str, label: str, weighted: bool, ipw: IpwConfig) -> str:
    """The head the loss graph's depth-first walk reached first from a
    part: ctr through attached weights, else a soft label's source, else
    a product's conversion head, else the part's own head."""
    if weighted and not ipw.detach:
        return "ctr"
    source = label.removeprefix("1-")
    return source if source in TOWER_NAMES else _PRODUCTS.get(pred, pred)


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
    weight 1. A zero-weight term is left out, so it contributes no
    gradient at all.

    The bundle's head gradients hold every head that gets one. Their
    bits are those of the loss graph they replace, whose nodes were
    ``bce``, ``mean``, ``masked_mean`` (a space mean),
    ``inverse_propensity``, ``stop_gradient``, ``*`` and
    ``weighted_sum``:

    - Each head adds its addends term by term, in row order. Within a
      term, each addend runs that graph's elementwise backward
      operations in order; a per-sample loss that two spaces share sums
      both spaces' gradients before it multiplies by its derivative, and
      attached weights send ctr one click addend, then one un-click
      addend, each summed over the term's parts.
    - ``model.backward`` adds the towers' input gradients in the order
      of the head gradients. Of three, only the last changes bits, so
      the last is the head the graph's depth-first walk reached first
      from the last term that reaches any head (see
      :func:`_first_reached`).
    """
    if method not in METHOD_TERMS:
        raise ObjectiveError(f"unknown method {method!r}; expected one of {METHODS}")
    o = np.asarray(o, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if o.size == 0:
        raise ObjectiveError("loss over an empty batch is undefined")
    v = {name: getattr(outputs, name) for name in TOWER_NAMES}
    if o.ndim != 1 or any(x.shape != o.shape for x in (r, *v.values())):
        raise ShapeError(f"labels {o.shape} and {r.shape} and heads must all be one (n,) batch")
    n = len(o)
    labels = {"o": o, "r": r, "o*r": o * r, "o*(1-r)": ctuncvr_label(o, r), "1-r": 1.0 - r}
    scale = dict(zip(TERMS, vars(weights).values())) if method in _WEIGHTED_METHODS else {}
    row = [(name, w) for name in METHOD_TERMS[method] if (w := scale.get(name, 1.0)) > 0]
    # Each (prediction, label) pair the row reads is one row of the stacked
    # per-sample losses and of their derivatives on the prediction.
    pairs = {pair: i for i, pair in enumerate(dict.fromkeys(part[:2] for name, _ in row for part in _PARTS[name]))}
    y = np.array([labels[label] if label in labels else _soft_label(label, v) for _, label in pairs])
    p = np.array([v["ctr"] * v[_PRODUCTS[pred]] if pred in _PRODUCTS else v[pred] for pred, _ in pairs])
    q, not_y = 1.0 - p, 1.0 - y
    bce, dbce = -(y * np.log(p) + not_y * np.log(q)), not_y / q - y / p
    # Each space the row reads that the batch has: (mask / count, propensity
    # q, IPW weights 1 / max(q, floor), the weights times mask / count).
    spaces: dict[str, tuple[np.ndarray, ...]] = {}
    for space in {part[2] for name, _ in row for part in _PARTS[name]} - {"batch"}:
        m, q = (o, v["ctr"]) if space == "click" else (1.0 - o, 1.0 - v["ctr"])
        if m.any():
            s, weight = m / float(np.add.reduce(m)), 1.0 / np.maximum(q, ipw.floor)
            spaces[space] = s, q, weight, weight * s
    terms: dict[str, float] = {}
    grads: dict[str, np.ndarray] = {}  # head -> its gradient, summed term by term
    last = None  # the last part that reached a head
    for name, w in row:
        parts = []  # each part's value; an empty space adds 0.0
        g_loss: dict[tuple[str, str], np.ndarray | float] = {}  # gradient on each per-sample loss
        g_ipw: dict[str, np.ndarray] = {}  # gradient on each space's attached weights
        for pred, label, space, weighted in _PARTS[name]:
            per_sample = bce[pairs[pred, label]]
            if space == "batch":
                parts.append(np.add.reduce(per_sample) / n)  # the bits of per_sample.mean()
                _add(g_loss, (pred, label), w / n)  # every row's share, as one scalar
            elif space not in spaces:
                parts.append(0.0)
                continue
            else:
                s, _, _, ws = spaces[space]
                coef = ws if weighted else s
                parts.append(np.add.reduce(per_sample * coef))
                _add(g_loss, (pred, label), w * coef)
                if weighted and not ipw.detach:
                    _add(g_ipw, space, w * per_sample * s)
            last = pred, label, weighted
        for (pred, label), g in g_loss.items():
            gp = g * dbce[pairs[pred, label]]
            if pred in _PRODUCTS:  # the product rule, ctr first
                _add(grads, "ctr", gp * v[_PRODUCTS[pred]])
                _add(grads, _PRODUCTS[pred], gp * v["ctr"])
            else:
                _add(grads, pred, gp)
        for space, g in g_ipw.items():
            _, q, weight, _ = spaces[space]
            gq = -g * weight * weight * (q > ipw.floor)
            _add(grads, "ctr", -gq if space == "unclick" else gq)
        # No loss value is -0.0, so sum's start at 0 keeps the bits of
        # adding left to right from the first.
        terms[name] = float(sum(parts))
    total = sum(value * w for value, (_, w) in zip(terms.values(), row))
    lead = last and _first_reached(*last, ipw)
    order = [h for h in TOWER_NAMES if h in grads and h != lead] + [h for h in (lead,) if h in grads]
    return LossBundle(terms, Tensor(total), {h: grads[h] for h in order})


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
    ``params.parameters()`` lists them); a tower the method never
    touches gets zero gradients.
    """
    outputs = predict_batch(params, fm)
    bundle = compose_method_loss(method, outputs, o, r, weights, ipw)
    return bundle, backward(params, outputs, bundle.head_grads, parameters)
