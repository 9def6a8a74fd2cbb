"""The model's layer kernels, each a forward and a backward function
over dense float64 arrays, and the optimizer.

The training step is one fixed chain: the input gather, the encoder's
``dense`` layers and the three towers (``model.predict_batch``), then the
objective (``objectives.compose_method_loss``), which hands each head its
gradient; ``model.backward`` runs the chain's backward functions in
reverse from there. Everything is 64-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "OptimizerError",
    "stable_sigmoid",
    "dense",
    "dense_backward",
    "gather_concat",
    "gather_concat_backward",
    "tower_heads",
    "tower_heads_backward",
    "OptimizerConfig",
    "OptimizerState",
    "optimizer_step",
    "ADAM_BETA1",
    "ADAM_BETA2",
    "ADAM_EPSILON",
]

# Adam's moment decay rates and denominator offset.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class ShapeError(ValueError):
    """Operand shapes cannot be combined."""


class OptimizerError(RuntimeError):
    """Raised on non-finite gradients or malformed optimizer inputs."""


def stable_sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function, stable in both tails: ``1 / (1 + e)`` where
    ``x >= 0`` and ``e / (1 + e)`` elsewhere, with ``e = exp(-|x|)``.
    Written into ``out`` when given, which may be ``x`` itself."""
    nonneg = x >= 0.0
    e = np.abs(x, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    np.divide(e, d, out=e)
    np.divide(1.0, d, out=e, where=nonneg)
    return e


class Tensor:
    """A named float64 array: a model parameter, or a batch's objective.

    A tensor is a leaf: ``parents`` is always empty. The benchmark's
    traced run counts the nodes it reaches from a step's objective
    through ``parents``.
    """

    __slots__ = ("value", "name")
    parents: tuple["Tensor", ...] = ()

    def __init__(self, value, *, name: str = ""):
        self.value = np.asarray(value, dtype=np.float64)
        self.name = name

    def item(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.value.shape}{tag})"


# -- layer kernels ---------------------------------------------------------------
#
# Each backward takes the gradient on its forward's output and what that
# forward read or returned, and returns the gradients on its inputs.


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``relu(x @ w + b)`` on a batch ``x`` of shape ``(n, d)``."""
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense takes an (n, {w.shape[0]}) batch, got shape {x.shape}")
    return np.maximum(x @ w + b, 0.0)


def dense_backward(
    g: np.ndarray, x: np.ndarray, w: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients on ``x``, ``w`` and ``b`` of :func:`dense`'s output ``out``."""
    g = g * (out > 0.0)
    return g @ w.T, x.T @ g, g.sum(axis=0)


def gather_concat(
    tables: Sequence[np.ndarray], index: np.ndarray, chunk: int, constant: np.ndarray, constant_cols: np.ndarray
) -> np.ndarray:
    """One ``(n, width)`` input: columns ``constant_cols`` take
    ``constant`` and the others, in order, the chunks of ``chunk``
    elements that ``index[i]`` names in the tables raveled and laid end
    to end."""
    source = np.concatenate([*(t.ravel() for t in tables), np.zeros(0)]).reshape(-1, chunk)
    value = np.take(source, index, axis=0).reshape(len(index), index.shape[1] * chunk)
    if len(constant_cols):
        table_cols = np.delete(np.arange(value.shape[1] + len(constant_cols)), constant_cols)
        value, gathered = np.empty((len(index), len(table_cols) + len(constant_cols))), value
        value[:, table_cols], value[:, constant_cols] = gathered, constant
    return value


def gather_concat_backward(
    g: np.ndarray, tables: Sequence[np.ndarray], index: np.ndarray, chunk: int, constant_cols: np.ndarray
) -> list[np.ndarray]:
    """Gradients on the tables of :func:`gather_concat`: one
    ``np.bincount`` per position in a chunk, adding in row order as
    ``np.add.at`` does."""
    if len(constant_cols):
        g = g[:, np.delete(np.arange(g.shape[1]), constant_cols)]
    g = g.reshape(*index.shape, chunk)
    flat, rows = index.ravel(), sum(t.size for t in tables) // chunk
    grad = np.stack([np.bincount(flat, g[:, :, j].ravel(), rows) for j in range(chunk)], axis=1).ravel()
    return [part.reshape(t.shape) for t, part in zip(tables, np.split(grad, np.cumsum([t.size for t in tables])))]


def tower_heads(
    x: np.ndarray, towers: Sequence[Sequence[tuple[np.ndarray, np.ndarray]]], clamp: float
) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, list[slice]]]]:
    """Each tower's relu hidden layers and sigmoid output unit on the
    batch ``x`` ``(n, d)``: the heads as the rows of a ``(towers, n)``
    array clipped into ``[clamp, 1 - clamp]``, the same before the clip,
    and per hidden layer its relu output and each tower's columns of it.
    Towers have equal depth; a hidden layer runs one matmul per tower
    into slices of one wide buffer, so values and gradients have the bits
    of per-tower ``dense`` layers."""
    depth = len(towers[0])
    if any(len(layers) != depth for layers in towers):
        raise ShapeError("towers differ in depth")
    if x.ndim != 2:
        raise ShapeError(f"tower_heads takes an (n, d) batch, got shape {x.shape}")
    inputs = [x] * len(towers)
    hidden: list[tuple[np.ndarray, list[slice]]] = []
    for layer in range(depth - 1):
        ends = np.cumsum([t[layer][1].size for t in towers])
        slices = [slice(end - t[layer][1].size, end) for t, end in zip(towers, ends)]
        h = np.empty((len(x), ends[-1]))
        for a, t, s in zip(inputs, towers, slices):
            np.matmul(a, t[layer][0], out=h[:, s])
        h += np.concatenate([t[layer][1] for t in towers])
        np.maximum(h, 0.0, out=h)
        hidden.append((h, slices))
        inputs = [h[:, s] for s in slices]
    p = stable_sigmoid(np.stack([(a @ t[-1][0] + t[-1][1])[:, 0] for a, t in zip(inputs, towers)]))
    return np.clip(p, clamp, 1.0 - clamp), p, hidden


def tower_heads_backward(
    heads: dict[int, np.ndarray],
    x: np.ndarray,
    towers: Sequence[Sequence[tuple[np.ndarray, np.ndarray]]],
    clamp: float,
    p: np.ndarray,
    hidden: list[tuple[np.ndarray, list[slice]]],
) -> tuple[np.ndarray, dict[int, list[tuple[np.ndarray, np.ndarray]]]]:
    """From ``heads``, tower index -> gradient on its head, the gradient
    on ``x`` and each of those towers' ``(w, b)`` gradients per layer;
    ``p`` and ``hidden`` are what :func:`tower_heads` returned. ``heads``
    must not be empty. The gradient on ``x`` adds the towers' parts in
    the order of ``heads``; a tower ``heads`` leaves out gets nothing."""
    g = np.zeros_like(p)
    for t, gt in heads.items():
        g[t] = gt
    g = g * ((p > clamp) & (p < 1.0 - clamp)) * p * (1.0 - p)
    order = list(heads)
    grads: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {t: [] for t in order}  # last layer first
    gz = {t: g[t].reshape(-1, 1) for t in order}  # per tower: gradient on the layer's pre-activation
    gb = {t: v.sum(axis=0) for t, v in gz.items()}  # and on its bias
    for layer in reversed(range(1, len(towers[0]))):
        h, slices = hidden[layer - 1]
        wide = np.zeros_like(h)  # a tower left out keeps zeros
        for t in order:
            w = towers[t][layer][0]
            grads[t].append((h[:, slices[t]].T @ gz[t], gb[t]))
            np.matmul(gz[t], w.T, out=wide[:, slices[t]])
        wide *= h > 0.0
        sums = wide.sum(axis=0)  # row by row, so each slice's sums are its own
        gz = {t: wide[:, slices[t]] for t in order}
        gb = {t: sums[slices[t]] for t in order}
    gx = None
    for t in order:
        w = towers[t][0][0]
        grads[t].append((x.T @ gz[t], gb[t]))
        part = gz[t] @ w.T
        gx = part if gx is None else np.add(gx, part, out=gx)
    return gx, {t: layers[::-1] for t, layers in grads.items()}


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
    g = np.concatenate([np.ravel(x) for x in grads]) if grads else np.zeros(0)
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
