"""Reverse-mode automatic differentiation over dense float64 arrays.

Define-by-run: every operation returns a new :class:`Tensor` holding the
forward value, the parent nodes and a closure that maps the output
gradient onto the parents. ``backward`` walks the graph once in reverse
topological order. Inside :func:`no_grad` no graph is built, so the same
forward code serves scoring. The operation set is intentionally small
(what the training objectives need) and everything is 64-bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "GraphError",
    "ShapeError",
    "OptimizerError",
    "backward",
    "no_grad",
    "stable_sigmoid",
    "stop_gradient",
    "concat",
    "mlp_forward",
    "OptimizerConfig",
    "OptimizerState",
    "optimizer_step",
    "ACTIVATIONS",
]

ACTIVATIONS = ("relu", "sigmoid", "identity")


class GraphError(ValueError):
    """Misuse of the computation graph (non-scalar root, bad op tag)."""


class ShapeError(GraphError):
    """Operand shapes cannot be combined."""


class OptimizerError(RuntimeError):
    """Raised on non-finite gradients or malformed optimizer inputs."""


def _noop() -> None:
    return None


_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Build no graph inside the block.

    Results keep no parents and no backward closure, so every
    intermediate is freed as soon as the next operation has read it.
    Values are the same as with the graph.
    """
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, stable in both tails."""
    return np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over dimensions that numpy broadcasting expanded."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """One node of the computation graph.

    ``value`` and ``grad`` always share a shape. ``grad`` reads zero until
    a :func:`backward` reaches the node; each backward gives every node it
    reaches a fresh buffer. A node with ``grad_blocked`` set
    contributes exactly zero gradient to all of its parents: the engine
    never invokes its backward closure, so parent accumulators are left
    untouched (bitwise zero, not merely small).
    """

    __slots__ = ("value", "_grad", "op", "parents", "grad_blocked", "name", "_backward")

    def __init__(
        self,
        value,
        *,
        parents: tuple["Tensor", ...] = (),
        op: str = "leaf",
        grad_blocked: bool = False,
        name: str = "",
    ):
        self.value = np.asarray(value, dtype=np.float64)
        self._grad: np.ndarray | None = None
        self.op = op
        self.parents = parents if _grad_enabled else ()
        self.grad_blocked = grad_blocked
        self.name = name
        self._backward: Callable[[], None] = _noop

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    def _attach(self, bw: Callable[[], None]) -> "Tensor":
        """Install ``bw`` as this node's backward step, unless under no_grad."""
        if _grad_enabled:
            self._backward = bw
        return self

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return self.value.size

    def item(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(op={self.op!r}, shape={self.shape}{tag})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        a_val, b_val, parents = _operands(self, other)
        out = Tensor(a_val + b_val, parents=parents, op="add")

        def bw() -> None:
            g = out.grad
            for p in parents:
                p.grad += _unbroadcast(g, p.value.shape)

        return out._attach(bw)

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.value, parents=(self,), op="neg")

        def bw() -> None:
            self.grad -= out.grad

        return out._attach(bw)

    def __sub__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return self.__add__(other.__neg__())
        return self.__add__(-np.asarray(other, dtype=np.float64))

    def __rsub__(self, other) -> "Tensor":
        return self.__neg__().__add__(other)

    def __mul__(self, other) -> "Tensor":
        a_val, b_val, parents = _operands(self, other)
        out = Tensor(a_val * b_val, parents=parents, op="mul")

        def bw() -> None:
            g = out.grad
            if isinstance(other, Tensor):
                self.grad += _unbroadcast(g * other.value, self.value.shape)
                other.grad += _unbroadcast(g * self.value, other.value.shape)
            else:
                self.grad += _unbroadcast(g * b_val, self.value.shape)

        return out._attach(bw)

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return self.__mul__(other.reciprocal())
        return self.__mul__(1.0 / np.asarray(other, dtype=np.float64))

    def __rtruediv__(self, other) -> "Tensor":
        return self.reciprocal().__mul__(other)

    def __matmul__(self, other) -> "Tensor":
        if not isinstance(other, Tensor):
            other = Tensor(other)
        a, b = self.value, other.value
        if a.shape[-1] != b.shape[0]:
            raise ShapeError(f"matmul: inner dimensions {a.shape} @ {b.shape} do not match")
        out = Tensor(a @ b, parents=(self, other), op="matmul")

        def bw() -> None:
            g = out.grad
            self.grad += g @ b.T
            if a.ndim == 1:
                other.grad += np.outer(a, g)
            else:
                other.grad += a.T @ g

        return out._attach(bw)

    def reciprocal(self) -> "Tensor":
        out = Tensor(1.0 / self.value, parents=(self,), op="reciprocal")

        def bw() -> None:
            self.grad += -out.grad * out.value * out.value

        return out._attach(bw)

    # -- nonlinearities ---------------------------------------------------

    def relu(self) -> "Tensor":
        out = Tensor(np.maximum(self.value, 0.0), parents=(self,), op="relu")

        def bw() -> None:
            self.grad += out.grad * (self.value > 0.0)

        return out._attach(bw)

    def sigmoid(self) -> "Tensor":
        out = Tensor(stable_sigmoid(self.value), parents=(self,), op="sigmoid")

        def bw() -> None:
            self.grad += out.grad * out.value * (1.0 - out.value)

        return out._attach(bw)

    def log(self) -> "Tensor":
        out = Tensor(np.log(self.value), parents=(self,), op="log")

        def bw() -> None:
            self.grad += out.grad / self.value

        return out._attach(bw)

    def clip(self, lo: float, hi: float) -> "Tensor":
        """Clamp values into [lo, hi]; gradient passes only strictly inside."""
        out = Tensor(np.clip(self.value, lo, hi), parents=(self,), op="clip")

        def bw() -> None:
            self.grad += out.grad * ((self.value > lo) & (self.value < hi))

        return out._attach(bw)

    def clamp_min(self, floor: float) -> "Tensor":
        """max(x, floor); gradient passes where x > floor."""
        out = Tensor(np.maximum(self.value, floor), parents=(self,), op="clamp_min")

        def bw() -> None:
            self.grad += out.grad * (self.value > floor)

        return out._attach(bw)

    # -- reductions / shaping ----------------------------------------------

    def sum(self) -> "Tensor":
        out = Tensor(self.value.sum(), parents=(self,), op="sum")

        def bw() -> None:
            self.grad += out.grad

        return out._attach(bw)

    def mean(self) -> "Tensor":
        n = self.value.size
        out = Tensor(self.value.mean(), parents=(self,), op="mean")

        def bw() -> None:
            self.grad += out.grad / n

        return out._attach(bw)

    def reshape(self, *shape: int) -> "Tensor":
        old = self.value.shape
        out = Tensor(self.value.reshape(shape), parents=(self,), op="reshape")

        def bw() -> None:
            self.grad += out.grad.reshape(old)

        return out._attach(bw)

    def ravel(self) -> "Tensor":
        return self.reshape(self.value.size)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Row gather (embedding lookup); backward scatter-adds."""
        idx = np.asarray(indices)
        out = Tensor(self.value[idx], parents=(self,), op="take_rows")

        def bw() -> None:
            np.add.at(self.grad, idx, out.grad)

        return out._attach(bw)


def _operands(a: Tensor, b) -> tuple[np.ndarray, np.ndarray, tuple[Tensor, ...]]:
    if isinstance(b, Tensor):
        return a.value, b.value, (a, b)
    return a.value, np.asarray(b, dtype=np.float64), (a,)


def stop_gradient(t: Tensor) -> Tensor:
    """Identity on values, zero on gradients.

    The result keeps its parent for graph bookkeeping but is flagged so
    that backward never propagates anything through it.
    """
    out = Tensor(t.value, parents=(t,), op="stop_gradient", grad_blocked=True)
    return out


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    parts = [t.value for t in tensors]
    out = Tensor(np.concatenate(parts, axis=axis), parents=tuple(tensors), op="concat")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw() -> None:
        g = out.grad
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t.grad += g[tuple(sl)]

    return out._attach(bw)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(root: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate d(root)/d(node) into every reachable node's ``grad``.

    The root must be scalar. Every reachable node gets a fresh zero
    buffer first, so repeated calls never leak accumulation across steps
    and never overwrite the arrays an earlier call returned. Returns a
    map from every reachable leaf node to its gradient array.
    """
    if root.value.shape != ():
        raise GraphError(f"backward root must be scalar, got shape {root.value.shape}")
    order = _topo_order(root)
    for node in order:
        node.grad = np.zeros_like(node.value)
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node.grad_blocked:
            continue
        node._backward()
    return {node: node.grad for node in order if node.op == "leaf"}


def mlp_forward(
    layers: Sequence[tuple[Tensor, Tensor]],
    x: Tensor | np.ndarray,
    activations: Sequence[str],
) -> Tensor:
    """Run ``x`` through dense layers ``(W, b)`` with per-layer activations.

    ``x`` is a vector ``(d,)`` or a batch ``(n, d)``. Dimensions must
    chain: each layer consumes the previous layer's output width.
    """
    if len(layers) != len(activations):
        raise ShapeError(f"{len(layers)} layers but {len(activations)} activation tags")
    h = x if isinstance(x, Tensor) else Tensor(x)
    for i, ((w, b), act) in enumerate(zip(layers, activations)):
        if act not in ACTIVATIONS:
            raise GraphError(f"layer {i}: unknown activation {act!r}")
        if h.value.shape[-1] != w.value.shape[0]:
            raise ShapeError(
                f"layer {i}: input width {h.value.shape[-1]} does not match "
                f"weight shape {w.value.shape}"
            )
        h = h @ w + b
        if act == "relu":
            h = h.relu()
        elif act == "sigmoid":
            h = h.sigmoid()
    return h


# -- optimizer ---------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Adaptive-moment update by default; plain SGD selectable."""

    method: str = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if self.method not in ("adam", "sgd"):
            raise OptimizerError(f"unknown optimizer method {self.method!r}")
        if self.learning_rate <= 0:
            raise OptimizerError("learning_rate must be positive")


@dataclass
class OptimizerState:
    """Per-parameter moment accumulators plus the step counter."""

    step_count: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: Sequence[Tensor]) -> "OptimizerState":
        return cls(
            step_count=0,
            m=[np.zeros_like(p.value) for p in params],
            v=[np.zeros_like(p.value) for p in params],
        )


def _param_label(param: Tensor, index: int) -> str:
    return param.name or f"param[{index}]"


def optimizer_step(
    params: Sequence[Tensor],
    grads: Sequence[np.ndarray],
    state: OptimizerState,
    config: OptimizerConfig,
) -> OptimizerState:
    """Apply one update in place; increments and returns the state.

    Gradients must be finite and aligned with ``params`` (same order the
    state was created with).
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise OptimizerError("params, grads and state are not aligned")
    step = state.step_count + 1
    for i, (p, g) in enumerate(zip(params, grads)):
        if not np.all(np.isfinite(g)):
            raise OptimizerError(f"non-finite gradient for {_param_label(p, i)} at step {step}")
    if config.method == "sgd":
        for p, g in zip(params, grads):
            p.value -= config.learning_rate * g
    else:
        b1, b2 = config.beta1, config.beta2
        bias1 = 1.0 - b1**step
        bias2 = 1.0 - b2**step
        for i, (p, g) in enumerate(zip(params, grads)):
            state.m[i] *= b1
            state.m[i] += (1.0 - b1) * g
            state.v[i] *= b2
            state.v[i] += (1.0 - b2) * g * g
            m_hat = state.m[i] / bias1
            v_hat = state.v[i] / bias2
            p.value -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
    state.step_count = step
    for i, p in enumerate(params):
        if not np.all(np.isfinite(state.m[i])) or not np.all(np.isfinite(state.v[i])):
            raise OptimizerError(f"non-finite moment for {_param_label(p, i)} at step {step}")
    return state
