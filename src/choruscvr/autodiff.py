"""Reverse-mode automatic differentiation over dense float64 arrays.

Define-by-run: every operation returns a new :class:`Tensor` holding the
forward value, the parent nodes and a closure that maps the output
gradient onto the parents. ``backward`` walks the graph once in reverse
topological order. Inside :func:`no_grad` no graph is built, so the same
forward code serves scoring. The operation set is the model's chain:
the input gather, dense layers and the three towers, each one fused node
with an analytic backward; the training objective is one node of its
own (``objectives.compose_method_loss``). Everything is 64-bit.
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
    "dense",
    "gather_concat",
    "tower_heads",
    "mlp_forward",
    "OptimizerConfig",
    "OptimizerState",
    "optimizer_step",
    "ACTIVATIONS",
    "ADAM_BETA1",
    "ADAM_BETA2",
    "ADAM_EPSILON",
]

ACTIVATIONS = ("relu", "sigmoid", "identity")

# Adam's moment decay rates and denominator offset.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class GraphError(ValueError):
    """Misuse of the computation graph (non-scalar root, bad op tag)."""


class ShapeError(GraphError):
    """Operand shapes cannot be combined."""


class OptimizerError(RuntimeError):
    """Raised on non-finite gradients or malformed optimizer inputs."""


def _noop(g: np.ndarray) -> None:
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


def _accumulate(node: "Tensor", g: np.ndarray) -> None:
    """Add ``g`` into ``node``'s gradient for the current backward pass.

    The first write takes ``g`` as it is instead of adding it to a zero
    buffer; later writes build a new array. No gradient buffer is ever
    written in place, so two nodes may share one. Taking ``g`` as it is
    keeps the sign of a zero that ``0.0 + g`` would turn positive; such
    a zero reaches the parameters only as a zero step.
    """
    node._grad = g if node._grad is None else node._grad + g


class Tensor:
    """One node of the computation graph.

    ``value`` and ``grad`` always share a shape. ``grad`` reads zero until
    a :func:`backward` reaches the node; each backward starts every node
    it reaches from zero.
    """

    __slots__ = ("value", "_grad", "op", "parents", "name", "_backward")

    def __init__(
        self,
        value,
        *,
        parents: tuple["Tensor", ...] = (),
        op: str = "leaf",
        name: str = "",
    ):
        self.value = np.asarray(value, dtype=np.float64)
        self._grad: np.ndarray | None = None
        self.op = op
        self.parents = parents if _grad_enabled else ()
        self.name = name
        self._backward: Callable[[np.ndarray], None] = _noop

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    def _attach(self, bw: Callable[[np.ndarray], None]) -> "Tensor":
        """Install ``bw`` as this node's backward step, unless under no_grad.

        ``bw`` receives the node's gradient as its argument and refers to
        the parents only, never to the node, so a graph holds no reference
        cycle and is freed as soon as its root is dropped.
        """
        if _grad_enabled:
            self._backward = bw
        return self

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(op={self.op!r}, shape={self.shape}{tag})"


# -- fused nodes ---------------------------------------------------------------
#
# Each is one graph node with an analytic backward, in place of the chain
# of elementwise nodes it stands for.


def dense(x: Tensor, w: Tensor, b: Tensor, activation: str) -> Tensor:
    """``activation(x @ w + b)`` on a batch ``x`` of shape ``(n, d)``."""
    if x.value.ndim != 2:
        raise ShapeError(f"dense takes an (n, d) batch, got shape {x.value.shape}")
    z = x.value @ w.value + b.value
    if activation == "relu":
        value = np.maximum(z, 0.0)
    elif activation == "sigmoid":
        value = stable_sigmoid(z)
    elif activation == "identity":
        value = z
    else:
        raise GraphError(f"unknown activation {activation!r}")
    out = Tensor(value, parents=(x, w, b), op="dense")

    def bw(g: np.ndarray) -> None:
        if activation == "relu":
            g = g * (value > 0.0)
        elif activation == "sigmoid":
            g = g * value * (1.0 - value)
        _accumulate(x, g @ w.value.T)
        _accumulate(w, x.value.T @ g)
        _accumulate(b, g.sum(axis=0))

    return out._attach(bw)


def gather_concat(
    tables: Sequence[Tensor], index: np.ndarray, chunk: int, constant: np.ndarray, constant_cols: np.ndarray
) -> Tensor:
    """One ``(n, width)`` input: columns ``constant_cols`` take
    ``constant`` and the others, in order, the chunks of ``chunk``
    elements that ``index[i]`` names in the tables raveled and laid end
    to end. Table gradients are one ``np.bincount`` per position in a
    chunk, adding in row order as ``np.add.at`` does."""
    source = np.concatenate([*(t.value.ravel() for t in tables), np.zeros(0)]).reshape(-1, chunk)
    value = np.take(source, index, axis=0).reshape(len(index), index.shape[1] * chunk)
    table_cols = None
    if len(constant_cols):
        table_cols = np.delete(np.arange(value.shape[1] + len(constant_cols)), constant_cols)
        value, gathered = np.empty((len(index), len(table_cols) + len(constant_cols))), value
        value[:, table_cols], value[:, constant_cols] = gathered, constant
    out = Tensor(value, parents=tuple(tables), op="gather_concat")

    def bw(g: np.ndarray) -> None:
        g = (g if table_cols is None else g[:, table_cols]).reshape(*index.shape, chunk)
        flat = index.ravel()
        grad = np.stack([np.bincount(flat, g[:, :, j].ravel(), len(source)) for j in range(chunk)], axis=1).ravel()
        for t, part in zip(tables, np.split(grad, np.cumsum([t.value.size for t in tables]))):
            _accumulate(t, part.reshape(t.value.shape))

    return out._attach(bw)


def tower_heads(x: Tensor, towers: Sequence[Sequence[tuple[Tensor, Tensor]]], clamp: float) -> tuple[Tensor, ...]:
    """Each tower's relu hidden layers and sigmoid output unit on the
    batch ``x`` ``(n, d)``, clipped into ``[clamp, 1 - clamp]``:
    one node with the heads as the rows of its value, returned as one
    ``(n,)`` view node per head. Towers have equal depth; a hidden layer
    runs one matmul per tower into slices of one wide buffer, so values
    and gradients have the bits of per-tower ``dense`` nodes. Gradients
    on ``x`` (which nothing else may read) add in the order the heads'
    gradients arrive, as per-tower nodes add them; a head no gradient
    reaches leaves its tower untouched."""
    depth = len(towers[0])
    if any(len(layers) != depth for layers in towers):
        raise ShapeError("towers differ in depth")
    if x.value.ndim != 2:
        raise ShapeError(f"tower_heads takes an (n, d) batch, got shape {x.value.shape}")
    inputs = [x.value] * len(towers)
    hidden: list[tuple[np.ndarray, list[slice]]] = []  # per hidden layer: relu output, tower columns
    for layer in range(depth - 1):
        ends = np.cumsum([t[layer][1].value.size for t in towers])
        slices = [slice(end - t[layer][1].value.size, end) for t, end in zip(towers, ends)]
        h = np.empty((len(x.value), ends[-1]))
        for a, t, s in zip(inputs, towers, slices):
            np.matmul(a, t[layer][0].value, out=h[:, s])
        h += np.concatenate([t[layer][1].value for t in towers])
        np.maximum(h, 0.0, out=h)
        hidden.append((h, slices))
        inputs = [h[:, s] for s in slices]
    p = stable_sigmoid(np.stack([(a @ t[-1][0].value + t[-1][1].value)[:, 0] for a, t in zip(inputs, towers)]))
    value = np.clip(p, clamp, 1.0 - clamp)
    out = Tensor(value, parents=(x, *(v for t in towers for layer in t for v in layer)), op="tower_heads")
    arrived: list[int] = []  # towers in the order their heads' gradients arrive

    def bw(g: np.ndarray) -> None:
        g = g * ((p > clamp) & (p < 1.0 - clamp)) * p * (1.0 - p)
        gz = {t: g[t].reshape(-1, 1) for t in arrived}  # per tower: gradient on the layer's pre-activation
        gb = {t: v.sum(axis=0) for t, v in gz.items()}  # and on its bias
        for layer in reversed(range(1, depth)):
            h, slices = hidden[layer - 1]
            wide = np.zeros_like(h)  # a tower whose head got no gradient keeps zeros
            for t in arrived:
                w, b = towers[t][layer]
                _accumulate(w, h[:, slices[t]].T @ gz[t])
                _accumulate(b, gb[t])
                np.matmul(gz[t], w.value.T, out=wide[:, slices[t]])
            wide *= h > 0.0
            sums = wide.sum(axis=0)  # row by row, so each slice's sums are its own
            gz = {t: wide[:, slices[t]] for t in arrived}
            gb = {t: sums[slices[t]] for t in arrived}
        gx = None
        for t in arrived:
            w, b = towers[t][0]
            _accumulate(w, x.value.T @ gz[t])
            _accumulate(b, gb[t])
            part = gz[t] @ w.value.T
            gx = part if gx is None else np.add(gx, part, out=gx)
        _accumulate(x, gx)

    def head(t: int) -> Tensor:
        def head_bw(g: np.ndarray) -> None:
            if out._grad is None:  # the first head of a pass; only heads write it
                out._grad = np.zeros_like(value)
                arrived.clear()
            out._grad[t] = g
            arrived.append(t)

        return Tensor(value[t], parents=(out,), op="tower_head")._attach(head_bw)

    out._attach(bw)
    return tuple(head(t) for t in range(len(towers)))


def _topo_order(root: Tensor) -> list[Tensor]:
    """Parents before children: the post-order of a depth-first walk that
    enters a node's parents last to first."""
    order: list[Tensor] = []
    seen = {root}  # nodes hash by identity
    stack = [(root, reversed(root.parents))]
    while stack:
        node, parents = stack[-1]
        for parent in parents:
            if parent not in seen:
                seen.add(parent)
                stack.append((parent, reversed(parent.parents)))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def backward(root: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate d(root)/d(node) into every reachable node's ``grad``.

    The root must be scalar. Every reachable node starts the pass with
    no gradient (it reads zero), so repeated calls never leak
    accumulation across steps and never change the arrays an earlier
    call returned. Returns a map from every reachable leaf node to its
    gradient array.
    """
    if root.value.shape != ():
        raise GraphError(f"backward root must be scalar, got shape {root.value.shape}")
    order = _topo_order(root)
    for node in order:
        node._grad = None
    root._grad = np.ones_like(root.value)
    for node in reversed(order):
        # A node no gradient reached would only pass zeros on.
        if node._grad is not None:
            node._backward(node._grad)
    return {node: node.grad for node in order if node.op == "leaf"}


def mlp_forward(
    layers: Sequence[tuple[Tensor, Tensor]],
    x: Tensor | np.ndarray,
    activations: Sequence[str],
) -> Tensor:
    """Run ``x`` through :func:`dense` layers ``(W, b)`` with per-layer
    activations.

    ``x`` is a batch ``(n, d)``. Dimensions must chain: each layer
    consumes the previous layer's output width.
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
        h = dense(h, w, b, act)
    return h


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
