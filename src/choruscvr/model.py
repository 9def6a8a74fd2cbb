"""Shared-bottom encoder with click, conversion and un-conversion heads.

One encoder consumes the dense feature vector; three sigmoid towers
read its output. Head probabilities are clamped to [1e-7, 1 - 1e-7]
before any logarithm downstream; the two funnel products (click *
conversion, click * un-conversion) may fall below the clamp floor but
stay strictly positive.

The model is one fixed chain of layer kernels, each a forward and a
backward function over float64 arrays: the input gather
(:func:`gather_concat`), the encoder's relu :func:`dense` layers, then
the towers (:func:`tower_heads`), whose every layer is one stacked
``(towers, fan_in, fan_out)`` weight. :func:`predict_batch` runs the
chain; the objective (``objectives.compose_method_loss``) hands each
head its gradient, and :func:`backward` runs the chain in reverse into
one gradient laid out as :class:`ModelParams`' one parameter vector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .features import FeatureMatrix, FeatureSchema, build_schema

__all__ = [
    "Tensor",
    "ShapeError",
    "stable_sigmoid",
    "dense",
    "dense_backward",
    "gather_concat",
    "gather_concat_backward",
    "tower_heads",
    "tower_heads_backward",
    "Architecture",
    "ModelParams",
    "TowerOutputs",
    "CheckpointError",
    "init_model",
    "predict_batch",
    "backward",
    "save_checkpoint",
    "load_checkpoint",
]

PROB_CLAMP = 1e-7
TOWER_NAMES = ("ctr", "cvr", "uncvr")
CHECKPOINT_MAGIC = "choruscvr-checkpoint"
CHECKPOINT_VERSION = 1


class ShapeError(ValueError):
    """Operand shapes cannot be combined."""


class CheckpointError(RuntimeError):
    """Unreadable or inconsistent checkpoint file."""


def stable_sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function, stable in both tails: ``1 / (1 + e)`` where
    ``x >= 0`` and ``e / (1 + e)`` elsewhere, with ``e = exp(-|x|)``.
    Written into ``out`` when given, which may be ``x`` itself."""
    nonneg = x >= 0.0
    e = np.abs(x, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    return np.divide(np.where(nonneg, 1.0, e), d, out=e)  # one division: a masked one costs more


class Tensor:
    """A batch's objective as a float64 leaf: ``parents`` is always
    empty. The benchmark's traced run counts the nodes it reaches from a
    step's objective through ``parents``."""

    __slots__ = ("value",)
    parents: tuple["Tensor", ...] = ()

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)

    def item(self) -> float:
        return float(self.value)


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
    tables: np.ndarray, index: np.ndarray, chunk: int, constant: np.ndarray, constant_cols: np.ndarray
) -> np.ndarray:
    """One ``(n, width)`` input: columns ``constant_cols`` take
    ``constant`` and the others, in order, the chunks of ``chunk``
    elements that ``index[i]`` names in ``tables``, the tables raveled
    and laid end to end in one vector."""
    value = np.take(tables.reshape(-1, chunk), index, axis=0).reshape(len(index), index.shape[1] * chunk)
    if len(constant_cols):
        table_cols = np.delete(np.arange(value.shape[1] + len(constant_cols)), constant_cols)
        value, gathered = np.empty((len(index), len(table_cols) + len(constant_cols))), value
        value[:, table_cols], value[:, constant_cols] = gathered, constant
    return value


def gather_concat_backward(
    g: np.ndarray, index: np.ndarray, chunk: int, constant_cols: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """The gradient on the tables of :func:`gather_concat`, written into
    ``out``, laid out as they are, and returned: one ``np.bincount`` per
    position in a chunk, adding in row order as ``np.add.at`` does."""
    if len(constant_cols):
        g = g[:, np.delete(np.arange(g.shape[1]), constant_cols)]
    g = g.reshape(-1, chunk).T.copy()  # row j: position j of every gathered chunk, in row order
    grad, flat = out.reshape(-1, chunk), index.ravel()
    for j, weights in enumerate(g):
        grad[:, j] = np.bincount(flat, weights, len(grad))
    return out


def tower_heads(
    x: np.ndarray, layers: Sequence[tuple[np.ndarray, np.ndarray]], clamp: float
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The towers' relu hidden layers and sigmoid output units on the
    batch ``x`` ``(n, d)``. Each layer stacks the towers: ``w`` is
    ``(towers, fan_in, fan_out)`` and ``b`` ``(towers, fan_out)``. Returns
    the heads as the rows of a ``(towers, n)`` array clipped into
    ``[clamp, 1 - clamp]``, the same before the clip, and each hidden
    layer's ``(towers, n, width)`` relu output. A layer is one batched
    matmul, which gives each tower the bits of its own 2-D product."""
    if x.ndim != 2:
        raise ShapeError(f"tower_heads takes an (n, d) batch, got shape {x.shape}")
    if len({w.shape[0] for w, _ in layers} | {b.shape[0] for _, b in layers}) != 1:
        raise ShapeError("towers differ in depth")
    h, hidden = x, []
    for w, b in layers[:-1]:
        h = np.matmul(h, w)
        h += b[:, None, :]
        np.maximum(h, 0.0, out=h)
        hidden.append(h)
    w, b = layers[-1]
    p = stable_sigmoid((np.matmul(h, w) + b[:, None, :])[:, :, 0])
    return np.minimum(np.maximum(p, clamp), 1.0 - clamp), p, hidden  # np.clip's bits, without its wrapper


def tower_heads_backward(
    heads: dict[int, np.ndarray],
    x: np.ndarray,
    layers: Sequence[tuple[np.ndarray, np.ndarray]],
    clamp: float,
    p: np.ndarray,
    hidden: Sequence[np.ndarray],
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """From ``heads``, tower index -> gradient on its head, the gradient
    on ``x`` and each layer's stacked ``(w, b)`` gradients; ``p`` and
    ``hidden`` are what :func:`tower_heads` returned. ``heads`` must not
    be empty. The gradient on ``x`` adds the towers' parts in the order
    of ``heads``; a tower ``heads`` leaves out gets zeros."""
    g = np.array([heads[t] if t in heads else np.zeros_like(p[t]) for t in range(len(p))])
    gz = (g * ((p > clamp) & (p < 1.0 - clamp)) * p * (1.0 - p))[:, :, None]  # on each layer's pre-activation
    inputs, grads = [x, *hidden], []
    for i in range(len(hidden), -1, -1):  # last layer first
        # width 1: pairwise down a contiguous column, as the reference's (n, 1) sum
        bias = gz.sum(axis=1) if gz.shape[2] == 1 else np.einsum("tij->tj", gz)
        grads.append((np.matmul(np.swapaxes(inputs[i], -1, -2), gz), bias))
        if i:  # gz @ w.T per tower; the output unit's is an outer product
            w = layers[i][0]
            gz = np.einsum("tik,tjk->tij", gz, w) if i == len(hidden) else np.matmul(gz, w.transpose(0, 2, 1))
            gz *= inputs[i] > 0.0
    (first, *rest), w = heads, layers[0][0]
    gx = gz[first] @ w[first].T
    for t in rest:
        gx += gz[t] @ w[t].T
    return gx, grads[::-1]


# -- parameters ------------------------------------------------------------------


@dataclass(frozen=True)
class Architecture:
    """Layer widths; hidden activations are relu, heads are sigmoid.

    ``encoder_widths`` lists the shared encoder's hidden widths (empty
    means the towers read the input directly). ``tower_widths`` lists
    each tower's hidden widths before its single output unit.
    ``tower_input_width``, when set, must equal the encoder's output
    width; it exists so config mistakes fail loudly at init.
    """

    encoder_widths: tuple[int, ...] = (64, 32)
    tower_widths: tuple[int, ...] = (16,)
    tower_input_width: int | None = None

    def __post_init__(self) -> None:
        for w in (*self.encoder_widths, *self.tower_widths):
            if w < 1:
                raise ValueError(f"layer widths must be positive, got {w}")


def _layout(schema: FeatureSchema, arch: Architecture) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter's name and shape, in layout order: the tables in
    schema order, the encoder layers, then the stacked tower layers.

    Raises :class:`ShapeError` when the schema gives no input column or
    a declared tower input width does not match the encoder output.
    """
    if not schema.input_width:
        raise ShapeError("the model needs at least one input feature")
    widths = [schema.input_width, *arch.encoder_widths]
    if arch.tower_input_width not in (None, widths[-1]):
        raise ShapeError(f"tower_input_width {arch.tower_input_width} does not match encoder output width {widths[-1]}")
    layout = [(f"embed.{f.name}", (f.vocab_size, f.embed_width)) for f in schema.ordered if f.kind == "categorical"]
    for i, (a, b) in enumerate(zip(widths, widths[1:])):
        layout += [(f"encoder.{i}.w", (a, b)), (f"encoder.{i}.b", (b,))]
    widths = [widths[-1], *arch.tower_widths, 1]
    for i, (a, b) in enumerate(zip(widths, widths[1:])):
        layout += [(f"tower.{i}.w", (len(TOWER_NAMES), a, b)), (f"tower.{i}.b", (len(TOWER_NAMES), b))]
    return layout


class ModelParams:
    """Every trained parameter in one float64 vector, ``flat`` (zeros
    when not given), in the order of ``names``: parameter ``i`` fills
    ``flat[offsets[i]:offsets[i + 1]]``. The parameters are views of
    ``flat``, so writing one writes ``flat``: ``tables`` by feature name,
    ``table_block`` (the tables raveled and laid end to end), and each
    layer's ``(w, b)`` in ``encoder`` and in ``towers``, whose stacked
    row ``t`` is ``TOWER_NAMES[t]``'s."""

    def __init__(self, schema: FeatureSchema, arch: Architecture, seed: int, flat: np.ndarray | None = None):
        self.schema = schema
        self.arch = arch
        self.seed = seed
        layout = _layout(schema, arch)
        self.names = tuple(name for name, _ in layout)
        self.offsets = np.cumsum([0, *(math.prod(shape) for _, shape in layout)])
        self._shapes = [shape for _, shape in layout]
        self.flat = np.zeros(self.offsets[-1]) if flat is None else flat
        cats = [f.name for f in schema.ordered if f.kind == "categorical"]
        bounds = zip(cats, self.offsets, self.offsets[1:], self._shapes)
        self.tables = {name: self.flat[a:b].reshape(shape) for name, a, b, shape in bounds}
        self.table_block, self.encoder, self.towers = self.split(self.flat)

    def split(
        self, vec: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]], list[tuple[np.ndarray, np.ndarray]]]:
        """Views of ``vec``, laid out as ``flat``: the tables' block, each
        encoder layer's ``(w, b)`` and each stacked tower layer's."""
        k, n = len(self.tables), len(self.arch.encoder_widths)
        bounds = zip(self.offsets[k:], self.offsets[k + 1 :], self._shapes[k:])
        arrays = [vec[a:b].reshape(shape) for a, b, shape in bounds]
        layers = list(zip(arrays[::2], arrays[1::2]))
        return vec[: self.offsets[k]], layers[:n], layers[n:]

    def checkpoint_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Every parameter array by name, in checkpoint order: the tables,
        the encoder layers, then tower by tower its layers, each a view of
        that tower's row of the stacked arrays."""
        k = len(self.tables) + 2 * len(self.encoder)
        out = list(zip(self.names[:k], [*self.tables.values(), *(a for layer in self.encoder for a in layer)]))
        for i, tower in enumerate(TOWER_NAMES):
            for j, (w, b) in enumerate(self.towers):
                out += [(f"tower.{tower}.{j}.w", w[i]), (f"tower.{tower}.{j}.b", b[i])]
        return out

    def copy(self) -> "ModelParams":
        """A copy of every parameter value."""
        return ModelParams(self.schema, self.arch, self.seed, self.flat.copy())


@dataclass(frozen=True)
class TowerOutputs:
    """Per-sample head probabilities, shape (n,) each, and what
    :func:`backward` reads of the forward pass that gave them."""

    ctr: np.ndarray
    cvr: np.ndarray
    uncvr: np.ndarray
    batch: FeatureMatrix | None = None
    layers: tuple[np.ndarray, ...] = ()  # the encoder's input, then each of its layers' outputs
    unclipped: np.ndarray | None = None  # the heads before the clip, one row per tower
    hidden: tuple[np.ndarray, ...] = ()  # each tower hidden layer's (towers, n, width) relu output

    def values(self) -> dict[str, np.ndarray]:
        """Score name -> probability array: the heads, then the funnel
        products ``ctcvr`` (ctr * cvr) and ``ctuncvr`` (ctr * uncvr)."""
        ctr, cvr, uncvr = self.ctr, self.cvr, self.uncvr
        return {"ctr": ctr, "cvr": cvr, "uncvr": uncvr, "ctcvr": ctr * cvr, "ctuncvr": ctr * uncvr}


def init_model(schema: FeatureSchema, arch: Architecture, seed: int) -> ModelParams:
    """Deterministic initialization from the seed: each table
    U(-1/sqrt(w), 1/sqrt(w)) for its embed width w, in schema order; the
    encoder layers' weights, then each tower's, ctr's first,
    U(-1/sqrt(fan_in), 1/sqrt(fan_in)); zero biases.

    Raises :class:`ShapeError` when the schema gives no input column or
    a declared tower input width does not match the encoder output.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    params = ModelParams(schema, arch, seed)
    # (array, width of its bound), in draw order
    draws = [(t, t.shape[1]) for t in params.tables.values()] + [(w, w.shape[0]) for w, _ in params.encoder]
    draws += [(w[t], w.shape[1]) for t in range(len(TOWER_NAMES)) for w, _ in params.towers]
    for out, width in draws:
        bound = 1.0 / np.sqrt(width)
        out[...] = rng.uniform(-bound, bound, size=out.shape)
    return params


def predict_batch(params: ModelParams, fm: FeatureMatrix) -> TowerOutputs:
    """Score a feature matrix: the input gather, the encoder's relu
    layers, then the three towers. Scoring reads the heads and drops the
    rest, which only :func:`backward` needs."""
    layers = [gather_concat(params.table_block, fm.index, fm.chunk, fm.num_values, fm.num_cols)]
    for w, b in params.encoder:
        layers.append(dense(layers[-1], w, b))
    heads, unclipped, hidden = tower_heads(layers[-1], params.towers, PROB_CLAMP)
    return TowerOutputs(*heads, fm, tuple(layers), unclipped, tuple(hidden))


def backward(params: ModelParams, outputs: TowerOutputs, head_grads: Mapping[str, np.ndarray]) -> np.ndarray:
    """The gradient, laid out as ``params.flat``, of an objective whose
    gradients on the heads of ``outputs`` are ``head_grads``.

    Runs :func:`predict_batch`'s chain in reverse. The towers add their
    input gradients in the order of ``head_grads``. A tower whose head
    is not in ``head_grads`` gets exact zeros, as does every parameter
    when ``head_grads`` is empty.
    """
    grad = np.zeros_like(params.flat)
    if head_grads:
        tables, encoder, towers = params.split(grad)
        heads = {TOWER_NAMES.index(h): g for h, g in head_grads.items()}
        g, tower_grads = tower_heads_backward(
            heads, outputs.layers[-1], params.towers, PROB_CLAMP, outputs.unclipped, outputs.hidden
        )
        for (gw, gb), (w_grad, b_grad) in zip(towers, tower_grads):
            gw[...], gb[...] = w_grad, b_grad
        layers = zip(encoder, params.encoder, outputs.layers, outputs.layers[1:])
        for (gw, gb), (w, _), x, out in reversed(list(layers)):
            g, gw[...], gb[...] = dense_backward(g, x, w, out)
        fm = outputs.batch
        gather_concat_backward(g, fm.index, fm.chunk, fm.num_cols, tables)
    return grad


# -- checkpointing ------------------------------------------------------------


def _schema_to_json(schema: FeatureSchema) -> dict:
    return {
        "features": [
            {
                "name": f.name,
                "kind": f.kind,
                "side": f.side,
                "vocab_size": f.vocab_size,
                "embed_width": f.embed_width,
            }
            for f in schema.features
        ],
        "numeric_stats": {},  # numerics enter as read; the key keeps the header bytes
    }


def _schema_from_json(obj: dict) -> FeatureSchema:
    entries = []
    for f in obj["features"]:
        entry = {"name": f["name"], "kind": f["kind"], "side": f["side"]}
        if f["kind"] == "categorical":
            entry["vocab_size"] = f["vocab_size"]
            entry["embed_width"] = f["embed_width"]
        entries.append(entry)
    return build_schema(entries)


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Versioned dump: one JSON header line, then raw little-endian
    float64 blocks in header order. Byte-stable for equal parameters."""
    named = params.checkpoint_arrays()
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "seed": params.seed,
        "arch": {
            "encoder_widths": list(params.arch.encoder_widths),
            "tower_widths": list(params.arch.tower_widths),
            "tower_input_width": params.arch.tower_input_width,
        },
        "schema": _schema_to_json(params.schema),
        "arrays": [{"name": name, "shape": list(a.shape)} for name, a in named],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"
    for _, a in named:
        blob += np.ascontiguousarray(a, dtype="<f8").tobytes()
    Path(path).write_bytes(blob)


def load_checkpoint(path: str | Path) -> ModelParams:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise CheckpointError(f"{path}: missing header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {header.get('version')!r}")
    try:  # a field of the wrong type or value is a malformed header, not a config error
        if header["schema"]["numeric_stats"]:
            raise CheckpointError(f"{path}: numeric standardization is not supported; numerics enter as read")
        arch = Architecture(
            encoder_widths=tuple(header["arch"]["encoder_widths"]),
            tower_widths=tuple(header["arch"]["tower_widths"]),
            tower_input_width=header["arch"]["tower_input_width"],
        )
        params = ModelParams(_schema_from_json(header["schema"]), arch, int(header["seed"]))
        arrays = [(a["name"], tuple(a["shape"])) for a in header["arrays"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc
    named = params.checkpoint_arrays()
    if [n for n, _ in named] != [n for n, _ in arrays]:
        raise CheckpointError(f"{path}: parameter layout does not match architecture")
    offset = nl + 1
    for (name, a), (_, shape) in zip(named, arrays):
        if shape != a.shape:
            raise CheckpointError(f"{path}: array {name} has shape {shape}, expected {a.shape}")
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8 if shape else 8
        block = raw[offset : offset + nbytes]
        if len(block) != nbytes:
            raise CheckpointError(f"{path}: truncated array block for {name}")
        a[...] = np.frombuffer(block, dtype="<f8").reshape(shape)
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
    return params
