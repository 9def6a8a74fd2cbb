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
head its gradient, and :func:`backward` runs the chain in reverse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate
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
    "init_tables",
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
    g = g.reshape(-1, chunk).T.copy()  # row j: position j of every gathered chunk, in row order
    flat, sizes = index.ravel(), [t.size for t in tables]
    grad = np.empty((sum(sizes) // chunk, chunk))
    for j, weights in enumerate(g):
        grad[:, j] = np.bincount(flat, weights, len(grad))
    return [grad.reshape(-1)[end - t.size : end].reshape(t.shape) for t, end in zip(tables, accumulate(sizes))]


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


def init_tables(schema: FeatureSchema, rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh embedding tables, U(-1/sqrt(w), 1/sqrt(w)) per feature, in
    schema order: the order :func:`gather_concat` lays them end to end."""
    tables: dict[str, Tensor] = {}
    for f in schema.ordered:
        if f.kind != "categorical":
            continue
        bound = 1.0 / np.sqrt(f.embed_width)
        tables[f.name] = Tensor(rng.uniform(-bound, bound, size=(f.vocab_size, f.embed_width)), name=f"embed.{f.name}")
    return tables


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

    def encoder_output_width(self, input_width: int) -> int:
        return self.encoder_widths[-1] if self.encoder_widths else input_width


@dataclass
class ModelParams:
    schema: FeatureSchema
    arch: Architecture
    seed: int
    tables: dict[str, Tensor]
    encoder: list[tuple[Tensor, Tensor]]
    towers: list[tuple[Tensor, Tensor]]  # per tower layer, stacked: row t is TOWER_NAMES[t]'s

    def parameters(self) -> list[Tensor]:
        """All trained parameters in a fixed order: the tables, the
        encoder layers, then the stacked tower layers."""
        return [*self.tables.values(), *(t for layer in (*self.encoder, *self.towers) for t in layer)]

    def checkpoint_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Every parameter array by name, in checkpoint order: the tables,
        the encoder layers, then tower by tower its layers, each a view of
        that tower's row of the stacked arrays."""
        out = [(t.name, t.value) for t in (*self.tables.values(), *(t for layer in self.encoder for t in layer))]
        for i, tower in enumerate(TOWER_NAMES):
            for j, (w, b) in enumerate(self.towers):
                out += [(f"tower.{tower}.{j}.w", w.value[i]), (f"tower.{tower}.{j}.b", b.value[i])]
        return out

    def copy(self) -> "ModelParams":
        """Deep copy of all parameter values."""

        def clone(layers: list[tuple[Tensor, Tensor]]) -> list[tuple[Tensor, Tensor]]:
            return [tuple(Tensor(t.value.copy(), name=t.name) for t in layer) for layer in layers]

        tables = {k: Tensor(t.value.copy(), name=t.name) for k, t in self.tables.items()}
        return ModelParams(self.schema, self.arch, self.seed, tables, clone(self.encoder), clone(self.towers))


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


def _draw_layer(fan_in: int, fan_out: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)), np.zeros(fan_out)


def _layer(w: np.ndarray, b: np.ndarray, name: str) -> tuple[Tensor, Tensor]:
    return Tensor(w, name=f"{name}.w"), Tensor(b, name=f"{name}.b")


def init_model(schema: FeatureSchema, arch: Architecture, seed: int) -> ModelParams:
    """Deterministic initialization from the seed: the tables, the
    encoder layers, then each tower's layers, ctr's first.

    Raises :class:`ShapeError` when the schema gives no input column or
    a declared tower input width does not match the encoder output.
    """
    input_width = schema.input_width
    if not input_width:
        raise ShapeError("the model needs at least one input feature")
    enc_out = arch.encoder_output_width(input_width)
    if arch.tower_input_width is not None and arch.tower_input_width != enc_out:
        raise ShapeError(
            f"tower_input_width {arch.tower_input_width} does not match "
            f"encoder output width {enc_out}"
        )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    tables = init_tables(schema, rng)
    widths = [input_width, *arch.encoder_widths]
    encoder = [_layer(*_draw_layer(a, b, rng), f"encoder.{i}") for i, (a, b) in enumerate(zip(widths, widths[1:]))]
    widths = [enc_out, *arch.tower_widths, 1]
    drawn = [[_draw_layer(a, b, rng) for a, b in zip(widths, widths[1:])] for _ in TOWER_NAMES]
    towers = [_layer(*map(np.stack, zip(*layer)), f"tower.{i}") for i, layer in enumerate(zip(*drawn))]
    return ModelParams(schema, arch, seed, tables, encoder, towers)


def _tower_values(params: ModelParams) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(w.value, b.value) for w, b in params.towers]


def predict_batch(params: ModelParams, fm: FeatureMatrix) -> TowerOutputs:
    """Score a feature matrix: the input gather, the encoder's relu
    layers, then the three towers. Scoring reads the heads and drops the
    rest, which only :func:`backward` needs."""
    tables = [t.value for t in params.tables.values()]
    layers = [gather_concat(tables, fm.index, fm.chunk, fm.num_values, fm.num_cols)]
    for w, b in params.encoder:
        layers.append(dense(layers[-1], w.value, b.value))
    heads, unclipped, hidden = tower_heads(layers[-1], _tower_values(params), PROB_CLAMP)
    return TowerOutputs(*heads, fm, tuple(layers), unclipped, tuple(hidden))


def backward(
    params: ModelParams, outputs: TowerOutputs, head_grads: Mapping[str, np.ndarray], parameters: Sequence[Tensor]
) -> list[np.ndarray]:
    """The gradients on ``parameters``, in their order, of an objective
    whose gradients on the heads of ``outputs`` are ``head_grads``.

    Runs :func:`predict_batch`'s chain in reverse. The towers add their
    input gradients in the order of ``head_grads``. A tower whose head
    is not in ``head_grads`` gets exact zeros, as does any parameter the
    chain does not read.
    """
    grads: dict[Tensor, np.ndarray] = {}
    if head_grads:
        heads = {TOWER_NAMES.index(h): g for h, g in head_grads.items()}
        g, towers = tower_heads_backward(
            heads, outputs.layers[-1], _tower_values(params), PROB_CLAMP, outputs.unclipped, outputs.hidden
        )
        for (w, b), (gw, gb) in zip(params.towers, towers):
            grads[w], grads[b] = gw, gb
        for (w, b), x, out in reversed(list(zip(params.encoder, outputs.layers, outputs.layers[1:]))):
            g, grads[w], grads[b] = dense_backward(g, x, w.value, out)
        fm, tables = outputs.batch, list(params.tables.values())
        grads.update(zip(tables, gather_concat_backward(g, [t.value for t in tables], fm.index, fm.chunk, fm.num_cols)))
    return [grads[p] if p in grads else np.zeros_like(p.value) for p in parameters]


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
        params = init_model(_schema_from_json(header["schema"]), arch, int(header["seed"]))
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
