"""Shared-bottom encoder with click, conversion and un-conversion heads.

One encoder consumes the dense feature vector; three sigmoid towers
read its output. Head probabilities are clamped to [1e-7, 1 - 1e-7]
before any logarithm downstream; the two funnel products (click *
conversion, click * un-conversion) may fall below the clamp floor but
stay strictly positive. :func:`predict_batch` runs the forward pass and
:func:`backward` the same chain in reverse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .autodiff import Tensor, ShapeError, dense, dense_backward, tower_heads, tower_heads_backward
from .features import (
    FeatureMatrix,
    FeatureSchema,
    build_schema,
    encode_matrix,
    encode_matrix_backward,
    init_tables,
)

__all__ = [
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


class CheckpointError(RuntimeError):
    """Unreadable or inconsistent checkpoint file."""


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
    towers: dict[str, list[tuple[Tensor, Tensor]]]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """All gradient-tracked parameters in a fixed order."""
        out: list[tuple[str, Tensor]] = []
        for f in self.schema.ordered:
            if f.name in self.tables:
                out.append((f"embed.{f.name}", self.tables[f.name]))
        for i, (w, b) in enumerate(self.encoder):
            out.append((f"encoder.{i}.w", w))
            out.append((f"encoder.{i}.b", b))
        for tower in TOWER_NAMES:
            for i, (w, b) in enumerate(self.towers[tower]):
                out.append((f"tower.{tower}.{i}.w", w))
                out.append((f"tower.{tower}.{i}.b", b))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def copy(self) -> "ModelParams":
        """Deep copy of all parameter values."""

        def clone(t: Tensor) -> Tensor:
            return Tensor(t.value.copy(), name=t.name)

        tables = {k: clone(t) for k, t in self.tables.items()}
        encoder = [(clone(w), clone(b)) for w, b in self.encoder]
        towers = {k: [(clone(w), clone(b)) for w, b in layers] for k, layers in self.towers.items()}
        return ModelParams(self.schema, self.arch, self.seed, tables, encoder, towers)


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
    hidden: tuple[tuple[np.ndarray, list[slice]], ...] = ()  # per tower hidden layer: relu output, tower columns

    def values(self) -> dict[str, np.ndarray]:
        """Score name -> probability array: the heads, then the funnel
        products ``ctcvr`` (ctr * cvr) and ``ctuncvr`` (ctr * uncvr)."""
        ctr, cvr, uncvr = self.ctr, self.cvr, self.uncvr
        return {"ctr": ctr, "cvr": cvr, "uncvr": uncvr, "ctcvr": ctr * cvr, "ctuncvr": ctr * uncvr}


def _init_layer(fan_in: int, fan_out: int, rng: np.random.Generator, name: str) -> tuple[Tensor, Tensor]:
    bound = 1.0 / np.sqrt(fan_in)
    w = Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    w.name = f"{name}.w"
    b = Tensor(np.zeros(fan_out))
    b.name = f"{name}.b"
    return w, b


def init_model(schema: FeatureSchema, arch: Architecture, seed: int) -> ModelParams:
    """Deterministic initialization from the seed.

    Raises :class:`ShapeError` when a declared tower input width does
    not match the encoder output.
    """
    input_width = schema.input_width
    enc_out = arch.encoder_output_width(input_width)
    if arch.tower_input_width is not None and arch.tower_input_width != enc_out:
        raise ShapeError(
            f"tower_input_width {arch.tower_input_width} does not match "
            f"encoder output width {enc_out}"
        )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    tables = init_tables(schema, rng)
    encoder: list[tuple[Tensor, Tensor]] = []
    prev = input_width
    for i, width in enumerate(arch.encoder_widths):
        encoder.append(_init_layer(prev, width, rng, f"encoder.{i}"))
        prev = width
    towers: dict[str, list[tuple[Tensor, Tensor]]] = {}
    for tower in TOWER_NAMES:
        layers: list[tuple[Tensor, Tensor]] = []
        prev_t = enc_out
        for i, width in enumerate(arch.tower_widths):
            layers.append(_init_layer(prev_t, width, rng, f"tower.{tower}.{i}"))
            prev_t = width
        layers.append(_init_layer(prev_t, 1, rng, f"tower.{tower}.out"))
        towers[tower] = layers
    return ModelParams(schema, arch, seed, tables, encoder, towers)


def _tower_values(params: ModelParams) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    return [[(w.value, b.value) for w, b in params.towers[t]] for t in TOWER_NAMES]


def predict_batch(params: ModelParams, fm: FeatureMatrix) -> TowerOutputs:
    """Score a feature matrix: the input gather, the encoder's relu
    layers, then the three towers. Scoring reads the heads and drops the
    rest, which only :func:`backward` needs."""
    layers = [encode_matrix(fm, params.schema, params.tables)]
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
        for t, layer_grads in towers.items():
            for (w, b), (gw, gb) in zip(params.towers[TOWER_NAMES[t]], layer_grads):
                grads[w], grads[b] = gw, gb
        for (w, b), x, out in reversed(list(zip(params.encoder, outputs.layers, outputs.layers[1:]))):
            g, grads[w], grads[b] = dense_backward(g, x, w.value, out)
        grads.update(encode_matrix_backward(g, outputs.batch, params.schema, params.tables))
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
    named = params.named_parameters()
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
        "arrays": [{"name": name, "shape": list(t.value.shape)} for name, t in named],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"
    for _, t in named:
        blob += np.ascontiguousarray(t.value, dtype="<f8").tobytes()
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
    if header.get("format") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {header.get('version')!r}")
    if header["schema"]["numeric_stats"]:
        raise CheckpointError(f"{path}: numeric standardization is not supported; numerics enter as read")
    schema = _schema_from_json(header["schema"])
    arch = Architecture(
        encoder_widths=tuple(header["arch"]["encoder_widths"]),
        tower_widths=tuple(header["arch"]["tower_widths"]),
        tower_input_width=header["arch"]["tower_input_width"],
    )
    params = init_model(schema, arch, int(header["seed"]))
    named = params.named_parameters()
    if [n for n, _ in named] != [a["name"] for a in header["arrays"]]:
        raise CheckpointError(f"{path}: parameter layout does not match architecture")
    offset = nl + 1
    for (name, t), meta in zip(named, header["arrays"]):
        shape = tuple(meta["shape"])
        if shape != t.value.shape:
            raise CheckpointError(f"{path}: array {name} has shape {shape}, expected {t.value.shape}")
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8 if shape else 8
        block = raw[offset : offset + nbytes]
        if len(block) != nbytes:
            raise CheckpointError(f"{path}: truncated array block for {name}")
        t.value[...] = np.frombuffer(block, dtype="<f8").reshape(shape)
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
    return params
