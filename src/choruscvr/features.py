"""Feature schema and encoding into the model's dense input vector.

A record's categorical features are looked up in gradient-tracked
embedding tables and its numeric features are standardized with frozen
statistics; blocks concatenate user, then item, then cross features,
each block in schema order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .autodiff import Tensor, concat

__all__ = [
    "FeatureSpec",
    "FeatureSchema",
    "SchemaError",
    "EncodingError",
    "NumericStats",
    "build_schema",
    "init_tables",
    "FeatureMatrix",
    "encode_matrix",
]

log = logging.getLogger(__name__)

KINDS = ("categorical", "numeric")
SIDES = ("user", "item", "cross")


class SchemaError(ValueError):
    """Invalid feature declaration."""


class EncodingError(ValueError):
    """A record cannot be encoded against the schema."""


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str
    side: str = "cross"
    vocab_size: int = 0
    embed_width: int = 0


@dataclass(frozen=True)
class NumericStats:
    """Frozen standardization constants for one numeric feature."""

    mean: float
    std: float


@dataclass(frozen=True)
class FeatureSchema:
    """Declared feature order plus the derived block layout.

    ``ordered`` holds features grouped by side (user, item, cross),
    preserving declared order within each side; this is the
    concatenation order of the encoded vector.
    """

    features: tuple[FeatureSpec, ...]
    numeric_stats: Mapping[str, NumericStats] = field(default_factory=dict)

    @property
    def ordered(self) -> tuple[FeatureSpec, ...]:
        return tuple(f for side in SIDES for f in self.features if f.side == side)

    @property
    def input_width(self) -> int:
        return sum(f.embed_width if f.kind == "categorical" else 1 for f in self.features)

    def stats_for(self, name: str) -> NumericStats:
        return self.numeric_stats.get(name, NumericStats(0.0, 1.0))


def build_schema(
    config: Sequence[Mapping],
    numeric_stats: Mapping[str, NumericStats] | None = None,
) -> FeatureSchema:
    """Validate feature declarations and fix their order.

    Each entry needs ``name`` and ``kind``; categorical entries need
    ``vocab_size`` and ``embed_width`` (default 8). ``side`` defaults
    to ``cross``.
    """
    specs: list[FeatureSpec] = []
    seen: set[str] = set()
    for entry in config:
        name = str(entry["name"])
        kind = str(entry["kind"])
        if name in seen:
            raise SchemaError(f"duplicate feature name {name!r}")
        seen.add(name)
        if kind not in KINDS:
            raise SchemaError(f"feature {name!r}: unknown kind {kind!r}")
        side = str(entry.get("side", "cross"))
        if side not in SIDES:
            raise SchemaError(f"feature {name!r}: unknown side {side!r}")
        if kind == "categorical":
            vocab = int(entry["vocab_size"])
            width = int(entry.get("embed_width", 8))
            if vocab < 1:
                raise SchemaError(f"feature {name!r}: vocab_size must be >= 1, got {vocab}")
            if width < 1:
                raise SchemaError(f"feature {name!r}: embed_width must be >= 1, got {width}")
            specs.append(FeatureSpec(name, kind, side, vocab, width))
        else:
            specs.append(FeatureSpec(name, kind, side))
    return FeatureSchema(tuple(specs), dict(numeric_stats or {}))


def init_tables(schema: FeatureSchema, rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh embedding tables, U(-1/sqrt(w), 1/sqrt(w)) per feature."""
    tables: dict[str, Tensor] = {}
    for f in schema.ordered:
        if f.kind != "categorical":
            continue
        bound = 1.0 / np.sqrt(f.embed_width)
        t = Tensor(rng.uniform(-bound, bound, size=(f.vocab_size, f.embed_width)))
        t.name = f"embed.{f.name}"
        tables[f.name] = t
    return tables


@dataclass(frozen=True)
class FeatureMatrix:
    """Column-major pre-extraction of a record batch.

    Categorical ids are already folded modulo vocabulary and numerics
    already standardized, so per-step encoding is just table gathers
    plus a concat. Row order matches the source record order.
    """

    n_rows: int
    cat_names: tuple[str, ...]
    cat_indices: dict[str, np.ndarray]
    num_names: tuple[str, ...]
    num_values: np.ndarray  # (n_rows, len(num_names)), standardized

    def rows(self, idx: np.ndarray) -> "FeatureMatrix":
        return FeatureMatrix(
            n_rows=len(idx),
            cat_names=self.cat_names,
            cat_indices={k: v[idx] for k, v in self.cat_indices.items()},
            num_names=self.num_names,
            num_values=self.num_values[idx],
        )


def build_matrix(records_features: Sequence[Mapping[str, float]], schema: FeatureSchema) -> FeatureMatrix:
    """Pre-extract a batch of feature dicts into column arrays."""
    n = len(records_features)
    cat_names: list[str] = []
    num_names: list[str] = []
    cat_indices: dict[str, np.ndarray] = {}
    num_cols: list[np.ndarray] = []
    for f in schema.ordered:
        if f.kind == "categorical":
            cat_names.append(f.name)
        else:
            num_names.append(f.name)
    for f in schema.ordered:
        col = np.empty(n, dtype=np.float64)
        for i, feats in enumerate(records_features):
            if f.name not in feats:
                raise EncodingError(f"record {i} is missing feature {f.name!r}")
            col[i] = feats[f.name]
        if f.kind == "categorical":
            raw = col.astype(np.int64)
            folded = np.mod(raw, f.vocab_size)
            n_oov = int(np.count_nonzero((raw < 0) | (raw >= f.vocab_size)))
            if n_oov:
                log.info("feature %s: %d out-of-vocabulary ids folded", f.name, n_oov)
            cat_indices[f.name] = folded
        else:
            st = schema.stats_for(f.name)
            num_cols.append((col - st.mean) / st.std)
    num_values = np.stack(num_cols, axis=1) if num_cols else np.zeros((n, 0))
    return FeatureMatrix(n, tuple(cat_names), cat_indices, tuple(num_names), num_values)


def encode_matrix(fm: FeatureMatrix, schema: FeatureSchema, tables: Mapping[str, Tensor]) -> Tensor:
    """Encode a pre-extracted batch into the (n, input_width) input."""
    parts: list[Tensor] = []
    num_col = 0
    for f in schema.ordered:
        if f.kind == "categorical":
            parts.append(tables[f.name].take_rows(fm.cat_indices[f.name]))
        else:
            parts.append(Tensor(fm.num_values[:, num_col : num_col + 1]))
            num_col += 1
    return concat(parts, axis=-1)
