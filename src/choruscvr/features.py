"""Feature schema and the model-input columns of a log.

An exposure's categorical features are looked up in trained
embedding tables and its numeric features enter as read; blocks
concatenate user, then item, then cross features, each block in schema
order. :func:`build_matrix` extracts those columns once per log; the
model gathers its input from them (``model.gather_concat``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "FeatureSpec",
    "FeatureSchema",
    "SchemaError",
    "EncodingError",
    "build_schema",
    "FeatureMatrix",
]

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
class FeatureSchema:
    """Declared feature order plus the derived block layout.

    ``ordered`` holds features grouped by side (user, item, cross),
    preserving declared order within each side; this is the
    concatenation order of the encoded vector.
    """

    features: tuple[FeatureSpec, ...]

    @property
    def ordered(self) -> tuple[FeatureSpec, ...]:
        return tuple(f for side in SIDES for f in self.features if f.side == side)

    @property
    def input_width(self) -> int:
        return sum(f.embed_width if f.kind == "categorical" else 1 for f in self.features)


def build_schema(config: Sequence[Mapping]) -> FeatureSchema:
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
    return FeatureSchema(tuple(specs))


@dataclass(frozen=True)
class FeatureMatrix:
    """Model-input columns of a log, in its row order, for one
    :func:`~choruscvr.model.gather_concat` per batch. ``index`` holds
    each row's chunks of the tables (in schema order), an id folded modulo
    its vocabulary as its table row's chunks; the numerics, as read, fill
    the input columns ``num_cols``."""

    n_rows: int
    chunk: int  # gcd of the embed widths
    index: np.ndarray  # (n_rows, categorical width // chunk), int64
    num_cols: np.ndarray  # input column of each numeric
    num_values: np.ndarray  # (n_rows, n_numeric)

    def rows(self, idx: np.ndarray) -> "FeatureMatrix":
        return replace(self, n_rows=len(idx), index=np.take(self.index, idx, axis=0), num_values=self.num_values[idx])


def build_matrix(log, schema: FeatureSchema) -> FeatureMatrix:
    """Model-input columns of an :class:`~choruscvr.data.ExposureLog`:
    categorical ids folded modulo their vocabulary, numerics as read."""
    n, cats = len(log), [f for f in schema.ordered if f.kind == "categorical"]
    chunk, start = math.gcd(*(f.embed_width for f in cats)) if cats else 1, 0
    cols: list[np.ndarray] = []  # one per chunk of the tables
    num_cols, num_values = [], []
    for f in schema.ordered:
        col = log.column(f.name, f.kind)
        if f.kind == "categorical":
            per_row = f.embed_width // chunk
            first = start + np.mod(col, f.vocab_size) * per_row
            cols += [first + j for j in range(per_row)]
            start += f.vocab_size * per_row
        else:
            num_cols.append(len(cols) * chunk + len(num_cols))
            num_values.append(col)
    index = np.stack(cols, axis=1) if cols else np.zeros((n, 0), dtype=np.int64)
    numerics = np.stack(num_values, axis=1) if num_values else np.zeros((n, 0))
    return FeatureMatrix(n, chunk, index, np.array(num_cols, dtype=np.int64), numerics)
