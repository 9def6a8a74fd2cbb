"""Exposure logs in memory and on disk; funnel validation; batching.

In memory a log is one :class:`ExposureLog` of numpy columns. On disk it
is a UTF-8 CSV with header ``sample_id,click,conversion,<feature
columns...>`` optionally followed by
``true_p_click,true_p_conv,r_counterfactual`` (simulator output).
Labels are strictly 0/1, categorical ids are integers, numeric features
are finite, and a conversion without a click violates the funnel; such
rows are dropped and counted, never kept.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import re
from operator import index
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .features import EncodingError, FeatureSchema

__all__ = [
    "ExposureLog",
    "Row",
    "as_log",
    "IngestionReport",
    "LogFormatError",
    "read_log",
    "screen_log",
    "write_log",
    "batch_iter",
    "label_arrays",
    "truth_arrays",
]

TRUTH_COLUMNS = ("true_p_click", "true_p_conv", "r_counterfactual")
COLUMNS = ("sample_id", "click", "conversion", "ids", "numeric", *TRUTH_COLUMNS)
# Categorical ids and sample ids are stored as int64.
INT64_BOUND = 2.0**63
# Beyond this magnitude float64 no longer holds every integer exactly.
FLOAT_EXACT_INT = 2.0**53
# write_log formats and writes this many rows at a time.
BLOCK_LINES = 8192
# read_log's vectorized pass reads the body this many bytes at a time and
# parses each read's whole lines as one block (a longer line waits for the
# reads that end it), so it holds a few times one block, not the file.
READ_BLOCK_BYTES = 1 << 16
# What ``surrogateescape`` decodes a byte that is not UTF-8 to; valid
# UTF-8 never decodes to a lone surrogate.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


class LogFormatError(ValueError):
    """The file cannot be interpreted as an exposure log at all."""


@dataclass(frozen=True, eq=False)
class ExposureLog:
    """An exposure log as columns; row ``i`` of every column is one exposure.

    ``ids`` holds the raw categorical ids (an integer dtype, one column
    per name in ``id_names``) and ``numeric`` the raw numeric features
    (float64, one column per name in ``numeric_names``), each in the
    schema's declared order. The three truth columns are all present or
    all ``None``. A log that breaks these shapes, or whose ids are not
    integers, raises :class:`LogFormatError` when built.
    ``log[i]`` is a :class:`Row`, ``log[a:b]`` a log.
    """

    sample_id: np.ndarray
    click: np.ndarray
    conversion: np.ndarray
    id_names: tuple[str, ...]
    ids: np.ndarray
    numeric_names: tuple[str, ...]
    numeric: np.ndarray
    true_p_click: np.ndarray | None = None
    true_p_conv: np.ndarray | None = None
    r_counterfactual: np.ndarray | None = None

    def __post_init__(self) -> None:
        truth = [c for c in TRUTH_COLUMNS if getattr(self, c) is not None]
        if 0 < len(truth) < len(TRUTH_COLUMNS):
            raise LogFormatError(f"truth columns come all or none; got only {truth}")
        n = len(self.sample_id)
        for c in COLUMNS:
            col = getattr(self, c)
            if col is not None and len(col) != n:
                raise LogFormatError(f"column {c} has {len(col)} rows, sample_id has {n}")
        for c, names in (("ids", self.id_names), ("numeric", self.numeric_names)):
            if getattr(self, c).shape[1:] != (len(names),):
                raise LogFormatError(f"{c} has shape {getattr(self, c).shape}, expected {len(names)} columns")
        if not np.issubdtype(self.ids.dtype, np.integer):
            raise LogFormatError(f"column ids has dtype {self.ids.dtype}, expected integers")

    @property
    def has_truth(self) -> bool:
        return self.true_p_click is not None

    def column(self, name: str, kind: str) -> np.ndarray:
        """The raw values of one feature, looked up by name and kind."""
        names, block = (self.id_names, self.ids) if kind == "categorical" else (self.numeric_names, self.numeric)
        if name not in names:
            raise EncodingError(f"log has no {kind} column {name!r}")
        return block[:, names.index(name)]

    def take(self, idx) -> "ExposureLog":
        """The rows at ``idx`` (an index array or a slice), in that order."""
        return dataclasses.replace(
            self, **{c: getattr(self, c)[idx] for c in COLUMNS if getattr(self, c) is not None}
        )

    def __len__(self) -> int:
        return len(self.sample_id)

    def __getitem__(self, key) -> "Row | ExposureLog":
        if isinstance(key, slice):
            return self.take(key)
        return Row(self, range(len(self))[index(key)])

    def __iter__(self) -> Iterator["Row"]:
        return (Row(self, i) for i in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExposureLog):
            return NotImplemented
        if (self.id_names, self.numeric_names) != (other.id_names, other.numeric_names):
            return False
        for c in COLUMNS:
            a, b = getattr(self, c), getattr(other, c)
            if (a is None) != (b is None) or (a is not None and not np.array_equal(a, b)):
                return False
        return True


class Row:
    """Row ``i`` of ``log``: each column attribute (``click``, ``ids``,
    ``true_p_conv``, ...) reads that position of the log's column, and a
    missing truth column reads ``None``."""

    __slots__ = ("log", "i")

    def __init__(self, log: ExposureLog, i: int) -> None:
        self.log = log
        self.i = i

    def __getattr__(self, name: str):
        if name not in COLUMNS:
            raise AttributeError(name)
        col = getattr(self.log, name)
        return None if col is None else col[self.i]


def as_log(records: "ExposureLog | Sequence[Row]") -> ExposureLog:
    """A log as it is; rows of one log as that log's rows at their
    positions, in order. Rows of different logs raise ``ValueError``."""
    if isinstance(records, ExposureLog):
        return records
    if not len(records):
        raise ValueError("an empty row list belongs to no log")
    log = records[0].log
    if any(row.log is not log for row in records):
        raise ValueError("cannot join rows of different logs")
    return log.take(np.fromiter((row.i for row in records), dtype=np.intp, count=len(records)))


@dataclass
class IngestionReport:
    n_lines: int = 0
    n_records: int = 0
    skipped: list[tuple[int, str]] = field(default_factory=list)
    funnel_violations: int = 0
    # Kept ids outside [0, vocab_size) per categorical feature; the model
    # folds them modulo the vocabulary.
    oov_folds: dict[str, int] = field(default_factory=dict)


def _as_id(text: str) -> int | None:
    """An id field as an int64 id; None when it is not one.

    ``int()`` converts exactly at any size, so an id beyond 2**53 keeps
    its digits; text that is no number raises ``ValueError``.
    """
    try:
        v = int(text)
    except ValueError:
        f = float(text)
        if not f.is_integer():
            return None
        v = int(f)
    return v if -INT64_BOUND <= v < INT64_BOUND else None


def _parse_label(raw: str, column: str) -> int:
    if raw == "0":
        return 0
    if raw == "1":
        return 1
    raise ValueError(f"{column} must be 0 or 1, got {raw!r}")


@dataclass(frozen=True)
class _Layout:
    """Where each log field sits in a CSV row.

    Both parsers emit two matrices per kept row: int64
    ``[sample_id, click, conversion, *ids, (r_counterfactual)]`` and
    float64 ``[*numerics, (true_p_click, true_p_conv)]``.
    """

    width: int
    sample_id: int
    labels: tuple[int, ...]  # click, conversion, then r_counterfactual if present
    id_names: tuple[str, ...]
    ids: tuple[int, ...]
    numeric_names: tuple[str, ...]
    numerics: tuple[int, ...]
    probabilities: tuple[int, ...]  # true_p_click, true_p_conv if present

    @property
    def has_truth(self) -> bool:
        return bool(self.probabilities)

    @property
    def int_columns(self) -> tuple[int, ...]:
        """The CSV columns of the int64 matrix, in its order."""
        return (self.sample_id, *self.labels[:2], *self.ids, *self.labels[2:])

    @property
    def float_columns(self) -> tuple[int, ...]:
        """The CSV columns of the float64 matrix, in its order."""
        return (*self.numerics, *self.probabilities)

    def parse_row(self, row: list[str]) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """One CSV row; ``ValueError`` names the first bad field."""
        sample_id = int(row[self.sample_id])
        if not -INT64_BOUND <= sample_id < INT64_BOUND:
            raise ValueError(f"sample_id out of int64 range, got {row[self.sample_id]!r}")
        click = _parse_label(row[self.labels[0]], "click")
        conversion = _parse_label(row[self.labels[1]], "conversion")
        ids = []
        for name, c in zip(self.id_names, self.ids):
            v = _as_id(row[c])
            if v is None:
                raise ValueError(f"{name} must be an integer id, got {row[c]!r}")
            ids.append(v)
        numerics = []
        for name, c in zip(self.numeric_names, self.numerics):
            v = float(row[c])
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {row[c]!r}")
            numerics.append(v)
        ints = (sample_id, click, conversion, *ids)
        if self.has_truth:
            ints += (_parse_label(row[self.labels[2]], "r_counterfactual"),)
            numerics += [float(row[c]) for c in self.probabilities]
        return ints, tuple(numerics)


def _layout(header: list[str], schema: FeatureSchema) -> _Layout:
    col = {name: header.index(name) for name in header}
    has_truth = all(c in header for c in TRUTH_COLUMNS)
    id_names = tuple(f.name for f in schema.features if f.kind == "categorical")
    numeric_names = tuple(f.name for f in schema.features if f.kind == "numeric")
    return _Layout(
        width=len(header),
        sample_id=col["sample_id"],
        labels=(col["click"], col["conversion"]) + ((col["r_counterfactual"],) if has_truth else ()),
        id_names=id_names,
        ids=tuple(col[n] for n in id_names),
        numeric_names=numeric_names,
        numerics=tuple(col[n] for n in numeric_names),
        probabilities=(col["true_p_click"], col["true_p_conv"]) if has_truth else (),
    )


def _parse_rows(text: str, layout: _Layout):
    """Row by row: every malformed row is skipped and itemized at the line
    where it starts. Lines end at ``\\n``, as in the vectorized pass, so a
    quoted field that holds a newline spans two lines and a lone CR none."""
    buf = io.StringIO(text, newline="")
    reader = csv.reader(buf)
    next(reader, None)  # the header
    start = end = buf.tell()
    n_lines = text.count("\n", start) + (start < len(text) and not text.endswith("\n"))
    line_no = 1 + text.count("\n", 0, start)
    skipped: list[tuple[int, str]] = []
    ints: list[tuple[int, ...]] = []
    floats: list[tuple[float, ...]] = []
    for row in reader:
        line_no += text.count("\n", start, end)  # the lines of the previous record
        start, end = end, buf.tell()
        if _NOT_UTF8.search("".join(row)):
            skipped.append((line_no, "not valid UTF-8"))
            continue
        if len(row) != layout.width:
            skipped.append((line_no, f"expected {layout.width} fields, got {len(row)}"))
            continue
        try:
            i, f = layout.parse_row(row)
        except ValueError as exc:
            skipped.append((line_no, str(exc)))
            continue
        ints.append(i)
        floats.append(f)
    return (
        n_lines,
        skipped,
        np.array(ints, dtype=np.int64).reshape(len(ints), len(layout.int_columns)),
        np.array(floats, dtype=np.float64).reshape(len(floats), len(layout.float_columns)),
    )


# Every byte of a body the vectorized pass takes on: digits, separators and
# the characters of a plain decimal or exponent number. Anything else
# (quotes, blanks, CR, '#', letters of nan/inf) goes to the row parser.
_FAST_BYTES = b"0123456789,\n-+.eE"


def _parse_columns(body: bytes, layout: _Layout) -> np.ndarray | None:
    """One block of whole lines in one vectorized pass: its fields as a
    float64 table, one row per line.

    Returns ``None`` unless every line is one the row parser would keep
    or drop as a funnel violation, with the same values; the row parser
    then reads the file and itemizes what is wrong. Its scratch is a
    few times the block: a byte mask and the field ends, then the table.
    """
    if not body or body.translate(None, _FAST_BYTES):
        return None
    if not body.endswith(b"\n"):
        body += b"\n"
    width = layout.width
    chars = np.frombuffer(body, dtype=np.uint8)
    # int() takes no '.' or exponent in a sample id, unlike float().
    mask = chars == ord(".")
    mask |= chars == ord("e")
    mask |= chars == ord("E")
    not_int = np.flatnonzero(mask)
    np.equal(chars, ord("\n"), out=mask)
    n_lines = np.count_nonzero(mask)
    mask |= chars == ord(",")
    if mask[0] or (mask[1:] & mask[:-1]).any():
        return None  # an empty field
    ends = np.flatnonzero(mask)  # the separator that closes each field
    del mask
    # As many separators as fields and a newline closing every width-th
    # field: with no newline left over, each line has the header's count.
    if ends.size != n_lines * width or (chars[ends[width - 1 :: width]] != ord("\n")).any():
        return None
    if np.any(np.searchsorted(ends, not_int) % width == layout.sample_id):
        return None
    fields = ends.reshape(-1, width)
    for c in layout.labels:
        before = fields[:, c - 1] if c else np.r_[-1, fields[:-1, -1]]
        if (fields[:, c] - before != 2).any():
            return None  # a label of more than one character
    del ends, fields
    try:
        table = np.loadtxt(io.BytesIO(body), delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    for c in layout.labels:
        if ((table[:, c] != 0) & (table[:, c] != 1)).any():
            return None
    # Beyond 2**53 float64 rounds; such ids go to the row parser's int().
    if (np.abs(table[:, layout.sample_id]) >= FLOAT_EXACT_INT).any():
        return None
    for c in layout.ids:
        col = table[:, c]
        if not ((np.abs(col) < FLOAT_EXACT_INT) & (np.floor(col) == col)).all():
            return None
    for c in layout.numerics:
        if not np.isfinite(table[:, c]).all():
            return None
    return table


def _parse_blocks(path: Path, start: int, layout: _Layout):
    """The file from byte ``start`` on, read ``READ_BLOCK_BYTES`` at a
    time and passed to :func:`_parse_columns` in blocks of whole lines,
    their columns written into one pair of matrices; ``None`` when that
    body is empty or any block is refused. One pass counts the lines, a
    second parses them, and neither holds more than a block of the file."""
    with path.open("rb") as fh:
        fh.seek(start)
        n_rows, last = 0, b""
        while chunk := fh.read(READ_BLOCK_BYTES):
            n_rows, last = n_rows + chunk.count(b"\n"), chunk
        if not last:
            return None
        n_rows += not last.endswith(b"\n")  # a last line without a newline
        ints = np.empty((n_rows, len(layout.int_columns)), dtype=np.int64)
        floats = np.empty((n_rows, len(layout.float_columns)), dtype=np.float64)
        fh.seek(start)
        row, rest = 0, b""
        while True:
            chunk = fh.read(READ_BLOCK_BYTES)
            block = rest + chunk
            if not block:
                break
            # Up to the last newline read, and at the end of the file to its
            # end; a line longer than a read leaves no block yet.
            cut = block.rfind(b"\n") + 1 if chunk else len(block)
            block, rest = block[:cut], block[cut:]
            if not block:
                continue
            table = _parse_columns(block, layout)
            if table is None:
                return None
            rows = slice(row, row + len(table))
            for matrix, columns in ((ints, layout.int_columns), (floats, layout.float_columns)):
                for k, c in enumerate(columns):
                    matrix[rows, k] = table[:, c]
            row = rows.stop
    return n_rows, [], ints, floats


def _text(path: Path) -> str:
    """The whole file as text, bytes that are not UTF-8 escaped."""
    return path.read_bytes().decode("utf-8", "surrogateescape")


def read_log(path: str | Path, schema: FeatureSchema) -> tuple[ExposureLog, IngestionReport]:
    """Parse a CSV exposure log against the schema.

    Malformed rows are skipped and itemized (line number, reason), at
    the line where the row starts, lines ending at ``\\n``: a
    wrong field count, a label other than ``0``/``1``, a categorical id
    that is not an integer (``nan``, ``2.7``), a numeric value that is
    not finite (``nan``, ``inf``). Funnel violations are dropped and
    counted; kept out-of-vocabulary ids are counted per feature. A header
    missing the label columns or any schema feature, naming a column
    twice, or carrying some but not all truth columns is fatal.

    The body is first read by a vectorized pass, one block of whole
    lines of about ``READ_BLOCK_BYTES`` at a time, with only the header
    decoded and never the whole file in memory; a file that pass cannot
    take exactly as the row parser would is read whole, row by row. A
    row that is not UTF-8 is skipped and itemized; a header that is not
    is fatal.
    """
    path = Path(path)
    with path.open("rb") as fh:
        first_line = fh.readline()
    try:
        head = first_line.rstrip(b"\n").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LogFormatError(f"{path}: header is not valid UTF-8: {exc}") from None
    # A header line without quotes or CR is what the csv reader would
    # make of it, so the body can go to the vectorized pass undecoded.
    plain = bool(first_line) and '"' not in head and "\r" not in head
    text = None if plain else _text(path)  # decoded once, for the header and the row parser
    header = head.split(",") if plain else next(csv.reader(io.StringIO(text, newline="")), None)
    if header is None:
        raise LogFormatError(f"{path}: empty file")
    for required in ("sample_id", "click", "conversion"):
        if required not in header:
            raise LogFormatError(f"{path}: missing required column {required!r}")
    for f in schema.features:
        if f.name not in header:
            raise LogFormatError(f"{path}: missing feature column {f.name!r}")
    known = {"sample_id", "click", "conversion", *(f.name for f in schema.features), *TRUTH_COLUMNS}
    unknown = [c for c in header if c not in known]
    if unknown:
        raise LogFormatError(f"{path}: unknown columns {unknown}")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise LogFormatError(f"{path}: columns named more than once: {repeated}")
    missing_truth = [c for c in TRUTH_COLUMNS if c not in header]
    if 0 < len(missing_truth) < len(TRUTH_COLUMNS):
        raise LogFormatError(f"{path}: truth columns come all or none; missing {missing_truth}")
    layout = _layout(header, schema)

    parsed = _parse_blocks(path, len(first_line), layout) if plain else None
    if parsed is None:
        parsed = _parse_rows(text or _text(path), layout)
    n_lines, skipped, ints, floats = parsed

    n_ids, n_numerics = len(layout.ids), len(layout.numerics)
    truth = {}
    if layout.has_truth:
        truth = {
            "true_p_click": floats[:, n_numerics],
            "true_p_conv": floats[:, n_numerics + 1],
            "r_counterfactual": ints[:, -1],
        }
    log = ExposureLog(
        sample_id=ints[:, 0],
        click=ints[:, 1],
        conversion=ints[:, 2],
        id_names=layout.id_names,
        ids=ints[:, 3 : 3 + n_ids],
        numeric_names=layout.numeric_names,
        numeric=floats[:, :n_numerics],
        **truth,
    )
    return screen_log(log, schema, n_lines, skipped)


def screen_log(log: ExposureLog, schema: FeatureSchema, n_lines: int, skipped) -> tuple[ExposureLog, IngestionReport]:
    """The log ``read_log`` keeps of these columns, and its report: funnel
    violations dropped and counted, kept out-of-vocabulary ids counted per
    categorical feature. ``n_lines`` and ``skipped`` are what the parse
    saw; a log made in memory has one line per row and skips none."""
    funnel = (log.conversion == 1) & (log.click == 0)
    n_funnel = int(np.count_nonzero(funnel))
    if n_funnel:
        log = log.take(~funnel)
    oov = {}
    for f in schema.features:
        if f.kind == "categorical":
            col = log.column(f.name, f.kind)
            oov[f.name] = int(np.count_nonzero((col < 0) | (col >= f.vocab_size)))
    return log, IngestionReport(n_lines, len(log), skipped, n_funnel, oov)


def _format_value(x: float) -> str:
    f = float(x)
    if f.is_integer():
        return str(int(f))
    return repr(f)


def _each(fn):
    """A column formatter that calls ``fn`` on each value."""
    return lambda col: list(map(fn, col.tolist()))


def _int_text(col: np.ndarray) -> list[str]:
    """``str`` of each value of a column. An integer column whose values
    span fewer than a quarter of its rows (labels, binned ids) formats
    each value of that span once, and its rows share those strings."""
    if np.issubdtype(col.dtype, np.integer) and len(col):
        low, span = col.min(), int(col.max()) - int(col.min())
        if span < len(col) // 4:
            text = _each(str)(low + np.arange(span + 1, dtype=col.dtype))
            return list(map(text.__getitem__, (col - low).tolist()))
    return _each(str)(col)


def write_log(log: ExposureLog, path: str | Path, schema: FeatureSchema) -> None:
    """Write a log in the canonical column order, byte-stable.

    Truth columns are included exactly when the log carries them and is
    not empty. Rows are formatted and written ``BLOCK_LINES`` at a time.
    """
    with_truth = log.has_truth and len(log) > 0
    header = ["sample_id", "click", "conversion", *(f.name for f in schema.features)]
    columns = [(log.sample_id, _int_text), (log.click, _int_text), (log.conversion, _int_text)]
    for f in schema.features:
        columns.append((log.column(f.name, f.kind), _int_text if f.kind == "categorical" else _each(_format_value)))
    if with_truth:
        header += list(TRUTH_COLUMNS)
        columns += [(log.true_p_click, _each(repr)), (log.true_p_conv, _each(repr)), (log.r_counterfactual, _int_text)]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for lo in range(0, len(log), BLOCK_LINES):
            fields = [text(col[lo : lo + BLOCK_LINES]) for col, text in columns]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")
            del fields  # before the next block's are made


def label_arrays(log: ExposureLog) -> tuple[np.ndarray, np.ndarray]:
    """(click, conversion) as float64."""
    return log.click.astype(np.float64), log.conversion.astype(np.float64)


def truth_arrays(log: ExposureLog) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(true_p_click, true_p_conv, r_counterfactual) or None if absent."""
    if not log.has_truth or not len(log):
        return None
    return log.true_p_click, log.true_p_conv, log.r_counterfactual.astype(np.float64)


def batch_iter(n_records: int, batch_size: int, epoch_seed: int) -> Iterator[np.ndarray]:
    """Seeded permutation of row indices, sliced into batches.

    The final short batch is kept; every index appears exactly once per
    epoch.
    """
    if n_records < 1:
        raise ValueError("cannot batch an empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.Generator(np.random.PCG64(epoch_seed))
    perm = rng.permutation(n_records)
    for start in range(0, n_records, batch_size):
        yield perm[start : start + batch_size]
