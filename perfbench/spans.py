"""Span recorder for the traced benchmark run.

Tracing replaces, for the duration of one repeat, each layer function at
the module attribute its caller looks up (``choruscvr.trainer.build_matrix``
is the name ``trainer.train`` resolves, not ``choruscvr.features``) with a
wrapper that records a span: name, start, end, parent and a few counts.
Spans stay in memory; the benchmark writes them out once it ends. The
program itself is not edited, and untraced repeats run the original
functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# The acceptance comparison's methods; per-method metrics are named after them.
METHODS = ("esmm", "chorus", "escm2_ipw", "dcmt_lite", "chorus_wo_ndm", "chorus_wo_sam")


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    child_s: float = 0.0  # summed duration of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Recorder:
    """In-memory spans of one process; single-threaded by construction."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def open(self, name: str, attrs: dict[str, Any] | None = None) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, time.perf_counter(), parent.id if parent else None)
        if parent is not None and "method" in parent.attrs:
            span.attrs["method"] = parent.attrs["method"]
        if attrs:
            span.attrs.update(attrs)
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._open:
            self._open[-1].child_s += span.duration


def graph_nodes(root) -> int:
    """Nodes reachable from ``root`` through the public ``Tensor.parents``."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
    return len(seen)


def _bound(fn: Callable, args: tuple, kwargs: dict) -> dict[str, Any]:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


# Attributes a span gets when it opens (so children inherit ``method``)
# and after its call returns (counts taken from the result, outside the span).
def _method_arg(fn, args, kwargs):
    return {"method": _bound(fn, args, kwargs)["method"]}


def _method_of_config(fn, args, kwargs):
    return {"method": _bound(fn, args, kwargs)["config"].method}


def _rows_of_first(fn, args, kwargs, result):
    return {"rows": len(result[0])}


def _rows_of_matrix(fn, args, kwargs, result):
    return {"rows": result.n_rows}


def _bytes_of_path(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _nodes_of_bundle(fn, args, kwargs, result):
    return {"graph_nodes": graph_nodes(result[0].total)}


# span name -> (module attributes its callers look up, open attrs, result attrs)
TARGETS: dict[str, tuple[tuple[str, ...], Callable | None, Callable | None]] = {
    "simulator.generate": (("cli.generate", "simulator.generate"), None, _rows_of_first),
    "data.write_log": (("cli.write_log", "data.write_log"), None, _bytes_of_path),
    "data.read_log": (("cli.read_log", "data.read_log"), None, _rows_of_first),
    "features.build_matrix": (("trainer.build_matrix", "features.build_matrix"), None, _rows_of_matrix),
    "cli.run_train": (("cli.run_train",), None, None),
    "cli.write_manifest": (("cli.write_manifest",), None, None),
    "model.save_checkpoint": (("cli.save_checkpoint",), None, None),
    "trainer.train": (("cli.train", "trainer.train"), _method_of_config, None),
    "trainer.evaluate": (("cli.evaluate", "trainer.evaluate"), None, None),
    "objectives.training_step": (("trainer.training_step",), _method_arg, _nodes_of_bundle),
    "model.predict_batch": (("objectives.predict_batch",), None, None),
    "objectives.compose_method_loss": (("objectives.compose_method_loss",), None, None),
    "autodiff.backward": (("objectives.backward",), None, None),
    "autodiff.optimizer_step": (("trainer.optimizer_step",), None, None),
    "model.predict_values": (("trainer.predict_values",), None, None),
    "metrics.auc": (("trainer.auc",), None, None),
    "metrics.bias_curve": (("trainer.bias_curve",), None, None),
}


def _wrap(fn: Callable, name: str, recorder: Recorder, open_attrs, result_attrs) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name, open_attrs(fn, args, kwargs) if open_attrs else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if result_attrs:
            span.attrs.update(result_attrs(fn, args, kwargs, result))
        return result

    return traced


class Tracing:
    """Context manager that installs the wrappers and restores the originals.

    A target the program no longer has is skipped; its metrics read 0.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[Any, str, Callable]] = []

    def __enter__(self) -> "Tracing":
        for name, (sites, open_attrs, result_attrs) in TARGETS.items():
            for site in sites:
                module_name, attr = site.rsplit(".", 1)
                module = importlib.import_module(f"choruscvr.{module_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, _wrap(fn, name, self.recorder, open_attrs, result_attrs))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


# -- per-layer metrics -----------------------------------------------------------

SELF_S = (
    "simulator.generate",
    "data.write_log",
    "data.read_log",
    "features.build_matrix",
    "trainer.train",
    "trainer.evaluate",
    "model.predict_values",
    "metrics.auc",
    "metrics.bias_curve",
    "cli.write_manifest",
    "model.save_checkpoint",
)
CALLS = ("simulator.generate", "data.write_log", "data.read_log", "features.build_matrix", "cli.run_train")
# Per-call milliseconds; a step's own time (the gradient copy) is the self
# time of ``training_step``, whose children are forward, loss and backward.
PER_METHOD_MS = {
    "model.forward_ms": ("model.predict_batch", "duration"),
    "objectives.loss_ms": ("objectives.compose_method_loss", "duration"),
    "autodiff.backward_ms": ("autodiff.backward", "duration"),
    "autodiff.optimizer_ms": ("autodiff.optimizer_step", "duration"),
    "objectives.step_ms": ("objectives.training_step", "self_s"),
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in SELF_S:
        units[f"{name}.self_s"] = "s"
    for name in CALLS:
        units[f"{name}.calls"] = "count"
    units["simulator.rows_per_s"] = "1/s"
    units["data.read_log.rows_per_s"] = "1/s"
    units["data.bytes_written"] = "bytes"
    units["features.build_matrix.rows"] = "count"
    units["trainer.steps"] = "count"
    for prefix in PER_METHOD_MS:
        for m in METHODS:
            units[f"{prefix}.{m}"] = "ms"
    for m in METHODS:
        units[f"autodiff.graph_nodes.{m}"] = "count"
    units["cli.run_train.run_s.p50"] = "s"
    units["cli.run_train.run_s.tail"] = "s"
    units["cli.run_train.run_s.tail_pct"] = "%"
    units["cli.run_train.run_s.samples"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.untraced_wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile in ``TAIL_PERCENTILES``
    with at least ten samples beyond it; the median when none has."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            rank = min(n - 1, int(pct / 100.0 * n))
            return pct, ordered[rank]
    return 50.0, _median(values)


def op_summary(spans: list[Span]) -> dict[str, float]:
    """Totals of one traced repeat: self time and counts per layer."""
    out: dict[str, float] = {}
    for name in SELF_S:
        out[f"{name}.self_s"] = sum(s.self_s for s in spans if s.name == name)
    for name in CALLS:
        out[f"{name}.calls"] = sum(1 for s in spans if s.name == name)
    gen = [s for s in spans if s.name == "simulator.generate"]
    read = [s for s in spans if s.name == "data.read_log"]
    gen_s = sum(s.duration for s in gen)
    read_s = sum(s.duration for s in read)
    out["simulator.rows_per_s"] = sum(s.attrs["rows"] for s in gen) / gen_s if gen_s else 0.0
    out["data.read_log.rows_per_s"] = sum(s.attrs["rows"] for s in read) / read_s if read_s else 0.0
    out["data.bytes_written"] = sum(s.attrs["bytes"] for s in spans if s.name == "data.write_log")
    out["features.build_matrix.rows"] = sum(s.attrs["rows"] for s in spans if s.name == "features.build_matrix")
    out["trainer.steps"] = sum(1 for s in spans if s.name == "autodiff.optimizer_step")
    return out


def layer_metrics(op_spans: list[list[Span]], traced_walls: list[float], untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics over the traced repeats.

    Per-repeat totals are medians across repeats; per-call times (ms per
    step, ``run_train`` seconds) pool the calls of every traced repeat.
    """
    summaries = [op_summary(spans) for spans in op_spans]
    metrics = {k: _median([s[k] for s in summaries]) for k in summaries[0]} if summaries else {}
    pooled = [s for spans in op_spans for s in spans]
    for prefix, (name, attr) in PER_METHOD_MS.items():
        for m in METHODS:
            values = [getattr(s, attr) * 1e3 for s in pooled if s.name == name and s.attrs.get("method") == m]
            metrics[f"{prefix}.{m}"] = _median(values)
    for m in METHODS:
        # The first step of a method's first traced run: an exact count.
        first = next(
            (s for s in pooled if s.name == "objectives.training_step" and s.attrs.get("method") == m), None
        )
        metrics[f"autodiff.graph_nodes.{m}"] = first.attrs["graph_nodes"] if first else 0
    runs = [s.duration for s in pooled if s.name == "cli.run_train"]
    pct, value = tail(runs)
    metrics["cli.run_train.run_s.p50"] = _median(runs)
    metrics["cli.run_train.run_s.tail"] = value
    metrics["cli.run_train.run_s.tail_pct"] = pct
    metrics["cli.run_train.run_s.samples"] = len(runs)
    metrics["trace.wall_s"] = _median(traced_walls)
    metrics["trace.untraced_wall_s"] = _median(untraced_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return {name: metrics.get(name, 0.0) for name in layer_metric_units()}
