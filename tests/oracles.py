"""Reference estimators the acceptance and objective tests check against,
a log built from feature dicts for tests that write rows by hand, a
per-value CSV writer that ``write_log``'s bytes are checked against, the
plain bisection that the simulator's intercept calibration must
reproduce bit for bit, and the graph (forward and loss) whose bits the
training step must keep."""

import csv
from collections import namedtuple
from dataclasses import astuple
from pathlib import Path

import numpy as np

from choruscvr import simulator
from choruscvr.autodiff import gather_concat_backward, stable_sigmoid
from choruscvr.data import TRUTH_COLUMNS, ExposureLog
from choruscvr.features import encode_matrix
from choruscvr.model import PROB_CLAMP, TOWER_NAMES
from choruscvr.objectives import METHOD_TERMS, SOFT_LABEL_CLAMP, TERMS, ctuncvr_label


def ipw_mean(values: np.ndarray, mask: np.ndarray, propensity: np.ndarray, floor: float = 0.01) -> float:
    """Inverse-propensity estimate of the population mean of ``values``
    from only the samples where ``mask`` is 1.

    It divides by the number of all samples. The training objective's
    click-space terms divide by the number of masked samples instead, so
    they estimate this mean divided by the mask rate.
    """
    w = np.asarray(mask, dtype=np.float64) / np.maximum(propensity, floor)
    return float(np.mean(w * values))


def log_of(rows, schema, click=None, conversion=None) -> ExposureLog:
    """A log of feature dicts, one per row: sample ids count from 0 and
    labels default to 0. A schema feature some row lacks is left out of
    the log, so building its matrix names that feature."""
    n = len(rows)

    def block(kind, dtype):
        names = tuple(f.name for f in schema.features if f.kind == kind and all(f.name in row for row in rows))
        return names, np.array([[row[k] for k in names] for row in rows], dtype=dtype).reshape(n, len(names))

    id_names, ids = block("categorical", np.int64)
    numeric_names, numeric = block("numeric", np.float64)
    zeros = np.zeros(n, dtype=np.int64)
    return ExposureLog(
        sample_id=np.arange(n, dtype=np.int64),
        click=zeros if click is None else np.asarray(click, dtype=np.int64),
        conversion=zeros if conversion is None else np.asarray(conversion, dtype=np.int64),
        id_names=id_names,
        ids=ids,
        numeric_names=numeric_names,
        numeric=numeric,
    )


def _format_value(x: float) -> str:
    f = float(x)
    if f.is_integer():
        return str(int(f))
    return repr(f)


def write_log_reference(log: ExposureLog, path, schema) -> None:
    """``write_log`` one value at a time: ``str`` of each integer,
    ``repr`` of each truth probability, an integer-valued numeric as an
    integer and any other numeric as its ``repr``."""
    with_truth = log.has_truth and len(log) > 0
    header = ["sample_id", "click", "conversion", *(f.name for f in schema.features)]
    columns = [map(str, log.sample_id.tolist()), map(str, log.click.tolist()), map(str, log.conversion.tolist())]
    for f in schema.features:
        values = log.column(f.name, f.kind).tolist()
        columns.append(map(str, values) if f.kind == "categorical" else map(_format_value, values))
    if with_truth:
        header += list(TRUTH_COLUMNS)
        columns += [
            map(repr, log.true_p_click.tolist()),
            map(repr, log.true_p_conv.tolist()),
            map(str, log.r_counterfactual.tolist()),
        ]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        if len(log):
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def bisect_intercept(score_fn, target: float, label: str) -> float:
    """Bisect the intercept in [-30, 30] so the Monte-Carlo rate
    ``score_fn(b)`` hits the target: ``CALIBRATION_MAX_ITERS`` halvings,
    then one more rate at the final midpoint, checked against the
    tolerance."""
    lo, hi = -30.0, 30.0
    for _ in range(simulator.CALIBRATION_MAX_ITERS):
        mid = 0.5 * (lo + hi)
        if score_fn(mid) < target:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    achieved = score_fn(mid)
    if abs(achieved - target) > simulator.RATE_REL_TOL * target:
        raise simulator.SimulationError(
            f"{label} calibration failed after {simulator.CALIBRATION_MAX_ITERS} iterations: "
            f"achieved {achieved:.6f}, target {target:.6f}"
        )
    return mid


def bisected_intercepts(config: simulator.SimConfig) -> tuple[float, float]:
    """The click and conversion intercepts of ``config`` by
    :func:`bisect_intercept`, on the same calibration draws and rates
    as ``simulator.generate``."""
    root = np.random.SeedSequence(config.seed)
    dir_seq, cal_seq = root.spawn(2)
    u_click, u_conv = simulator._directions(config, np.random.Generator(np.random.PCG64(dir_seq)))
    cal_rng = np.random.Generator(np.random.PCG64(cal_seq))
    z_cal = cal_rng.standard_normal((simulator.CALIBRATION_DRAWS, config.latent_dim))
    click_score = simulator.SCORE_GAIN_CLICK * (z_cal @ u_click)
    conv_score = simulator.SCORE_GAIN_CONV * (z_cal @ u_conv)
    scratch = np.empty_like(click_score)  # no fresh temporary per rate

    def click_rate(b):
        return float(stable_sigmoid(np.add(click_score, b, out=scratch), out=scratch).mean())

    b0 = bisect_intercept(click_rate, config.target_click_rate, "click rate")
    p_click = stable_sigmoid(click_score + b0)

    def conv_given_click(c):
        p_conv = stable_sigmoid(np.add(conv_score, c, out=scratch), out=scratch)
        return float(np.multiply(p_click, p_conv, out=p_conv).mean() / p_click.mean())

    c0 = bisect_intercept(conv_given_click, config.target_conv_rate_given_click, "conversion rate")
    return b0, c0


# -- the graph engine ---------------------------------------------------------------
#
# Define-by-run reverse mode, as the training step ran before it became a
# straight line: every operation returns a node holding its value, its
# parents and a closure that maps the node's gradient onto the parents,
# and ``backward`` walks the graph once in reverse topological order.

ACTIVATIONS = ("relu", "sigmoid", "identity")


def _noop(g: np.ndarray) -> None:
    return None


def _accumulate(node: "Node", g: np.ndarray) -> None:
    """Add ``g`` into ``node``'s gradient for the current backward pass.
    The first write takes ``g`` as it is (keeping the sign of a zero that
    ``0.0 + g`` would turn positive); later writes build a new array."""
    node._grad = g if node._grad is None else node._grad + g


class Node:
    """One node of the graph. ``grad`` reads zero until a :func:`backward`
    reaches the node; each backward starts every node it reaches from
    zero. A backward closure refers to the parents only, never to its
    node, so a graph holds no reference cycle."""

    __slots__ = ("value", "_grad", "op", "parents", "_backward")

    def __init__(self, value, *, parents: tuple["Node", ...] = (), op: str = "leaf"):
        self.value = np.asarray(value, dtype=np.float64)
        self._grad: np.ndarray | None = None
        self.op = op
        self.parents = parents
        self._backward = _noop

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    def _attach(self, bw) -> "Node":
        self._backward = bw
        return self

    def item(self) -> float:
        return float(self.value)


def _topo_order(root: Node) -> list[Node]:
    """Parents before children: the post-order of a depth-first walk that
    enters a node's parents last to first."""
    order: list[Node] = []
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


def backward(root: Node) -> dict[Node, np.ndarray]:
    """Accumulate d(root)/d(node) into every reachable node's ``grad``;
    returns a map from every reachable leaf to its gradient. The root
    must be scalar."""
    if root.value.shape != ():
        raise ValueError(f"backward root must be scalar, got shape {root.value.shape}")
    order = _topo_order(root)
    for node in order:
        node._grad = None
    root._grad = np.ones_like(root.value)
    for node in reversed(order):
        if node._grad is not None:  # a node no gradient reached would only pass zeros on
            node._backward(node._grad)
    return {node: node.grad for node in order if node.op == "leaf"}


def leaf_grads(root: Node, leaves) -> list[np.ndarray]:
    """:func:`backward` from ``root``, read as each of ``leaves``' gradient;
    zeros for a leaf it never reached."""
    reached = backward(root)
    return [reached[n] if n in reached else np.zeros_like(n.value) for n in leaves]


# -- the forward graph ----------------------------------------------------------------
#
# The model as one node per layer and per tower: ``model.predict_batch``
# and ``model.backward`` must give the same heads and, on every
# parameter, the same gradient bits.

Heads = namedtuple("Heads", TOWER_NAMES)


def dense(x: Node, w: Node, b: Node, activation: str) -> Node:
    """``activation(x @ w + b)`` on a batch ``x`` of shape ``(n, d)``."""
    z = x.value @ w.value + b.value
    if activation == "relu":
        value = np.maximum(z, 0.0)
    elif activation == "sigmoid":
        value = stable_sigmoid(z)
    elif activation == "identity":
        value = z
    else:
        raise ValueError(f"unknown activation {activation!r}")
    out = Node(value, parents=(x, w, b), op="dense")

    def bw(g: np.ndarray) -> None:
        if activation == "relu":
            g = g * (value > 0.0)
        elif activation == "sigmoid":
            g = g * value * (1.0 - value)
        _accumulate(x, g @ w.value.T)
        _accumulate(w, x.value.T @ g)
        _accumulate(b, g.sum(axis=0))

    return out._attach(bw)


def gather(tables: list[Node], fm, schema, named) -> Node:
    """The model input of the feature matrix ``fm`` as one node over the
    table leaves (``named``: feature name -> the parameter each reads)."""
    value = encode_matrix(fm, schema, named)
    out = Node(value, parents=tuple(tables), op="gather_concat")

    def bw(g: np.ndarray) -> None:
        for t, gt in zip(tables, gather_concat_backward(g, [t.value for t in tables], fm.index, fm.chunk, fm.num_cols)):
            _accumulate(t, gt)

    return out._attach(bw)


def clip_column(x: Node, lo: float, hi: float) -> Node:
    """``clip(x, lo, hi)`` of an ``(n, 1)`` node as an ``(n,)`` node; the
    gradient passes only strictly inside ``[lo, hi]``."""
    out = Node(np.clip(x.value, lo, hi).reshape(-1), parents=(x,), op="clip")
    return out._attach(lambda g: _accumulate(x, g.reshape(-1, 1) * ((x.value > lo) & (x.value < hi))))


def reference_forward(params, fm) -> tuple[Heads, list[Node]]:
    """The heads of ``params`` on ``fm``: the gather, the encoder's relu
    ``dense`` nodes, then each tower's own chain (relu layers, a sigmoid
    output unit) and a clip; with a leaf per parameter, sharing its
    value, in ``params.parameters()`` order."""
    leaf = {p: Node(p.value) for p in params.parameters()}
    cats = [params.tables[f.name] for f in params.schema.ordered if f.kind == "categorical"]
    h = gather([leaf[t] for t in cats], fm, params.schema, params.tables)
    for w, b in params.encoder:
        h = dense(h, leaf[w], leaf[b], "relu")
    heads = []
    for tower in TOWER_NAMES:
        t, layers = h, params.towers[tower]
        for i, (w, b) in enumerate(layers):
            t = dense(t, leaf[w], leaf[b], "sigmoid" if i == len(layers) - 1 else "relu")
        heads.append(clip_column(t, PROB_CLAMP, 1.0 - PROB_CLAMP))
    return Heads(*heads), list(leaf.values())


def objective(bundle, heads: Heads) -> Node:
    """``bundle``'s total as one node whose parents are the heads it has
    gradients for, in their order, and whose backward hands each head
    its gradient."""
    parents = tuple(getattr(heads, h) for h in bundle.head_grads)
    out = Node(bundle.total.value, parents=parents, op="objective")

    def bw(g: np.ndarray) -> None:
        for head, gh in zip(parents, bundle.head_grads.values()):
            _accumulate(head, g * gh)

    return out._attach(bw)


# -- the loss graph ---------------------------------------------------------------
#
# One graph node per operation, each with its own backward, as the
# training objective was built before it became one analytic function.
# ``objectives.compose_method_loss`` must give the same values and the
# same head gradient bits.


def mul(a: Node, b) -> Node:
    """``a * b`` for a node ``a`` and a node or array ``b``."""
    b_val = b.value if isinstance(b, Node) else np.asarray(b, dtype=np.float64)
    out = Node(a.value * b_val, parents=(a, b) if isinstance(b, Node) else (a,), op="mul")

    def bw(g):
        _accumulate(a, g * b_val)
        if isinstance(b, Node):
            _accumulate(b, g * a.value)

    return out._attach(bw)


def mean(x: Node) -> Node:
    n = x.value.size
    out = Node(x.value.mean(), parents=(x,), op="mean")
    return out._attach(lambda g: _accumulate(x, np.full(x.value.shape, g / n)))


def stop_gradient(t: Node, value: np.ndarray) -> Node:
    """A constant ``value`` derived from ``t``: the node keeps ``t`` as its
    parent and has no backward, so no gradient reaches ``t`` through it."""
    return Node(value, parents=(t,), op="stop_gradient")


def bce(p: Node, y) -> Node:
    """Elementwise ``-[y ln p + (1-y) ln(1-p)]``; the label ``y`` is an
    array or a node."""
    y_val, parents = (y.value, (p, y)) if isinstance(y, Node) else (np.asarray(y, dtype=np.float64), (p,))
    log_p, log_q = np.log(p.value), np.log(1.0 - p.value)
    out = Node(-(y_val * log_p + (1.0 - y_val) * log_q), parents=parents, op="bce")

    def bw(g):
        dp = (1.0 - y_val) / (1.0 - p.value) - y_val / p.value
        _accumulate(p, g * dp)
        if len(parents) == 2:
            _accumulate(y, g * (log_q - log_p))

    return out._attach(bw)


def inverse_propensity(p: Node, floor: float, complement: bool) -> Node:
    """``1 / max(q, floor)`` with ``q`` = ``p``, or ``1 - p``."""
    q = 1.0 - p.value if complement else p.value
    value = 1.0 / np.maximum(q, floor)
    out = Node(value, parents=(p,), op="inverse_propensity")

    def bw(g):
        gq = -g * value * value * (q > floor)
        _accumulate(p, -gq if complement else gq)

    return out._attach(bw)


def masked_mean(x: Node, mask: np.ndarray, weights=None) -> Node:
    """``sum(x * weights * mask) / sum(mask)``; ``weights`` is ``None``,
    an array or a node."""
    scale = mask / float(mask.sum())
    w_val = 1.0 if weights is None else weights.value if isinstance(weights, Node) else weights
    coef = w_val * scale
    parents = (x, weights) if isinstance(weights, Node) else (x,)
    out = Node((x.value * coef).sum(), parents=parents, op="masked_mean")

    def bw(g):
        _accumulate(x, g * coef)
        if isinstance(weights, Node):
            _accumulate(weights, g * x.value * scale)

    return out._attach(bw)


def weighted_sum(terms, weights) -> Node:
    """``sum(w * t)`` over scalar nodes, added left to right."""
    value = terms[0].value * weights[0]
    for t, w in zip(terms[1:], weights[1:]):
        value = value + t.value * w
    out = Node(value, parents=tuple(terms), op="weighted_sum")

    def bw(g):
        for t, w in zip(terms, weights):
            _accumulate(t, g * w)

    return out._attach(bw)


def _space_mean(per_sample: Node, mask: np.ndarray, weights=None) -> Node:
    return masked_mean(per_sample, mask, weights) if mask.any() else Node(0.0)


def _propensity_weights(out, ipw, complement: bool = False):
    w = inverse_propensity(out.ctr, ipw.floor, complement)
    return w.value if ipw.detach else w


def _soft_label(source: Node, complement: bool) -> Node:
    value = 1.0 - source.value if complement else source.value
    return stop_gradient(source, np.clip(value, SOFT_LABEL_CLAMP, 1.0 - SOFT_LABEL_CLAMP))


def _align(out, o, ipw) -> Node:
    w_click = _propensity_weights(out, ipw)
    w_unclick = _propensity_weights(out, ipw, complement=True)
    cvr_to_uncvr = bce(out.cvr, _soft_label(out.uncvr, complement=True))
    uncvr_to_cvr = bce(out.uncvr, _soft_label(out.cvr, complement=True))
    parts = [
        _space_mean(cvr_to_uncvr, o, w_click),
        _space_mean(uncvr_to_cvr, o, w_click),
        _space_mean(cvr_to_uncvr, 1.0 - o, w_unclick),
        _space_mean(uncvr_to_cvr, 1.0 - o, w_unclick),
    ]
    return weighted_sum(parts, (1.0,) * 4)


# Every term as a graph on (outputs, o, r, ipw).
REFERENCE_TERMS = {
    "ctr": lambda out, o, r, ipw: mean(bce(out.ctr, o)),
    "ctcvr": lambda out, o, r, ipw: mean(bce(mul(out.ctr, out.cvr), o * r)),
    "cvr_ipw": lambda out, o, r, ipw: _space_mean(bce(out.cvr, r), o, _propensity_weights(out, ipw)),
    "ctuncvr": lambda out, o, r, ipw: mean(bce(mul(out.ctr, out.uncvr), ctuncvr_label(o, r))),
    "uncvr_ipw": lambda out, o, r, ipw: _space_mean(bce(out.uncvr, 1.0 - r), o, _propensity_weights(out, ipw)),
    "align_ipw": lambda out, o, r, ipw: _align(out, o, ipw),
    "uncvr_soft": lambda out, o, r, ipw: _space_mean(bce(out.uncvr, _soft_label(out.cvr, complement=True)), o),
    "cvr_self_distill": lambda out, o, r, ipw: _space_mean(
        bce(out.cvr, _soft_label(out.cvr, complement=False)), 1.0 - o
    ),
    "cf_tower": lambda out, o, r, ipw: _space_mean(bce(out.uncvr, 1.0 - r), o),
    "cf_constraint": lambda out, o, r, ipw: mean(bce(out.cvr, _soft_label(out.uncvr, complement=True))),
}


def reference_method_loss(method, outputs, o, r, weights, ipw) -> tuple[dict[str, Node], Node]:
    """The method's terms as graphs, by name in row order, and their
    weighted sum, with the weight rule of ``compose_method_loss``."""
    o = np.asarray(o, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    scale = dict(zip(TERMS, astuple(weights))) if method.startswith("chorus") else {}
    row = [(name, scale.get(name, 1.0)) for name in METHOD_TERMS[method]]
    row = [(name, w) for name, w in row if w > 0]
    terms = {name: REFERENCE_TERMS[name](outputs, o, r, ipw) for name, _ in row}
    total = weighted_sum(list(terms.values()), [w for _, w in row]) if row else Node(0.0)
    return terms, total
