"""Layer kernels against hand values and central differences, the
objective's head gradients, the reference graph's engine
(``tests/oracles.py``), and the optimizer."""

import gc
import math

import numpy as np
import pytest

from choruscvr.autodiff import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    OptimizerConfig,
    OptimizerError,
    OptimizerState,
    ShapeError,
    Tensor,
    dense,
    dense_backward,
    gather_concat,
    gather_concat_backward,
    optimizer_step,
    stable_sigmoid,
    tower_heads,
    tower_heads_backward,
)
from choruscvr.features import build_matrix, build_schema
from choruscvr.model import TOWER_NAMES, Architecture, TowerOutputs, backward, init_model, predict_batch
from choruscvr.objectives import TERMS, IpwConfig, LossWeights, compose_method_loss, training_step

import oracles
from oracles import Node, log_of, mean, mul

ATTACHED = IpwConfig(detach=False)


def _heads(ctr, cvr, uncvr) -> TowerOutputs:
    return TowerOutputs(*(np.asarray(v, dtype=np.float64) for v in (ctr, cvr, uncvr)))


def _objective(out, o, r, *terms, method="chorus", ipw=IpwConfig(), weights=None):
    """The bundle of ``method``; for the chorus family, weight 1 on the
    named base terms and 0 on the others unless ``weights`` is given."""
    weights = weights or LossWeights(*(float(t in terms) for t in TERMS))
    return compose_method_loss(method, out, np.asarray(o, float), np.asarray(r, float), weights, ipw)


def _grads(bundle, out) -> list[np.ndarray]:
    """The bundle's gradient on the ctr, cvr and uncvr heads; zeros on a
    head it does not reach."""
    return [bundle.head_grads.get(h, np.zeros_like(getattr(out, h))) for h in TOWER_NAMES]


def _gather(blocks, upstream=None):
    """:func:`gather_concat` of column blocks in order, ``(table, rows)``
    reading those rows of the table and an ``(n, k)`` array constant;
    with the tables' gradients when ``upstream``, the gradient on the
    output, is given."""
    tables = [b[0] for b in blocks if isinstance(b, tuple)]
    n = len(blocks[0][1] if isinstance(blocks[0], tuple) else blocks[0])
    columns, constant_cols, start = [], [], 0
    for b in blocks:
        if isinstance(b, tuple):
            table, rows = b
            width = table.shape[1]
            columns += [start + rows * width + j for j in range(width)]
            start += table.size
        else:
            at = len(columns) + len(constant_cols)
            constant_cols += range(at, at + b.shape[1])
    constant = np.concatenate([np.zeros((n, 0))] + [b for b in blocks if not isinstance(b, tuple)], axis=1)
    index, cols = np.stack(columns, axis=1), np.array(constant_cols, dtype=np.int64)
    value = gather_concat(tables, index, 1, constant, cols)
    return value, None if upstream is None else gather_concat_backward(upstream, tables, index, 1, cols)


def test_mul_and_weighted_sum_chain():
    # 2 bce(ctr, 1) + 2 bce(ctr * cvr, 1) at ctr = cvr = 0.5: the product
    # passes ctr the gradient times cvr, and cvr the gradient times ctr
    out = _heads([0.5], [0.5], [0.5])
    bundle = _objective(out, [1.0], [1.0], weights=LossWeights(2.0, 2.0, 0.0, 0.0, 0.0, 0.0))
    ctr, cvr, uncvr = _grads(bundle, out)
    assert bundle.total.item() == pytest.approx(6.0 * math.log(2.0), abs=1e-12)
    assert ctr.tolist() == [-8.0]  # 2 * -2, then 2 * -4 * 0.5
    assert cvr.tolist() == [-4.0]
    assert uncvr.tolist() == [0.0]


def _unit_layer(width: int = 1) -> tuple[np.ndarray, np.ndarray]:
    return np.eye(width), np.zeros(width)


def test_dense_bias_gradient_sums_over_batch():
    # the mean of a layer whose units all pass the relu
    x, (w, b) = np.ones((4, 2)), _unit_layer(2)
    _, _, gb = dense_backward(np.full((4, 2), 1.0 / 8.0), x, w, dense(x, w, b))
    assert np.array_equal(gb, np.full(2, 0.5))  # four rows of 1/8


def test_matmul_vector_and_batch():
    # the mean of a dense layer with positive weights and zero bias, whose
    # units all pass the relu, on a row vector (a batch of one) and on a
    # batch of two
    w = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    b = np.zeros(2)
    x = np.array([[1.0, 1.0, 1.0]])
    gx, gw, _ = dense_backward(np.full((1, 2), 0.5), x, w, dense(x, w, b))
    assert np.array_equal(gx, np.array([[1.5, 3.5, 5.5]]))
    assert np.array_equal(gw, np.full((3, 2), 0.5))
    xs = np.ones((2, 3))
    gx, gw, gb = dense_backward(np.full((2, 2), 0.25), xs, w, dense(xs, w, b))
    assert np.array_equal(gx, np.tile([0.75, 1.75, 2.75], (2, 1)))
    assert np.array_equal(gw, np.full((3, 2), 0.5))
    assert np.array_equal(gb, np.full(2, 0.5))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        dense(np.ones((2, 3)), np.ones((2, 3)), np.zeros(3))


def test_linear_gradient_is_input():
    # the reference graph: y = mean(w * x), dy/dw = x / 2
    w = Node(np.array([0.5, -0.25]))
    x = np.array([3.0, 7.0])
    out = mean(mul(w, x))
    oracles.backward(out)
    assert np.array_equal(w.grad, x / 2)


def test_sigmoid_derivative_at_zero():
    # a tower's output unit on a zero input
    z, towers = np.array([[0.0]]), [[_unit_layer()]]
    heads, p, hidden = tower_heads(z, towers, 1e-7)
    gz, _ = tower_heads_backward({0: np.ones(1)}, z, towers, 1e-7, p, hidden)
    assert heads[0, 0] == 0.5
    assert gz[0, 0] == pytest.approx(0.25)


def test_sigmoid_stable_in_tails():
    _, p, _ = tower_heads(np.array([[-800.0], [800.0]]), [[_unit_layer()]], 1e-7)
    assert np.all(np.isfinite(p))
    assert p[0, 0] >= 0.0 and p[0, 1] <= 1.0


def test_log_and_inverse_propensity():
    # one click, r = 1: bce(cvr, 1) = -ln cvr, weighted by 1 / ctr
    out = _heads([0.5], [0.5], [0.5])
    bundle = _objective(out, [1.0], [1.0], "cvr_ipw", ipw=ATTACHED)
    ctr, cvr, _ = _grads(bundle, out)
    assert bundle.total.item() == pytest.approx(2.0 * math.log(2.0))
    assert cvr.tolist() == [-4.0]  # -(1 / cvr) / ctr
    assert ctr[0] == pytest.approx(-4.0 * math.log(2.0))  # -bce / ctr^2


def test_tower_heads_clip_blocks_gradient_outside_band():
    # sigmoid(+-40) lies beyond the clamp, sigmoid(0) = 0.5 inside it
    x, towers = np.array([[40.0], [0.0], [-40.0]]), [[_unit_layer()]]
    heads, p, hidden = tower_heads(x, towers, 1e-7)
    gx, _ = tower_heads_backward({0: np.full(3, 1.0 / 3.0)}, x, towers, 1e-7, p, hidden)
    assert np.array_equal(heads[0], [1.0 - 1e-7, 0.5, 1e-7])
    assert np.array_equal(gx, [[0.0], [0.25 / 3.0], [0.0]])


@pytest.mark.parametrize("complement", [False, True], ids=["click", "unclick"])
def test_inverse_propensity_floor_blocks_gradient(complement):
    # q = 0.005 sits below the floor (weight 100), q = 0.5 above it (weight
    # 2): clicks weigh cvr_ipw by 1/p, un-clicks the alignment by 1/(1 - p)
    out = _heads([0.995, 0.5] if complement else [0.005, 0.5], [0.5, 0.5], [0.5, 0.5])
    o = [0.0, 0.0] if complement else [1.0, 1.0]
    bundle = _objective(out, o, [0.0, 0.0], "align_ipw" if complement else "cvr_ipw", ipw=ATTACHED)
    ctr = _grads(bundle, out)[0]
    parts = 2 if complement else 1  # both alignment addends read 1/(1 - p)
    assert bundle.total.item() == pytest.approx(parts * math.log(2.0) * (100.0 + 2.0) / 2.0)
    assert ctr[0] == 0.0
    assert ctr[1] == pytest.approx(parts * math.log(2.0) * (2.0 if complement else -2.0))


def test_mean_and_sum():
    # the click term is a mean over the batch: each sample gets 1/n of its
    # bce derivative, -1/p on a click and 1/(1 - p) otherwise
    out = _heads([0.5] * 4, [0.5] * 4, [0.5] * 4)
    bundle = _objective(out, [1.0, 0.0, 1.0, 0.0], [0.0] * 4, "ctr")
    assert bundle.total.item() == math.log(2.0)
    assert np.array_equal(_grads(bundle, out)[0], [-0.5, 0.5, -0.5, 0.5])


def test_take_rows_scatter_adds_repeated_indices():
    # the embedding lookup of gather_concat, under a mean of its output
    table = np.zeros((3, 2))
    _, (grad,) = _gather([(table, np.array([1, 1, 2, 1]))], np.full((4, 2), 1.0 / 8.0))
    expected = np.array([[0.0, 0.0], [0.375, 0.375], [0.125, 0.125]])
    assert np.array_equal(grad, expected)


def test_bincount_scatter_equals_add_at_bitwise():
    # gather_concat's table gradient, read in chunks of whole rows
    rng = np.random.default_rng(3)
    tables = [rng.normal(size=(16, 4)), rng.normal(size=(5, 4))]
    idx = np.stack([rng.integers(0, 16, 1024), rng.integers(0, 5, 1024)], axis=1)
    g = rng.normal(size=(1024, 8))
    out = gather_concat(tables, idx + [0, 16], 4, np.zeros((1024, 0)), np.zeros(0, dtype=np.int64))
    assert np.array_equal(out, np.concatenate([tables[0][idx[:, 0]], tables[1][idx[:, 1]]], axis=1))
    upstream = np.full((1024, 8), 1.0 / 8192) * g
    grads = gather_concat_backward(upstream, tables, idx + [0, 16], 4, np.zeros(0, dtype=np.int64))
    for k, (table, grad) in enumerate(zip(tables, grads)):
        expected = np.zeros_like(table)
        np.add.at(expected, idx[:, k], upstream[:, 4 * k : 4 * k + 4])
        assert grad.tobytes() == expected.tobytes()


def test_concat_splits_gradient():
    # gather_concat reading every table row once, with a constant block between
    a = np.ones((2, 2))
    b = np.ones((2, 3))
    rows = np.array([0, 1])
    out, (ga, gb) = _gather([(a, rows), np.full((2, 1), 7.0), (b, rows)], np.full((2, 6), 1.0 / 12) * np.arange(6.0))
    assert out.shape == (2, 6)
    assert np.array_equal(out[:, 2], [7.0, 7.0])
    assert np.array_equal(ga, np.tile(np.array([0.0, 1.0]) * (1.0 / 12), (2, 1)))
    assert np.array_equal(gb, np.tile(np.array([3.0, 4.0, 5.0]) * (1.0 / 12), (2, 1)))


def test_stop_gradient_is_identity_forward_zero_backward():
    # chorus_wo_ndm's own term alone: uncvr against the soft label 1 - cvr
    # on the click; the label's value is 1 - cvr, and cvr gets no gradient
    out = _heads([0.5, 0.5], [0.75, 0.9], [0.4, 0.4])
    bundle = _objective(out, [1.0, 0.0], [0.0, 0.0], method="chorus_wo_ndm", weights=LossWeights(*[0.0] * 6))
    _, cvr, uncvr = _grads(bundle, out)
    assert bundle.total.item() == pytest.approx(-(0.25 * math.log(0.4) + 0.75 * math.log(0.6)), abs=1e-12)
    assert cvr.tobytes() == np.zeros(2).tobytes()
    assert uncvr[0] != 0.0 and uncvr[1] == 0.0


# -- the reference graph's engine (tests/oracles.py) -------------------------------
#
# The bitwise tests read their expected gradients through this engine.


def test_backward_requires_scalar_root():
    with pytest.raises(ValueError, match="scalar"):
        oracles.backward(Node(np.ones(3)))


def test_backward_zeroes_previous_gradients():
    x = Node(1.0)
    out = mul(x, 3.0)
    oracles.backward(out)
    oracles.backward(out)
    assert x.grad == pytest.approx(3.0)  # not 6: no accumulation across calls


def test_backward_returns_leaf_map():
    x = Node(1.0)
    y = Node(2.0)
    leaves = oracles.backward(mul(x, y))
    assert leaves[x] == pytest.approx(2.0)
    assert leaves[y] == pytest.approx(1.0)


def test_node_backward_never_reached_reads_zero_grad():
    x = Node(np.ones(4))
    y = Node(2.0)
    oracles.backward(mean(mul(x, 3.0)))
    assert np.array_equal(y.grad, 0.0)
    assert np.array_equal(x.grad, np.full(4, 0.75))


def test_backward_leaves_earlier_gradients_intact():
    x = Node(1.0)
    first = oracles.backward(mul(x, 3.0))[x]
    second = oracles.backward(mul(x, 5.0))[x]
    assert first == 3.0 and second == 5.0


# -- one tower -------------------------------------------------------------------


def _two_layer():
    w1 = np.array([[0.1, 0.2], [0.3, -0.4]])
    b1 = np.array([0.05, -0.1])
    w2 = np.array([[0.5], [-1.0]])
    b2 = np.array([0.2])
    return [(w1, b1), (w2, b2)]


def test_mlp_zero_weights_sigmoid_gives_half():
    heads, _, _ = tower_heads(np.ones((1, 4)), [[(np.zeros((4, 1)), np.zeros(1))]], 1e-7)
    assert heads[0, 0] == pytest.approx(0.5)


def test_mlp_two_layer_hand_evaluation():
    # plain-math oracle: h = [0.75, -0.7] -> relu [0.75, 0] -> 0.575 -> sigmoid
    layers = _two_layer()
    x = np.array([[1.0, 2.0]])
    heads, p, hidden = tower_heads(x, [layers], 1e-7)
    assert heads[0, 0] == pytest.approx(0.6399160967377341, abs=1e-12)
    _, grads = tower_heads_backward({0: np.ones(1)}, x, [layers], 1e-7, p, hidden)
    (gw1, _), (gw2, _) = grads[0]
    assert gw2[0, 0] == pytest.approx(0.17281761440525778, abs=1e-12)
    assert gw1[0, 0] == pytest.approx(0.11521174293683852, abs=1e-12)
    assert gw1[0, 1] == 0.0  # dead relu path


def test_mlp_batch_matches_single_rows():
    layers = _two_layer()
    xs = np.array([[1.0, 2.0], [0.3, -0.7]])
    batch = tower_heads(xs, [layers], 1e-7)[0]
    for i in range(len(xs)):
        single = tower_heads(xs[i : i + 1], [layers], 1e-7)[0]
        assert single[0, 0] == pytest.approx(batch[0, i], abs=1e-15)


def test_mlp_finite_difference_three_layers():
    # a relu dense layer, then a tower of one relu layer and its output unit
    rng = np.random.default_rng(42)
    layers = []
    prev = 5
    for width in (4, 3, 1):
        layers.append((rng.normal(0, 0.5, (prev, width)), rng.normal(0, 0.1, width)))
        prev = width
    x = rng.normal(0, 1, (6, 5))

    def forward() -> float:
        return float(tower_heads(dense(x, *layers[0]), [layers[1:]], 1e-7)[0].mean())

    h = dense(x, *layers[0])
    _, p, hidden = tower_heads(h, [layers[1:]], 1e-7)
    gh, tower = tower_heads_backward({0: np.full(6, 1.0 / 6.0)}, h, [layers[1:]], 1e-7, p, hidden)
    _, gw, gb = dense_backward(gh, x, layers[0][0], h)
    analytic = [gw, gb, *(g for pair in tower[0] for g in pair)]
    step = 1e-5
    worst = 0.0
    for t, grad in zip((v for layer in layers for v in layer), analytic):
        flat = t.reshape(-1)
        grad = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = forward()
            flat[i] = orig - step
            f_minus = forward()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2 * step)
            rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6)
            worst = max(worst, rel)
    assert worst <= 1e-4


# -- kernels and the objective against central differences --------------------------


def _check_central_differences(loss, arrays, grads, step=1e-6, tol=1e-6):
    """The analytic ``grads`` of the scalar ``loss()`` on ``arrays``
    against central differences, element by element; each array is
    perturbed in place."""
    for k, (array, analytic) in enumerate(zip(arrays, grads)):
        analytic = np.array(analytic, dtype=np.float64).reshape(-1)
        flat = array.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss()
            flat[i] = orig - step
            lo = loss()
            flat[i] = orig
            fd = (hi - lo) / (2.0 * step)
            assert abs(fd - analytic[i]) <= tol * max(1.0, abs(fd)), f"array {k} element {i}: {fd} vs {analytic[i]}"


@pytest.mark.parametrize("shape", [(1, 3), (5, 3)], ids=["vector", "batch"])  # a row vector is a batch of one
def test_dense_gradients_match_central_differences(shape):
    rng = np.random.default_rng(11)
    x = rng.normal(size=shape)
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=4)
    projection = rng.normal(size=shape[:-1] + (4,))
    grads = dense_backward(projection / projection.size, x, w, dense(x, w, b))
    _check_central_differences(lambda: float((dense(x, w, b) * projection).mean()), [x, w, b], grads)


def _funnel_batch(seed: int, n: int = 8):
    """Heads inside (0.05, 0.95) and labels with both spaces and both
    conversion outcomes."""
    rng = np.random.default_rng(seed)
    out = _heads(*rng.uniform(0.05, 0.95, (3, n)))
    o = np.tile([1.0, 1.0, 0.0, 0.0], n // 4)
    r = o * np.tile([1.0, 0.0], n // 2)
    return out, o, r


def _check_objective(out, o, r, heads, *terms, **kwargs):
    """The objective's gradients on the named heads against central
    differences; returns its gradients on all three heads."""
    grads = _grads(_objective(out, o, r, *terms, **kwargs), out)
    index = [TOWER_NAMES.index(h) for h in heads]
    _check_central_differences(
        lambda: _objective(out, o, r, *terms, **kwargs).total.item(),
        [getattr(out, h) for h in heads],
        [grads[i] for i in index],
    )
    return grads


@pytest.mark.parametrize("label", ["array", "tensor"])
def test_bce_gradients_match_central_differences(label):
    # array: the batch-mean terms on hard labels (ctr, both funnel
    # products); tensor: uncvr on the soft label 1 - cvr, whose source
    # is held constant, so only the trained head is differentiated
    out, o, r = _funnel_batch(12)
    if label == "array":
        vals = out.values()
        expected = sum(
            float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
            for p, y in ((vals["ctr"], o), (vals["ctcvr"], o * r), (vals["ctuncvr"], o * (1.0 - r)))
        )
        assert _objective(out, o, r, "ctr", "ctcvr", "ctuncvr").total.item() == pytest.approx(expected, abs=1e-12)
        _check_objective(out, o, r, TOWER_NAMES, "ctr", "ctcvr", "ctuncvr")
    else:
        _check_objective(out, o, r, ["uncvr"], method="chorus_wo_ndm", weights=LossWeights(*[0.0] * 6))


@pytest.mark.parametrize("weights", ["none", "array", "tensor"])
def test_masked_mean_gradients_match_central_differences(weights):
    # Click-space means: unweighted (chorus_wo_ndm's own term), with
    # detached IPW weights, and with attached ones, which also train ctr.
    out, o, r = _funnel_batch(13)
    if weights == "none":
        heads = ["uncvr"]
        grads = _check_objective(out, o, r, heads, method="chorus_wo_ndm", weights=LossWeights(*[0.0] * 6))
    else:
        heads = TOWER_NAMES if weights == "tensor" else ["cvr", "uncvr"]
        grads = _check_objective(out, o, r, heads, "cvr_ipw", "uncvr_ipw", ipw=ATTACHED if weights == "tensor" else IpwConfig())
    for h in heads:
        assert np.all(grads[TOWER_NAMES.index(h)][o == 0.0] == 0.0)  # un-clicked samples pass exactly zero


@pytest.mark.parametrize("complement", [False, True], ids=["click", "unclick"])
def test_inverse_propensity_gradients_match_central_differences(complement):
    # The alignment term through attached weights, on one space: only the
    # weights read ctr. One q sits below the floor.
    rng = np.random.default_rng(21)
    ctr = np.concatenate([rng.uniform(0.05, 0.95, 6), [0.999 if complement else 0.001]])
    out = _heads(ctr, *rng.uniform(0.05, 0.95, (2, 7)))
    o = np.zeros(7) if complement else np.ones(7)
    grads = _check_objective(out, o, np.zeros(7), ["ctr"], "align_ipw", ipw=ATTACHED)
    assert grads[0][-1] == 0.0


def _node_chain_inverse_propensity(p: Node, floor: float, complement: bool) -> Node:
    """The chain of nodes :func:`oracles.inverse_propensity` replaced:
    ``1 - p`` as a negation then an add when ``complement`` is set, then
    a clamp from below, then a reciprocal."""
    q = p
    if complement:
        neg = Node(-p.value, parents=(p,), op="neg")._attach(lambda g: oracles._accumulate(p, -g))
        q = Node(neg.value + 1.0, parents=(neg,), op="add")._attach(lambda g: oracles._accumulate(neg, g))
    clamped = Node(np.maximum(q.value, floor), parents=(q,), op="clamp_min")
    clamped._attach(lambda g: oracles._accumulate(q, g * (q.value > floor)))
    value = 1.0 / clamped.value
    out = Node(value, parents=(clamped,), op="reciprocal")
    return out._attach(lambda g: oracles._accumulate(clamped, -g * value * value))


@pytest.mark.parametrize("complement", [False, True], ids=["click", "unclick"])
def test_inverse_propensity_keeps_the_bits_of_the_node_chain(complement, monkeypatch):
    # Attached weights on one space, at and around the floor: the objective
    # gives every head the bits of the reference graph with its weights
    # built as the node chain.
    rng = np.random.default_rng(22)
    ctr = np.concatenate([rng.uniform(0.0, 1.0, 256), [0.0, 0.005, 0.01, 0.99, 0.995, 1.0]])
    values = [ctr, *rng.uniform(0.05, 0.95, (2, ctr.size))]
    o = np.zeros(ctr.size) if complement else np.ones(ctr.size)
    r = (rng.random(ctr.size) < 0.5) * o
    term = "align_ipw" if complement else "cvr_ipw"
    out = _heads(*values)
    got = _grads(_objective(out, o, r, term, ipw=ATTACHED), out)
    monkeypatch.setattr(oracles, "inverse_propensity", _node_chain_inverse_propensity)
    ref = oracles.Heads(*(Node(v) for v in values))
    weights = LossWeights(*(float(t == term) for t in TERMS))
    _, total = oracles.reference_method_loss("chorus", ref, o, r, weights, ATTACHED)
    oracles.backward(total)
    assert ref.ctr.grad.any()
    for g, want in zip(got, ref):
        assert g.tobytes() == want.grad.tobytes()


def test_node_operands_of_another_shape_raise_shape_error():
    # labels and heads must be one (n,) batch: nothing is broadcast
    out = _heads([0.5] * 3, [0.5] * 3, [0.5] * 3)
    with pytest.raises(ShapeError, match="labels"):
        _objective(out, [1.0], [0.0], "ctr")
    with pytest.raises(ShapeError, match="labels"):
        _objective(out, np.ones((2, 3)), np.zeros((2, 3)), "ctr")
    with pytest.raises(ShapeError, match="labels"):
        _objective(_heads([0.5] * 3, [0.5] * 2, [0.5] * 3), np.ones(3), np.zeros(3), "ctr")


def test_dense_and_tower_heads_take_batches_only():
    # a vector of the layer's width would give dense a scalar weight
    # gradient, and tower_heads a hidden layer of the wrong shape
    with pytest.raises(ShapeError, match="dense"):
        dense(np.ones(2), *_unit_layer(2))
    with pytest.raises(ShapeError, match="tower_heads"):
        tower_heads(np.ones(2), [[_unit_layer(2), (np.ones((2, 1)), np.zeros(1))]], 1e-7)


def test_gather_concat_gradients_match_central_differences():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(4, 2))
    b = rng.normal(size=(3, 3))
    blocks = [(a, np.array([1, 3, 1, 1, 0])), rng.normal(size=(5, 1)), (b, np.array([2, 2, 0, 1, 2]))]
    projection = rng.normal(size=(5, 6))
    _, grads = _gather(blocks, projection / projection.size)
    _check_central_differences(lambda: float((_gather(blocks)[0] * projection).mean()), [a, b], grads)
    assert np.all(grads[0][2] == 0.0)  # row 2 was never read


def _towers(rng, d: int, hidden: tuple[int, ...], k: int = 3) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    widths = [d, *hidden, 1]
    return [[(rng.normal(size=(a, b)), rng.normal(size=b) * 0.1) for a, b in zip(widths, widths[1:])] for _ in range(k)]


@pytest.mark.parametrize("hidden", [(), (4,), (4, 3)], ids=["0-hidden", "1-hidden", "2-hidden"])
@pytest.mark.parametrize("encoder", [False, True], ids=["no-encoder", "encoder"])
def test_tower_heads_gradients_match_central_differences(hidden, encoder):
    rng = np.random.default_rng(15)
    x = rng.normal(size=(5, 3))
    enc_w, enc_b = rng.normal(size=(3, 4)), rng.normal(size=4)
    towers = _towers(rng, 4 if encoder else 3, hidden)
    projections = rng.normal(size=(3, 5))
    scales = (1.0, 0.5, 2.0)

    def loss():
        heads = tower_heads(dense(x, enc_w, enc_b) if encoder else x, towers, 1e-7)[0]
        return float(sum(s * (head * proj).mean() for head, proj, s in zip(heads, projections, scales)))

    h = dense(x, enc_w, enc_b) if encoder else x
    _, p, hidden_out = tower_heads(h, towers, 1e-7)
    g = {t: projections[t] * (scales[t] / 5.0) for t in range(3)}
    gh, tower_grads = tower_heads_backward(g, h, towers, 1e-7, p, hidden_out)
    arrays, grads = [x], [gh]
    if encoder:
        gx, gw, gb = dense_backward(gh, x, enc_w, h)
        arrays, grads = [x, enc_w, enc_b], [gx, gw, gb]
    for t, layers in enumerate(towers):
        arrays += [v for layer in layers for v in layer]
        grads += [v for layer in tower_grads[t] for v in layer]
    _check_central_differences(loss, arrays, grads)


SCHEMA = build_schema(
    [
        {"name": "a", "kind": "categorical", "vocab_size": 4, "embed_width": 2},
        {"name": "x", "kind": "numeric"},
    ]
)


def _step_inputs(seed: int, n: int = 6):
    """A model with a [4] tower layer and a batch of ``n`` rows."""
    rng = np.random.default_rng(seed)
    params = init_model(SCHEMA, Architecture(encoder_widths=(), tower_widths=(4,)), seed=seed)
    rows = [{"a": int(rng.integers(4)), "x": float(rng.normal())} for _ in range(n)]
    return params, build_matrix(log_of(rows, SCHEMA), SCHEMA)


def test_tower_head_no_gradient_reaches_leaves_its_tower_untouched():
    params, fm = _step_inputs(16)
    out = predict_batch(params, fm)
    bundle = _objective(out, [1.0, 0.0] * 3, [1.0] + [0.0] * 5, method="esmm")  # uncvr unread
    grads = dict(zip(params.parameters(), backward(params, out, bundle.head_grads, params.parameters())))
    for name, v in params.named_parameters():
        if name.startswith("tower.uncvr."):
            assert grads[v].tobytes() == np.zeros_like(v.value).tobytes()  # +0 everywhere
        elif name.startswith("tower."):
            assert np.abs(grads[v]).sum() > 0.0, name


def test_tower_heads_backward_twice_gives_the_same_gradients():
    # the backward reads its forward record without changing it
    params, fm = _step_inputs(17)
    out = predict_batch(params, fm)
    bundle = _objective(out, [1.0, 0.0] * 3, [1.0] + [0.0] * 5, *TERMS)
    first = backward(params, out, bundle.head_grads, params.parameters())
    second = backward(params, out, bundle.head_grads, params.parameters())
    assert all(a.tobytes() == b.tobytes() and a is not b for a, b in zip(first, second))


def test_tower_heads_reject_towers_of_unequal_depth():
    rng = np.random.default_rng(18)
    with pytest.raises(ShapeError, match="depth"):
        tower_heads(np.ones((2, 3)), _towers(rng, 3, (4,), k=1) + _towers(rng, 3, (), k=1), 1e-7)


def test_weighted_sum_gradients_match_central_differences():
    # uneven weights on the five terms without a soft label, with attached
    # IPW weights; the total adds each weighted term left to right
    out, o, r = _funnel_batch(23)
    weights = LossWeights(0.5, 2.0, 1.0, 0.3, 0.7, 0.0)
    alone = [_objective(out, o, r, t, ipw=ATTACHED).total.item() for t in TERMS[:5]]
    total = _objective(out, o, r, ipw=ATTACHED, weights=weights).total
    expected = alone[0] * 0.5
    for value, w in zip(alone[1:], (2.0, 1.0, 0.3, 0.7)):
        expected = expected + value * w
    assert total.item() == expected
    _check_objective(out, o, r, TOWER_NAMES, ipw=ATTACHED, weights=weights)


# -- optimizer -----------------------------------------------------------------


def test_adam_single_step_hand_value():
    # from w = 0 with grad 3, lr 0.1: w1 = -lr * g/(|g| + eps)
    w = Tensor(0.0)
    state = OptimizerState.for_params([w])
    optimizer_step([w], [np.asarray(3.0)], state, OptimizerConfig(learning_rate=0.1))
    assert w.value == pytest.approx(-0.09999999966666669, abs=1e-15)
    assert state.step_count == 1


def test_adam_zero_gradient_is_noop():
    w = Tensor(1.5)
    state = OptimizerState.for_params([w])
    optimizer_step([w], [np.asarray(0.0)], state, OptimizerConfig())
    assert w.value == 1.5


def test_adam_converges_on_quadratic():
    # minimize (w - 3)^2 from 0; 1000 steps at lr 0.1 lands on the minimum
    w = Tensor(0.0)
    state = OptimizerState.for_params([w])
    config = OptimizerConfig(learning_rate=0.1)
    for _ in range(1000):
        optimizer_step([w], [2.0 * (w.value - 3.0)], state, config)
    assert abs(w.item() - 3.0) < 1e-3


def test_sgd_step():
    w = Tensor(np.array([1.0, 2.0]))
    state = OptimizerState.for_params([w])
    optimizer_step([w], [np.array([0.5, -0.5])], state, OptimizerConfig(method="sgd", learning_rate=0.1))
    assert np.allclose(w.value, [0.95, 2.05])


def test_optimizer_rejects_non_finite_gradient():
    w = Tensor(0.0)
    w.name = "tower.cvr.0.w"
    state = OptimizerState.for_params([w])
    with pytest.raises(OptimizerError, match="tower.cvr.0.w"):
        optimizer_step([w], [np.asarray(np.nan)], state, OptimizerConfig())


def test_optimizer_rejects_non_finite_moment_naming_the_parameter():
    a, b = Tensor(np.zeros((2, 2))), Tensor(np.zeros(3))
    a.name, b.name = "tower.ctr.0.w", "tower.ctr.0.b"
    state = OptimizerState.for_params([a, b])
    grads = [np.ones((2, 2)), np.array([1.0, 1e200, 1.0])]  # g * g overflows
    with pytest.raises(OptimizerError, match="non-finite moment for tower.ctr.0.b at step 1"):
        optimizer_step([a, b], grads, state, OptimizerConfig())


@pytest.mark.parametrize("method", ["adam", "sgd"])
def test_flat_update_matches_per_parameter_loop_bitwise(method):
    rng = np.random.default_rng(17)
    shapes = [(16, 4), (4,), (), (17, 16), (16,), (16, 1), (1,)]
    params = [Tensor(rng.normal(size=s)) for s in shapes]
    expected = [p.value.copy() for p in params]
    config = OptimizerConfig(method=method, learning_rate=0.01)
    state = OptimizerState.for_params(params)
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for step in range(1, 51):
        grads = [rng.normal(size=s) * (rng.random(s) < 0.8) for s in shapes]
        optimizer_step(params, grads, state, config)
        for i, g in enumerate(grads):
            if method == "sgd":
                expected[i] -= config.learning_rate * g
                continue
            m[i] *= b1
            m[i] += (1.0 - b1) * g
            v[i] *= b2
            v[i] += (1.0 - b2) * g * g
            m_hat = m[i] / (1.0 - b1**step)
            v_hat = v[i] / (1.0 - b2**step)
            expected[i] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    assert state.step_count == 50
    for p, e in zip(params, expected):
        assert p.value.tobytes() == e.tobytes()


def test_optimizer_rejects_misaligned_inputs():
    w = Tensor(0.0)
    state = OptimizerState.for_params([w])
    with pytest.raises(OptimizerError):
        optimizer_step([w], [], state, OptimizerConfig())


def test_optimizer_rejects_a_transposed_gradient():
    w = Tensor(np.zeros((2, 4)))
    state = OptimizerState.for_params([w])
    with pytest.raises(OptimizerError, match="not aligned"):
        optimizer_step([w], [np.ones((4, 2))], state, OptimizerConfig())


def test_optimizer_config_validation():
    with pytest.raises(OptimizerError):
        OptimizerConfig(method="rmsprop")
    with pytest.raises(OptimizerError):
        OptimizerConfig(learning_rate=0.0)


def test_dropped_graph_is_freed_without_the_cycle_collector():
    # A training step's forward record, bundle and gradients hold no
    # reference cycle: dropped, they are freed at once, not at the next
    # full collection.
    params, fm = _step_inputs(19, n=4)
    gc.collect()
    gc.disable()
    try:
        bundle, grads = training_step(
            params, fm, np.array([1.0, 0.0] * 2), np.zeros(4), "chorus", LossWeights(), ATTACHED, params.parameters()
        )
        del bundle, grads
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stable_sigmoid_computes_the_three_exp_form_bit_for_bit():
    special = np.array([0.0, 1e-300, 1.0, 36.0, 745.0, 1e308])
    x = np.concatenate([special, -special, np.random.default_rng(20).normal(scale=40.0, size=10_000)])
    e = -np.abs(x)
    three_exp = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(e)), np.exp(e) / (1.0 + np.exp(e)))
    assert stable_sigmoid(x).tobytes() == three_exp.tobytes()
    in_place = x.copy()
    assert stable_sigmoid(in_place, out=in_place) is in_place
    assert in_place.tobytes() == three_exp.tobytes()
