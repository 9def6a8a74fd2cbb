"""Autodiff engine: forward values, gradients, the objective node's
gradients against central differences, optimizer.

The engine's own tests read a scalar root through the reference graph's
``mean`` and ``mul`` nodes (``tests/oracles.py``)."""

import gc
import math

import numpy as np
import pytest

from choruscvr.autodiff import (
    ACTIVATIONS,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    GraphError,
    OptimizerConfig,
    OptimizerError,
    OptimizerState,
    ShapeError,
    Tensor,
    _accumulate,
    backward,
    dense,
    gather_concat,
    mlp_forward,
    no_grad,
    optimizer_step,
    stable_sigmoid,
    tower_heads,
)
from choruscvr.model import TowerOutputs
from choruscvr.objectives import TERMS, IpwConfig, LossWeights, compose_method_loss

import oracles
from oracles import mean, mul, weighted_sum

ATTACHED = IpwConfig(detach=False)


def _heads(ctr, cvr, uncvr) -> TowerOutputs:
    return TowerOutputs(*(Tensor(np.asarray(v, dtype=np.float64)) for v in (ctr, cvr, uncvr)))


def _objective(out, o, r, *terms, method="chorus", ipw=IpwConfig(), weights=None) -> Tensor:
    """The objective node of ``method``; for the chorus family, weight 1
    on the named base terms and 0 on the others unless ``weights`` is
    given."""
    weights = weights or LossWeights(*(float(t in terms) for t in TERMS))
    return compose_method_loss(method, out, np.asarray(o, float), np.asarray(r, float), weights, ipw).total


def _gather(blocks) -> Tensor:
    """:func:`gather_concat` from column blocks in order: ``(table, rows)``
    reads those rows of the table, an ``(n, k)`` array is constant."""
    tables = [b[0] for b in blocks if isinstance(b, tuple)]
    n = len(blocks[0][1] if isinstance(blocks[0], tuple) else blocks[0])
    columns, constant_cols, start = [], [], 0
    for b in blocks:
        if isinstance(b, tuple):
            table, rows = b
            width = table.value.shape[1]
            columns += [start + rows * width + j for j in range(width)]
            start += table.value.size
        else:
            at = len(columns) + len(constant_cols)
            constant_cols += range(at, at + b.shape[1])
    constant = np.concatenate([np.zeros((n, 0))] + [b for b in blocks if not isinstance(b, tuple)], axis=1)
    return gather_concat(tables, np.stack(columns, axis=1), 1, constant, np.array(constant_cols, dtype=np.int64))


def test_mul_and_weighted_sum_chain():
    # 2 bce(ctr, 1) + 2 bce(ctr * cvr, 1) at ctr = cvr = 0.5: the product
    # passes ctr the gradient times cvr, and cvr the gradient times ctr
    out = _heads([0.5], [0.5], [0.5])
    total = _objective(out, [1.0], [1.0], weights=LossWeights(2.0, 2.0, 0.0, 0.0, 0.0, 0.0))
    backward(total)
    assert total.item() == pytest.approx(6.0 * math.log(2.0), abs=1e-12)
    assert out.ctr.grad.tolist() == [-8.0]  # 2 * -2, then 2 * -4 * 0.5
    assert out.cvr.grad.tolist() == [-4.0]
    assert out.uncvr.grad.tolist() == [0.0]


def _unit_layer(width: int = 1) -> tuple[Tensor, Tensor]:
    return Tensor(np.eye(width)), Tensor(np.zeros(width))


def test_dense_bias_gradient_sums_over_batch():
    w, b = _unit_layer(2)
    out = mean(dense(Tensor(np.ones((4, 2))), w, b, "identity"))
    backward(out)
    assert np.array_equal(b.grad, np.full(2, 0.5))  # four rows of 1/8


def test_matmul_vector_and_batch():
    # the matmul of a dense layer, identity activation and zero bias, on a
    # row vector (a batch of one) and on a batch of two
    w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    b = Tensor(np.zeros(2))
    x = Tensor(np.array([[1.0, 1.0, 1.0]]))
    backward(mean(dense(x, w, b, "identity")))
    assert np.array_equal(x.grad, np.array([[1.5, 3.5, 5.5]]))
    assert np.array_equal(w.grad, np.full((3, 2), 0.5))
    xs = Tensor(np.ones((2, 3)))
    backward(mean(dense(xs, w, b, "identity")))
    assert np.array_equal(xs.grad, np.tile([0.75, 1.75, 2.75], (2, 1)))
    assert np.array_equal(w.grad, np.full((3, 2), 0.5))
    assert np.array_equal(b.grad, np.full(2, 0.5))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        mlp_forward([(Tensor(np.ones((2, 3))), Tensor(np.zeros(3)))], np.ones((2, 3)), ["identity"])


def test_linear_gradient_is_input():
    # y = mean(w * x), dy/dw = x / 2
    w = Tensor(np.array([0.5, -0.25]))
    x = np.array([3.0, 7.0])
    out = mean(mul(w, x))
    backward(out)
    assert np.array_equal(w.grad, x / 2)


def test_sigmoid_derivative_at_zero():
    z = Tensor(np.array([[0.0]]))
    s = dense(z, *_unit_layer(), "sigmoid")
    backward(mean(s))
    assert s.value[0, 0] == 0.5
    assert z.grad[0, 0] == pytest.approx(0.25)


def test_sigmoid_stable_in_tails():
    s = dense(Tensor(np.array([[-800.0], [800.0]])), *_unit_layer(), "sigmoid")
    assert np.all(np.isfinite(s.value))
    assert s.value[0, 0] >= 0.0 and s.value[1, 0] <= 1.0


def test_log_and_inverse_propensity():
    # one click, r = 1: bce(cvr, 1) = -ln cvr, weighted by 1 / ctr
    out = _heads([0.5], [0.5], [0.5])
    total = _objective(out, [1.0], [1.0], "cvr_ipw", ipw=ATTACHED)
    backward(total)
    assert total.item() == pytest.approx(2.0 * math.log(2.0))
    assert out.cvr.grad.tolist() == [-4.0]  # -(1 / cvr) / ctr
    assert out.ctr.grad[0] == pytest.approx(-4.0 * math.log(2.0))  # -bce / ctr^2


def test_tower_heads_clip_blocks_gradient_outside_band():
    # sigmoid(+-40) lies beyond the clamp, sigmoid(0) = 0.5 inside it
    x = Tensor(np.array([[40.0], [0.0], [-40.0]]))
    (head,) = tower_heads(x, [[(Tensor(np.ones((1, 1))), Tensor(np.zeros(1)))]], 1e-7)
    backward(mean(head))
    assert np.array_equal(head.value, [1.0 - 1e-7, 0.5, 1e-7])
    assert np.array_equal(x.grad, [[0.0], [0.25 / 3.0], [0.0]])


@pytest.mark.parametrize("complement", [False, True], ids=["click", "unclick"])
def test_inverse_propensity_floor_blocks_gradient(complement):
    # q = 0.005 sits below the floor (weight 100), q = 0.5 above it (weight
    # 2): clicks weigh cvr_ipw by 1/p, un-clicks the alignment by 1/(1 - p)
    out = _heads([0.995, 0.5] if complement else [0.005, 0.5], [0.5, 0.5], [0.5, 0.5])
    o = [0.0, 0.0] if complement else [1.0, 1.0]
    total = _objective(out, o, [0.0, 0.0], "align_ipw" if complement else "cvr_ipw", ipw=ATTACHED)
    backward(total)
    parts = 2 if complement else 1  # both alignment addends read 1/(1 - p)
    assert total.item() == pytest.approx(parts * math.log(2.0) * (100.0 + 2.0) / 2.0)
    assert out.ctr.grad[0] == 0.0
    assert out.ctr.grad[1] == pytest.approx(parts * math.log(2.0) * (2.0 if complement else -2.0))


def test_mean_and_sum():
    # the click term is a mean over the batch: each sample gets 1/n of its
    # bce derivative, -1/p on a click and 1/(1 - p) otherwise
    out = _heads([0.5] * 4, [0.5] * 4, [0.5] * 4)
    total = _objective(out, [1.0, 0.0, 1.0, 0.0], [0.0] * 4, "ctr")
    backward(total)
    assert total.item() == math.log(2.0)
    assert np.array_equal(out.ctr.grad, [-0.5, 0.5, -0.5, 0.5])


def test_take_rows_scatter_adds_repeated_indices():
    # the embedding lookup of gather_concat
    table = Tensor(np.zeros((3, 2)))
    out = mean(_gather([(table, np.array([1, 1, 2, 1]))]))
    backward(out)
    expected = np.array([[0.0, 0.0], [0.375, 0.375], [0.125, 0.125]])
    assert np.array_equal(table.grad, expected)


def test_bincount_scatter_equals_add_at_bitwise():
    # gather_concat's table gradient, read in chunks of whole rows
    rng = np.random.default_rng(3)
    tables = [Tensor(rng.normal(size=(16, 4))), Tensor(rng.normal(size=(5, 4)))]
    idx = np.stack([rng.integers(0, 16, 1024), rng.integers(0, 5, 1024)], axis=1)
    g = rng.normal(size=(1024, 8))
    out = gather_concat(tables, idx + [0, 16], 4, np.zeros((1024, 0)), np.zeros(0, dtype=np.int64))
    assert np.array_equal(out.value, np.concatenate([tables[0].value[idx[:, 0]], tables[1].value[idx[:, 1]]], axis=1))
    backward(mean(mul(out, g)))
    upstream = np.full((1024, 8), 1.0 / 8192) * g
    for k, table in enumerate(tables):
        expected = np.zeros_like(table.value)
        np.add.at(expected, idx[:, k], upstream[:, 4 * k : 4 * k + 4])
        assert table.grad.tobytes() == expected.tobytes()


def test_concat_splits_gradient():
    # gather_concat reading every table row once, with a constant block between
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 3)))
    rows = np.array([0, 1])
    out = _gather([(a, rows), np.full((2, 1), 7.0), (b, rows)])
    assert out.shape == (2, 6)
    assert np.array_equal(out.value[:, 2], [7.0, 7.0])
    backward(mean(mul(out, np.arange(6.0))))
    assert np.array_equal(a.grad, np.tile(np.array([0.0, 1.0]) * (1.0 / 12), (2, 1)))
    assert np.array_equal(b.grad, np.tile(np.array([3.0, 4.0, 5.0]) * (1.0 / 12), (2, 1)))


def test_stop_gradient_is_identity_forward_zero_backward():
    # chorus_wo_ndm's own term alone: uncvr against the soft label 1 - cvr
    # on the click; the label's value is 1 - cvr, and cvr gets no gradient
    out = _heads([0.5, 0.5], [0.75, 0.9], [0.4, 0.4])
    total = _objective(out, [1.0, 0.0], [0.0, 0.0], method="chorus_wo_ndm", weights=LossWeights(*[0.0] * 6))
    backward(total)
    assert total.item() == pytest.approx(-(0.25 * math.log(0.4) + 0.75 * math.log(0.6)), abs=1e-12)
    assert out.cvr.grad.tobytes() == np.zeros(2).tobytes()
    assert out.uncvr.grad[0] != 0.0 and out.uncvr.grad[1] == 0.0


def test_backward_requires_scalar_root():
    with pytest.raises(GraphError):
        backward(Tensor(np.ones(3)))


def test_backward_zeroes_previous_gradients():
    x = Tensor(1.0)
    out = mul(x, 3.0)
    backward(out)
    backward(out)
    assert x.grad == pytest.approx(3.0)  # not 6: no accumulation across calls


def test_backward_returns_leaf_map():
    x = Tensor(1.0)
    y = Tensor(2.0)
    leaves = backward(mul(x, y))
    assert leaves[x] == pytest.approx(2.0)
    assert leaves[y] == pytest.approx(1.0)


def test_node_backward_never_reached_reads_zero_grad():
    x = Tensor(np.ones(4))
    y = Tensor(2.0)
    backward(mean(mul(x, 3.0)))
    assert np.array_equal(y.grad, 0.0)
    assert np.array_equal(x.grad, np.full(4, 0.75))


def test_backward_leaves_earlier_gradients_intact():
    x = Tensor(1.0)
    first = backward(mul(x, 3.0))[x]
    second = backward(mul(x, 5.0))[x]
    assert first == 3.0 and second == 5.0


# -- no_grad -------------------------------------------------------------------


def test_no_grad_same_values_no_parents():
    table = Tensor(np.array([[-1.0, 2.0]]))
    towers = [[(Tensor(np.array([[0.5], [0.25], [-0.5]]) * k), Tensor(np.array([0.1])))] for k in (1.0, -0.5, 2.0)]

    def forward():
        x = _gather([(table, np.array([0, 0])), np.ones((2, 1))])
        out = TowerOutputs(*tower_heads(x, towers, 1e-7))
        return compose_method_loss("chorus", out, np.array([1.0, 0.0]), np.zeros(2), LossWeights(), ATTACHED).total

    graph = forward()
    with no_grad():
        bare = forward()
    assert graph.parents
    assert bare.parents == ()
    assert np.array_equal(bare.value, graph.value)


def test_no_grad_restores_graph_building_after_an_exception():
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    x = Tensor(1.0)
    out = mul(x, 2.0)
    assert out.parents == (x,)
    backward(out)
    assert x.grad == 2.0


def test_no_grad_nests():
    with no_grad():
        with no_grad():
            pass
        assert mul(Tensor(1.0), 2.0).parents == ()
    assert mul(Tensor(1.0), 2.0).parents != ()


# -- mlp_forward ---------------------------------------------------------------


def _two_layer():
    w1 = Tensor(np.array([[0.1, 0.2], [0.3, -0.4]]))
    b1 = Tensor(np.array([0.05, -0.1]))
    w2 = Tensor(np.array([[0.5], [-1.0]]))
    b2 = Tensor(np.array([0.2]))
    return [(w1, b1), (w2, b2)]


def test_mlp_identity_passthrough():
    # zero weights, zero bias, identity activation -> output zero
    layers = [(Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))]
    out = mlp_forward(layers, np.array([[1.0, 2.0, 3.0]]), ["identity"])
    assert np.array_equal(out.value, np.zeros((1, 2)))


def test_mlp_zero_weights_sigmoid_gives_half():
    layers = [(Tensor(np.zeros((4, 1))), Tensor(np.zeros(1)))]
    out = mlp_forward(layers, np.ones((1, 4)), ["sigmoid"])
    assert out.value[0, 0] == pytest.approx(0.5)


def test_mlp_two_layer_hand_evaluation():
    # plain-math oracle: h = [0.75, -0.7] -> relu [0.75, 0] -> 0.575 -> sigmoid
    layers = _two_layer()
    out = mlp_forward(layers, np.array([[1.0, 2.0]]), ["relu", "sigmoid"])
    assert out.value[0, 0] == pytest.approx(0.6399160967377341, abs=1e-12)
    backward(mean(out))
    w2, _ = layers[1]
    w1, _ = layers[0]
    assert w2.grad[0, 0] == pytest.approx(0.17281761440525778, abs=1e-12)
    assert w1.grad[0, 0] == pytest.approx(0.11521174293683852, abs=1e-12)
    assert w1.grad[0, 1] == 0.0  # dead relu path


def test_mlp_batch_matches_single_rows():
    layers = _two_layer()
    xs = np.array([[1.0, 2.0], [0.3, -0.7]])
    batch = mlp_forward(layers, xs, ["relu", "sigmoid"])
    for i in range(len(xs)):
        single = mlp_forward(layers, xs[i : i + 1], ["relu", "sigmoid"])
        assert single.value[0, 0] == pytest.approx(batch.value[i, 0], abs=1e-15)


def test_mlp_layer_mismatch_names_layer():
    layers = _two_layer()
    with pytest.raises(ShapeError, match="layer 0"):
        mlp_forward(layers, np.ones((1, 3)), ["relu", "sigmoid"])


def test_mlp_activation_count_checked():
    with pytest.raises(ShapeError):
        mlp_forward(_two_layer(), np.ones((1, 2)), ["relu"])


def test_mlp_unknown_activation():
    with pytest.raises(GraphError, match="unknown activation"):
        mlp_forward(_two_layer(), np.ones((1, 2)), ["relu", "tanh"])


def test_mlp_finite_difference_three_layers():
    rng = np.random.default_rng(42)
    layers = []
    prev = 5
    for width in (4, 3, 1):
        layers.append((Tensor(rng.normal(0, 0.5, (prev, width))), Tensor(rng.normal(0, 0.1, width))))
        prev = width
    x = rng.normal(0, 1, (6, 5))

    def forward() -> float:
        return mean(mlp_forward(layers, x, ["relu", "relu", "sigmoid"])).item()

    out = mean(mlp_forward(layers, x, ["relu", "relu", "sigmoid"]))
    backward(out)
    h = 1e-5
    worst = 0.0
    for w, b in layers:
        for t in (w, b):
            flat = t.value.reshape(-1)
            grad = t.grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                f_plus = forward()
                flat[i] = orig - h
                f_minus = forward()
                flat[i] = orig
                fd = (f_plus - f_minus) / (2 * h)
                rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6)
                worst = max(worst, rel)
    assert worst <= 1e-4


# -- fused nodes against central differences ------------------------------------


def _check_central_differences(loss, leaves, step=1e-6, tol=1e-6):
    """Backward of the scalar ``loss()`` against central differences,
    element by element over every leaf."""
    backward(loss())
    for k, leaf in enumerate(leaves):
        analytic = leaf.grad.reshape(-1).copy()
        flat = leaf.value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss().item()
            flat[i] = orig - step
            lo = loss().item()
            flat[i] = orig
            fd = (hi - lo) / (2.0 * step)
            assert abs(fd - analytic[i]) <= tol * max(1.0, abs(fd)), f"leaf {k} element {i}: {fd} vs {analytic[i]}"


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("shape", [(1, 3), (5, 3)], ids=["vector", "batch"])  # a row vector is a batch of one
def test_dense_gradients_match_central_differences(activation, shape):
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=shape))
    w = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=4))
    projection = rng.normal(size=shape[:-1] + (4,))
    _check_central_differences(lambda: mean(mul(dense(x, w, b, activation), projection)), [x, w, b])


def test_dense_rejects_unknown_activation():
    with pytest.raises(GraphError, match="tanh"):
        dense(Tensor(np.ones((1, 2))), *_unit_layer(2), "tanh")


def _funnel_batch(seed: int, n: int = 8):
    """Heads inside (0.05, 0.95) and labels with both spaces and both
    conversion outcomes."""
    rng = np.random.default_rng(seed)
    out = _heads(*rng.uniform(0.05, 0.95, (3, n)))
    o = np.tile([1.0, 1.0, 0.0, 0.0], n // 4)
    r = o * np.tile([1.0, 0.0], n // 2)
    return out, o, r


@pytest.mark.parametrize("label", ["array", "tensor"])
def test_bce_gradients_match_central_differences(label):
    # array: the batch-mean terms on hard labels (ctr, both funnel
    # products); tensor: uncvr on the soft label 1 - cvr, whose source
    # is held constant, so only the trained head is differentiated
    out, o, r = _funnel_batch(12)
    if label == "array":
        vals = {k: v.value for k, v in vars(out).items()}
        expected = sum(
            float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
            for p, y in ((vals["ctr"], o), (vals["ctr"] * vals["cvr"], o * r), (vals["ctr"] * vals["uncvr"], o * (1.0 - r)))
        )
        assert _objective(out, o, r, "ctr", "ctcvr", "ctuncvr").item() == pytest.approx(expected, abs=1e-12)
        _check_central_differences(lambda: _objective(out, o, r, "ctr", "ctcvr", "ctuncvr"), [out.ctr, out.cvr, out.uncvr])
    else:
        zero = LossWeights(*[0.0] * 6)
        _check_central_differences(lambda: _objective(out, o, r, method="chorus_wo_ndm", weights=zero), [out.uncvr])


@pytest.mark.parametrize("weights", ["none", "array", "tensor"])
def test_masked_mean_gradients_match_central_differences(weights):
    # Click-space means: unweighted (chorus_wo_ndm's own term), with
    # detached IPW weights, and with attached ones, which also train ctr.
    out, o, r = _funnel_batch(13)
    if weights == "none":
        loss, leaves = lambda: _objective(out, o, r, method="chorus_wo_ndm", weights=LossWeights(*[0.0] * 6)), [out.uncvr]
    else:
        ipw = ATTACHED if weights == "tensor" else IpwConfig()
        leaves = [out.ctr, out.cvr, out.uncvr] if weights == "tensor" else [out.cvr, out.uncvr]
        loss = lambda: _objective(out, o, r, "cvr_ipw", "uncvr_ipw", ipw=ipw)  # noqa: E731
    _check_central_differences(loss, leaves)
    for leaf in leaves:
        assert np.all(leaf.grad[o == 0.0] == 0.0)  # un-clicked samples pass exactly zero


@pytest.mark.parametrize("complement", [False, True], ids=["click", "unclick"])
def test_inverse_propensity_gradients_match_central_differences(complement):
    # The alignment term through attached weights, on one space: only the
    # weights read ctr. One q sits below the floor.
    rng = np.random.default_rng(21)
    ctr = np.concatenate([rng.uniform(0.05, 0.95, 6), [0.999 if complement else 0.001]])
    out = _heads(ctr, *rng.uniform(0.05, 0.95, (2, 7)))
    o = np.zeros(7) if complement else np.ones(7)
    _check_central_differences(lambda: _objective(out, o, np.zeros(7), "align_ipw", ipw=ATTACHED), [out.ctr])
    assert out.ctr.grad[-1] == 0.0


def _node_chain_inverse_propensity(p: Tensor, floor: float, complement: bool) -> Tensor:
    """The chain of nodes :func:`inverse_propensity` replaces: ``1 - p`` as
    a negation then an add when ``complement`` is set, then a clamp from
    below, then a reciprocal."""
    q = p
    if complement:
        neg = Tensor(-p.value, parents=(p,), op="neg")._attach(lambda g: _accumulate(p, -g))
        q = Tensor(neg.value + 1.0, parents=(neg,), op="add")._attach(lambda g: _accumulate(neg, g))
    clamped = Tensor(np.maximum(q.value, floor), parents=(q,), op="clamp_min")
    clamped._attach(lambda g: _accumulate(q, g * (q.value > floor)))
    value = 1.0 / clamped.value
    out = Tensor(value, parents=(clamped,), op="reciprocal")
    return out._attach(lambda g: _accumulate(clamped, -g * value * value))


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
    backward(_objective(out, o, r, term, ipw=ATTACHED))
    monkeypatch.setattr(oracles, "inverse_propensity", _node_chain_inverse_propensity)
    ref = _heads(*values)
    weights = LossWeights(*(float(t == term) for t in TERMS))
    _, total = oracles.reference_method_loss("chorus", ref, o, r, weights, ATTACHED)
    backward(total)
    assert ref.ctr.grad.any()
    for got, want in zip((out.ctr, out.cvr, out.uncvr), (ref.ctr, ref.cvr, ref.uncvr)):
        assert got.grad.tobytes() == want.grad.tobytes()


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
        dense(Tensor(np.ones(2)), *_unit_layer(2), "identity")
    with pytest.raises(ShapeError, match="tower_heads"):
        tower_heads(Tensor(np.ones(2)), [[_unit_layer(2), (Tensor(np.ones((2, 1))), Tensor(np.zeros(1)))]], 1e-7)


def test_gather_concat_gradients_match_central_differences():
    rng = np.random.default_rng(14)
    a = Tensor(rng.normal(size=(4, 2)))
    b = Tensor(rng.normal(size=(3, 3)))
    blocks = [(a, np.array([1, 3, 1, 1, 0])), rng.normal(size=(5, 1)), (b, np.array([2, 2, 0, 1, 2]))]
    projection = rng.normal(size=(5, 6))
    _check_central_differences(lambda: mean(mul(_gather(blocks), projection)), [a, b])
    assert np.all(a.grad[2] == 0.0)  # row 2 was never read


def _towers(rng, d: int, hidden: tuple[int, ...], k: int = 3) -> list[list[tuple[Tensor, Tensor]]]:
    widths = [d, *hidden, 1]
    return [
        [(Tensor(rng.normal(size=(a, b))), Tensor(rng.normal(size=b) * 0.1)) for a, b in zip(widths, widths[1:])]
        for _ in range(k)
    ]


def _tower_leaves(towers) -> list[Tensor]:
    return [v for layers in towers for layer in layers for v in layer]


@pytest.mark.parametrize("hidden", [(), (4,), (4, 3)], ids=["0-hidden", "1-hidden", "2-hidden"])
@pytest.mark.parametrize("encoder", [False, True], ids=["no-encoder", "encoder"])
def test_tower_heads_gradients_match_central_differences(hidden, encoder):
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(5, 3)))
    enc_w, enc_b = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=4))
    towers = _towers(rng, 4 if encoder else 3, hidden)
    projections = rng.normal(size=(3, 5))

    def loss():
        h = dense(x, enc_w, enc_b, "relu") if encoder else x
        heads = tower_heads(h, towers, 1e-7)
        return weighted_sum([mean(mul(head, proj)) for head, proj in zip(heads, projections)], [1.0, 0.5, 2.0])

    _check_central_differences(loss, [x, *((enc_w, enc_b) if encoder else ()), *_tower_leaves(towers)])


def test_tower_head_no_gradient_reaches_leaves_its_tower_untouched():
    rng = np.random.default_rng(16)
    towers = _towers(rng, 3, (4,))
    out = TowerOutputs(*tower_heads(Tensor(rng.normal(size=(6, 3))), towers, 1e-7))
    leaves = backward(_objective(out, [1.0, 0.0] * 3, [1.0] + [0.0] * 5, method="esmm"))  # uncvr unread
    for v in _tower_leaves(towers[2:]):
        assert leaves[v].tobytes() == np.zeros_like(v.value).tobytes()  # +0 everywhere
    assert all(np.abs(leaves[v]).sum() > 0.0 for v in _tower_leaves(towers[:2]))


def test_tower_heads_backward_twice_gives_the_same_gradients():
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(6, 3)))
    towers = _towers(rng, 3, (4,))
    out = TowerOutputs(*tower_heads(x, towers, 1e-7))
    root = _objective(out, [1.0, 0.0] * 3, [1.0] + [0.0] * 5, *TERMS)
    first = {k: v.copy() for k, v in backward(root).items()}
    second = backward(root)
    assert all(first[k].tobytes() == second[k].tobytes() for k in first)


def test_tower_heads_reject_towers_of_unequal_depth():
    rng = np.random.default_rng(18)
    with pytest.raises(ShapeError, match="depth"):
        tower_heads(Tensor(np.ones((2, 3))), _towers(rng, 3, (4,), k=1) + _towers(rng, 3, (), k=1), 1e-7)


def test_weighted_sum_gradients_match_central_differences():
    # uneven weights on the five terms without a soft label, with attached
    # IPW weights; the total adds each weighted term left to right
    out, o, r = _funnel_batch(23)
    weights = LossWeights(0.5, 2.0, 1.0, 0.3, 0.7, 0.0)
    alone = [_objective(out, o, r, t, ipw=ATTACHED).item() for t in TERMS[:5]]
    total = _objective(out, o, r, ipw=ATTACHED, weights=weights)
    expected = alone[0] * 0.5
    for value, w in zip(alone[1:], (2.0, 1.0, 0.3, 0.7)):
        expected = expected + value * w
    assert total.item() == expected
    _check_central_differences(
        lambda: _objective(out, o, r, ipw=ATTACHED, weights=weights), [out.ctr, out.cvr, out.uncvr]
    )


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


def test_activation_tags_exported():
    assert set(ACTIVATIONS) == {"relu", "sigmoid", "identity"}


def test_dropped_graph_is_freed_without_the_cycle_collector():
    # Backward closures must not refer back to their node: a graph in a
    # reference cycle outlives its step until a full collection runs.
    table = Tensor(np.array([[0.5, -1.0, 2.0]]))
    w, b = Tensor(np.ones((3, 1))), Tensor(np.zeros(1))
    gc.collect()
    gc.disable()
    try:
        out = TowerOutputs(*tower_heads(_gather([(table, np.array([0, 0]))]), [[(w, b)]] * 3, 1e-7))
        backward(_objective(out, [1.0, 0.0], [0.0, 0.0], *TERMS, ipw=ATTACHED))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tower_heads_graph_is_freed_without_the_cycle_collector():
    # The arrival list lives in a local the closures share, never on a node.
    rng = np.random.default_rng(19)
    x = Tensor(rng.normal(size=(4, 3)))
    towers = _towers(rng, 3, (4,))
    gc.collect()
    gc.disable()
    try:
        heads = tower_heads(x, towers, 1e-7)
        backward(_objective(TowerOutputs(*heads), [1.0, 0.0] * 2, [0.0] * 4, *TERMS))
        del heads
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
