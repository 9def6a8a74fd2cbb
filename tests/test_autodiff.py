"""Autodiff engine: forward values, gradients, stop-gradient, optimizer."""

import gc

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
    bce,
    dense,
    gather_concat,
    inverse_propensity,
    masked_mean,
    mlp_forward,
    no_grad,
    optimizer_step,
    stable_sigmoid,
    stop_gradient,
    tower_heads,
    weighted_sum,
)


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
    a = Tensor(2.0)
    b = Tensor(3.0)
    out = weighted_sum([a * b, a], [2.0, 2.0])
    backward(out)
    assert out.item() == 16.0
    assert a.grad == pytest.approx(8.0)  # d/da 2(ab + a) = 2(b + 1)
    assert b.grad == pytest.approx(4.0)


def _unit_layer(width: int = 1) -> tuple[Tensor, Tensor]:
    return Tensor(np.eye(width)), Tensor(np.zeros(width))


def test_dense_bias_gradient_sums_over_batch():
    w, b = _unit_layer(2)
    out = dense(Tensor(np.ones((4, 2))), w, b, "identity").mean()
    backward(out)
    assert np.array_equal(b.grad, np.full(2, 0.5))  # four rows of 1/8


def test_matmul_vector_and_batch():
    # the matmul of a dense layer, identity activation and zero bias, on a
    # row vector (a batch of one) and on a batch of two
    w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    b = Tensor(np.zeros(2))
    x = Tensor(np.array([[1.0, 1.0, 1.0]]))
    backward(dense(x, w, b, "identity").mean())
    assert np.array_equal(x.grad, np.array([[1.5, 3.5, 5.5]]))
    assert np.array_equal(w.grad, np.full((3, 2), 0.5))
    xs = Tensor(np.ones((2, 3)))
    backward(dense(xs, w, b, "identity").mean())
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
    out = (w * x).mean()
    backward(out)
    assert np.array_equal(w.grad, x / 2)


def test_sigmoid_derivative_at_zero():
    z = Tensor(np.array([[0.0]]))
    s = dense(z, *_unit_layer(), "sigmoid")
    backward(s.mean())
    assert s.value[0, 0] == 0.5
    assert z.grad[0, 0] == pytest.approx(0.25)


def test_sigmoid_stable_in_tails():
    s = dense(Tensor(np.array([[-800.0], [800.0]])), *_unit_layer(), "sigmoid")
    assert np.all(np.isfinite(s.value))
    assert s.value[0, 0] >= 0.0 and s.value[1, 0] <= 1.0


def test_log_and_inverse_propensity():
    # -bce(x, 1) = ln x
    x = Tensor(0.5)
    out = weighted_sum([bce(x, 1.0), inverse_propensity(x, 0.01, False)], [-1.0, 1.0])
    backward(out)
    assert out.item() == pytest.approx(np.log(0.5) + 2.0)
    assert x.grad == pytest.approx(2.0 - 4.0)


def test_tower_heads_clip_blocks_gradient_outside_band():
    # sigmoid(+-40) lies beyond the clamp, sigmoid(0) = 0.5 inside it
    x = Tensor(np.array([[40.0], [0.0], [-40.0]]))
    (head,) = tower_heads(x, [[(Tensor(np.ones((1, 1))), Tensor(np.zeros(1)))]], 1e-7)
    backward(head.mean())
    assert np.array_equal(head.value, [1.0 - 1e-7, 0.5, 1e-7])
    assert np.array_equal(x.grad, [[0.0], [0.25 / 3.0], [0.0]])


@pytest.mark.parametrize("complement", [False, True], ids=["click", "unclick"])
def test_inverse_propensity_floor_blocks_gradient(complement):
    # q = 0.005 sits below the floor, q = 0.5 above it: d/dq mean(1/q) = -2
    x = Tensor(np.array([0.995, 0.5]) if complement else np.array([0.005, 0.5]))
    out = inverse_propensity(x, 0.01, complement)
    backward(out.mean())
    assert np.array_equal(out.value, [100.0, 2.0])
    assert np.array_equal(x.grad, [0.0, 2.0] if complement else [0.0, -2.0])


def test_mean_and_sum():
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
    m = x.mean()
    backward(m)
    assert m.item() == 2.5
    assert np.array_equal(x.grad, np.full(4, 0.25))


def test_take_rows_scatter_adds_repeated_indices():
    # the embedding lookup of gather_concat
    table = Tensor(np.zeros((3, 2)))
    out = _gather([(table, np.array([1, 1, 2, 1]))]).mean()
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
    backward((out * g).mean())
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
    backward((out * np.arange(6.0)).mean())
    assert np.array_equal(a.grad, np.tile(np.array([0.0, 1.0]) * (1.0 / 12), (2, 1)))
    assert np.array_equal(b.grad, np.tile(np.array([3.0, 4.0, 5.0]) * (1.0 / 12), (2, 1)))


def test_stop_gradient_is_identity_forward_zero_backward():
    x = Tensor(2.0)
    sg = stop_gradient(x)
    out = sg * x  # only the direct factor contributes
    backward(out)
    assert out.item() == 4.0
    assert x.grad == pytest.approx(2.0)  # d/dx (c * x) with c = 2 frozen


def test_backward_requires_scalar_root():
    with pytest.raises(GraphError):
        backward(Tensor(np.ones(3)))


def test_backward_zeroes_previous_gradients():
    x = Tensor(1.0)
    out = x * 3.0
    backward(out)
    backward(out)
    assert x.grad == pytest.approx(3.0)  # not 6: no accumulation across calls


def test_backward_returns_leaf_map():
    x = Tensor(1.0)
    y = Tensor(2.0)
    leaves = backward(x * y)
    assert leaves[x] == pytest.approx(2.0)
    assert leaves[y] == pytest.approx(1.0)


def test_node_backward_never_reached_reads_zero_grad():
    x = Tensor(np.ones(4))
    y = Tensor(2.0)
    backward((x * 3.0).mean())
    assert np.array_equal(y.grad, 0.0)
    assert np.array_equal(x.grad, np.full(4, 0.75))


def test_backward_leaves_earlier_gradients_intact():
    x = Tensor(1.0)
    first = backward(x * 3.0)[x]
    second = backward(x * 5.0)[x]
    assert first == 3.0 and second == 5.0


# -- no_grad -------------------------------------------------------------------


def test_no_grad_same_values_no_parents():
    table = Tensor(np.array([[-1.0, 2.0]]))
    w = Tensor(np.array([[0.5], [0.25], [-0.5]]))
    b = Tensor(np.array([0.1]))

    def forward():
        x = _gather([(table, np.array([0, 0])), np.ones((2, 1))])
        (p,) = tower_heads(x, [[(w, b)]], 1e-7)
        weights = inverse_propensity(p, 0.01, False)
        kept = masked_mean(bce(p, stop_gradient(p, 1.0 - p.value)), np.array([1.0, 0.0]), weights)
        return weighted_sum([kept, dense(x, w, b, "relu").mean()], [1.0, 2.0])

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
    out = x * 2.0
    assert out.parents == (x,)
    backward(out)
    assert x.grad == 2.0


def test_no_grad_nests():
    with no_grad():
        with no_grad():
            pass
        assert (Tensor(1.0) * 2.0).parents == ()
    assert (Tensor(1.0) * 2.0).parents != ()


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
    backward(out.mean())
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
        return mlp_forward(layers, x, ["relu", "relu", "sigmoid"]).mean().item()

    out = mlp_forward(layers, x, ["relu", "relu", "sigmoid"]).mean()
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
    _check_central_differences(lambda: (dense(x, w, b, activation) * projection).mean(), [x, w, b])


def test_dense_rejects_unknown_activation():
    with pytest.raises(GraphError, match="tanh"):
        dense(Tensor(np.ones((1, 2))), *_unit_layer(2), "tanh")


@pytest.mark.parametrize("label", ["array", "tensor"])
def test_bce_gradients_match_central_differences(label):
    rng = np.random.default_rng(12)
    p = Tensor(rng.uniform(0.05, 0.95, 6))
    y_value = rng.uniform(0.0, 1.0, 6)
    y = Tensor(y_value) if label == "tensor" else y_value
    projection = rng.normal(size=6)
    expected = -(y_value * np.log(p.value) + (1.0 - y_value) * np.log(1.0 - p.value))
    assert np.array_equal(bce(p, y).value, expected)
    _check_central_differences(lambda: (bce(p, y) * projection).mean(), [p, y] if label == "tensor" else [p])


@pytest.mark.parametrize("weights", ["none", "array", "tensor"])
def test_masked_mean_gradients_match_central_differences(weights):
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=7))
    mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
    w_value = rng.uniform(1.0, 5.0, 7)
    w = {"none": None, "array": w_value, "tensor": Tensor(w_value)}[weights]
    expected = (x.value * (1.0 if w is None else w_value) * mask).sum() / 4.0
    assert masked_mean(x, mask, w).item() == pytest.approx(expected, abs=1e-15)
    _check_central_differences(lambda: masked_mean(x, mask, w), [x, w] if weights == "tensor" else [x])
    backward(masked_mean(x, mask, w))
    assert np.all(x.grad[mask == 0.0] == 0.0)
    if weights == "tensor":
        assert np.all(w.grad[mask == 0.0] == 0.0)


@pytest.mark.parametrize("complement", [False, True], ids=["click", "unclick"])
def test_inverse_propensity_gradients_match_central_differences(complement):
    rng = np.random.default_rng(21)
    p = Tensor(np.concatenate([rng.uniform(0.05, 0.95, 6), [0.001, 0.999]]))  # one q below the floor
    projection = rng.normal(size=8)
    _check_central_differences(lambda: (inverse_propensity(p, 0.01, complement) * projection).mean(), [p])


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
def test_inverse_propensity_keeps_the_bits_of_the_node_chain(complement):
    rng = np.random.default_rng(22)
    values = np.concatenate([rng.uniform(0.0, 1.0, 256), [0.0, 0.005, 0.01, 0.99, 0.995, 1.0]])
    x = rng.normal(size=values.size)
    mask = (rng.random(values.size) < 0.6).astype(np.float64)
    mask[-6:] = 1.0  # the values at and around the floor
    results = []
    for weigh in (inverse_propensity, _node_chain_inverse_propensity):
        p, per_sample = Tensor(values), Tensor(x)
        weights = weigh(p, 0.01, complement)
        out = masked_mean(per_sample, mask, weights)
        backward(out)
        results.append([a.tobytes() for a in (weights.value, out.value, p.grad, per_sample.grad)])
    assert results[0] == results[1]
    detached = 1.0 / np.maximum(1.0 - values if complement else values, 0.01)
    assert results[0][0] == detached.tobytes()


def test_node_operands_of_another_shape_raise_shape_error():
    row, grid = Tensor(np.full(3, 0.5)), Tensor(np.full((2, 3), 0.5))
    with pytest.raises(ShapeError, match="mul"):
        row * grid
    with pytest.raises(ShapeError, match="mul"):
        Tensor(2.0) * np.ones(3)
    with pytest.raises(ShapeError, match="bce"):
        bce(row, grid)
    with pytest.raises(ShapeError, match="bce"):
        bce(Tensor(0.5), np.ones(3))


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
    _check_central_differences(lambda: (_gather(blocks) * projection).mean(), [a, b])
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
        return weighted_sum([(head * proj).mean() for head, proj in zip(heads, projections)], [1.0, 0.5, 2.0])

    _check_central_differences(loss, [x, *((enc_w, enc_b) if encoder else ()), *_tower_leaves(towers)])


def test_tower_head_no_gradient_reaches_leaves_its_tower_untouched():
    rng = np.random.default_rng(16)
    towers = _towers(rng, 3, (4,))
    ctr, cvr, uncvr = tower_heads(Tensor(rng.normal(size=(6, 3))), towers, 1e-7)
    leaves = backward(weighted_sum([ctr.mean(), (ctr * cvr).mean(), stop_gradient(uncvr).mean()], [1.0] * 3))
    for v in _tower_leaves(towers[2:]):
        assert leaves[v].tobytes() == np.zeros_like(v.value).tobytes()  # +0 everywhere
    assert all(np.abs(leaves[v]).sum() > 0.0 for v in _tower_leaves(towers[:2]))


def test_tower_heads_backward_twice_gives_the_same_gradients():
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(6, 3)))
    towers = _towers(rng, 3, (4,))
    ctr, cvr, uncvr = tower_heads(x, towers, 1e-7)
    root = weighted_sum([(uncvr * ctr).mean(), cvr.mean()], [1.0, 1.0])
    first = {k: v.copy() for k, v in backward(root).items()}
    second = backward(root)
    assert all(first[k].tobytes() == second[k].tobytes() for k in first)


def test_tower_heads_reject_towers_of_unequal_depth():
    rng = np.random.default_rng(18)
    with pytest.raises(ShapeError, match="depth"):
        tower_heads(Tensor(np.ones((2, 3))), _towers(rng, 3, (4,), k=1) + _towers(rng, 3, (), k=1), 1e-7)


def test_weighted_sum_gradients_match_central_differences():
    terms = [Tensor(v) for v in (0.3, -1.2, 2.5)]
    assert weighted_sum(terms, [0.5, 2.0, 1.0]).item() == 0.3 * 0.5 + -1.2 * 2.0 + 2.5
    _check_central_differences(lambda: weighted_sum(terms, [0.5, 2.0, 1.0]), terms)


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
        (p,) = tower_heads(_gather([(table, np.array([0, 0]))]), [[(w, b)]], 1e-7)
        per_sample = bce(p, stop_gradient(p, 1.0 - p.value))
        weights = inverse_propensity(p, 0.01, False)
        terms = [masked_mean(per_sample, np.array([1.0, 0.0]), weights), inverse_propensity(p, 0.1, True).mean()]
        backward(weighted_sum(terms, [1.0, 0.5]))
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
        backward(weighted_sum([h.mean() for h in heads], [1.0, 1.0, 1.0]))
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
