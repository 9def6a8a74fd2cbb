"""Autodiff engine: forward values, gradients, stop-gradient, optimizer."""

import numpy as np
import pytest

from choruscvr.autodiff import (
    ACTIVATIONS,
    GraphError,
    OptimizerConfig,
    OptimizerError,
    OptimizerState,
    ShapeError,
    Tensor,
    backward,
    concat,
    mlp_forward,
    no_grad,
    optimizer_step,
    stop_gradient,
)


def test_add_mul_scalar_chain():
    a = Tensor(2.0)
    b = Tensor(3.0)
    out = (a * b + a) * 2.0
    backward(out)
    assert out.item() == 16.0
    assert a.grad == pytest.approx(8.0)  # d/da 2(ab + a) = 2(b + 1)
    assert b.grad == pytest.approx(4.0)


def test_broadcast_bias_gradient_sums_over_batch():
    x = Tensor(np.ones((4, 3)))
    b = Tensor(np.zeros(3))
    out = (x + b).sum()
    backward(out)
    assert np.array_equal(b.grad, np.full(3, 4.0))


def test_matmul_vector_and_batch():
    w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    x = Tensor(np.array([1.0, 1.0, 1.0]))
    out = (x @ w).sum()
    backward(out)
    assert np.array_equal(x.grad, np.array([3.0, 7.0, 11.0]))
    assert np.array_equal(w.grad, np.ones((3, 2)))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


def test_linear_gradient_is_input():
    # y = w . x, dy/dw = x
    w = Tensor(np.array([0.5, -0.25]))
    x = np.array([3.0, 7.0])
    out = (w * x).sum()
    backward(out)
    assert np.array_equal(w.grad, x)


def test_sigmoid_derivative_at_zero():
    z = Tensor(0.0)
    s = z.sigmoid()
    backward(s)
    assert s.item() == 0.5
    assert z.grad == pytest.approx(0.25)


def test_sigmoid_stable_in_tails():
    s = Tensor(np.array([-800.0, 800.0])).sigmoid()
    assert np.all(np.isfinite(s.value))
    assert s.value[0] >= 0.0 and s.value[1] <= 1.0


def test_log_and_reciprocal():
    x = Tensor(4.0)
    out = x.log() + x.reciprocal()
    backward(out)
    assert out.item() == pytest.approx(np.log(4.0) + 0.25)
    assert x.grad == pytest.approx(0.25 - 1.0 / 16.0)


def test_clip_blocks_gradient_outside_band():
    x = Tensor(np.array([0.5, 2.0, -1.0]))
    out = x.clip(0.0, 1.0).sum()
    backward(out)
    assert np.array_equal(x.grad, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(out.parents[0].value, np.array([0.5, 1.0, 0.0]))


def test_clamp_min_gradient():
    x = Tensor(np.array([0.005, 0.5]))
    out = x.clamp_min(0.01).sum()
    backward(out)
    assert np.array_equal(x.grad, np.array([0.0, 1.0]))


def test_mean_and_sum():
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
    m = x.mean()
    backward(m)
    assert m.item() == 2.5
    assert np.array_equal(x.grad, np.full(4, 0.25))


def test_reshape_round_trip_gradient():
    x = Tensor(np.arange(6, dtype=np.float64))
    out = x.reshape(2, 3).sum()
    backward(out)
    assert np.array_equal(x.grad, np.ones(6))


def test_take_rows_scatter_adds_repeated_indices():
    table = Tensor(np.zeros((3, 2)))
    out = table.take_rows(np.array([1, 1, 2])).sum()
    backward(out)
    expected = np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])
    assert np.array_equal(table.grad, expected)


def test_concat_splits_gradient():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 3)))
    out = concat([a, b], axis=-1)
    assert out.shape == (2, 5)
    backward((out * np.arange(5.0)).sum())
    assert np.array_equal(a.grad, np.tile([0.0, 1.0], (2, 1)))
    assert np.array_equal(b.grad, np.tile([2.0, 3.0, 4.0], (2, 1)))


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
    x = Tensor(np.ones(3))
    y = Tensor(2.0)
    backward((x * 3.0).sum())
    assert np.array_equal(y.grad, 0.0)
    assert np.array_equal(x.grad, np.full(3, 3.0))


def test_backward_leaves_earlier_gradients_intact():
    x = Tensor(1.0)
    first = backward(x * 3.0)[x]
    second = backward(x * 5.0)[x]
    assert first == 3.0 and second == 5.0


# -- no_grad -------------------------------------------------------------------


def test_no_grad_same_values_no_parents():
    x = Tensor(np.array([[-1.0, 2.0]]))
    w = Tensor(np.array([[0.5], [0.25]]))

    def forward():
        return concat([(x @ w).sigmoid(), (x @ w).relu().clip(0.0, 1.0)], axis=-1).sum()

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
    out = mlp_forward(layers, np.array([1.0, 2.0, 3.0]), ["identity"])
    assert np.array_equal(out.value, np.zeros(2))


def test_mlp_zero_weights_sigmoid_gives_half():
    layers = [(Tensor(np.zeros((4, 1))), Tensor(np.zeros(1)))]
    out = mlp_forward(layers, np.ones(4), ["sigmoid"])
    assert out.value[0] == pytest.approx(0.5)


def test_mlp_two_layer_hand_evaluation():
    # plain-math oracle: h = [0.75, -0.7] -> relu [0.75, 0] -> 0.575 -> sigmoid
    layers = _two_layer()
    out = mlp_forward(layers, np.array([1.0, 2.0]), ["relu", "sigmoid"])
    assert out.value[0] == pytest.approx(0.6399160967377341, abs=1e-12)
    backward(out.sum())
    w2, _ = layers[1]
    w1, _ = layers[0]
    assert w2.grad[0, 0] == pytest.approx(0.17281761440525778, abs=1e-12)
    assert w1.grad[0, 0] == pytest.approx(0.11521174293683852, abs=1e-12)
    assert w1.grad[0, 1] == 0.0  # dead relu path


def test_mlp_batch_matches_single_rows():
    layers = _two_layer()
    xs = np.array([[1.0, 2.0], [0.3, -0.7]])
    batch = mlp_forward(layers, xs, ["relu", "sigmoid"])
    for i, row in enumerate(xs):
        single = mlp_forward(layers, row, ["relu", "sigmoid"])
        assert single.value[0] == pytest.approx(batch.value[i, 0], abs=1e-15)


def test_mlp_layer_mismatch_names_layer():
    layers = _two_layer()
    with pytest.raises(ShapeError, match="layer 0"):
        mlp_forward(layers, np.ones(3), ["relu", "sigmoid"])


def test_mlp_activation_count_checked():
    with pytest.raises(ShapeError):
        mlp_forward(_two_layer(), np.ones(2), ["relu"])


def test_mlp_unknown_activation():
    with pytest.raises(GraphError, match="unknown activation"):
        mlp_forward(_two_layer(), np.ones(2), ["relu", "tanh"])


def test_mlp_finite_difference_three_layers():
    rng = np.random.default_rng(42)
    layers = []
    prev = 5
    for width in (4, 3, 1):
        layers.append((Tensor(rng.normal(0, 0.5, (prev, width))), Tensor(rng.normal(0, 0.1, width))))
        prev = width
    x = rng.normal(0, 1, (6, 5))

    def forward() -> float:
        return mlp_forward(layers, x, ["relu", "relu", "sigmoid"]).sum().item()

    out = mlp_forward(layers, x, ["relu", "relu", "sigmoid"]).sum()
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
        loss = (w - 3.0) * (w - 3.0)
        grads = backward(loss)
        optimizer_step([w], [grads[w]], state, config)
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


def test_optimizer_rejects_misaligned_inputs():
    w = Tensor(0.0)
    state = OptimizerState.for_params([w])
    with pytest.raises(OptimizerError):
        optimizer_step([w], [], state, OptimizerConfig())


def test_optimizer_config_validation():
    with pytest.raises(OptimizerError):
        OptimizerConfig(method="rmsprop")
    with pytest.raises(OptimizerError):
        OptimizerConfig(learning_rate=0.0)


def test_activation_tags_exported():
    assert set(ACTIVATIONS) == {"relu", "sigmoid", "identity"}
