"""Three-tower model: init, prediction, invariants, the flat parameter
layout, checkpoints."""

import re

import numpy as np
import pytest

from choruscvr import model
from choruscvr.features import build_matrix, build_schema
from choruscvr.model import (
    TOWER_NAMES,
    Architecture,
    CheckpointError,
    ShapeError,
    backward,
    init_model,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
)
from choruscvr.objectives import IpwConfig, LossWeights, compose_method_loss
from choruscvr.trainer import OptimizerConfig, OptimizerError, OptimizerState, optimizer_step

from oracles import log_of

SCHEMA = build_schema(
    [
        {"name": "c0", "kind": "categorical", "vocab_size": 5, "embed_width": 3},
        {"name": "c1", "kind": "categorical", "vocab_size": 4, "embed_width": 2},
        {"name": "z", "kind": "numeric"},
    ],
)
ARCH = Architecture(encoder_widths=(8,), tower_widths=(4,))


def _matrix(rows, schema):
    """Feature rows into model-input columns, through a log."""
    return build_matrix(log_of(rows, schema), schema)


def _rows(n, rng):
    return [
        {"c0": int(rng.integers(5)), "c1": int(rng.integers(4)), "z": float(rng.normal())}
        for _ in range(n)
    ]


def test_same_seed_identical_parameters():
    a = init_model(SCHEMA, ARCH, seed=3)
    b = init_model(SCHEMA, ARCH, seed=3)
    for (name_a, ta), (name_b, tb) in zip(a.checkpoint_arrays(), b.checkpoint_arrays()):
        assert name_a == name_b
        assert np.array_equal(ta, tb)
    c = init_model(SCHEMA, ARCH, seed=4)
    assert not all(
        np.array_equal(ta, tc)
        for (_, ta), (_, tc) in zip(a.checkpoint_arrays(), c.checkpoint_arrays())
    )


def test_matching_tower_input_width_accepted():
    arch = Architecture(encoder_widths=(16,), tower_widths=(4,), tower_input_width=16)
    params = init_model(SCHEMA, arch, seed=0)
    assert params.towers[0][0].shape == (3, 16, 4)  # one (16, 4) layer per tower


def test_mismatched_tower_input_width_rejected():
    arch = Architecture(encoder_widths=(16,), tower_widths=(4,), tower_input_width=8)
    with pytest.raises(ShapeError):
        init_model(SCHEMA, arch, seed=0)


def test_schema_without_features_rejected():
    # a zero-width input would draw its first layer from U(-inf, inf)
    with pytest.raises(ShapeError, match="input feature"):
        init_model(build_schema([]), ARCH, seed=0)


def test_nonpositive_width_rejected():
    with pytest.raises(ValueError):
        Architecture(encoder_widths=(0,))


def test_zero_parameters_give_half_probabilities():
    params = init_model(SCHEMA, ARCH, seed=0)
    params.flat[...] = 0.0
    fm = _matrix(_rows(4, np.random.default_rng(0)), SCHEMA)
    out = predict_batch(params, fm).values()
    assert np.allclose(out["ctr"], 0.5)
    assert np.allclose(out["cvr"], 0.5)
    assert np.allclose(out["uncvr"], 0.5)
    assert np.allclose(out["ctcvr"], 0.25)
    assert np.allclose(out["ctuncvr"], 0.25)


def test_tiny_net_matches_hand_evaluation():
    # one numeric feature, no encoder, towers are single linear+sigmoid
    schema = build_schema([{"name": "x", "kind": "numeric"}])
    params = init_model(schema, Architecture(encoder_widths=(), tower_widths=()), seed=0)
    hand = {"ctr": (2.0, 0.5), "cvr": (-1.0, 0.25), "uncvr": (0.5, -1.5)}
    for tower, (w, b) in hand.items():
        params.towers[0][0][TOWER_NAMES.index(tower)] = w
        params.towers[0][1][TOWER_NAMES.index(tower)] = b
    heads = predict_batch(params, _matrix([{"x": 0.3}], schema))
    assert heads.ctr.shape == (1,)
    out = heads.values()
    assert out["ctr"][0] == pytest.approx(0.7502601055951177, abs=1e-12)
    assert out["cvr"][0] == pytest.approx(0.4875026035157896, abs=1e-12)
    assert out["uncvr"][0] == pytest.approx(0.20587037180094733, abs=1e-12)
    assert out["ctcvr"][0] == pytest.approx(0.3657537547916511, abs=1e-12)
    assert out["ctuncvr"][0] == pytest.approx(0.15445632688628488, abs=1e-12)


def test_product_invariant_over_random_inputs():
    rng = np.random.default_rng(17)
    params = init_model(SCHEMA, ARCH, seed=23)
    fm = _matrix(_rows(1000, rng), SCHEMA)
    out = predict_batch(params, fm).values()
    assert np.all(out["ctcvr"] <= np.minimum(out["ctr"], out["cvr"]))
    assert np.all(out["ctuncvr"] <= np.minimum(out["ctr"], out["uncvr"]))
    assert np.all(out["ctcvr"] > 0.0)


def test_outputs_within_clamp_band():
    params = init_model(SCHEMA, ARCH, seed=29)
    # inflate weights to push logits far out
    params.flat *= 200.0
    fm = _matrix(_rows(64, np.random.default_rng(1)), SCHEMA)
    out = predict_batch(params, fm)
    for head in (out.ctr, out.cvr, out.uncvr):
        assert np.all(head >= 1e-7)
        assert np.all(head <= 1.0 - 1e-7)


def test_every_parameter_group_receives_gradient():
    params = init_model(SCHEMA, ARCH, seed=31)
    rng = np.random.default_rng(2)
    fm = _matrix(_rows(12, rng), SCHEMA)
    o = np.array([1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0], dtype=np.float64)
    r = np.array([1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0], dtype=np.float64)
    out = predict_batch(params, fm)
    bundle = compose_method_loss("chorus", out, o, r, LossWeights(), IpwConfig())
    grad = backward(params, out, bundle.head_grads)
    for name, a, b in zip(params.names, params.offsets[:-1], params.offsets[1:], strict=True):
        # a stacked tower layer's rows are the towers' own layers
        towers = TOWER_NAMES if name.startswith("tower.") else ("",)
        for tower, part in zip(towers, grad[a:b].reshape(len(towers), -1), strict=True):
            assert np.abs(part).sum() > 0.0, f"no gradient reached {name} {tower}"


def test_copy_is_independent():
    params = init_model(SCHEMA, ARCH, seed=41)
    clone = params.copy()
    params.towers[0][0][...] = 99.0
    assert not np.array_equal(clone.towers[0][0], params.towers[0][0])


def test_copy_takes_the_values_without_reinitializing(monkeypatch):
    params = init_model(SCHEMA, ARCH, seed=41)
    params.flat += 0.125  # values a fresh init would not give
    monkeypatch.setattr(model, "init_model", None)  # a snapshot must not redraw
    clone = params.copy()
    assert clone.names == params.names and np.array_equal(clone.offsets, params.offsets)
    assert clone.flat.tobytes() == params.flat.tobytes() and not np.shares_memory(clone.flat, params.flat)
    for (name_a, a), (name_c, c) in zip(params.checkpoint_arrays(), clone.checkpoint_arrays(), strict=True):
        assert name_c == name_a and c.tobytes() == a.tobytes()


def test_checkpoint_round_trip(tmp_path):
    params = init_model(SCHEMA, ARCH, seed=43)
    for _, a in params.checkpoint_arrays():
        a += 0.125  # make values distinct from a fresh init, through the views
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.seed == 43
    assert loaded.arch == ARCH
    assert loaded.schema == SCHEMA
    for (name_a, ta), (name_b, tb) in zip(params.checkpoint_arrays(), loaded.checkpoint_arrays(), strict=True):
        assert name_a == name_b
        assert np.array_equal(ta, tb)
    assert loaded.flat.tobytes() == params.flat.tobytes()


def _named_views(params) -> dict[str, np.ndarray]:
    """Every parameter's array, by its name in ``params.names``."""
    views = {f"embed.{name}": t for name, t in params.tables.items()}
    for group, layers in (("encoder", params.encoder), ("tower", params.towers)):
        for i, (w, b) in enumerate(layers):
            views[f"{group}.{i}.w"], views[f"{group}.{i}.b"] = w, b
    return views


def test_every_parameter_is_a_view_of_the_flat_vector(tmp_path):
    params = init_model(SCHEMA, ARCH, seed=61)
    views = _named_views(params)
    assert tuple(views) == params.names
    arrays = [*views.values(), params.table_block, *(a for _, a in params.checkpoint_arrays())]
    assert all(np.shares_memory(a, params.flat) for a in arrays)
    # each name's array is the slice of flat its offsets give
    params.flat[...] = np.arange(params.flat.size)
    for name, a, b in zip(params.names, params.offsets[:-1], params.offsets[1:], strict=True):
        assert views[name].ravel().tolist() == list(range(a, b)), name
    assert params.table_block.tolist() == list(range(params.offsets[len(params.tables)]))
    clone = params.copy()
    clone_arrays = [clone.flat, *_named_views(clone).values(), *(a for _, a in clone.checkpoint_arrays())]
    assert not any(np.shares_memory(a, params.flat) for a in clone_arrays)
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.flat.tobytes() == params.flat.tobytes()  # the loaded arrays wrote through
    assert all(np.shares_memory(a, loaded.flat) for _, a in loaded.checkpoint_arrays())


@pytest.mark.parametrize("end", ["first", "last"])
def test_non_finite_values_name_the_parameter_at_each_end_of_its_slice(end):
    params = init_model(SCHEMA, ARCH, seed=67)
    for name, a, b in zip(params.names, params.offsets[:-1], params.offsets[1:], strict=True):
        at = a if end == "first" else b - 1
        grad = np.zeros_like(params.flat)
        grad[at] = np.nan
        with pytest.raises(OptimizerError, match=rf"non-finite gradient for {re.escape(name)} at step 1$"):
            optimizer_step(params, grad, OptimizerState.for_params(params), OptimizerConfig())
        grad[at] = 1e200  # g * g overflows the second moment
        with pytest.raises(OptimizerError, match=rf"non-finite moment for {re.escape(name)} at step 1$"):
            optimizer_step(params.copy(), grad, OptimizerState.for_params(params), OptimizerConfig())


def test_checkpoint_byte_stability(tmp_path):
    params = init_model(SCHEMA, ARCH, seed=47)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(params, a)
    save_checkpoint(params, b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"not a checkpoint\n\x00\x01")
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_checkpoint_rejects_truncation(tmp_path):
    params = init_model(SCHEMA, ARCH, seed=53)
    p = tmp_path / "model.bin"
    save_checkpoint(params, p)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(p)


def test_checkpoint_rejects_numeric_standardization(tmp_path):
    # Numerics enter the model as read; a header carrying standardization
    # stats must not load as a model that silently ignores them.
    p = tmp_path / "model.bin"
    save_checkpoint(init_model(SCHEMA, ARCH, seed=59), p)
    raw = p.read_bytes()
    assert raw.count(b'"numeric_stats":{}') == 1
    p.write_bytes(raw.replace(b'"numeric_stats":{}', b'"numeric_stats":{"z":[1.0,2.0]}'))
    with pytest.raises(CheckpointError, match="numeric standardization"):
        load_checkpoint(p)
