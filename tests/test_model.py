"""Three-tower model: init, prediction, invariants, checkpoints."""

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
    assert params.towers[0][0].value.shape == (3, 16, 4)  # one (16, 4) layer per tower


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
    for t in params.parameters():
        t.value[...] = 0.0
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
        params.towers[0][0].value[TOWER_NAMES.index(tower)] = w
        params.towers[0][1].value[TOWER_NAMES.index(tower)] = b
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
    for t in params.parameters():
        t.value *= 200.0
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
    grads = backward(params, out, bundle.head_grads, params.parameters())
    for p, g in zip(params.parameters(), grads, strict=True):
        # a stacked tower layer's rows are the towers' own layers
        for tower, part in zip(TOWER_NAMES, g) if p.name.startswith("tower.") else [("", g)]:
            assert np.abs(part).sum() > 0.0, f"no gradient reached {p.name} {tower}"


def test_copy_is_independent():
    params = init_model(SCHEMA, ARCH, seed=41)
    clone = params.copy()
    params.towers[0][0].value[...] = 99.0
    assert not np.array_equal(clone.towers[0][0].value, params.towers[0][0].value)


def test_copy_takes_the_values_without_reinitializing(monkeypatch):
    params = init_model(SCHEMA, ARCH, seed=41)
    for t in params.parameters():
        t.value += 0.125  # values a fresh init would not give
    monkeypatch.setattr(model, "init_model", None)  # a snapshot must not redraw
    clone = params.copy()
    for t, c in zip(params.parameters(), clone.parameters(), strict=True):
        assert c.name == t.name
        assert c.value.tobytes() == t.value.tobytes() and c.value is not t.value


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
    for ta, tb in zip(params.parameters(), loaded.parameters(), strict=True):
        assert ta.value.tobytes() == tb.value.tobytes()


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
