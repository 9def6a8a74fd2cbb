"""Feature schema validation and dense-input encoding."""

import numpy as np
import pytest

from choruscvr.autodiff import Tensor, backward
from choruscvr.features import (
    EncodingError,
    NumericStats,
    SchemaError,
    build_matrix,
    build_schema,
    encode_matrix,
    init_tables,
)


def _encode_one(row, schema, tables) -> np.ndarray:
    """One record through the batch path: its (input_width,) vector."""
    return encode_matrix(build_matrix([row], schema), schema, tables).value[0]


def _mixed_config():
    return [
        {"name": "item_cat", "kind": "categorical", "side": "item", "vocab_size": 4, "embed_width": 2},
        {"name": "user_cat", "kind": "categorical", "side": "user", "vocab_size": 3, "embed_width": 2},
        {"name": "price", "kind": "numeric", "side": "item"},
    ]


def test_build_schema_keeps_declared_order():
    schema = build_schema(_mixed_config())
    assert [f.name for f in schema.features] == ["item_cat", "user_cat", "price"]
    assert len(schema.features) == 3


def test_duplicate_name_rejected():
    cfg = _mixed_config() + [{"name": "price", "kind": "numeric"}]
    with pytest.raises(SchemaError, match="duplicate"):
        build_schema(cfg)


def test_zero_sizes_rejected():
    with pytest.raises(SchemaError):
        build_schema([{"name": "a", "kind": "categorical", "vocab_size": 0, "embed_width": 2}])
    with pytest.raises(SchemaError):
        build_schema([{"name": "a", "kind": "categorical", "vocab_size": 3, "embed_width": 0}])


def test_unknown_kind_and_side_rejected():
    with pytest.raises(SchemaError):
        build_schema([{"name": "a", "kind": "ordinal"}])
    with pytest.raises(SchemaError):
        build_schema([{"name": "a", "kind": "numeric", "side": "context"}])


def test_33_feature_config():
    cfg = [
        {"name": f"c{i}", "kind": "categorical", "vocab_size": 10, "embed_width": 4}
        for i in range(33)
    ]
    assert len(build_schema(cfg).features) == 33


def test_block_order_user_item_cross():
    schema = build_schema(_mixed_config())
    # declared item-first, but encoding order groups user, item, cross
    assert [f.name for f in schema.ordered] == ["user_cat", "item_cat", "price"]
    assert schema.input_width == 2 + 2 + 1


def test_encode_zero_tables_places_numeric_value():
    schema = build_schema(_mixed_config())
    tables = {
        "item_cat": Tensor(np.zeros((4, 2))),
        "user_cat": Tensor(np.zeros((3, 2))),
    }
    vec = _encode_one({"item_cat": 1, "user_cat": 2, "price": 0.5}, schema, tables)
    assert np.array_equal(vec, np.array([0.0, 0.0, 0.0, 0.0, 0.5]))


def test_encode_width_arithmetic():
    schema = build_schema(
        [
            {"name": "a", "kind": "categorical", "vocab_size": 5, "embed_width": 2},
            {"name": "b", "kind": "categorical", "vocab_size": 5, "embed_width": 2},
            {"name": "x", "kind": "numeric"},
        ]
    )
    tables = init_tables(schema, np.random.default_rng(0))
    vec = _encode_one({"a": 0, "b": 1, "x": 2.0}, schema, tables)
    assert vec.shape == (5,)


def test_encode_matches_hand_read_table_rows():
    schema = build_schema(_mixed_config())
    rng = np.random.default_rng(7)
    tables = init_tables(schema, rng)
    record = {"item_cat": 3, "user_cat": 1, "price": -0.25}
    vec = _encode_one(record, schema, tables)
    expected = np.concatenate(
        [tables["user_cat"].value[1], tables["item_cat"].value[3], [-0.25]]
    )
    assert np.array_equal(vec, expected)


def test_encode_is_pure():
    schema = build_schema(_mixed_config())
    tables = init_tables(schema, np.random.default_rng(3))
    record = {"item_cat": 2, "user_cat": 0, "price": 1.5}
    a = _encode_one(record, schema, tables)
    b = _encode_one(record, schema, tables)
    assert np.array_equal(a, b)


def test_missing_feature_names_it():
    schema = build_schema(_mixed_config())
    with pytest.raises(EncodingError, match="price"):
        build_matrix([{"item_cat": 0, "user_cat": 0}], schema)


def test_out_of_vocabulary_folds_modulo():
    schema = build_schema(_mixed_config())
    tables = init_tables(schema, np.random.default_rng(0))
    direct = _encode_one({"item_cat": 1, "user_cat": 0, "price": 0.0}, schema, tables)
    folded = _encode_one({"item_cat": 5, "user_cat": 0, "price": 0.0}, schema, tables)  # 5 % 4 = 1
    assert np.array_equal(direct, folded)


def test_numeric_standardization_frozen_stats():
    schema = build_schema(_mixed_config(), numeric_stats={"price": NumericStats(mean=10.0, std=2.0)})
    tables = init_tables(schema, np.random.default_rng(0))
    vec = _encode_one({"item_cat": 0, "user_cat": 0, "price": 14.0}, schema, tables)
    assert vec[-1] == pytest.approx(2.0)


def test_permuting_declared_order_permutes_blocks():
    cfg = [
        {"name": "a", "kind": "categorical", "side": "cross", "vocab_size": 3, "embed_width": 2},
        {"name": "b", "kind": "categorical", "side": "cross", "vocab_size": 3, "embed_width": 2},
    ]
    s_ab = build_schema(cfg)
    s_ba = build_schema(cfg[::-1])
    rng = np.random.default_rng(5)
    tables = init_tables(s_ab, rng)
    rec = {"a": 1, "b": 2}
    v_ab = _encode_one(rec, s_ab, tables)
    v_ba = _encode_one(rec, s_ba, tables)
    assert np.array_equal(v_ab[:2], v_ba[2:])
    assert np.array_equal(v_ab[2:], v_ba[:2])


def test_matrix_encoding_matches_single_record_encoding():
    schema = build_schema(_mixed_config())
    tables = init_tables(schema, np.random.default_rng(11))
    rows = [
        {"item_cat": 0, "user_cat": 1, "price": 0.2},
        {"item_cat": 3, "user_cat": 2, "price": -1.0},
        {"item_cat": 7, "user_cat": 0, "price": 0.0},  # 7 folds to 3
    ]
    fm = build_matrix(rows, schema)
    batch = encode_matrix(fm, schema, tables)
    assert batch.shape == (3, schema.input_width)
    for i, row in enumerate(rows):
        assert np.array_equal(batch.value[i], _encode_one(row, schema, tables))


def test_matrix_row_subset():
    schema = build_schema(_mixed_config())
    rows = [{"item_cat": i % 4, "user_cat": i % 3, "price": float(i)} for i in range(5)]
    fm = build_matrix(rows, schema)
    sub = fm.rows(np.array([4, 0]))
    assert sub.n_rows == 2
    assert sub.num_values[0, 0] == 4.0
    assert sub.cat_indices["item_cat"][1] == 0


def test_matrix_missing_feature_raises():
    schema = build_schema(_mixed_config())
    with pytest.raises(EncodingError, match="user_cat"):
        build_matrix([{"item_cat": 0, "price": 1.0}], schema)


def test_embedding_gradients_flow_through_encoding():
    schema = build_schema(_mixed_config())
    tables = init_tables(schema, np.random.default_rng(2))
    fm = build_matrix([{"item_cat": 1, "user_cat": 2, "price": 0.3}], schema)
    out = encode_matrix(fm, schema, tables).sum()
    backward(out)
    assert np.array_equal(tables["item_cat"].grad[1], np.ones(2))
    assert np.array_equal(tables["user_cat"].grad[2], np.ones(2))
    assert np.all(tables["item_cat"].grad[0] == 0.0)
