"""Feature schema validation, the model-input columns and the model's
input gather over them."""

import numpy as np
import pytest

from choruscvr.data import read_log
from choruscvr.features import EncodingError, SchemaError, build_matrix, build_schema
from choruscvr.model import Architecture, gather_concat, gather_concat_backward, init_model

from oracles import log_of, split_like


def _matrix(rows, schema):
    """Feature rows into model-input columns, through a log."""
    return build_matrix(log_of(rows, schema), schema)


def _init_tables(schema, seed: int) -> dict[str, np.ndarray]:
    """A fresh model's embedding tables, by feature name."""
    return init_model(schema, Architecture(encoder_widths=(), tower_widths=()), seed).tables


def _tables(schema, tables):
    return [tables[f.name] for f in schema.ordered if f.kind == "categorical"]


def _encode(fm, schema, tables) -> np.ndarray:
    """The model's (n, input_width) input: one gather of the tables, laid
    end to end in schema order, with the numerics beside them."""
    block = np.concatenate([np.zeros(0), *(t.ravel() for t in _tables(schema, tables))])
    return gather_concat(block, fm.index, fm.chunk, fm.num_values, fm.num_cols)


def _encode_backward(g, fm, schema, tables) -> dict[str, np.ndarray]:
    """Each table's gradient, by parameter name, from the gradient ``g``
    on :func:`_encode`'s output."""
    cats = _tables(schema, tables)
    grad = gather_concat_backward(g, fm.index, fm.chunk, fm.num_cols, np.empty(sum(t.size for t in cats)))
    names = [f"embed.{f.name}" for f in schema.ordered if f.kind == "categorical"]
    return dict(zip(names, split_like(grad, cats)))


def _encode_one(row, schema, tables) -> np.ndarray:
    """One record through the batch path: its (input_width,) vector."""
    return _encode(_matrix([row], schema), schema, tables)[0]


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
        "item_cat": np.zeros((4, 2)),
        "user_cat": np.zeros((3, 2)),
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
    tables = _init_tables(schema, 0)
    vec = _encode_one({"a": 0, "b": 1, "x": 2.0}, schema, tables)
    assert vec.shape == (5,)


def test_encode_matches_hand_read_table_rows():
    schema = build_schema(_mixed_config())
    tables = _init_tables(schema, 7)
    record = {"item_cat": 3, "user_cat": 1, "price": -0.25}
    vec = _encode_one(record, schema, tables)
    expected = np.concatenate(
        [tables["user_cat"][1], tables["item_cat"][3], [-0.25]]
    )
    assert np.array_equal(vec, expected)


def test_encode_is_pure():
    schema = build_schema(_mixed_config())
    tables = _init_tables(schema, 3)
    record = {"item_cat": 2, "user_cat": 0, "price": 1.5}
    a = _encode_one(record, schema, tables)
    b = _encode_one(record, schema, tables)
    assert np.array_equal(a, b)


def test_missing_feature_names_it():
    schema = build_schema(_mixed_config())
    with pytest.raises(EncodingError, match="price"):
        _matrix([{"item_cat": 0, "user_cat": 0}], schema)


def test_fractional_categorical_id_is_rejected_not_truncated(tmp_path):
    # A log holds int64 ids, so a fractional id is stopped where it is
    # read: its row is skipped and itemized, never kept as 2.
    schema = build_schema(_mixed_config())
    path = tmp_path / "log.csv"
    path.write_text("sample_id,click,conversion,item_cat,user_cat,price\n0,0,0,2.5,0,1.0\n1,0,0,2,0,1.0\n")
    log, report = read_log(path, schema)
    assert report.skipped == [(2, "item_cat must be an integer id, got '2.5'")]
    assert log.column("item_cat", "categorical").tolist() == [2]


def test_out_of_vocabulary_folds_modulo():
    schema = build_schema(_mixed_config())
    tables = _init_tables(schema, 0)
    direct = _encode_one({"item_cat": 1, "user_cat": 0, "price": 0.0}, schema, tables)
    folded = _encode_one({"item_cat": 5, "user_cat": 0, "price": 0.0}, schema, tables)  # 5 % 4 = 1
    assert np.array_equal(direct, folded)


def test_permuting_declared_order_permutes_blocks():
    cfg = [
        {"name": "a", "kind": "categorical", "side": "cross", "vocab_size": 3, "embed_width": 2},
        {"name": "b", "kind": "categorical", "side": "cross", "vocab_size": 3, "embed_width": 2},
    ]
    s_ab = build_schema(cfg)
    s_ba = build_schema(cfg[::-1])
    tables = _init_tables(s_ab, 5)
    rec = {"a": 1, "b": 2}
    v_ab = _encode_one(rec, s_ab, tables)
    v_ba = _encode_one(rec, s_ba, tables)
    assert np.array_equal(v_ab[:2], v_ba[2:])
    assert np.array_equal(v_ab[2:], v_ba[:2])


def test_matrix_encoding_matches_single_record_encoding():
    schema = build_schema(_mixed_config())
    tables = _init_tables(schema, 11)
    rows = [
        {"item_cat": 0, "user_cat": 1, "price": 0.2},
        {"item_cat": 3, "user_cat": 2, "price": -1.0},
        {"item_cat": 7, "user_cat": 0, "price": 0.0},  # 7 folds to 3
    ]
    fm = _matrix(rows, schema)
    batch = _encode(fm, schema, tables)
    assert batch.shape == (3, schema.input_width)
    for i, row in enumerate(rows):
        assert np.array_equal(batch[i], _encode_one(row, schema, tables))


def test_matrix_row_subset():
    schema = build_schema(_mixed_config())
    rows = [{"item_cat": i % 4, "user_cat": i % 3, "price": float(i)} for i in range(5)]
    fm = _matrix(rows, schema)
    sub = fm.rows(np.array([4, 0]))
    assert sub.n_rows == 2
    assert sub.num_values[0, 0] == 4.0
    # chunks of whole width-2 rows: user_cat's (3, 2) table, item_cat's
    # (4, 2) table from chunk 3; the numeric's input column is 4
    assert sub.chunk == 2
    assert sub.index.tolist() == [[1, 3], [0, 3]]
    assert sub.num_cols.tolist() == [4]


def test_matrix_missing_feature_raises():
    schema = build_schema(_mixed_config())
    with pytest.raises(EncodingError, match="user_cat"):
        _matrix([{"item_cat": 0, "price": 1.0}], schema)


def test_embedding_gradients_flow_through_encoding():
    schema = build_schema(_mixed_config())
    tables = _init_tables(schema, 2)
    fm = _matrix([{"item_cat": 1, "user_cat": 2, "price": 0.3}], schema)
    # the gradient of the input's mean
    g = np.full((1, schema.input_width), 1.0 / schema.input_width)
    grads = _encode_backward(g, fm, schema, tables)
    share = np.full(2, 1.0 / schema.input_width)
    assert np.array_equal(grads["embed.item_cat"][1], share)
    assert np.array_equal(grads["embed.user_cat"][2], share)
    assert np.all(grads["embed.item_cat"][0] == 0.0)


MIXED = [
    {"name": "a", "kind": "categorical", "vocab_size": 7, "embed_width": 2},
    {"name": "x", "kind": "numeric"},
    {"name": "b", "kind": "categorical", "vocab_size": 5, "embed_width": 3},
    {"name": "y", "kind": "numeric"},
    {"name": "c", "kind": "categorical", "vocab_size": 3, "embed_width": 4},
]
EVEN = [
    {"name": "a", "kind": "categorical", "vocab_size": 7, "embed_width": 2},
    {"name": "b", "kind": "categorical", "vocab_size": 5, "embed_width": 6},
    {"name": "c", "kind": "categorical", "vocab_size": 3, "embed_width": 4},
]
EQUAL = [{"name": f"f{j}", "kind": "categorical", "vocab_size": 16, "embed_width": 4} for j in range(8)]
PAIRED = [MIXED[1], EVEN[0], MIXED[3], EVEN[2]]  # numerics between tables read in chunks of 2


@pytest.mark.parametrize(
    "config", [MIXED, PAIRED, EVEN, EQUAL], ids=["interleaved-numerics", "numerics-chunk-2", "mixed-widths", "equal-widths"]
)
def test_one_bincount_gather_equals_per_table_scatter_bitwise(config):
    # The encoded input is the tables' rows and the numerics in schema
    # order, and each table's gradient is its own np.add.at scatter, bit
    # for bit, whatever chunk width the layout reads in.
    schema = build_schema(config)
    rng = np.random.default_rng(21)
    rows = [
        {f.name: int(rng.integers(0, 9)) if f.kind == "categorical" else float(rng.normal()) for f in schema.ordered}
        for _ in range(300)
    ]
    tables = _init_tables(schema, 21)
    out = _encode(_matrix(rows, schema), schema, tables)
    upstream = rng.normal(size=out.shape)
    g = np.full(out.shape, 1.0 / out.size) * upstream  # the gradient of mean(out * upstream)
    grads = _encode_backward(g, _matrix(rows, schema), schema, tables)
    start = 0
    for f in schema.ordered:
        cols = slice(start, start + (f.embed_width if f.kind == "categorical" else 1))
        start = cols.stop
        values = np.array([row[f.name] for row in rows])
        if f.kind == "numeric":
            assert np.array_equal(out[:, cols.start], values)
            continue
        ids = values % f.vocab_size
        assert np.array_equal(out[:, cols], tables[f.name][ids])
        expected = np.zeros_like(tables[f.name])
        np.add.at(expected, ids, g[:, cols])
        assert grads[f"embed.{f.name}"].tobytes() == expected.tobytes(), f.name
    assert start == out.shape[1]
