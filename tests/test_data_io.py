"""Exposure-log CSV round trips, validation, labels, batching."""

import dataclasses

import numpy as np
import pytest

from choruscvr import data
from choruscvr.data import (
    ExposureLog,
    LogFormatError,
    as_log,
    batch_iter,
    label_arrays,
    read_log,
    truth_arrays,
    write_log,
)
from choruscvr.features import build_matrix, build_schema
from choruscvr.simulator import SimConfig, generate, sim_schema

from oracles import log_of, write_log_reference

SCHEMA = build_schema(
    [
        {"name": "f0", "kind": "categorical", "vocab_size": 4, "embed_width": 2},
        {"name": "x", "kind": "numeric"},
    ]
)


def _write(tmp_path, text):
    p = tmp_path / "log.csv"
    p.write_text(text, encoding="utf-8")
    return p


def test_well_formed_file(tmp_path):
    p = _write(
        tmp_path,
        "sample_id,click,conversion,f0,x\n0,1,0,2,0.5\n1,0,0,1,-1.5\n2,1,1,3,2.25\n",
    )
    records, report = read_log(p, SCHEMA)
    assert len(records) == 3
    assert report.n_records == 3
    assert report.skipped == []
    assert report.funnel_violations == 0
    row = records[0]
    assert (row.sample_id, row.click, row.conversion) == (0, 1, 0)
    assert (row.ids.tolist(), row.numeric.tolist(), row.r_counterfactual) == ([2], [0.5], None)


def test_funnel_violation_dropped_and_counted(tmp_path):
    p = _write(tmp_path, "sample_id,click,conversion,f0,x\n0,0,1,2,0.5\n1,1,1,1,0.0\n")
    records, report = read_log(p, SCHEMA)
    assert len(records) == 1
    assert records[0].sample_id == 1
    assert report.funnel_violations == 1


def test_malformed_rows_skipped_and_itemized(tmp_path):
    p = _write(
        tmp_path,
        "sample_id,click,conversion,f0,x\n"
        "0,1,0,2,0.5\n"
        "1,2,0,1,0.0\n"  # label not 0/1
        "2,1,0,1\n"  # short row
        "3,1,0,abc,0.0\n"  # non-numeric feature
        "4,0,0,0,1.0\n",
    )
    records, report = read_log(p, SCHEMA)
    assert records.sample_id.tolist() == [0, 4]
    lines = [line for line, _ in report.skipped]
    assert lines == [3, 4, 5]
    assert any("click" in reason for _, reason in report.skipped)


def test_non_integer_categorical_ids_skipped_and_itemized(tmp_path):
    p = _write(
        tmp_path,
        "sample_id,click,conversion,f0,x\n"
        "0,1,0,nan,0.5\n"
        "1,0,0,2.7,0.0\n"
        "2,0,0,inf,0.0\n"
        "3,1,1,3.0,0.25\n",  # integral after parsing, kept
    )
    records, report = read_log(p, SCHEMA)
    assert records.sample_id.tolist() == [3]
    assert [line for line, _ in report.skipped] == [2, 3, 4]
    assert all("f0 must be an integer id" in reason for _, reason in report.skipped)
    assert "'2.7'" in report.skipped[1][1]


def test_missing_label_column_fatal(tmp_path):
    p = _write(tmp_path, "sample_id,click,f0,x\n0,1,2,0.5\n")
    with pytest.raises(LogFormatError, match="conversion"):
        read_log(p, SCHEMA)


def test_missing_feature_column_fatal(tmp_path):
    p = _write(tmp_path, "sample_id,click,conversion,f0\n0,1,0,2\n")
    with pytest.raises(LogFormatError, match="'x'"):
        read_log(p, SCHEMA)


def test_unknown_column_fatal(tmp_path):
    p = _write(tmp_path, "sample_id,click,conversion,f0,x,bonus\n0,1,0,2,0.5,9\n")
    with pytest.raises(LogFormatError, match="bonus"):
        read_log(p, SCHEMA)


@pytest.mark.parametrize(
    "header, row",
    [("sample_id,click,conversion,f0,f0,x", "0,1,0,2,2,0.5"), ("sample_id,click,click,conversion,f0,x", "0,1,0,0,2,0.5")],
    ids=["feature", "label"],
)
def test_duplicate_column_fatal(tmp_path, header, row):
    # The first copy would be read and the second silently ignored.
    with pytest.raises(LogFormatError, match="more than once"):
        read_log(_write(tmp_path, f"{header}\n{row}\n"), SCHEMA)


def test_partial_truth_columns_fatal(tmp_path):
    # Without r_counterfactual the log would read as one with no truth at
    # all, and every counterfactual metric would vanish without a message.
    p = _write(tmp_path, "sample_id,click,conversion,f0,x,true_p_click,true_p_conv\n0,1,0,2,0.5,0.5,0.1\n")
    with pytest.raises(LogFormatError, match="r_counterfactual"):
        read_log(p, SCHEMA)


def test_empty_file_fatal(tmp_path):
    with pytest.raises(LogFormatError, match="empty"):
        read_log(_write(tmp_path, ""), SCHEMA)


def test_round_trip_without_truth(tmp_path):
    log = log_of([{"f0": 3, "x": -0.125}, {"f0": 0, "x": 7.5}], SCHEMA, click=[1, 0], conversion=[1, 0])
    p = tmp_path / "rt.csv"
    write_log(log, p, SCHEMA)
    back, report = read_log(p, SCHEMA)
    assert back == log
    assert report.funnel_violations == 0


def test_round_trip_simulator_output(tmp_path):
    cfg = SimConfig(n_exposures=2000, seed=13)
    records, _ = generate(cfg)
    schema = sim_schema(cfg)
    p = tmp_path / "sim.csv"
    write_log(records, p, schema)
    back, report = read_log(p, schema)
    assert report.n_records == 2000
    assert back == records  # field-by-field, including ground truth


def test_log_rejects_partial_truth():
    log = log_of([{"f0": 1, "x": 0.0}] * 2, SCHEMA)
    with pytest.raises(LogFormatError, match="all or none"):
        dataclasses.replace(log, true_p_click=np.full(2, 0.5), true_p_conv=np.full(2, 0.2))
    with pytest.raises(LogFormatError, match="all or none"):
        dataclasses.replace(generate(SimConfig(n_exposures=10, seed=0))[0], r_counterfactual=None)


def test_log_rejects_columns_of_other_lengths_or_widths():
    log = log_of([{"f0": 1, "x": 0.0}] * 3, SCHEMA)
    with pytest.raises(LogFormatError, match="click has 2 rows"):
        dataclasses.replace(log, click=log.click[:2])
    with pytest.raises(LogFormatError, match="ids has shape"):
        dataclasses.replace(log, ids=np.zeros((3, 2), dtype=np.int64))
    with pytest.raises(LogFormatError, match="numeric has shape"):
        dataclasses.replace(log, numeric=np.zeros(3))


def test_log_rejects_fractional_ids():
    log = log_of([{"f0": 2, "x": 0.0}, {"f0": 1, "x": 0.0}], SCHEMA)
    with pytest.raises(LogFormatError, match="column ids has dtype float64"):
        dataclasses.replace(log, ids=np.array([[2.5], [1.0]]))


def test_indexing_yields_a_row_that_reads_the_columns():
    log, _ = generate(SimConfig(n_exposures=20, seed=2))
    row = log[-3]
    assert row.log is log and row.i == 17
    assert row.click == log.click[17] and row.true_p_conv == log.true_p_conv[17]
    assert row.ids.tolist() == log.ids[17].tolist()
    assert dataclasses.replace(log, true_p_click=None, true_p_conv=None, r_counterfactual=None)[0].true_p_click is None
    assert [r.sample_id for r in log] == log.sample_id.tolist()
    with pytest.raises(IndexError):
        log[20]
    with pytest.raises(AttributeError):
        row.features


def test_as_log_takes_the_rows_at_their_positions():
    log, _ = generate(SimConfig(n_exposures=20, seed=2))
    assert as_log(log) is log
    assert as_log([log[5], log[2], log[5]]) == log.take(np.array([5, 2, 5]))
    other, _ = generate(SimConfig(n_exposures=20, seed=2))
    with pytest.raises(ValueError, match="different logs"):
        as_log([log[0], other[1]])
    with pytest.raises(ValueError, match="empty"):
        as_log([])


def test_write_is_byte_stable(tmp_path):
    records, _ = generate(SimConfig(n_exposures=500, seed=3))
    schema = sim_schema(SimConfig(n_exposures=500, seed=3))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_log(records, a, schema)
    write_log(records, b, schema)
    assert a.read_bytes() == b.read_bytes()


def test_partition_truth_table():
    # The exposure space splits into clicked (o=1) and unclicked (o=0) rows,
    # and the clicked space into converted (r=1) and unconverted (r=0) rows.
    o, r = label_arrays(log_of([{"f0": 0, "x": 0.0}] * 3, SCHEMA, click=[1, 1, 0], conversion=[1, 0, 0]))
    assert np.flatnonzero(o == 1).tolist() == [0, 1]
    assert np.flatnonzero(o == 0).tolist() == [2]
    assert np.flatnonzero(r == 1).tolist() == [0]
    assert np.flatnonzero((o == 1) & (r == 0)).tolist() == [1]


def test_partition_invariants_on_simulated_data():
    records, _ = generate(SimConfig(n_exposures=5000, seed=21))
    o, r = label_arrays(records)
    assert set(np.unique(o)) == {0.0, 1.0}
    assert set(np.unique(r)) == {0.0, 1.0}
    assert np.all(r <= o)  # conversion implies click


def test_label_and_truth_arrays():
    observed = log_of([{}] * 2, build_schema([]), click=[1, 0], conversion=[1, 0])
    records = dataclasses.replace(
        observed,
        true_p_click=np.array([0.5, 0.125]),
        true_p_conv=np.array([0.25, 0.75]),
        r_counterfactual=np.array([1, 0]),
    )
    o, r = label_arrays(records)
    assert o.tolist() == [1.0, 0.0]
    assert r.tolist() == [1.0, 0.0]
    truth = truth_arrays(records)
    assert truth is not None
    p_click, p_conv, r_cf = truth
    assert p_click.tolist() == [0.5, 0.125]
    assert p_conv.tolist() == [0.25, 0.75]
    assert r_cf.tolist() == [1.0, 0.0]
    assert truth_arrays(observed) is None


def test_batch_sizes_with_short_tail():
    sizes = [len(b) for b in batch_iter(10, 4, epoch_seed=0)]
    assert sizes == [4, 4, 2]


def test_batches_cover_every_index_once():
    seen = np.concatenate(list(batch_iter(103, 8, epoch_seed=7)))
    assert np.array_equal(np.sort(seen), np.arange(103))


def test_batch_determinism_and_shuffling():
    a = np.concatenate(list(batch_iter(50, 16, epoch_seed=3)))
    b = np.concatenate(list(batch_iter(50, 16, epoch_seed=3)))
    c = np.concatenate(list(batch_iter(50, 16, epoch_seed=4)))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, np.arange(50))  # actually shuffled


def test_batch_iter_rejects_empty_and_bad_size():
    with pytest.raises(ValueError, match="empty"):
        list(batch_iter(0, 4, epoch_seed=0))
    with pytest.raises(ValueError, match="batch_size"):
        list(batch_iter(10, 0, epoch_seed=0))


def test_non_finite_numeric_values_skipped_and_itemized(tmp_path):
    p = _write(tmp_path, "sample_id,click,conversion,f0,x\n0,1,0,1,nan\n1,0,0,2,inf\n2,0,0,3,-inf\n3,1,1,0,0.5\n")
    records, report = read_log(p, SCHEMA)
    assert records.sample_id.tolist() == [3]
    assert report.skipped == [
        (2, "x must be finite, got 'nan'"),
        (3, "x must be finite, got 'inf'"),
        (4, "x must be finite, got '-inf'"),
    ]


def test_out_of_vocabulary_ids_fold_and_are_counted_per_feature(tmp_path):
    p = _write(tmp_path, "sample_id,click,conversion,f0,x\n0,1,0,-1,0.5\n1,0,0,9,1.0\n2,0,0,3,0.0\n")
    records, report = read_log(p, SCHEMA)
    assert len(records) == 3
    assert report.skipped == []
    assert report.oov_folds == {"f0": 2}
    assert build_matrix(records, SCHEMA).index[:, 0].tolist() == [3, 1, 3]


def test_clean_log_is_read_in_one_vectorized_pass(tmp_path, monkeypatch):
    cfg = SimConfig(n_exposures=500, seed=4)
    log, _ = generate(cfg)
    p = tmp_path / "sim.csv"
    write_log(log, p, sim_schema(cfg))

    def no_row_parser(*args):
        raise AssertionError("the row parser ran on a clean log")

    monkeypatch.setattr(data, "_parse_rows", no_row_parser)
    back, report = read_log(p, sim_schema(cfg))
    assert back == log
    assert report.n_lines == report.n_records == 500


BIG_IDS = [2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63), 5]


@pytest.mark.parametrize("parser", ["vectorized", "row"])
def test_ids_beyond_float64_precision_read_back_exactly(tmp_path, monkeypatch, parser):
    if parser == "row":
        monkeypatch.setattr(data, "_parse_columns", lambda body, layout: None)
    p = tmp_path / "log.csv"
    write_log(log_of([{"f0": v, "x": 0.5} for v in BIG_IDS], SCHEMA), p, SCHEMA)
    assert "9007199254740993" in p.read_text(encoding="utf-8")
    back, report = read_log(p, SCHEMA)
    assert report.skipped == []
    assert back.column("f0", "categorical").tolist() == BIG_IDS


def test_short_ids_stay_on_the_vectorized_pass(tmp_path, monkeypatch):
    def no_row_parser(*args):
        raise AssertionError("the row parser ran on a log of short ids")

    monkeypatch.setattr(data, "_parse_rows", no_row_parser)
    p = _write(tmp_path, "sample_id,click,conversion,f0,x\n0,1,0,900719925474099,0.5\n1,0,0,-3,1.0\n")
    back, _ = read_log(p, SCHEMA)
    assert back.column("f0", "categorical").tolist() == [900719925474099, -3]


def test_a_row_that_is_not_utf8_is_skipped_and_itemized(tmp_path):
    p = tmp_path / "log.csv"
    p.write_bytes(b"sample_id,click,conversion,f0,x\n0,1,0,2,0.5\n1,0,0,1,\xff\n2,1,1,3,2.25\n")
    back, report = read_log(p, SCHEMA)
    assert back.sample_id.tolist() == [0, 2]
    assert (report.n_lines, report.n_records, report.skipped) == (3, 2, [(3, "not valid UTF-8")])


@pytest.mark.parametrize(
    "body, skipped, n_lines",
    [
        # A quoted newline: the record starts on line 3 and ends on line 4.
        (b'1,0,0,1,0.5\n"2\n",0,0,1,0.5\n3,0,0,1,nan\n', [(5, "x must be finite, got 'nan'")], 4),
        # A lone CR ends a record but not a line.
        (b"1,0,0,1,0.5\r2,0,0,1,nan\n3,0,0,1", [(2, "x must be finite, got 'nan'"), (3, "expected 5 fields, got 4")], 2),
    ],
    ids=["quoted_newline", "lone_cr"],
)
def test_skipped_rows_are_numbered_by_the_line_they_start_on(tmp_path, body, skipped, n_lines):
    p = tmp_path / "log.csv"
    p.write_bytes(b"sample_id,click,conversion,f0,x\n" + body)
    _, report = read_log(p, SCHEMA)
    assert (report.skipped, report.n_lines) == (skipped, n_lines)


def test_a_quoted_header_decodes_the_file_once(tmp_path, monkeypatch):
    body = "0,1,0,2,0.5\n1,0,1,1,0.5\n2,0,0,9,nan\n3,1,1,3,2.25\n"
    plain = _write(tmp_path, "sample_id,click,conversion,f0,x\n" + body)
    expected = read_log(plain, SCHEMA)
    quoted = tmp_path / "quoted.csv"
    quoted.write_text('sample_id,click,conversion,"f0",x\n' + body, encoding="utf-8")
    decoded = []
    real_text = data._text

    def counting_text(path):
        decoded.append(path)
        return real_text(path)

    monkeypatch.setattr(data, "_text", counting_text)
    back, report = read_log(quoted, SCHEMA)
    assert decoded == [quoted]
    assert back == expected[0]
    assert report == expected[1]
    assert (report.n_records, report.funnel_violations, report.oov_folds) == (2, 1, {"f0": 0})


def test_a_header_that_is_not_utf8_is_fatal(tmp_path):
    p = tmp_path / "log.csv"
    p.write_bytes(b"sample_id,click,conversion,f0,x\xff\n0,1,0,2,0.5\n")
    with pytest.raises(LogFormatError, match="UTF-8"):
        read_log(p, SCHEMA)


def _mixed_log(sample_id, ids, numeric, truth):
    """A log of the ``c0,x,c1`` schema below, with or without truth."""
    n = len(sample_id)
    rng = np.random.default_rng(n)
    click = rng.integers(0, 2, n)
    columns = {}
    if truth:
        columns = {"true_p_click": rng.random(n), "true_p_conv": rng.random(n), "r_counterfactual": rng.integers(0, 2, n)}
    return ExposureLog(
        sample_id=np.asarray(sample_id, dtype=np.int64),
        click=click,
        conversion=click * columns.get("r_counterfactual", 0),
        id_names=("c0", "c1"),
        ids=np.asarray(ids, dtype=np.int64).reshape(n, 2),
        numeric_names=("x",),
        numeric=np.asarray(numeric, dtype=np.float64).reshape(n, 1),
        **columns,
    )


MIXED = build_schema(
    [
        {"name": "c0", "kind": "categorical", "vocab_size": 7},
        {"name": "x", "kind": "numeric"},
        {"name": "c1", "kind": "categorical", "vocab_size": 40},
    ]
)
EXTREMES = [-(2**63), 2**63 - 1, -(2**63) + 1, 2**53 + 1, -1, 0, 9, 10, -10, 99, 100, 10**18, -(10**18)]
TWO_BLOCKS_AND_ONE = 2 * data.BLOCK_LINES + 1
WRITE_CASES = {
    "extreme_ids": _mixed_log(EXTREMES, np.column_stack([EXTREMES, EXTREMES[::-1]]), np.zeros(13), truth=True),
    "negative_and_zero_ids": _mixed_log([-3, 0, 5], [[-1, 0], [0, -7], [-123456, 0]], [0.5, 1.5, -2.5], truth=True),
    "integer_valued_numerics": _mixed_log(
        range(8), np.ones((8, 2)), [2.0, -0.0, 0.0, -3.0, 1e20, 2.0**63, 0.1, 5e-324], truth=True
    ),
    # Ids of a narrow span, formatted once per value, at both int64 edges.
    "narrow_ids_at_int64_edges": _mixed_log(
        range(40),
        np.column_stack([-(2**63) + np.arange(40) % 4, 2**63 - 1 - np.arange(40) % 3]),
        np.zeros(40),
        truth=True,
    ),
    "empty": _mixed_log([], np.zeros((0, 2)), [], truth=True),
    "without_truth": _mixed_log([4, 5, 6], [[1, 2], [3, 4], [5, 6]], [0.25, 1.0, -7.5], truth=False),
    "two_blocks_and_one_row": _mixed_log(
        np.arange(TWO_BLOCKS_AND_ONE) * 7919 - 10**6,
        np.random.default_rng(0).integers(-50, 50, (TWO_BLOCKS_AND_ONE, 2)),
        np.random.default_rng(1).normal(size=TWO_BLOCKS_AND_ONE).round(1),
        truth=True,
    ),
}


@pytest.mark.parametrize("case", list(WRITE_CASES))
def test_write_matches_the_per_value_writer_byte_for_byte(tmp_path, case):
    log = WRITE_CASES[case]
    write_log(log, tmp_path / "bulk.csv", MIXED)
    write_log_reference(log, tmp_path / "reference.csv", MIXED)
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
