"""Exposure-log CSV round trips, validation, labels, batching."""

import numpy as np
import pytest

from choruscvr.data import (
    ExposureRecord,
    GroundTruth,
    LogFormatError,
    batch_iter,
    label_arrays,
    read_log,
    truth_arrays,
    write_log,
)
from choruscvr.features import build_schema
from choruscvr.simulator import SimConfig, generate, sim_schema

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
    assert records[0] == ExposureRecord(0, 1, 0, {"f0": 2.0, "x": 0.5}, None)


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
    assert [r.sample_id for r in records] == [0, 4]
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
    assert [r.sample_id for r in records] == [3]
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


def test_empty_file_fatal(tmp_path):
    with pytest.raises(LogFormatError, match="empty"):
        read_log(_write(tmp_path, ""), SCHEMA)


def test_round_trip_without_truth(tmp_path):
    records = [
        ExposureRecord(0, 1, 1, {"f0": 3.0, "x": -0.125}, None),
        ExposureRecord(1, 0, 0, {"f0": 0.0, "x": 7.5}, None),
    ]
    p = tmp_path / "rt.csv"
    write_log(records, p, SCHEMA)
    back, report = read_log(p, SCHEMA)
    assert back == records
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


def test_write_rejects_mixed_truth(tmp_path):
    records = [
        ExposureRecord(0, 1, 0, {"f0": 1.0, "x": 0.0}, GroundTruth(0.5, 0.2, 0)),
        ExposureRecord(1, 0, 0, {"f0": 1.0, "x": 0.0}, None),
    ]
    with pytest.raises(LogFormatError, match="ground truth"):
        write_log(records, tmp_path / "bad.csv", SCHEMA)


def test_write_is_byte_stable(tmp_path):
    records, _ = generate(SimConfig(n_exposures=500, seed=3))
    schema = sim_schema(SimConfig(n_exposures=500, seed=3))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_log(records, a, schema)
    write_log(records, b, schema)
    assert a.read_bytes() == b.read_bytes()


def _rec(i, o, r):
    return ExposureRecord(i, o, r, {"f0": 0.0, "x": 0.0}, None)


def test_partition_truth_table():
    # The exposure space splits into clicked (o=1) and unclicked (o=0) rows,
    # and the clicked space into converted (r=1) and unconverted (r=0) rows.
    o, r = label_arrays([_rec(0, 1, 1), _rec(1, 1, 0), _rec(2, 0, 0)])
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
    records = [
        ExposureRecord(0, 1, 1, {}, GroundTruth(0.5, 0.25, 1)),
        ExposureRecord(1, 0, 0, {}, GroundTruth(0.125, 0.75, 0)),
    ]
    o, r = label_arrays(records)
    assert o.tolist() == [1.0, 0.0]
    assert r.tolist() == [1.0, 0.0]
    truth = truth_arrays(records)
    assert truth is not None
    p_click, p_conv, r_cf = truth
    assert p_click.tolist() == [0.5, 0.125]
    assert p_conv.tolist() == [0.25, 0.75]
    assert r_cf.tolist() == [1.0, 0.0]
    assert truth_arrays([records[0], ExposureRecord(2, 0, 0, {}, None)]) is None


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
