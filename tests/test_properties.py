"""Properties of the exposure-log I/O and the simulator, over drawn inputs."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from choruscvr import data
from choruscvr.data import ExposureLog, read_log, write_log
from choruscvr.features import build_schema
from choruscvr.simulator import SimConfig, generate

INT64 = st.integers(-(2**63), 2**63 - 1)
# Ids beyond 2**53, where float64 rounds, must read back exactly too.
IDS = INT64
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def logs(draw):
    """A schema with categorical and numeric features in a drawn order, and
    a funnel-consistent log for it, with or without truth columns."""
    n_ids = draw(st.integers(0, 3))
    n_numerics = draw(st.integers(0, 2))
    specs = [{"name": f"c{j}", "kind": "categorical", "vocab_size": draw(st.integers(1, 40))} for j in range(n_ids)]
    specs += [{"name": f"x{j}", "kind": "numeric"} for j in range(n_numerics)]
    schema = build_schema(draw(st.permutations(specs)))
    n = draw(st.integers(0, 20))
    click = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    truth = {}
    if draw(st.booleans()):
        truth = {
            "true_p_click": draw(arrays(np.float64, n, elements=st.floats(0.0, 1.0))),
            "true_p_conv": draw(arrays(np.float64, n, elements=st.floats(0.0, 1.0))),
            "r_counterfactual": draw(arrays(np.int64, n, elements=st.integers(0, 1))),
        }
    conversion = click * truth.get("r_counterfactual", draw(arrays(np.int64, n, elements=st.integers(0, 1))))
    log = ExposureLog(
        sample_id=draw(arrays(np.int64, n, elements=INT64)),
        click=click,
        conversion=conversion,
        id_names=tuple(f.name for f in schema.features if f.kind == "categorical"),
        ids=draw(arrays(np.int64, (n, n_ids), elements=IDS)),
        numeric_names=tuple(f.name for f in schema.features if f.kind == "numeric"),
        numeric=draw(arrays(np.float64, (n, n_numerics), elements=FINITE)),
        **truth,
    )
    return schema, log


# Ids float64 cannot hold: a parser that reads ids through float64 rounds them.
BEYOND_FLOAT = np.array([2**53 + 1, 2**63 - 1, -(2**53 + 1)])


def _beyond_float_case(truth: bool):
    """Sample ids and categorical ids beyond 2**53, with a numeric between
    two id columns, with or without truth columns."""
    schema = build_schema(
        [
            {"name": "c0", "kind": "categorical", "vocab_size": 7},
            {"name": "x0", "kind": "numeric"},
            {"name": "c1", "kind": "categorical", "vocab_size": 40},
        ]
    )
    columns = {
        "true_p_click": np.array([0.5, 0.25, 1.0]),
        "true_p_conv": np.array([0.125, 0.0, 0.75]),
        "r_counterfactual": np.array([1, 0, 0]),
    }
    log = ExposureLog(
        sample_id=BEYOND_FLOAT,
        click=np.array([1, 0, 1]),
        conversion=np.array([1, 0, 0]),
        id_names=("c0", "c1"),
        ids=np.stack([BEYOND_FLOAT, BEYOND_FLOAT[::-1]], axis=1),
        numeric_names=("x0",),
        numeric=np.array([[0.5], [-1.0], [2.0]]),
        **(columns if truth else {}),
    )
    return schema, log


@given(case=logs())
@example(case=_beyond_float_case(truth=False))
@example(case=_beyond_float_case(truth=True))
def test_write_then_read_round_trips(tmp_path_factory, case):
    schema, log = case
    path = tmp_path_factory.mktemp("round_trip") / "log.csv"
    write_log(log, path, schema)
    back, report = read_log(path, schema)
    if not len(log):  # an empty log is written without truth columns
        log = dataclasses.replace(log, true_p_click=None, true_p_conv=None, r_counterfactual=None)
    assert back == log
    assert (report.n_lines, report.n_records, report.skipped, report.funnel_violations) == (len(log), len(log), [], 0)
    for f in schema.features:
        if f.kind == "categorical":
            col = log.column(f.name, f.kind)
            assert report.oov_folds[f.name] == np.count_nonzero((col < 0) | (col >= f.vocab_size))


def _set(index, value):
    def damage(fields):
        return ",".join(value if i == index else f for i, f in enumerate(fields))

    return damage


# Ways to damage one line of a ``sample_id,click,conversion,f0,x[,truth]``
# log, as (name, function of the line's fields).
DAMAGES = [
    ("blank", lambda fields: ""),
    ("comment", lambda fields: "#" + ",".join(fields)),
    ("crlf", lambda fields: ",".join(fields) + "\r"),
    ("short", lambda fields: ",".join(fields[:-1])),
    ("long", lambda fields: ",".join(fields) + ",7"),
    ("quoted", lambda fields: ",".join(f'"{f}"' if i == 3 else f for i, f in enumerate(fields))),
    ("funnel", lambda fields: ",".join([fields[0], "0", "1", *fields[3:]])),
]
DAMAGES += [(f"{column}={value!r}", _set(index, value)) for index, column, values in [
    (0, "sample_id", ["1.0", "1e2", "+5", " 5", "05", "", "1" * 20]),
    (1, "click", ["1.0", "01", "+1", " 1", "2", "", "-0"]),
    (2, "conversion", ["1.0", "01", "+1", " 1", "2"]),
    (3, "f0", ["nan", "inf", "2.7", "2.0", "1e1", "-1", "9", "1e999", "0x1", " 2"]),
    (4, "x", ["nan", "inf", "-inf", "1e999", "1_0", "1e", ".", "+.5", "5.", "-0"]),
] for value in values]

SCHEMA = build_schema([{"name": "f0", "kind": "categorical", "vocab_size": 4}, {"name": "x", "kind": "numeric"}])


def _read_both_ways(tmp_path_factory, clicks, damage, with_truth, final_newline=True):
    """A clean log with some lines damaged, read by ``read_log`` and by the
    row parser alone."""
    rng = np.random.default_rng(len(clicks))
    header = "sample_id,click,conversion,f0,x" + (",true_p_click,true_p_conv,r_counterfactual" if with_truth else "")
    lines = [
        f"{i},{o},{o * r},{int(rng.integers(-2, 6))},{rng.normal()!r}"
        + (f",{rng.random()!r},{rng.random()!r},{r}" if with_truth else "")
        for i, (o, r) in enumerate(zip(clicks, rng.integers(0, 2, len(clicks)).tolist()))
    ]
    for where, (_, fn) in damage:
        if lines:
            lines[where % len(lines)] = fn(lines[where % len(lines)].split(","))
    path = tmp_path_factory.mktemp("differential") / "log.csv"
    path.write_bytes(("\n".join([header, *lines]) + "\n" * final_newline).encode("utf-8"))
    fast = read_log(path, SCHEMA)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_parse_columns", lambda *args: None)
        rows = read_log(path, SCHEMA)
    return fast, rows


@pytest.mark.parametrize("with_truth", [False, True])
@pytest.mark.parametrize("damage", DAMAGES, ids=[name for name, _ in DAMAGES])
def test_each_damage_reads_as_the_row_parser_reads_it(tmp_path_factory, damage, with_truth):
    fast, rows = _read_both_ways(tmp_path_factory, [1, 0, 1, 0, 0], [(2, damage)], with_truth)
    assert fast[0] == rows[0]
    assert fast[1] == rows[1]


@settings(max_examples=200)
@given(
    clicks=st.lists(st.integers(0, 1), max_size=20),
    damage=st.lists(st.tuples(st.integers(0, 30), st.sampled_from(DAMAGES)), max_size=4),
    with_truth=st.booleans(),
    block_bytes=st.sampled_from([data.READ_BLOCK_BYTES, 64]),
    final_newline=st.booleans(),
)
def test_damaged_logs_read_as_the_row_parser_reads_them(
    tmp_path_factory, clicks, damage, with_truth, block_bytes, final_newline
):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "READ_BLOCK_BYTES", block_bytes)
        fast, rows = _read_both_ways(tmp_path_factory, clicks, damage, with_truth, final_newline)
    assert fast[0] == rows[0]
    assert fast[1] == rows[1]


@pytest.mark.parametrize("damage", DAMAGES, ids=[name for name, _ in DAMAGES])
def test_damage_in_any_block_reads_as_the_row_parser_reads_it(tmp_path_factory, monkeypatch, damage):
    """Blocks of about two lines (150 bytes) over 9 lines: damage in the
    first, a middle and the last (short) block, with and without a final
    newline."""
    monkeypatch.setattr(data, "READ_BLOCK_BYTES", 150)
    clicks = [1, 0, 1, 0, 0, 1, 1, 0, 1]
    for where in (0, 4, 8):
        for final_newline in (True, False):
            fast, rows = _read_both_ways(tmp_path_factory, clicks, [(where, damage)], True, final_newline)
            assert fast[0] == rows[0]
            assert fast[1] == rows[1]


def test_a_clean_log_in_blocks_takes_the_vectorized_pass(tmp_path, monkeypatch):
    """Every block accepted, the last one short and without a newline."""
    log, _ = generate(SimConfig(n_exposures=9, latent_dim=2, seed=3))
    schema = build_schema([{"name": f"f{d}", "kind": "categorical", "vocab_size": 16} for d in range(2)])
    path = tmp_path / "log.csv"
    write_log(log, path, schema)
    path.write_bytes(path.read_bytes().rstrip(b"\n"))

    def no_row_parser(*args):
        raise AssertionError("the row parser ran on a clean log")

    monkeypatch.setattr(data, "READ_BLOCK_BYTES", 64)
    monkeypatch.setattr(data, "_parse_rows", no_row_parser)
    back, report = read_log(path, schema)
    assert back == log
    assert (report.n_lines, report.n_records) == (9, 9)


@settings(max_examples=20)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_exposures=st.integers(1, 3000),
    latent_dim=st.integers(2, 6),
    click_rate=st.floats(0.02, 0.5),
    conv_rate=st.floats(0.05, 0.5),
    correlation=st.floats(0.0, 1.0),
    feature_bins=st.integers(2, 20),
)
def test_simulated_logs_respect_the_funnel(seed, n_exposures, latent_dim, click_rate, conv_rate, correlation, feature_bins):
    log, report = generate(
        SimConfig(
            n_exposures=n_exposures,
            latent_dim=latent_dim,
            target_click_rate=click_rate,
            target_conv_rate_given_click=conv_rate,
            correlation=correlation,
            feature_bins=feature_bins,
            seed=seed,
        )
    )
    assert len(log) == report.n_exposures == n_exposures
    assert (log.conversion <= log.click).all()  # a conversion implies a click
    assert (log.conversion <= log.r_counterfactual).all()  # and the counterfactual outcome
    assert np.array_equal(log.conversion, log.click * log.r_counterfactual)
    assert ((log.ids >= 0) & (log.ids < feature_bins)).all()
    assert np.array_equal(log.sample_id, np.arange(n_exposures))
