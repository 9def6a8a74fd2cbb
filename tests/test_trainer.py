"""Training loop, splits, evaluation pairs, and history output."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from choruscvr.autodiff import OptimizerConfig
from choruscvr.metrics import UndefinedMetricError
from choruscvr.model import Architecture, ModelParams, init_model
from choruscvr.simulator import SimConfig, generate, sim_schema
from choruscvr.trainer import (
    COUNTERFACTUAL_PAIRS,
    OBSERVED_PAIRS,
    ExperimentConfig,
    TrainingError,
    default_eval_pairs,
    evaluate,
    split_indices,
    train,
    write_history,
)

ARCH = Architecture(encoder_widths=(16,), tower_widths=(8,))


@pytest.fixture(scope="module")
def sim_data():
    config = SimConfig(n_exposures=12_000, latent_dim=4, feature_bins=8, seed=11)
    records, report = generate(config)
    schema = sim_schema(config)
    return records, schema, report


def _strip(log):
    """The log without its ground-truth columns."""
    return dataclasses.replace(log, true_p_click=None, true_p_conv=None, r_counterfactual=None)


def _small_config(**overrides):
    base = dict(
        method="chorus",
        arch=ARCH,
        batch_size=512,
        epochs=3,
        patience=3,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_split_fractions_and_coverage():
    tr, va, te = split_indices(1000, seed=0)
    assert (len(tr), len(va), len(te)) == (800, 100, 100)
    joined = np.concatenate([tr, va, te])
    assert len(np.unique(joined)) == 1000


def test_split_deterministic_and_seed_sensitive():
    a = split_indices(500, seed=3)
    b = split_indices(500, seed=3)
    c = split_indices(500, seed=4)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert not np.array_equal(a[0], c[0])


def test_split_is_a_shuffle_not_a_prefix():
    tr, _, _ = split_indices(1000, seed=0)
    assert not np.array_equal(tr, np.arange(len(tr)))


def test_zero_epochs_returns_initial_params(sim_data):
    records, schema, _ = sim_data
    config = _small_config(epochs=0)
    params, history = train(config, records[:500], records[500:600], schema)
    assert history.epochs == []
    assert history.best_epoch == 0
    fresh = init_model(schema, config.arch, config.seed)
    for got, want in zip(params.parameters(), fresh.parameters()):
        assert np.array_equal(got.value, want.value)


def test_train_requires_records(sim_data):
    _, schema, _ = sim_data
    with pytest.raises(TrainingError):
        train(_small_config(), [], [], schema)


def test_single_class_validation_trains_as_without_validation(sim_data):
    # No click-and-convert positive in the validation split: its AUC is
    # undefined, so every epoch records nan, counts as the best so far,
    # and patience cannot stop the run.
    records, schema, _ = sim_data
    val = records[2000:2400]
    no_positive = dataclasses.replace(val, conversion=np.zeros_like(val.conversion))
    config = _small_config(epochs=3, patience=1)
    params, history = train(config, records[:2000], no_positive, schema)
    assert len(history.epochs) == 3
    assert all(np.isnan(rec.val_ctcvr_auc) for rec in history.epochs)
    assert history.best_epoch == 3
    unvalidated, _ = train(config, records[:2000], records[:0], schema)
    for got, want in zip(params.parameters(), unvalidated.parameters()):
        assert got.value.tobytes() == want.value.tobytes()


def test_train_takes_rows_of_one_log_only(sim_data):
    records, schema, _ = sim_data
    config = _small_config(epochs=1)
    rows = [records[i] for i in range(2000)]
    from_rows, _ = train(config, rows, [records[i] for i in range(2000, 2400)], schema)
    from_log, _ = train(config, records[:2000], records[2000:2400], schema)
    for got, want in zip(from_rows.parameters(), from_log.parameters()):
        assert got.value.tobytes() == want.value.tobytes()
    assert evaluate(from_rows, rows).entries == evaluate(from_log, records[:2000]).entries
    # A slice is a log of its own; its rows do not join the parent's.
    with pytest.raises(ValueError, match="different logs"):
        train(config, rows[:10] + [records[:3000][5]], rows[10:20], schema)


def test_train_is_deterministic(sim_data):
    records, schema, _ = sim_data
    config = _small_config(epochs=2)
    params_a, hist_a = train(config, records[:2000], records[2000:2400], schema)
    params_b, hist_b = train(config, records[:2000], records[2000:2400], schema)
    assert len(hist_a.epochs) == len(hist_b.epochs) == 2
    for ra, rb in zip(hist_a.epochs, hist_b.epochs):
        assert ra.train_terms == rb.train_terms
        assert ra.val_ctcvr_auc == rb.val_ctcvr_auc
    for pa, pb in zip(params_a.parameters(), params_b.parameters()):
        assert pa.value.tobytes() == pb.value.tobytes()


def test_train_builds_the_parameter_list_once(sim_data, monkeypatch):
    records, schema, _ = sim_data
    calls = []
    named = ModelParams.named_parameters
    monkeypatch.setattr(ModelParams, "named_parameters", lambda self: calls.append(1) or named(self))
    train(_small_config(epochs=2), records[:2000], records[2000:2400], schema)
    assert len(calls) == 1


def _perfbench_spans(monkeypatch):
    """``perfbench/spans.py``, loaded as it is from the checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_training_steps_keep_the_benchmark_contract(sim_data, monkeypatch):
    # The benchmark's traced runs wrap trainer.training_step, reading its
    # ``method`` argument and counting the nodes it reaches from the
    # bundle's total through ``parents``, and wrap the step's parts under
    # the module names the step looks them up by. A step that breaks this
    # fails or silently drops out of every traced run.
    records, schema, _ = sim_data
    spans = _perfbench_spans(monkeypatch)
    recorder = spans.Recorder()
    with spans.Tracing(recorder):
        train(_small_config(epochs=1), records[:3000], records[3000:3400], schema)
    steps = [s for s in recorder.spans if s.name == "objectives.training_step"]
    assert len(steps) == 6  # 3000 training rows in batches of 512
    assert all(s.attrs["method"] == "chorus" and s.attrs["graph_nodes"] >= 1 for s in steps)
    parts = ("model.predict_batch", "objectives.compose_method_loss", "autodiff.backward", "autodiff.optimizer_step")
    for name in parts:
        assert sum(s.name == name for s in recorder.spans) == len(steps), name


def test_train_loss_decreases(sim_data):
    records, schema, _ = sim_data
    config = _small_config(epochs=4)
    _, history = train(config, records[:8000], records[8000:9000], schema)
    first = history.epochs[0].train_terms["total"]
    last = history.epochs[-1].train_terms["total"]
    assert last < first


def test_history_records_every_active_term(sim_data):
    records, schema, _ = sim_data
    _, history = train(_small_config(epochs=1), records[:2000], records[2000:2400], schema)
    terms = history.epochs[0].train_terms
    for name in ("ctr", "ctcvr", "cvr_ipw", "ctuncvr", "uncvr_ipw", "align_ipw", "total"):
        assert name in terms
        assert np.isfinite(terms[name])
    assert history.epochs[0].steps_s > 0.0
    assert history.epochs[0].val_s > 0.0
    assert history.build_s > 0.0


def test_frozen_model_stops_after_patience(sim_data):
    records, schema, _ = sim_data
    # a vanishing learning rate keeps the score ordering fixed, so the
    # validation AUC never improves after the first epoch
    config = _small_config(
        epochs=8,
        patience=1,
        optimizer=OptimizerConfig(learning_rate=1e-12),
    )
    _, history = train(config, records[:2000], records[2000:2400], schema)
    assert len(history.epochs) == 2
    assert history.best_epoch == 1


def test_best_epoch_params_returned(sim_data):
    records, schema, _ = sim_data
    config = _small_config(
        epochs=3,
        patience=5,
        optimizer=OptimizerConfig(learning_rate=1e-12),
    )
    params, history = train(config, records[:2000], records[2000:2400], schema)
    assert history.best_epoch == 1
    # epoch 1 under a vanishing learning rate is the initial model up to
    # updates far below float visibility in the stored values
    fresh = init_model(schema, config.arch, config.seed)
    for got, want in zip(params.parameters(), fresh.parameters()):
        assert np.allclose(got.value, want.value, atol=1e-9)


def test_default_pairs_depend_on_truth(sim_data):
    records, schema, _ = sim_data
    assert default_eval_pairs(records) == OBSERVED_PAIRS + COUNTERFACTUAL_PAIRS
    assert default_eval_pairs(_strip(records[:50])) == OBSERVED_PAIRS


def test_evaluate_covers_requested_pairs(sim_data):
    records, schema, _ = sim_data
    params = init_model(schema, ARCH, seed=0)
    report = evaluate(params, records[:3000])
    assert set(report.entries) == set(OBSERVED_PAIRS + COUNTERFACTUAL_PAIRS)
    n_click = int(records.click[:3000].sum())
    assert report.entries[("exposure", "ctr")].count == 3000
    assert report.entries[("click", "cvr")].count == n_click
    assert report.entries[("unclick", "cvr_counterfactual")].count == 3000 - n_click
    assert report.curve is not None
    assert report.curve_actual_is_proxy is False
    assert sum(b.count for b in report.curve) == 3000


def test_evaluate_constant_model_scores_half_auc(sim_data):
    records, schema, _ = sim_data
    params = init_model(schema, ARCH, seed=0)
    for tensor in params.parameters():
        tensor.value[...] = 0.0
    report = evaluate(params, records[:2000])
    entry = report.entries[("exposure", "ctr")]
    assert entry.auc == pytest.approx(0.5, abs=1e-12)
    click_rate = np.mean(records.click[:2000])
    assert entry.pcoc == pytest.approx(0.5 / click_rate, rel=1e-9)


def test_evaluate_proxy_curve_without_truth(sim_data):
    records, schema, _ = sim_data
    params = init_model(schema, ARCH, seed=0)
    stripped = _strip(records[:2000])
    report = evaluate(params, stripped)
    assert report.curve_actual_is_proxy is True
    n_click = int(stripped.click.sum())
    assert sum(b.count for b in report.curve) == n_click


def test_evaluate_rejects_empty_records(sim_data):
    _, schema, _ = sim_data
    params = init_model(schema, ARCH, seed=0)
    with pytest.raises(UndefinedMetricError):
        evaluate(params, [])


def test_write_history_layout(tmp_path, sim_data):
    records, schema, _ = sim_data
    _, history = train(_small_config(epochs=2), records[:1500], records[1500:1800], schema)
    path = tmp_path / "history.csv"
    write_history(history, path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "epoch"
    assert header[-2:] == ["val_ctcvr_auc", "is_best"]
    assert "wall_clock_s" not in header
    assert "total" in header
    assert len(lines) == 3
    best_flags = [line.split(",")[-1] for line in lines[1:]]
    assert best_flags.count("1") == 1
    assert best_flags[history.best_epoch - 1] == "1"
    # values round-trip through repr
    total_col = header.index("total")
    val = float(lines[1].split(",")[total_col])
    assert val == history.epochs[0].train_terms["total"]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(method="unknown")
    with pytest.raises(ValueError):
        ExperimentConfig(batch_size=0)
    with pytest.raises(ValueError):
        ExperimentConfig(epochs=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(patience=0)
