"""Funnel simulator: calibration, determinism, selection bias, spaces."""

import numpy as np
import pytest

from choruscvr import simulator
from choruscvr.features import build_schema
from choruscvr.simulator import SimConfig, SimulationError, generate, sim_schema, space_stats

from oracles import bisected_intercepts, log_of


@pytest.fixture(scope="module")
def default_100k():
    return generate(SimConfig(n_exposures=100_000, seed=20))


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_exposures=0)
    with pytest.raises(ValueError):
        SimConfig(target_click_rate=0.0)
    with pytest.raises(ValueError):
        SimConfig(target_conv_rate_given_click=1.0)
    with pytest.raises(ValueError):
        SimConfig(correlation=1.5)
    with pytest.raises(ValueError):
        SimConfig(feature_bins=1)
    with pytest.raises(ValueError):
        SimConfig(noise_scale=-0.1)


def test_low_latent_dim_needs_full_correlation():
    with pytest.raises(SimulationError):
        generate(SimConfig(n_exposures=10, latent_dim=1, correlation=0.5))
    records, _ = generate(SimConfig(n_exposures=10, latent_dim=1, correlation=1.0))
    assert len(records) == 10


# Calibration depends on every field but ``n_exposures``, so one row each.
CALIBRATION_GRID = {
    "default": {},
    "latent_dim_4": {"latent_dim": 4},
    "click_rate_0.02": {"target_click_rate": 0.02},
    "correlation_0.95": {"correlation": 0.95},
}


def _intercepts(config):
    _, report = generate(config)
    return report.click_intercept, report.conv_intercept


@pytest.mark.parametrize("overrides", CALIBRATION_GRID.values(), ids=CALIBRATION_GRID.keys())
def test_intercepts_are_the_bisections_bits(overrides):
    for seed in range(100):
        config = SimConfig(n_exposures=1, seed=seed, **overrides)
        assert _intercepts(config) == bisected_intercepts(config), seed


def test_one_dim_high_conversion_intercepts_are_the_bisections_bits():
    # The conversion rate near 0.9 stays flat across many ulps of its
    # intercept, and one latent dimension makes both scores one direction.
    for seed in range(20):
        config = SimConfig(n_exposures=1, latent_dim=1, correlation=1.0, target_conv_rate_given_click=0.9, seed=seed)
        assert _intercepts(config) == bisected_intercepts(config), seed


def test_protocol_calibration_needs_at_most_20_rate_passes(monkeypatch):
    passes = []
    calibrate = simulator._calibrate_intercept

    def counting(rate_fn, *args):
        def counted(b):
            passes.append(b)
            return rate_fn(b)

        return calibrate(counted, *args)

    monkeypatch.setattr(simulator, "_calibrate_intercept", counting)
    for seed in range(5):  # the acceptance protocol's five seeds
        passes.clear()
        generate(SimConfig(n_exposures=1, seed=seed))
        assert len(passes) <= 20, (seed, len(passes))


def test_unreachable_click_rate_fails_as_the_bisection_does():
    config = SimConfig(n_exposures=1, target_click_rate=1e-15)
    with pytest.raises(SimulationError) as expected:
        bisected_intercepts(config)
    with pytest.raises(SimulationError) as got:
        generate(config)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("click rate calibration failed after 60 iterations")


def test_funnel_consistency(default_100k):
    records, _ = default_100k
    assert np.array_equal(records.conversion, records.click * records.r_counterfactual)
    assert np.all(records.conversion <= records.click)


def test_seed_determinism():
    a, _ = generate(SimConfig(n_exposures=3000, seed=5))
    b, _ = generate(SimConfig(n_exposures=3000, seed=5))
    assert a == b
    c, _ = generate(SimConfig(n_exposures=3000, seed=6))
    assert a != c


def test_click_rate_calibrated_at_200k():
    _, report = generate(SimConfig(n_exposures=200_000, seed=1))
    assert 0.09 <= report.click_rate <= 0.11
    assert 0.18 <= report.conv_rate_given_click <= 0.22


def test_zero_correlation_decouples_propensities():
    log, _ = generate(SimConfig(n_exposures=100_000, correlation=0.0, seed=9))
    rho = np.corrcoef(log.true_p_click, log.true_p_conv)[0, 1]
    assert abs(rho) < 0.05


def test_selection_bias_exists_at_default_correlation(default_100k):
    records, report = default_100k
    assert report.mean_p_conv_clicked > report.mean_p_conv_unclicked
    # recompute from the log's columns to cross-check the report
    p_conv, o = records.true_p_conv, records.click
    assert p_conv[o == 1].mean() - p_conv[o == 0].mean() > 0.05


def test_true_probabilities_inside_open_interval(default_100k):
    records, _ = default_100k
    p_click, p_conv = records.true_p_click, records.true_p_conv
    assert np.all((p_click > 0) & (p_click < 1))
    assert np.all((p_conv > 0) & (p_conv < 1))


def test_features_are_bin_indices(default_100k):
    records, _ = default_100k
    cfg = SimConfig(n_exposures=100_000, seed=20)
    assert records.id_names == tuple(f"f{d}" for d in range(cfg.latent_dim))
    assert records.numeric_names == ()
    assert records.ids.dtype == np.int64
    assert np.all((records.ids >= 0) & (records.ids <= cfg.feature_bins - 1))


def test_sample_ids_sequential(default_100k):
    records, _ = default_100k
    assert np.array_equal(records.sample_id, np.arange(len(records)))


def test_sim_schema_matches_feature_columns():
    cfg = SimConfig(n_exposures=10, latent_dim=3, feature_bins=8)
    schema = sim_schema(cfg, embed_width=4)
    assert [f.name for f in schema.features] == ["f0", "f1", "f2"]
    assert all(f.vocab_size == 8 and f.embed_width == 4 for f in schema.features)
    assert schema.input_width == 12


def _log(rows):
    _, click, conversion = zip(*rows)
    return log_of([{}] * len(rows), build_schema([]), click=click, conversion=conversion)


def test_space_stats_counting():
    stats = space_stats(_log([(i, 1, 0) for i in range(3)] + [(3, 1, 1)] + [(i, 0, 0) for i in range(4, 10)]))
    assert stats.n_exposure == 10
    assert stats.n_click == 4
    assert stats.n_unclick == 6
    assert stats.n_conv == 1
    assert stats.n_unconv == 3
    assert stats.n_click + stats.n_unclick == stats.n_exposure
    assert stats.n_conv + stats.n_unconv == stats.n_click


def test_space_stats_all_unclicked():
    stats = space_stats(_log([(i, 0, 0) for i in range(5)]))
    assert stats.n_click == 0
    assert stats.n_conv == 0
    assert stats.n_unconv == 0


def test_space_stats_matches_generation_report(default_100k):
    records, report = default_100k
    stats = space_stats(records)
    assert stats.click_rate == pytest.approx(report.click_rate)
    assert stats.conv_rate_given_click == pytest.approx(report.conv_rate_given_click)
    assert 0.09 <= stats.click_rate <= 0.11
    assert 0.17 <= stats.conv_rate_given_click <= 0.23
