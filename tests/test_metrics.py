"""Ranking, logloss, calibration, and bias-curve metrics."""

import numpy as np
import pytest

from choruscvr.metrics import (
    BiasBin,
    MetricEntry,
    MetricsReport,
    UndefinedMetricError,
    auc,
    bias_curve,
    logloss,
    pcoc,
    write_report,
)


def _brute_force_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_auc_perfect_ranking():
    labels = np.array([0, 1, 0, 1, 1])
    assert auc(labels.astype(float), labels) == 1.0


def test_auc_constant_scores_half():
    assert auc(np.full(6, 0.37), np.array([0, 1, 0, 1, 1, 0])) == 0.5


def test_auc_four_point_oracle():
    # brute force by hand: 3 wins out of 4 positive-negative pairs
    val = auc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
    assert val == pytest.approx(0.75, abs=1e-12)


def test_auc_single_class_undefined():
    with pytest.raises(UndefinedMetricError):
        auc(np.array([0.1, 0.2]), np.array([1, 1]))
    with pytest.raises(UndefinedMetricError):
        auc(np.array([0.1, 0.2]), np.array([0, 0]))


def test_auc_handles_ties_as_half():
    val = auc(np.array([0.5, 0.5]), np.array([0, 1]))
    assert val == pytest.approx(0.5, abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    scores = rng.random(200)
    labels = rng.integers(0, 2, 200)
    labels[:2] = [0, 1]
    a = auc(scores, labels)
    b = auc(np.exp(5.0 * scores), labels)
    assert a == pytest.approx(b, abs=1e-12)


def test_auc_complement_without_ties():
    rng = np.random.default_rng(4)
    scores = rng.permutation(100) / 100.0
    labels = rng.integers(0, 2, 100)
    labels[:2] = [0, 1]
    assert auc(scores, labels) + auc(1.0 - scores, labels) == pytest.approx(1.0, abs=1e-12)


def test_auc_matches_brute_force_with_ties():
    # Both sides divide the same exact half-integer count by the same
    # product, so they agree bit for bit; -0.0 ties with 0.0.
    rng = np.random.default_rng(5)
    signed = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, np.inf])
    for draw in range(150):
        n = int(rng.integers(2, 120))
        if draw % 3 == 0:
            scores = rng.integers(0, 5, n) / 4.0  # heavy ties
        elif draw % 3 == 1:
            scores = rng.choice(signed, n)
        else:
            scores = rng.random(n)
        labels = rng.integers(0, 2, n)
        labels[0] = 0
        labels[-1] = 1
        assert auc(scores, labels) == _brute_force_auc(scores, labels)


def test_auc_of_a_nan_score_is_nan():
    scores = np.array([0.1, np.nan, 0.7, 0.3])
    assert np.isnan(auc(scores, np.array([0, 1, 1, 0])))


def test_logloss_half_scores():
    assert logloss(np.full(4, 0.5), np.array([1.0, 0.0, 1.0, 0.0])) == pytest.approx(
        0.6931471805599453, abs=1e-9
    )


def test_logloss_perfect_scores_near_zero():
    assert logloss(np.array([1.0, 0.0]), np.array([1.0, 0.0])) < 1e-6


def test_logloss_four_sample_oracle():
    # same plain-math mean as the click-loss oracle
    val = logloss(np.array([0.2, 0.7, 0.5, 0.9]), np.array([0.0, 1.0, 0.0, 1.0]))
    assert val == pytest.approx(0.3445815478676785, abs=1e-9)


def test_logloss_empty_undefined():
    with pytest.raises(UndefinedMetricError):
        logloss(np.array([]), np.array([]))


def test_pcoc_oracle():
    assert pcoc(np.array([0.2, 0.4]), np.array([0.0, 1.0])) == pytest.approx(0.6, abs=1e-9)


def test_pcoc_calibrated_constant():
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    assert pcoc(np.full(4, 0.5), labels) == pytest.approx(1.0, abs=1e-12)


def test_pcoc_linear_in_predictions():
    scores = np.array([0.1, 0.3])
    labels = np.array([1.0, 0.0])
    assert pcoc(2 * scores, labels) == pytest.approx(2 * pcoc(scores, labels), abs=1e-12)


def test_pcoc_zero_actual_undefined():
    with pytest.raises(UndefinedMetricError):
        pcoc(np.array([0.1]), np.array([0.0]))


def test_bias_curve_coincides_for_perfect_predictions():
    rng = np.random.default_rng(6)
    pctr = rng.random(50)
    actual = rng.random(50)
    for b in bias_curve(pctr, actual, actual, n_bins=5):
        assert b.mean_pred == pytest.approx(b.mean_actual, abs=1e-12)


def test_bias_curve_equal_count_bins_ordered():
    pctr = np.array([0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 0.6, 0.4, 0.5, 0.0])
    pcvr = np.arange(10) / 10.0
    actual = np.zeros(10)
    bins = bias_curve(pctr, pcvr, actual, n_bins=5)
    assert [b.count for b in bins] == [2, 2, 2, 2, 2]
    los = [b.bin_lo for b in bins]
    assert los == sorted(los)
    assert bins[0].bin_hi <= bins[1].bin_lo


def test_bias_curve_counts_differ_at_most_one():
    rng = np.random.default_rng(7)
    bins = bias_curve(rng.random(23), rng.random(23), rng.random(23), n_bins=10)
    counts = [b.count for b in bins]
    assert sum(counts) == 23
    assert max(counts) - min(counts) <= 1


def test_bias_curve_rejects_too_few_samples():
    with pytest.raises(ValueError):
        bias_curve(np.ones(3), np.ones(3), np.ones(3), n_bins=5)
    with pytest.raises(ValueError):
        bias_curve(np.ones(5), np.ones(5), np.ones(5), n_bins=1)


def test_write_report_round_trips_key_values(tmp_path):
    report = MetricsReport(
        entries={("exposure", "ctr"): MetricEntry(auc=0.75, logloss=0.3, pcoc=1.05, count=100)},
        curve=[BiasBin(0.0, 0.5, 0.2, 0.25, 50), BiasBin(0.5, 1.0, 0.3, 0.28, 50)],
        curve_actual_is_proxy=True,
    )
    txt = tmp_path / "metrics.txt"
    csv = tmp_path / "curve.csv"
    write_report(report, txt, csv)
    body = txt.read_text()
    assert "exposure.ctr.auc=0.75" in body
    assert "exposure.ctr.count=100" in body
    assert "curve.actual_is_proxy=1" in body
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,mean_pred,mean_actual,count"
    assert len(lines) == 3
    assert lines[1].endswith(",50")
