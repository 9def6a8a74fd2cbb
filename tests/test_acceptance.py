"""Acceptance suite: one verdict line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see every
``[PASS]``/``[FAIL]`` line as it happens. Criteria 1-5 and 8 are
numerical and finish in seconds to a couple of minutes; criteria 6 and 7
share one six-method, five-seed comparison on a 200k-exposure simulated
log (the slow part, a few minutes).

The finite-difference checks differentiate the same function the
backward differentiates: quantities it detaches (propensity weights,
soft labels) are frozen at the unperturbed point before stepping.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
import yaml

from choruscvr import cli
from choruscvr.data import write_log
from choruscvr.features import build_matrix, build_schema, encode_matrix
from choruscvr.metrics import auc, logloss, pcoc
from choruscvr.model import (
    Architecture,
    TowerOutputs,
    backward,
    init_model,
    predict_batch,
)
from choruscvr.objectives import TERMS, IpwConfig, LossWeights, compose_method_loss
from choruscvr.simulator import SimConfig, generate, sim_schema

from oracles import ipw_mean, log_of


def _verdict(tag: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    return ok


# -- criterion 1: frozen loss and metric oracles --------------------------------

ORACLE_TOL = 1e-9


def _terms(ctr, o, r, cvr=None, uncvr=None) -> dict[str, float]:
    """chorus's term values on pinned heads; cvr and uncvr default to 0.5."""
    half = np.full(len(ctr), 0.5)
    heads = [np.asarray(v, dtype=np.float64) for v in (ctr, half if cvr is None else cvr, half if uncvr is None else uncvr)]
    o, r = np.asarray(o, dtype=np.float64), np.asarray(r, dtype=np.float64)
    return compose_method_loss("chorus", TowerOutputs(*heads), o, r, LossWeights(), IpwConfig()).terms


def test_criterion_1_loss_and_metric_oracles():
    four = np.array([0.2, 0.7, 0.5, 0.9])
    labels4 = np.array([0.0, 1.0, 0.0, 1.0])
    # one click at p_click 0.5 (weight 2), cvr 0.7 and uncvr 0.4: cvr
    # against the soft label 0.6, plus uncvr against 0.3
    align = -2.0 * (0.6 * math.log(0.7) + 0.4 * math.log(0.3) + 0.3 * math.log(0.4) + 0.7 * math.log(0.6))
    checks = [
        (
            "bce(0.9, 1)",
            _terms([0.9], [1.0], [0.0])["ctr"],
            0.10536051565782628,
        ),
        (
            "click loss, 4 samples",
            _terms(four, labels4, np.zeros(4))["ctr"],
            0.3445815478676785,
        ),
        (
            "click-and-convert loss, product 0.25 vs label 1",
            _terms([0.5], [1.0], [1.0])["ctcvr"],
            1.3862943611198906,
        ),
        (
            "propensity-weighted conversion loss, weight 4",
            _terms([0.25], [1.0], [1.0])["cvr_ipw"],
            2.772588722239781,
        ),
        (
            "click-and-not-convert loss, product 0.25 vs label 1",
            _terms([0.5], [1.0], [0.0])["ctuncvr"],
            1.3862943611198906,
        ),
        (
            "propensity-weighted un-conversion loss, weight 2",
            _terms([0.5], [1.0], [0.0])["uncvr_ipw"],
            1.3862943611198906,
        ),
        (
            "alignment term, soft labels 0.6 and 0.3, weight 2",
            _terms([0.5], [1.0], [1.0], cvr=[0.7], uncvr=[0.4])["align_ipw"],
            align,
        ),
        (
            "auc with a mid-rank positive",
            auc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0.0, 0.0, 1.0, 1.0])),
            0.75,
        ),
        (
            "logloss, 4 samples",
            logloss(four, labels4),
            0.3445815478676785,
        ),
        (
            "pcoc, mean 0.3 over rate 0.5",
            pcoc(np.array([0.2, 0.4]), np.array([0.0, 1.0])),
            0.6,
        ),
    ]
    errs = [abs(got - want) for _, got, want in checks]
    failed = [name for (name, _, _), e in zip(checks, errs) if not e <= ORACLE_TOL]
    detail = f"{len(checks)} pinned scalars, max abs error {max(errs):.3e} (tol {ORACLE_TOL:.0e})"
    if failed:
        detail += f"; failed: {failed}"
    assert _verdict("criterion 1 (loss and metric oracles)", not failed, detail), detail


# -- criteria 2 and 3: gradients ------------------------------------------------

GRAD_SCHEMA = build_schema(
    [
        {"name": "u", "kind": "categorical", "side": "user", "vocab_size": 5, "embed_width": 3},
        {"name": "i", "kind": "categorical", "side": "item", "vocab_size": 5, "embed_width": 3},
        {"name": "x", "kind": "numeric", "side": "cross"},
    ],
)
GRAD_ARCH = Architecture(encoder_widths=(), tower_widths=(8, 4))
GRAD_BATCH = 20
GRAD_DRAWS = 15
FD_STEP = 1e-5
FD_REL_TOL = 1e-4
# A single FD_STEP parameter step moves any pre-activation by at most a
# few 1e-5 (inputs are O(1)), so a 1e-4 gap keeps every relu on one side.
# Exact zeros do occur: a sample whose first layer is fully dead lands
# on the second layer's kink exactly (biases start at zero).
KINK_GAP = 1e-4
TERM_NAMES = ("ctr", "ctcvr", "cvr_ipw", "ctuncvr", "uncvr_ipw", "align_ipw", "combined")


def _matrix(rows, schema):
    """Feature rows into model-input columns, through a log."""
    return build_matrix(log_of(rows, schema), schema)


def _draw_case(seed: int):
    rng = np.random.default_rng(seed)
    params = init_model(GRAD_SCHEMA, GRAD_ARCH, seed=seed + 1)
    feats = [
        {"u": int(rng.integers(0, 5)), "i": int(rng.integers(0, 5)), "x": float(rng.normal())}
        for _ in range(GRAD_BATCH)
    ]
    o = (rng.random(GRAD_BATCH) < 0.5).astype(np.float64)
    r = o * (rng.random(GRAD_BATCH) < 0.5).astype(np.float64)
    o[0], r[0] = 0.0, 0.0
    o[1], r[1] = 1.0, 1.0
    o[2], r[2] = 1.0, 0.0
    fm = _matrix(feats, GRAD_SCHEMA)
    return params, fm, o, r


def _scores(params, fm) -> dict[str, np.ndarray]:
    return predict_batch(params, fm).values()


def _activation_gap(params, fm) -> float:
    """Distance of the nearest pre-activation to a relu kink, and of the
    click head to the propensity floor. Central differences are only
    trustworthy when every such gap dwarfs the step."""
    h = encode_matrix(fm, params.schema, params.tables)
    gap = np.inf
    for w, b in params.encoder:
        z = h @ w.value + b.value
        gap = min(gap, float(np.min(np.abs(z))))
        h = np.maximum(z, 0.0)
    for tower in params.towers:
        t = h
        layers = params.towers[tower]
        for w, b in layers[:-1]:
            z = t @ w.value + b.value
            gap = min(gap, float(np.min(np.abs(z))))
            t = np.maximum(z, 0.0)
    p_click = _scores(params, fm)["ctr"]
    floor = IpwConfig().floor
    gap = min(gap, float(np.min(np.abs(p_click - floor))))
    gap = min(gap, float(np.min(np.abs((1.0 - p_click) - floor))))
    return gap


def _draw_clean_case(k: int):
    seed = 1000 * (k + 1)
    for _ in range(200):
        params, fm, o, r = _draw_case(seed)
        if _activation_gap(params, fm) > KINK_GAP:
            return params, fm, o, r
        seed += 1
    raise AssertionError("no draw clear of relu kinks after 200 attempts")


def _frozen_detached(base_vals) -> dict[str, np.ndarray]:
    """Propensity weights and soft labels pinned at the base point, the
    same constants the graph's detach and stop-gradient produce."""
    floor = IpwConfig().floor
    return {
        "w_click": 1.0 / np.maximum(base_vals["ctr"], floor),
        "w_unclick": 1.0 / np.maximum(1.0 - base_vals["ctr"], floor),
        "label_from_uncvr": np.clip(1.0 - base_vals["uncvr"], 1e-6, 1.0 - 1e-6),
        "label_from_cvr": np.clip(1.0 - base_vals["cvr"], 1e-6, 1.0 - 1e-6),
    }


def _np_terms(vals, o, r, frozen) -> dict[str, float]:
    """Graph-free mirror of every loss term, detached quantities frozen."""

    def ew_bce(p, y):
        return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))

    def space_mean(per, mask, weights):
        count = mask.sum()
        if count == 0.0:
            return 0.0
        return float((per * weights * mask).sum() / count)

    terms = {
        "ctr": float(ew_bce(vals["ctr"], o).mean()),
        "ctcvr": float(ew_bce(vals["ctcvr"], o * r).mean()),
        "cvr_ipw": space_mean(ew_bce(vals["cvr"], r), o, frozen["w_click"]),
        "ctuncvr": float(ew_bce(vals["ctuncvr"], o * (1.0 - r)).mean()),
        "uncvr_ipw": space_mean(ew_bce(vals["uncvr"], 1.0 - r), o, frozen["w_click"]),
    }
    terms["align_ipw"] = (
        space_mean(ew_bce(vals["cvr"], frozen["label_from_uncvr"]), o, frozen["w_click"])
        + space_mean(ew_bce(vals["uncvr"], frozen["label_from_cvr"]), o, frozen["w_click"])
        + space_mean(ew_bce(vals["cvr"], frozen["label_from_uncvr"]), 1.0 - o, frozen["w_unclick"])
        + space_mean(ew_bce(vals["uncvr"], frozen["label_from_cvr"]), 1.0 - o, frozen["w_unclick"])
    )
    terms["combined"] = sum(terms[name] for name in TERM_NAMES[:-1])
    return terms


def _graph_terms(outputs, o, r):
    """Each base term alone (weight 1, the others 0), then chorus's total:
    one bundle each."""
    ipw = IpwConfig()
    alone = {name: LossWeights(*(float(t == name) for t in TERMS)) for name in TERM_NAMES[:-1]}
    alone["combined"] = LossWeights()
    return {name: compose_method_loss("chorus", outputs, o, r, w, ipw) for name, w in alone.items()}


def _analytic_vector(bundle, outputs, params) -> np.ndarray:
    grads = backward(params, outputs, bundle.head_grads, params.parameters())
    return np.concatenate([g.ravel() for g in grads])


def _fd_vectors(params, fm, o, r, frozen) -> dict[str, np.ndarray]:
    out = {name: [] for name in TERM_NAMES}
    for p in params.parameters():
        fd = {name: np.empty(p.value.size) for name in TERM_NAMES}
        for j in range(p.value.size):
            idx = np.unravel_index(j, p.value.shape)
            orig = p.value[idx]
            p.value[idx] = orig + FD_STEP
            hi = _np_terms(_scores(params, fm), o, r, frozen)
            p.value[idx] = orig - FD_STEP
            lo = _np_terms(_scores(params, fm), o, r, frozen)
            p.value[idx] = orig
            for name in TERM_NAMES:
                fd[name][j] = (hi[name] - lo[name]) / (2.0 * FD_STEP)
        for name in TERM_NAMES:
            out[name].append(fd[name])
    return {name: np.concatenate(v) for name, v in out.items()}


def _max_rel_err(a: np.ndarray, f: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
    return float(np.max(np.abs(a - f) / denom))


def test_criterion_2_gradients_match_central_differences():
    start = time.perf_counter()
    worst = 0.0
    n_configs = 0
    for k in range(GRAD_DRAWS):
        params, fm, o, r = _draw_clean_case(k)
        base_vals = _scores(params, fm)
        frozen = _frozen_detached(base_vals)
        outputs = predict_batch(params, fm)
        graph = _graph_terms(outputs, o, r)
        mirror = _np_terms(base_vals, o, r, frozen)
        for name in TERM_NAMES:
            assert abs(graph[name].total.item() - mirror[name]) <= 1e-12, (
                f"graph and mirror disagree at the base point for {name}"
            )
        fd = _fd_vectors(params, fm, o, r, frozen)
        for name in TERM_NAMES:
            worst = max(worst, _max_rel_err(_analytic_vector(graph[name], outputs, params), fd[name]))
            n_configs += 1
    elapsed = time.perf_counter() - start
    ok = worst <= FD_REL_TOL and n_configs >= 100 and elapsed < 120.0
    detail = (
        f"{n_configs} (draw, term) configurations, step {FD_STEP:.0e}, "
        f"max relative error {worst:.3e} (tol {FD_REL_TOL:.0e}), {elapsed:.1f}s (budget 120s)"
    )
    assert _verdict("criterion 2 (analytic vs central differences)", ok, detail), detail


def test_criterion_3_stop_gradient_and_detached_propensity_exactness():
    params, fm, o, r = _draw_clean_case(40)
    tower_params = {
        tower: [p for name, p in params.named_parameters() if name.startswith(f"tower.{tower}.")]
        for tower in ("ctr", "cvr", "uncvr")
    }

    def all_exactly_zero(leaf, tower):
        return all(not np.any(leaf[p] != 0.0) for p in tower_params[tower])

    def any_nonzero(leaf, tower):
        return any(np.any(leaf[p] != 0.0) for p in tower_params[tower])

    outputs = predict_batch(params, fm)
    problems = []

    def step(method, weights, ipw=IpwConfig()):
        """Each parameter's gradient of ``method``'s objective."""
        bundle = compose_method_loss(method, outputs, o, r, weights, ipw)
        return dict(zip(params.parameters(), backward(params, outputs, bundle.head_grads, params.parameters())))

    def alone(name, ipw=IpwConfig()):
        return step("chorus", LossWeights(*(float(t == name) for t in TERMS)), ipw)

    # Where cvr + uncvr = 1 exactly, each alignment addend sits at the
    # minimum of its own head, so any gradient left would have come
    # through a soft label.
    pinned = TowerOutputs(*(np.array(v) for v in ([0.5, 0.5], [0.75, 0.375], [0.25, 0.625])))
    labels = np.array([1.0, 0.0]), np.zeros(2)
    bundle = compose_method_loss("chorus", pinned, *labels, LossWeights(0, 0, 0, 0, 0, 1), IpwConfig())
    for source in ("cvr", "uncvr"):
        if bundle.head_grads[source].tobytes() != np.zeros(2).tobytes():
            problems.append(f"the alignment term leaks gradient through the soft labels into {source}")
    leaf = alone("align_ipw")
    if not all_exactly_zero(leaf, "ctr"):
        problems.append("the alignment term leaks gradient into the click tower via detached weights")
    for target in ("cvr", "uncvr"):
        if not any_nonzero(leaf, target):
            problems.append(f"the alignment term passes no gradient to the {target} tower")

    # chorus_wo_ndm's own term alone: uncvr against the soft label 1 - cvr
    leaf = step("chorus_wo_ndm", LossWeights(*[0.0] * 6))
    if not (all_exactly_zero(leaf, "cvr") and all_exactly_zero(leaf, "ctr")):
        problems.append("the soft un-conversion term leaks gradient into its soft-label source (cvr) or ctr")
    if not any_nonzero(leaf, "uncvr"):
        problems.append("the soft un-conversion term passes no gradient to the uncvr tower")

    for tag, name in (("conversion", "cvr_ipw"), ("un-conversion", "uncvr_ipw")):
        if not all_exactly_zero(alone(name), "ctr"):
            problems.append(f"detached {tag} weights leak gradient into the click tower")
    if not any_nonzero(alone("cvr_ipw", ipw=IpwConfig(detach=False)), "ctr"):
        problems.append("non-detached weights fail to reach the click tower (check is vacuous)")

    ok = not problems
    detail = (
        "soft labels pass exact zeros to their sources (alignment at complementary heads, soft un-conversion "
        "term on the model) and detached alignment weights to the click tower; "
        "detached propensity weights pass exact zeros (non-detached variant passes nonzero)"
        if ok
        else "; ".join(problems)
    )
    assert _verdict("criterion 3 (stop-gradient exactness)", ok, detail), detail


# -- criterion 4: inverse-propensity estimates ----------------------------------


def test_criterion_4_ipw_recovers_population_means():
    rng = np.random.default_rng(2024)
    n = 100_000
    u = rng.random(n)
    p = 0.05 + 0.9 * u
    g = 0.5 * (u + np.cos(rng.normal(size=n)) ** 2)
    o = (rng.random(n) < p).astype(np.float64)
    population = float(g.mean())

    est_click = ipw_mean(g, o, p)
    se_click = float((o * g / np.maximum(p, 0.01)).std() / np.sqrt(n))
    est_unclick = ipw_mean(g, 1.0 - o, 1.0 - p)
    se_unclick = float(((1.0 - o) * g / np.maximum(1.0 - p, 0.01)).std() / np.sqrt(n))

    dev_click = abs(est_click - population) / se_click
    dev_unclick = abs(est_unclick - population) / se_unclick
    ok = dev_click <= 4.0 and dev_unclick <= 4.0
    detail = (
        f"population mean {population:.5f}; click-space estimate {est_click:.5f} "
        f"({dev_click:.2f} SE), un-click-space estimate {est_unclick:.5f} ({dev_unclick:.2f} SE); bound 4 SE"
    )
    assert _verdict("criterion 4 (IPW unbiasedness)", ok, detail), detail


# -- criterion 5: AUC vs pairwise brute force ------------------------------------


def _brute_force_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    pos = scores[labels == 1.0]
    neg = scores[labels == 0.0]
    greater = (pos[:, None] > neg[None, :]).sum()
    equal = (pos[:, None] == neg[None, :]).sum()
    return float((greater + 0.5 * equal) / (pos.size * neg.size))


def test_criterion_5_auc_matches_brute_force():
    rng = np.random.default_rng(99)
    worst = 0.0
    n_tied = 0
    for i in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        if labels.min() == labels.max():
            labels[0], labels[-1] = 0.0, 1.0
        if i % 2 == 0:
            scores = rng.normal(size=n)
        else:
            scores = rng.integers(0, 5, size=n).astype(np.float64) / 4.0
            n_tied += 1
        worst = max(worst, abs(auc(scores, labels) - _brute_force_auc(scores, labels)))
    ok = worst <= 1e-12
    detail = f"1000 arrays (n <= 200, {n_tied} heavily tied), max abs difference {worst:.3e} (tol 1e-12)"
    assert _verdict("criterion 5 (AUC brute-force equivalence)", ok, detail), detail


# -- criteria 6 and 7: the end-to-end comparison ---------------------------------
#
# One protocol feeds all four verdicts: six methods, five seeds, 200k
# exposures per seed at the default funnel rates, a narrow shared
# embedding with one hidden layer per tower, and a two-epoch budget.

PROTOCOL_YAML = """\
sim:
  n_exposures: 200000
  seed: 0
model:
  embed_width: 4
  encoder_widths: []
  tower_widths: [16]
trainer:
  method: chorus
  epochs: 2
  batch_size: 1024
  learning_rate: 0.001
  patience: 2
  seed: 0
"""
COMPARE_METHODS = ["esmm", "chorus", "escm2_ipw", "dcmt_lite", "chorus_wo_ndm", "chorus_wo_sam"]
COMPARE_SEEDS = [0, 1, 2, 3, 4]
COMPARE_BUDGET_S = 900.0


@pytest.fixture(scope="module")
def comparison(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_compare")
    cfg = yaml.safe_load(PROTOCOL_YAML)
    start = time.perf_counter()
    rows = cli.run_compare(cfg, PROTOCOL_YAML, out, methods=COMPARE_METHODS, seeds=COMPARE_SEEDS)
    wall = time.perf_counter() - start
    runs = {(row["method"], row["seed"]): row for row in rows if row["row_type"] == "run"}
    aggregates = {row["method"]: row for row in rows if row["row_type"] == "aggregate"}
    return {"runs": runs, "aggregates": aggregates, "wall": wall}


def _paired_mean(comparison, method_a: str, method_b: str, metric: str) -> tuple[float, int]:
    runs = comparison["runs"]
    diffs = [runs[(method_a, s)][metric] - runs[(method_b, s)][metric] for s in COMPARE_SEEDS]
    return float(np.mean(diffs)), sum(1 for d in diffs if d > 0)


def test_criterion_6a_entire_space_auc_beats_esmm(comparison):
    mean_diff, wins = _paired_mean(comparison, "chorus", "esmm", "cvr_auc_entire")
    wall = comparison["wall"]
    ok = mean_diff > 0.0 and wins >= 4 and wall < COMPARE_BUDGET_S
    detail = (
        f"entire-space counterfactual CVR-AUC vs esmm: paired mean {mean_diff:+.4f}, "
        f"wins {wins}/{len(COMPARE_SEEDS)}; comparison wall clock {wall:.0f}s (budget {COMPARE_BUDGET_S:.0f}s)"
    )
    assert _verdict("criterion 6a (entire-space ranking vs esmm)", ok, detail), detail


def test_criterion_6b_unclick_calibration_beats_escm2(comparison):
    aggregates = comparison["aggregates"]
    dist_chorus = abs(aggregates["chorus"]["pcoc_unclick"] - 1.0)
    dist_escm2 = abs(aggregates["escm2_ipw"]["pcoc_unclick"] - 1.0)
    ok = dist_chorus <= 0.8 * dist_escm2
    detail = (
        f"|mean un-click PCOC - 1|: chorus {dist_chorus:.4f} vs escm2_ipw {dist_escm2:.4f}, "
        f"ratio {dist_chorus / dist_escm2:.3f} (needs <= 0.8)"
    )
    assert _verdict("criterion 6b (un-click calibration vs escm2_ipw)", ok, detail), detail


def test_criterion_6c_low_propensity_bias_beats_dcmt(comparison):
    aggregates = comparison["aggregates"]
    bias_chorus = aggregates["chorus"]["low_bin_bias"]
    bias_dcmt = aggregates["dcmt_lite"]["low_bin_bias"]
    ok = bias_chorus < bias_dcmt
    detail = (
        f"lowest-pCTR-bin |mean_pred - mean_actual|, mean over seeds: "
        f"chorus {bias_chorus:.4f} vs dcmt_lite {bias_dcmt:.4f}"
    )
    assert _verdict("criterion 6c (low-propensity bin bias vs dcmt_lite)", ok, detail), detail


def test_criterion_7_ablations_do_not_beat_full_method(comparison):
    vs_ndm, _ = _paired_mean(comparison, "chorus", "chorus_wo_ndm", "cvr_auc_entire")
    vs_sam, _ = _paired_mean(comparison, "chorus", "chorus_wo_sam", "cvr_auc_entire")
    ok = vs_ndm >= 0.0 and vs_sam >= 0.0
    detail = (
        f"entire-space CVR-AUC paired mean: full vs no-discrimination {vs_ndm:+.4f}, "
        f"full vs no-alignment {vs_sam:+.4f} (both must be >= 0)"
    )
    assert _verdict("criterion 7 (ablation ordering)", ok, detail), detail


# -- criterion 8: byte determinism -----------------------------------------------

DETERMINISM_YAML = """\
sim:
  n_exposures: 4000
  seed: 3
model:
  embed_width: 4
  encoder_widths: []
  tower_widths: [8]
trainer:
  method: chorus
  dataset: {dataset}
  epochs: 2
  batch_size: 512
  learning_rate: 0.001
  patience: 2
  seed: 0
"""


def test_criterion_8_training_is_byte_deterministic(tmp_path):
    sim = SimConfig(n_exposures=4000, seed=3)
    records, _ = generate(sim)
    dataset = tmp_path / "log.csv"
    write_log(records, dataset, sim_schema(sim))

    text = DETERMINISM_YAML.format(dataset=dataset)
    cfg = yaml.safe_load(text)
    cli.run_train(cfg, text, tmp_path / "a")
    cli.run_train(cfg, text, tmp_path / "b")

    same_ckpt = (tmp_path / "a" / "checkpoint.bin").read_bytes() == (tmp_path / "b" / "checkpoint.bin").read_bytes()
    same_hist = (tmp_path / "a" / "history.csv").read_bytes() == (tmp_path / "b" / "history.csv").read_bytes()
    ok = same_ckpt and same_hist
    detail = (
        f"two identical train runs: checkpoint bytes equal = {same_ckpt}, history bytes equal = {same_hist}"
    )
    assert _verdict("criterion 8 (byte-identical reruns)", ok, detail), detail
