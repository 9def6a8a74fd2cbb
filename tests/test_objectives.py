"""Objective terms against plain-math oracles, plus estimator properties.

Frozen constants below were hand-computed with math.log outside the
package and pasted in; the library must reproduce them to 1e-9.
"""

import math

import numpy as np
import pytest

from choruscvr.autodiff import (
    OptimizerConfig,
    OptimizerState,
    Tensor,
    _accumulate,
    backward,
    mlp_forward,
    optimizer_step,
)
from choruscvr.data import label_arrays
from choruscvr.features import build_matrix, build_schema, encode_matrix
from choruscvr.model import PROB_CLAMP, TOWER_NAMES, Architecture, TowerOutputs, init_model, predict_batch
from choruscvr.objectives import (
    METHODS,
    TERMS,
    IpwConfig,
    LossWeights,
    ObjectiveError,
    align_terms,
    bce,
    compose_method_loss,
    ctuncvr_label,
    loss_align_ipw,
    loss_ctcvr,
    loss_ctr,
    loss_ctuncvr,
    loss_cvr_ipw,
    loss_uncvr_ipw,
    training_step,
)
from choruscvr.simulator import SimConfig, generate, sim_schema

from oracles import ipw_mean, log_of

TOL = 1e-9
IPW = IpwConfig()


def _outputs(ctr, cvr, uncvr) -> TowerOutputs:
    ctr_t = Tensor(np.asarray(ctr, dtype=np.float64))
    cvr_t = Tensor(np.asarray(cvr, dtype=np.float64))
    uncvr_t = Tensor(np.asarray(uncvr, dtype=np.float64))
    return TowerOutputs(ctr=ctr_t, cvr=cvr_t, uncvr=uncvr_t, ctcvr=ctr_t * cvr_t, ctuncvr=ctr_t * uncvr_t)


# -- bce -----------------------------------------------------------------------


def test_bce_half_on_positive():
    assert bce(Tensor(0.5), 1.0).item() == pytest.approx(0.6931471805599453, abs=TOL)


def test_bce_point_nine_oracle():
    assert bce(Tensor(0.9), 1.0).item() == pytest.approx(0.10536051565782628, abs=TOL)


def test_bce_minimized_at_soft_label():
    at = bce(Tensor(0.3), 0.3).item()
    assert bce(Tensor(0.31), 0.3).item() > at
    assert bce(Tensor(0.29), 0.3).item() > at


def test_bce_mirror_identity():
    rng = np.random.default_rng(0)
    q = rng.uniform(0.01, 0.99, 50)
    r = rng.integers(0, 2, 50).astype(np.float64)
    lhs = bce(Tensor(q), 1.0 - r).value
    rhs = bce(Tensor(1.0 - q), r).value
    assert np.allclose(lhs, rhs, atol=1e-12)


# -- per-term losses -----------------------------------------------------------


def test_loss_ctr_perfect_predictions_near_zero():
    out = _outputs([1.0 - 1e-7, 1e-7], [0.5, 0.5], [0.5, 0.5])
    assert loss_ctr(out, np.array([1.0, 0.0])).item() < 1e-6


def test_loss_ctr_uninformative_half():
    out = _outputs([0.5] * 4, [0.5] * 4, [0.5] * 4)
    assert loss_ctr(out, np.array([1.0, 0.0, 1.0, 0.0])).item() == pytest.approx(
        0.6931471805599453, abs=TOL
    )


def test_loss_ctr_four_sample_oracle():
    # hand mean of -ln(0.8), -ln(0.7), -ln(0.5), -ln(0.9)
    out = _outputs([0.2, 0.7, 0.5, 0.9], [0.5] * 4, [0.5] * 4)
    o = np.array([0.0, 1.0, 0.0, 1.0])
    assert loss_ctr(out, o).item() == pytest.approx(0.3445815478676785, abs=TOL)


def test_loss_ctr_empty_batch():
    out = _outputs([], [], [])
    with pytest.raises(ObjectiveError):
        loss_ctr(out, np.array([]))


def test_loss_ctcvr_quarter_product_oracle():
    out = _outputs([0.5], [0.5], [0.5])
    assert loss_ctcvr(out, np.array([1.0]), np.array([1.0])).item() == pytest.approx(
        1.3862943611198906, abs=TOL
    )


def test_loss_ctcvr_true_negative_near_zero():
    out = _outputs([1e-3], [1e-3], [0.5])
    assert loss_ctcvr(out, np.array([0.0]), np.array([0.0])).item() < 1e-5


def test_loss_ctcvr_clicked_unconverted_is_negative():
    out = _outputs([0.6], [0.4], [0.5])
    val = loss_ctcvr(out, np.array([1.0]), np.array([0.0])).item()
    assert val == pytest.approx(-math.log(1.0 - 0.24), abs=TOL)


def test_loss_cvr_ipw_single_sample_oracle():
    out = _outputs([0.25], [0.5], [0.5])
    val = loss_cvr_ipw(out, np.array([1.0]), np.array([1.0]), IPW)
    assert val.item() == pytest.approx(2.772588722239781, abs=TOL)


def test_loss_cvr_ipw_unit_propensity_is_plain_mean():
    out = _outputs([1.0 - 1e-7] * 3, [0.3, 0.6, 0.8], [0.5] * 3)
    o = np.ones(3)
    r = np.array([0.0, 1.0, 1.0])
    val = loss_cvr_ipw(out, o, r, IPW).item()
    plain = np.mean([-math.log(0.7), -math.log(0.6), -math.log(0.8)])
    assert val == pytest.approx(plain, abs=1e-6)  # propensity 1-1e-7, not exactly 1


def test_loss_cvr_ipw_weight_capped_at_floor():
    out = _outputs([0.001], [0.5], [0.5])
    val = loss_cvr_ipw(out, np.array([1.0]), np.array([1.0]), IPW).item()
    assert val == pytest.approx(-math.log(0.5) / 0.01, abs=TOL)


def test_loss_cvr_ipw_no_clicks_is_zero():
    out = _outputs([0.5, 0.5], [0.5, 0.5], [0.5, 0.5])
    assert loss_cvr_ipw(out, np.zeros(2), np.zeros(2), IPW).item() == 0.0


def test_ctuncvr_label_truth_table():
    o = np.array([1.0, 0.0, 1.0])
    r = np.array([0.0, 0.0, 1.0])
    assert ctuncvr_label(o, r).tolist() == [1.0, 0.0, 0.0]


def test_ctuncvr_label_rejects_funnel_violation():
    with pytest.raises(ObjectiveError, match="funnel"):
        ctuncvr_label(np.array([0.0]), np.array([1.0]))


def test_loss_ctuncvr_oracle():
    out = _outputs([0.5], [0.5], [0.5])
    val = loss_ctuncvr(out, np.array([1.0]), np.array([0.0])).item()
    assert val == pytest.approx(1.3862943611198906, abs=TOL)


def test_loss_ctuncvr_label_zero_cases():
    out = _outputs([0.3, 0.3], [0.5, 0.5], [0.2, 0.2])
    # (1,1) and (0,0) both give label 0: loss = -ln(1 - 0.06)
    val = loss_ctuncvr(out, np.array([1.0, 0.0]), np.array([1.0, 0.0])).item()
    assert val == pytest.approx(-math.log(1.0 - 0.06), abs=TOL)


def test_loss_uncvr_ipw_oracle():
    out = _outputs([0.5], [0.5], [0.5])
    val = loss_uncvr_ipw(out, np.array([1.0]), np.array([0.0]), IPW).item()
    assert val == pytest.approx(1.3862943611198906, abs=TOL)


def test_loss_uncvr_ipw_mirrors_cvr_ipw():
    rng = np.random.default_rng(4)
    n = 40
    ctr = rng.uniform(0.05, 0.95, n)
    q = rng.uniform(0.01, 0.99, n)
    o = rng.integers(0, 2, n).astype(np.float64)
    o[0] = 1.0
    r = (rng.integers(0, 2, n) * o).astype(np.float64)
    mirrored = _outputs(ctr, 1.0 - q, q)  # cvr := 1 - uncvr
    direct = _outputs(ctr, 0.5 * np.ones(n), q)
    lhs = loss_uncvr_ipw(direct, o, r, IPW).item()
    rhs = loss_cvr_ipw(mirrored, o, r, IPW).item()
    assert lhs == pytest.approx(rhs, abs=1e-12)


# -- alignment ------------------------------------------------------------------


def test_align_first_term_oracle():
    out = _outputs([0.5], [0.7], [0.4])
    t1, t2, t3, t4 = align_terms(out, np.array([1.0]), IPW)
    assert t1.item() == pytest.approx(1.391188176187228, abs=TOL)
    assert t2.item() == pytest.approx(1.26493031239688, abs=TOL)
    assert t3.item() == 0.0  # no un-clicked samples
    assert t4.item() == 0.0
    total = loss_align_ipw(out, np.array([1.0]), IPW)
    assert total.item() == pytest.approx(2.656118488584108, abs=TOL)


def test_align_label_symmetry_when_heads_sum_to_one():
    out = _outputs([0.4, 0.6], [0.3, 0.8], [0.7, 0.2])
    t1, t2, t3, t4 = align_terms(out, np.array([1.0, 0.0]), IPW)
    assert t1.item() == pytest.approx(t2.item(), abs=1e-12)
    assert t3.item() == pytest.approx(t4.item(), abs=1e-12)


def test_align_unclick_weights_use_complement_propensity():
    # one un-clicked sample with p_click = 0.8: weight = 1/0.2
    out = _outputs([0.8], [0.7], [0.4])
    t1, t2, t3, t4 = align_terms(out, np.array([0.0]), IPW)
    assert t1.item() == 0.0 and t2.item() == 0.0
    expected = -(0.6 * math.log(0.7) + 0.4 * math.log(0.3)) / 0.2
    assert t3.item() == pytest.approx(expected, abs=TOL)


def test_align_soft_labels_clamped():
    # uncvr so high the raw soft label 1-uncvr falls below 1e-6
    hi = 1.0 - 1e-7
    out = _outputs([0.5], [0.5], [hi])
    t1, _, _, _ = align_terms(out, np.array([1.0]), IPW)
    lbl = 1e-6  # clamped
    expected = -(lbl * math.log(0.5) + (1 - lbl) * math.log(0.5)) / 0.5
    assert t1.item() == pytest.approx(expected, abs=TOL)


def test_align_stop_gradient_per_term():
    out = _outputs([0.5, 0.5], [0.7, 0.6], [0.4, 0.3])
    o = np.array([1.0, 0.0])
    for i, blocked in enumerate(["uncvr", "cvr", "uncvr", "cvr"]):
        terms = align_terms(out, o, IPW)
        backward(terms[i])
        blocked_leaf = {"uncvr": out.uncvr, "cvr": out.cvr}[blocked]
        trained_leaf = {"uncvr": out.cvr, "cvr": out.uncvr}[blocked]
        assert np.all(blocked_leaf.grad == 0.0), f"term {i} leaks into sg({blocked})"
        assert np.any(trained_leaf.grad != 0.0), f"term {i} trains nothing"


def test_detached_propensity_blocks_ctr_gradient():
    out = _outputs([0.25, 0.7], [0.5, 0.5], [0.5, 0.5])
    o = np.array([1.0, 1.0])
    r = np.array([1.0, 0.0])
    backward(loss_cvr_ipw(out, o, r, IpwConfig(detach=True)))
    assert np.all(out.ctr.grad == 0.0)
    backward(loss_cvr_ipw(out, o, r, IpwConfig(detach=False)))
    assert np.any(out.ctr.grad != 0.0)


def test_attached_propensity_respects_clamp():
    out = _outputs([0.005], [0.5], [0.5])  # below the 0.01 floor
    backward(loss_cvr_ipw(out, np.array([1.0]), np.array([1.0]), IpwConfig(detach=False)))
    assert np.all(out.ctr.grad == 0.0)  # clamped branch has zero slope


# -- composition ----------------------------------------------------------------


def test_total_loss_additivity():
    out, o, r = _mixed_batch()
    bundle = compose_method_loss("chorus", out, o, r, LossWeights(ctr=0.0), IPW)
    parts = [
        loss_ctcvr(out, o, r),
        loss_cvr_ipw(out, o, r, IPW),
        loss_ctuncvr(out, o, r),
        loss_uncvr_ipw(out, o, r, IPW),
        loss_align_ipw(out, o, IPW),
    ]
    assert list(bundle.terms) == ["ctcvr", "cvr_ipw", "ctuncvr", "uncvr_ipw", "align_ipw"]
    assert bundle.total.item() == pytest.approx(sum(t.item() for t in parts), abs=1e-12)


def test_total_loss_zero_weight_excludes_gradient():
    # Every term that reads the un-conversion head is weighted out.
    out, o, r = _mixed_batch()
    weights = LossWeights(ctuncvr=0.0, uncvr_ipw=0.0, align=0.0)
    bundle = compose_method_loss("chorus", out, o, r, weights, IPW)
    assert list(bundle.terms) == ["ctr", "ctcvr", "cvr_ipw"]
    assert bundle.term_values()["align_ipw"] == 0.0
    backward(bundle.total)
    assert np.all(out.uncvr.grad == 0.0)
    assert np.any(out.cvr.grad != 0.0)


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        LossWeights(cvr_ipw=-0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_weight_rejected(value):
    with pytest.raises(ValueError, match="finite"):
        LossWeights(align=value)


def test_ipw_floor_validation():
    with pytest.raises(ValueError):
        IpwConfig(floor=0.0)
    with pytest.raises(ValueError):
        IpwConfig(floor=0.5)


def _mixed_batch(n=12, seed=5):
    rng = np.random.default_rng(seed)
    o = rng.integers(0, 2, n).astype(np.float64)
    o[:3] = [1.0, 1.0, 0.0]
    r = (o * rng.integers(0, 2, n)).astype(np.float64)
    r[0] = 1.0
    r[1] = 0.0
    out = _outputs(rng.uniform(0.1, 0.9, n), rng.uniform(0.1, 0.9, n), rng.uniform(0.1, 0.9, n))
    return out, o, r


def _total(method, out, o, r) -> float:
    return compose_method_loss(method, out, o, r, LossWeights(), IPW).total.item()


def test_esmm_total_is_sum_of_parts():
    out, o, r = _mixed_batch()
    total = _total("esmm", out, o, r)
    parts = loss_ctr(out, o).item() + loss_ctcvr(out, o, r).item()
    assert total == pytest.approx(parts, abs=1e-12)


def test_escm2_adds_ipw_term():
    out, o, r = _mixed_batch()
    esmm = _total("esmm", out, o, r)
    escm2 = _total("escm2_ipw", out, o, r)
    assert escm2 == pytest.approx(esmm + loss_cvr_ipw(out, o, r, IPW).item(), abs=1e-12)


def test_nise_self_distillation_is_entropy_at_fixed_point():
    # un-clicked sample with y_cvr = 0.3: bce(p, sg(p)) = H(p)
    out = _outputs([0.5], [0.3], [0.5])
    bundle = compose_method_loss("nise", out, np.array([0.0]), np.array([0.0]), LossWeights(), IPW)
    assert bundle.terms["cvr_self_distill"].item() == pytest.approx(0.6108643020548935, abs=TOL)


def test_dcmt_constraint_minimized_at_complementary_heads():
    # y_cvr + y_cf = 1 -> soft-label bce hits its minimum for that target
    at = compose_method_loss(
        "dcmt_lite", _outputs([0.5], [0.7], [0.3]), np.array([1.0]), np.array([1.0]), LossWeights(), IPW
    ).terms["cf_constraint"].item()
    off = compose_method_loss(
        "dcmt_lite", _outputs([0.5], [0.6], [0.3]), np.array([1.0]), np.array([1.0]), LossWeights(), IPW
    ).terms["cf_constraint"].item()
    assert at < off


def test_unknown_method_rejected():
    out, o, r = _mixed_batch()
    with pytest.raises(ObjectiveError, match="unknown"):
        compose_method_loss("dr_v2", out, o, r, LossWeights(), IPW)


def test_method_tags_cover_paper_set():
    assert set(METHODS) == {
        "chorus",
        "chorus_wo_ndm",
        "chorus_wo_sam",
        "esmm",
        "escm2_ipw",
        "nise",
        "dcmt_lite",
    }


def test_ablation_active_term_wiring():
    out, o, r = _mixed_batch()
    w = LossWeights()
    full = set(compose_method_loss("chorus", out, o, r, w, IPW).terms)
    wo_sam = set(compose_method_loss("chorus_wo_sam", out, o, r, w, IPW).terms)
    wo_ndm = set(compose_method_loss("chorus_wo_ndm", out, o, r, w, IPW).terms)
    assert full == {"ctr", "ctcvr", "cvr_ipw", "ctuncvr", "uncvr_ipw", "align_ipw"}
    assert full - wo_sam == {"align_ipw"}
    assert wo_sam - full == set()
    assert full - wo_ndm == {"ctuncvr", "uncvr_ipw"}
    assert wo_ndm - full == {"uncvr_soft"}


@pytest.mark.parametrize("method", ["esmm", "escm2_ipw", "nise", "dcmt_lite"])
def test_baselines_ignore_configured_weights(method):
    out, o, r = _mixed_batch()
    zeroed = LossWeights(ctr=0.0, ctcvr=0.0, cvr_ipw=0.0)
    expected = compose_method_loss(method, out, o, r, LossWeights(), IPW).term_values()
    assert compose_method_loss(method, out, o, r, zeroed, IPW).term_values() == expected


def test_term_values_keys_per_method():
    # These keys are the history.csv columns of each method.
    own = {
        "chorus": set(),
        "chorus_wo_ndm": {"uncvr_soft"},
        "chorus_wo_sam": set(),
        "esmm": set(),
        "escm2_ipw": set(),
        "nise": {"cvr_self_distill"},
        "dcmt_lite": {"cf_tower", "cf_constraint"},
    }
    assert set(own) == set(METHODS)
    out, o, r = _mixed_batch()
    for method, extra in own.items():
        keys = compose_method_loss(method, out, o, r, LossWeights(), IPW).term_values().keys()
        assert set(keys) == {*TERMS, *extra, "total"}, method


def test_wo_ndm_soft_uncvr_is_click_space_mean():
    out = _outputs([0.5, 0.5], [0.7, 0.9], [0.4, 0.4])
    o = np.array([1.0, 0.0])  # only the first sample is clicked
    bundle = compose_method_loss("chorus_wo_ndm", out, o, np.array([1.0, 0.0]), LossWeights(), IPW)
    expected = -(0.3 * math.log(0.4) + 0.7 * math.log(0.6))  # bce(0.4, 1-0.7), no IPW
    assert bundle.terms["uncvr_soft"].item() == pytest.approx(expected, abs=TOL)


def test_mask_completeness():
    _, o, r = _mixed_batch(n=50, seed=9)
    n_click = int(o.sum())
    n_unclick = int((1 - o).sum())
    assert n_click + n_unclick == 50
    n_conv = int((o * r).sum())
    n_unconv = int((o * (1 - r)).sum())
    assert n_conv + n_unconv == n_click


def test_compose_rejects_funnel_violation():
    out = _outputs([0.5], [0.5], [0.5])
    with pytest.raises(ObjectiveError, match="funnel"):
        compose_method_loss("chorus", out, np.array([0.0]), np.array([1.0]), LossWeights(), IPW)


# -- batched step ----------------------------------------------------------------

SCHEMA = build_schema(
    [
        {"name": "a", "kind": "categorical", "vocab_size": 4, "embed_width": 2},
        {"name": "x", "kind": "numeric"},
    ]
)
ARCH = Architecture(encoder_widths=(), tower_widths=(4,))


def _matrix(rows, schema):
    """Feature rows into model-input columns, through a log."""
    return build_matrix(log_of(rows, schema), schema)


def _fm(n, seed):
    rng = np.random.default_rng(seed)
    rows = [{"a": int(rng.integers(4)), "x": float(rng.normal())} for _ in range(n)]
    return _matrix(rows, SCHEMA)


def test_single_unclicked_sample_step():
    params = init_model(SCHEMA, ARCH, seed=0)
    bundle, grads = training_step(
        params, _fm(1, 1), np.array([0.0]), np.array([0.0]), "chorus", LossWeights(), IPW, params.parameters()
    )
    assert bundle.terms["cvr_ipw"].item() == 0.0
    assert bundle.terms["uncvr_ipw"].item() == 0.0
    out = predict_batch(params, _fm(1, 1))
    t1, t2, t3, t4 = align_terms(out, np.array([0.0]), IPW)
    assert bundle.terms["align_ipw"].item() == pytest.approx(t3.item() + t4.item(), abs=1e-12)
    assert t1.item() == 0.0 and t2.item() == 0.0


def test_single_converted_sample_step():
    params = init_model(SCHEMA, ARCH, seed=0)
    bundle, _ = training_step(
        params, _fm(1, 2), np.array([1.0]), np.array([1.0]), "chorus", LossWeights(), IPW, params.parameters()
    )
    assert bundle.terms["cvr_ipw"].item() > 0.0
    assert bundle.terms["uncvr_ipw"].item() > 0.0
    out = predict_batch(params, _fm(1, 2))
    _, _, t3, t4 = align_terms(out, np.array([1.0]), IPW)
    assert t3.item() == 0.0 and t4.item() == 0.0


def test_step_gradients_aligned_and_zero_for_unused_towers():
    params = init_model(SCHEMA, ARCH, seed=3)
    names = [n for n, _ in params.named_parameters()]
    o = np.array([1.0, 0.0, 1.0, 0.0])
    r = np.array([1.0, 0.0, 0.0, 0.0])
    _, grads = training_step(params, _fm(4, 3), o, r, "esmm", LossWeights(), IPW, params.parameters())
    assert len(grads) == len(names)
    for name, g in zip(names, grads):
        if name.startswith("tower.uncvr"):
            assert np.all(g == 0.0), f"{name} should be outside the esmm graph"
    _, grads_chorus = training_step(params, _fm(4, 3), o, r, "chorus", LossWeights(), IPW, params.parameters())
    uncvr_total = sum(np.abs(g).sum() for name, g in zip(names, grads_chorus) if name.startswith("tower.uncvr"))
    assert uncvr_total > 0.0


def test_step_gradients_survive_the_next_step():
    params = init_model(SCHEMA, ARCH, seed=5)
    o = np.array([1.0, 0.0, 1.0, 0.0])
    r = np.array([1.0, 0.0, 0.0, 0.0])
    _, first = training_step(params, _fm(4, 3), o, r, "chorus", LossWeights(), IPW, params.parameters())
    kept = [g.copy() for g in first]
    _, second = training_step(params, _fm(4, 4), o, r, "chorus", LossWeights(), IPW, params.parameters())
    assert all(np.array_equal(g, k) for g, k in zip(first, kept))
    assert not all(np.array_equal(g, k) for g, k in zip(second, kept))


def _graph_nodes(root: Tensor) -> int:
    """Nodes reachable from ``root`` through ``Tensor.parents``."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


def test_chorus_step_graph_has_at_most_48_nodes():
    # The acceptance protocol's model on one 1024-exposure batch: eight
    # simulated features, no shared encoder, [16] towers. Per-node Python
    # overhead is most of a step's cost, so the fused graph must not regrow.
    sim = SimConfig(n_exposures=1024, seed=0)
    log, _ = generate(sim)
    schema = sim_schema(sim, embed_width=4)
    params = init_model(schema, Architecture(encoder_widths=(), tower_widths=(16,)), seed=0)
    o, r = label_arrays(log)
    assert 0 < r.sum() < o.sum() < len(o)  # every term of the objective is live
    bundle, _ = training_step(
        params, build_matrix(log, schema), o, r, "chorus", LossWeights(), IPW, params.parameters()
    )
    assert tuple(bundle.terms) == TERMS
    assert _graph_nodes(bundle.total) <= 48


def _clip_column(x: Tensor, lo: float, hi: float) -> Tensor:
    """``clip(x, lo, hi)`` of an ``(n, 1)`` node as an ``(n,)`` node; the
    gradient passes only strictly inside ``[lo, hi]``."""
    out = Tensor(np.clip(x.value, lo, hi).reshape(-1), parents=(x,), op="clip")
    return out._attach(lambda g: _accumulate(x, g.reshape(-1, 1) * ((x.value > lo) & (x.value < hi))))


def _reference_outputs(params, fm) -> TowerOutputs:
    """The heads as each tower's own chain of dense nodes, then a clip."""
    x = encode_matrix(fm, params.schema, params.tables)
    h = mlp_forward(params.encoder, x, ["relu"] * len(params.encoder))
    heads = []
    for tower in TOWER_NAMES:
        layers = params.towers[tower]
        out = mlp_forward(layers, h, ["relu"] * (len(layers) - 1) + ["sigmoid"])
        heads.append(_clip_column(out, PROB_CLAMP, 1.0 - PROB_CLAMP))
    ctr, cvr, uncvr = heads
    return TowerOutputs(ctr=ctr, cvr=cvr, uncvr=uncvr, ctcvr=ctr * cvr, ctuncvr=ctr * uncvr)


@pytest.mark.parametrize(
    "arch",
    [Architecture(encoder_widths=(), tower_widths=(16,)), Architecture(encoder_widths=(8,), tower_widths=(16, 8))],
    ids=["protocol", "deep"],
)
@pytest.mark.parametrize("method", METHODS)
def test_training_steps_are_bitwise_equal_to_per_tower_reference_graph(method, arch):
    # The heads' gradients reach the tower node in a method-dependent order;
    # its input gradient must add them in that order, as the per-tower
    # chain does, and a head no loss reads must leave its tower at zero.
    sim = SimConfig(n_exposures=1024, seed=0)
    log, _ = generate(sim)
    schema = sim_schema(sim, embed_width=4)
    fm = build_matrix(log, schema)
    o, r = label_arrays(log)
    params = init_model(schema, arch, seed=0)
    reference = params.copy()
    config = OptimizerConfig()
    states = [OptimizerState.for_params(p.parameters()) for p in (params, reference)]
    for step in range(3):
        idx = np.arange(step * 256, (step + 1) * 256)
        batch = fm.rows(idx)
        bundle, grads = training_step(params, batch, o[idx], r[idx], method, LossWeights(), IPW, params.parameters())
        ref = compose_method_loss(method, _reference_outputs(reference, batch), o[idx], r[idx], LossWeights(), IPW)
        leaves = backward(ref.total)
        expected = [leaves[p] if p in leaves else np.zeros_like(p.value) for p in reference.parameters()]
        assert bundle.term_values() == ref.term_values()
        for (name, _), g, e in zip(params.named_parameters(), grads, expected):
            assert g.tobytes() == e.tobytes(), f"step {step}: {name}"
        optimizer_step(params.parameters(), grads, states[0], config)
        optimizer_step(reference.parameters(), expected, states[1], config)


# -- IPW estimator property -------------------------------------------------------


def test_ipw_mean_recovers_population_mean_quickly():
    rng = np.random.default_rng(11)
    n = 20_000
    p = rng.uniform(0.05, 0.95, n)
    g = np.sin(3.0 * rng.normal(size=n)) + 0.5
    o = (rng.random(n) < p).astype(np.float64)
    est = ipw_mean(g, o, p)
    pop = float(g.mean())
    se = float(np.std(o * g / p, ddof=1) / math.sqrt(n))
    assert abs(est - pop) <= 4.0 * se
