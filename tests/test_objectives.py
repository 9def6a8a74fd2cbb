"""Objective terms against plain-math oracles, plus estimator properties.

Frozen constants below were hand-computed with math.log outside the
package and pasted in; the library must reproduce them to 1e-9.
"""

import itertools
import math

import numpy as np
import pytest

from choruscvr.data import label_arrays
from choruscvr.features import build_matrix, build_schema
from choruscvr.model import TOWER_NAMES, Architecture, TowerOutputs, init_model, predict_batch
from choruscvr.objectives import (
    METHOD_TERMS,
    METHODS,
    TERMS,
    IpwConfig,
    LossWeights,
    ObjectiveError,
    compose_method_loss,
    ctuncvr_label,
    training_step,
)
from choruscvr.simulator import SimConfig, generate, sim_schema
from choruscvr.trainer import OptimizerConfig, OptimizerState, optimizer_step

from oracles import (
    assert_layout_equal,
    ipw_mean,
    leaf_grads,
    log_of,
    objective,
    reference_forward,
    reference_method_loss,
)

TOL = 1e-9
IPW = IpwConfig()
ATTACHED = IpwConfig(detach=False)


def _outputs(ctr, cvr, uncvr) -> TowerOutputs:
    """Heads pinned to the given values."""
    return TowerOutputs(*(np.asarray(v, dtype=np.float64) for v in (ctr, cvr, uncvr)))


def _term(name, out, o, r, ipw=IPW) -> float:
    """One term's value, from the first method whose row holds it."""
    method = next(m for m, row in METHOD_TERMS.items() if name in row)
    return compose_method_loss(method, out, np.asarray(o, float), np.asarray(r, float), LossWeights(), ipw).terms[name]


def _only(*names: str) -> LossWeights:
    """Weight 1 on the named base terms of the chorus family, 0 elsewhere."""
    return LossWeights(*(float(t in names) for t in TERMS))


def _head_grads(name, out, o, r, ipw=IPW) -> list[np.ndarray]:
    """The gradient of one base term on the ctr, cvr and uncvr heads;
    zeros on a head it does not reach."""
    bundle = compose_method_loss("chorus", out, np.asarray(o, float), np.asarray(r, float), _only(name), ipw)
    return [bundle.head_grads.get(h, np.zeros_like(getattr(out, h))) for h in TOWER_NAMES]


def _bce(p: float, y: float) -> float:
    return -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))


# -- binary cross-entropy, through the click term ---------------------------------


def test_bce_half_on_positive():
    assert _term("ctr", _outputs([0.5], [0.5], [0.5]), [1.0], [0.0]) == pytest.approx(0.6931471805599453, abs=TOL)


def test_bce_point_nine_oracle():
    assert _term("ctr", _outputs([0.9], [0.5], [0.5]), [1.0], [0.0]) == pytest.approx(0.10536051565782628, abs=TOL)


def test_bce_minimized_at_soft_label():
    # dcmt_lite's constraint: cvr against the soft label 1 - uncvr = 0.3
    def at(cvr):
        return _term("cf_constraint", _outputs([0.5], [cvr], [0.7]), [1.0], [1.0])

    assert at(0.31) > at(0.3) and at(0.29) > at(0.3)


def test_bce_mirror_identity():
    rng = np.random.default_rng(0)
    q = rng.uniform(0.01, 0.99, 50)
    r = rng.integers(0, 2, 50).astype(np.float64)
    for qi, ri in zip(q, r):
        lhs = _term("ctr", _outputs([qi], [0.5], [0.5]), [1.0 - ri], [0.0])
        rhs = _term("ctr", _outputs([1.0 - qi], [0.5], [0.5]), [ri], [0.0])
        assert lhs == pytest.approx(rhs, abs=1e-12)


# -- per-term losses -----------------------------------------------------------


def test_loss_ctr_perfect_predictions_near_zero():
    out = _outputs([1.0 - 1e-7, 1e-7], [0.5, 0.5], [0.5, 0.5])
    assert _term("ctr", out, [1.0, 0.0], [0.0, 0.0]) < 1e-6


def test_loss_ctr_uninformative_half():
    out = _outputs([0.5] * 4, [0.5] * 4, [0.5] * 4)
    assert _term("ctr", out, [1.0, 0.0, 1.0, 0.0], [0.0] * 4) == pytest.approx(0.6931471805599453, abs=TOL)


def test_loss_ctr_four_sample_oracle():
    # hand mean of -ln(0.8), -ln(0.7), -ln(0.5), -ln(0.9)
    out = _outputs([0.2, 0.7, 0.5, 0.9], [0.5] * 4, [0.5] * 4)
    assert _term("ctr", out, [0.0, 1.0, 0.0, 1.0], [0.0] * 4) == pytest.approx(0.3445815478676785, abs=TOL)


def test_loss_ctr_empty_batch():
    with pytest.raises(ObjectiveError, match="empty"):
        _term("ctr", _outputs([], [], []), [], [])


def test_loss_ctcvr_quarter_product_oracle():
    out = _outputs([0.5], [0.5], [0.5])
    assert _term("ctcvr", out, [1.0], [1.0]) == pytest.approx(1.3862943611198906, abs=TOL)


def test_loss_ctcvr_true_negative_near_zero():
    assert _term("ctcvr", _outputs([1e-3], [1e-3], [0.5]), [0.0], [0.0]) < 1e-5


def test_loss_ctcvr_clicked_unconverted_is_negative():
    val = _term("ctcvr", _outputs([0.6], [0.4], [0.5]), [1.0], [0.0])
    assert val == pytest.approx(-math.log(1.0 - 0.24), abs=TOL)


def test_loss_cvr_ipw_single_sample_oracle():
    assert _term("cvr_ipw", _outputs([0.25], [0.5], [0.5]), [1.0], [1.0]) == pytest.approx(2.772588722239781, abs=TOL)


def test_loss_cvr_ipw_unit_propensity_is_plain_mean():
    out = _outputs([1.0 - 1e-7] * 3, [0.3, 0.6, 0.8], [0.5] * 3)
    val = _term("cvr_ipw", out, np.ones(3), [0.0, 1.0, 1.0])
    plain = np.mean([-math.log(0.7), -math.log(0.6), -math.log(0.8)])
    assert val == pytest.approx(plain, abs=1e-6)  # propensity 1-1e-7, not exactly 1


def test_loss_cvr_ipw_weight_capped_at_floor():
    val = _term("cvr_ipw", _outputs([0.001], [0.5], [0.5]), [1.0], [1.0])
    assert val == pytest.approx(-math.log(0.5) / 0.01, abs=TOL)


def test_loss_cvr_ipw_no_clicks_is_zero():
    assert _term("cvr_ipw", _outputs([0.5, 0.5], [0.5, 0.5], [0.5, 0.5]), np.zeros(2), np.zeros(2)) == 0.0


def test_ctuncvr_label_truth_table():
    o = np.array([1.0, 0.0, 1.0])
    r = np.array([0.0, 0.0, 1.0])
    assert ctuncvr_label(o, r).tolist() == [1.0, 0.0, 0.0]


def test_ctuncvr_label_rejects_funnel_violation():
    with pytest.raises(ObjectiveError, match="funnel"):
        ctuncvr_label(np.array([0.0]), np.array([1.0]))


def test_loss_ctuncvr_oracle():
    assert _term("ctuncvr", _outputs([0.5], [0.5], [0.5]), [1.0], [0.0]) == pytest.approx(1.3862943611198906, abs=TOL)


def test_loss_ctuncvr_label_zero_cases():
    out = _outputs([0.3, 0.3], [0.5, 0.5], [0.2, 0.2])
    # (1,1) and (0,0) both give label 0: loss = -ln(1 - 0.06)
    assert _term("ctuncvr", out, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(-math.log(1.0 - 0.06), abs=TOL)


def test_loss_uncvr_ipw_oracle():
    assert _term("uncvr_ipw", _outputs([0.5], [0.5], [0.5]), [1.0], [0.0]) == pytest.approx(1.3862943611198906, abs=TOL)


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
    assert _term("uncvr_ipw", direct, o, r) == pytest.approx(_term("cvr_ipw", mirrored, o, r), abs=1e-12)


# -- alignment ------------------------------------------------------------------


def test_align_first_term_oracle():
    # One clicked sample, weight 1/0.5: the first addend (cvr against the
    # soft label 1 - uncvr = 0.6) plus the second (uncvr against 0.3).
    value = _term("align_ipw", _outputs([0.5], [0.7], [0.4]), [1.0], [1.0])
    assert value == pytest.approx((_bce(0.7, 0.6) + _bce(0.4, 0.3)) / 0.5, abs=TOL)
    assert value == pytest.approx(1.391188176187228 + 1.26493031239688, abs=TOL)


def test_align_label_symmetry_when_heads_sum_to_one():
    # cvr + uncvr = 1: each addend is the entropy of its head, so the
    # click and un-click spaces each add two equal entropies.
    out = _outputs([0.4, 0.6], [0.3, 0.8], [0.7, 0.2])
    expected = 2.0 * _bce(0.3, 0.3) / 0.4 + 2.0 * _bce(0.8, 0.8) / 0.4
    assert _term("align_ipw", out, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(expected, abs=1e-12)


def test_align_unclick_weights_use_complement_propensity():
    # one un-clicked sample with p_click = 0.8: weight = 1/0.2
    out = _outputs([0.8], [0.7], [0.4])
    expected = (_bce(0.7, 0.6) + _bce(0.4, 0.3)) / 0.2
    assert _term("align_ipw", out, [0.0], [0.0]) == pytest.approx(expected, abs=TOL)


def test_align_soft_labels_clamped():
    # uncvr so high the raw soft label 1-uncvr falls below 1e-6
    hi = 1.0 - 1e-7
    out = _outputs([0.5], [0.5], [hi])
    lbl = 1e-6  # clamped
    expected = (_bce(0.5, lbl) + _bce(hi, 0.5)) / 0.5
    assert _term("align_ipw", out, [1.0], [1.0]) == pytest.approx(expected, abs=TOL)


def test_align_stop_gradient_per_term():
    # Where cvr + uncvr = 1 exactly, every addend sits at its own minimum,
    # so the only gradient left would leak through a soft label: there
    # is none. Off that point both conversion heads train, and detached
    # weights keep the click head out.
    o = np.array([1.0, 0.0])
    at_minimum = _head_grads("align_ipw", _outputs([0.5, 0.5], [0.75, 0.375], [0.25, 0.625]), o, [0.0, 0.0])
    assert all(g.tobytes() == np.zeros(2).tobytes() for g in at_minimum)
    ctr, cvr, uncvr = _head_grads("align_ipw", _outputs([0.5, 0.5], [0.7, 0.6], [0.4, 0.3]), o, [0.0, 0.0])
    assert np.all(ctr == 0.0) and np.all(cvr != 0.0) and np.all(uncvr != 0.0)


def test_detached_propensity_blocks_ctr_gradient():
    out = _outputs([0.25, 0.7], [0.5, 0.5], [0.5, 0.5])
    assert np.all(_head_grads("cvr_ipw", out, [1.0, 1.0], [1.0, 0.0], IPW)[0] == 0.0)
    assert np.all(_head_grads("cvr_ipw", out, [1.0, 1.0], [1.0, 0.0], ATTACHED)[0] != 0.0)


def test_attached_propensity_respects_clamp():
    out = _outputs([0.005], [0.5], [0.5])  # below the 0.01 floor
    assert np.all(_head_grads("cvr_ipw", out, [1.0], [1.0], ATTACHED)[0] == 0.0)  # clamped branch has zero slope


# -- composition ----------------------------------------------------------------


def test_total_loss_additivity():
    out, o, r = _mixed_batch()
    bundle = compose_method_loss("chorus", out, o, r, LossWeights(ctr=0.0), IPW)
    alone = [compose_method_loss("chorus", out, o, r, _only(name), IPW).total.item() for name in TERMS[1:]]
    assert list(bundle.terms) == ["ctcvr", "cvr_ipw", "ctuncvr", "uncvr_ipw", "align_ipw"]
    assert list(bundle.terms.values()) == alone
    assert bundle.total.item() == pytest.approx(sum(alone), abs=1e-12)


def test_total_loss_zero_weight_excludes_gradient():
    # Every term that reads the un-conversion head is weighted out.
    out, o, r = _mixed_batch()
    weights = LossWeights(ctuncvr=0.0, uncvr_ipw=0.0, align=0.0)
    bundle = compose_method_loss("chorus", out, o, r, weights, IPW)
    assert list(bundle.terms) == ["ctr", "ctcvr", "cvr_ipw"]
    assert bundle.term_values()["align_ipw"] == 0.0
    assert list(bundle.head_grads) == ["ctr", "cvr"]  # no gradient at all on uncvr
    assert np.any(bundle.head_grads["cvr"] != 0.0)


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
    parts = _term("ctr", out, o, r) + _term("ctcvr", out, o, r)
    assert total == pytest.approx(parts, abs=1e-12)


def test_escm2_adds_ipw_term():
    out, o, r = _mixed_batch()
    esmm = _total("esmm", out, o, r)
    escm2 = _total("escm2_ipw", out, o, r)
    assert escm2 == pytest.approx(esmm + _term("cvr_ipw", out, o, r), abs=1e-12)


def test_nise_self_distillation_is_entropy_at_fixed_point():
    # un-clicked sample with y_cvr = 0.3: bce(p, sg(p)) = H(p)
    out = _outputs([0.5], [0.3], [0.5])
    bundle = compose_method_loss("nise", out, np.array([0.0]), np.array([0.0]), LossWeights(), IPW)
    assert bundle.terms["cvr_self_distill"] == pytest.approx(0.6108643020548935, abs=TOL)


def test_dcmt_constraint_minimized_at_complementary_heads():
    # y_cvr + y_cf = 1 -> soft-label bce hits its minimum for that target
    at = compose_method_loss(
        "dcmt_lite", _outputs([0.5], [0.7], [0.3]), np.array([1.0]), np.array([1.0]), LossWeights(), IPW
    ).terms["cf_constraint"]
    off = compose_method_loss(
        "dcmt_lite", _outputs([0.5], [0.6], [0.3]), np.array([1.0]), np.array([1.0]), LossWeights(), IPW
    ).terms["cf_constraint"]
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
    assert bundle.terms["uncvr_soft"] == pytest.approx(expected, abs=TOL)


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


def _align_by_hand(params, fm, clicked: bool) -> float:
    """The alignment term of one sample, by ``math.log`` from its heads:
    both addends of its space, weighted by 1/p_click on a click and by
    1/(1 - p_click) otherwise."""
    v = {k: float(x[0]) for k, x in predict_batch(params, fm).values().items()}
    weight = v["ctr"] if clicked else 1.0 - v["ctr"]
    return (_bce(v["cvr"], 1.0 - v["uncvr"]) + _bce(v["uncvr"], 1.0 - v["cvr"])) / weight


def test_single_unclicked_sample_step():
    params = init_model(SCHEMA, ARCH, seed=0)
    bundle, _ = training_step(params, _fm(1, 1), np.array([0.0]), np.array([0.0]), "chorus", LossWeights(), IPW)
    assert bundle.terms["cvr_ipw"] == 0.0
    assert bundle.terms["uncvr_ipw"] == 0.0
    assert bundle.terms["align_ipw"] == pytest.approx(_align_by_hand(params, _fm(1, 1), clicked=False), abs=1e-12)


def test_single_converted_sample_step():
    params = init_model(SCHEMA, ARCH, seed=0)
    bundle, _ = training_step(params, _fm(1, 2), np.array([1.0]), np.array([1.0]), "chorus", LossWeights(), IPW)
    assert bundle.terms["cvr_ipw"] > 0.0
    assert bundle.terms["uncvr_ipw"] > 0.0
    assert bundle.terms["align_ipw"] == pytest.approx(_align_by_hand(params, _fm(1, 2), clicked=True), abs=1e-12)


def test_step_gradients_aligned_and_zero_for_unused_towers():
    # The uncvr tower is row 2 of every stacked tower layer.
    params = init_model(SCHEMA, ARCH, seed=3)
    uncvr = TOWER_NAMES.index("uncvr")
    o = np.array([1.0, 0.0, 1.0, 0.0])
    r = np.array([1.0, 0.0, 0.0, 0.0])
    _, grad = training_step(params, _fm(4, 3), o, r, "esmm", LossWeights(), IPW)
    assert grad.shape == params.flat.shape
    _, _, towers = params.split(grad)
    for name, g in zip(params.names[-2 * len(towers) :], (g for layer in towers for g in layer), strict=True):
        assert np.all(g[uncvr] == 0.0), f"{name}'s uncvr row should be outside the esmm objective"
    _, grad_chorus = training_step(params, _fm(4, 3), o, r, "chorus", LossWeights(), IPW)
    _, _, towers = params.split(grad_chorus)
    assert sum(np.abs(g[uncvr]).sum() for layer in towers for g in layer) > 0.0


def test_step_gradients_survive_the_next_step():
    params = init_model(SCHEMA, ARCH, seed=5)
    o = np.array([1.0, 0.0, 1.0, 0.0])
    r = np.array([1.0, 0.0, 0.0, 0.0])
    _, first = training_step(params, _fm(4, 3), o, r, "chorus", LossWeights(), IPW)
    kept = first.copy()
    _, second = training_step(params, _fm(4, 4), o, r, "chorus", LossWeights(), IPW)
    assert np.array_equal(first, kept)
    assert not np.array_equal(second, kept)


def _graph_nodes(root) -> int:
    """Nodes reachable from ``root`` through ``Tensor.parents``."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


@pytest.mark.parametrize("ipw", [IPW, ATTACHED], ids=["detached", "attached"])
def test_chorus_step_graph_has_at_most_26_nodes(ipw):
    # The acceptance protocol's model on one 1024-exposure batch: eight
    # simulated features, no shared encoder, [16] towers. The benchmark's
    # traced runs count the nodes reachable from the bundle's total; the
    # step builds no graph, so the total is a single leaf and the count
    # must stay within the old graph's 26 nodes under either propensity.
    sim = SimConfig(n_exposures=1024, seed=0)
    log, _ = generate(sim)
    schema = sim_schema(sim, embed_width=4)
    params = init_model(schema, Architecture(encoder_widths=(), tower_widths=(16,)), seed=0)
    o, r = label_arrays(log)
    assert 0 < r.sum() < o.sum() < len(o)  # every term of the objective is live
    bundle, grad = training_step(params, build_matrix(log, schema), o, r, "chorus", LossWeights(), ipw)
    assert tuple(bundle.terms) == TERMS
    assert 1 <= _graph_nodes(bundle.total) <= 26
    assert np.isfinite(bundle.total.item())
    assert grad.shape == params.flat.shape


@pytest.mark.parametrize(
    "arch",
    [
        Architecture(encoder_widths=(), tower_widths=(16,)),
        Architecture(encoder_widths=(8,), tower_widths=(16, 8)),
        Architecture(encoder_widths=(), tower_widths=(16, 1)),
    ],
    ids=["protocol", "deep", "width-1"],
)
@pytest.mark.parametrize("method", METHODS)
def test_training_steps_are_bitwise_equal_to_per_tower_reference_graph(method, arch):
    # The objective's head gradients come in a method-dependent order;
    # the towers' input gradient must add them in that order, as the
    # reference graph's per-tower chains under one objective node with
    # those heads as parents do, and a head no loss reads must leave its
    # tower at zero.
    sim = SimConfig(n_exposures=1024, seed=0)
    log, _ = generate(sim)
    schema = sim_schema(sim, embed_width=4)
    fm = build_matrix(log, schema)
    o, r = label_arrays(log)
    params = init_model(schema, arch, seed=0)
    reference = params.copy()
    config = OptimizerConfig()
    states = [OptimizerState.for_params(p) for p in (params, reference)]
    # Three 256-row batches, then the protocol's: the whole 1024-row log as
    # one batch and a shuffled 928-row tail.
    tail = np.random.default_rng(0).permutation(len(o))[:928]
    for step, idx in enumerate([*(np.arange(k * 256, (k + 1) * 256) for k in range(3)), np.arange(len(o)), tail]):
        batch = fm.rows(idx)
        bundle, grad = training_step(params, batch, o[idx], r[idx], method, LossWeights(), IPW)
        heads, leaves = reference_forward(reference, batch)
        ref = compose_method_loss(method, TowerOutputs(*(h.value for h in heads)), o[idx], r[idx], LossWeights(), IPW)
        expected = assert_layout_equal(params, grad, leaf_grads(objective(ref, heads), leaves), f"step {step}")
        assert bundle.term_values() == ref.term_values()
        optimizer_step(params, grad, states[0], config)
        optimizer_step(reference, expected, states[1], config)


SIM = SimConfig(n_exposures=1024, seed=0)
# Loss weights of the bitwise grid: the defaults, the digest's weighted
# config, every term reading uncvr dropped, uneven weights, and none.
GRID_WEIGHTS = [
    LossWeights(),
    LossWeights(align=0.5, ctcvr=0.0),
    LossWeights(ctuncvr=0.0, uncvr_ipw=0.0, align=0.0),
    LossWeights(0.3, 1.7, 0.25, 2.0, 0.6, 1.3),
    LossWeights(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
]


def _grid_batches(o: np.ndarray) -> dict[str, list[np.ndarray]]:
    """Three batches of each kind: mixed, no click, all clicks, three
    rows (one click, two un-clicks) and one row (an un-click); and two at
    the protocol's batch size: the whole 1024-row log, then a shuffled
    928-row tail."""
    clicked, unclicked = np.flatnonzero(o == 1), np.flatnonzero(o == 0)
    return {
        "mixed": [np.arange(k * 128, (k + 1) * 128) for k in range(3)],
        "no-click": [unclicked[k * 64 : (k + 1) * 64] for k in range(3)],
        "all-click": [clicked[k * 24 : (k + 1) * 24] for k in range(3)],
        "3-row": [np.array([clicked[k], unclicked[k], unclicked[k + 3]]) for k in range(3)],
        "1-row": [unclicked[k : k + 1] for k in range(3)],
        "protocol": [np.arange(len(o)), np.random.default_rng(0).permutation(len(o))[:928]],
    }


@pytest.mark.parametrize(
    "arch",
    [
        Architecture(encoder_widths=(), tower_widths=(16,)),
        Architecture(encoder_widths=(8,), tower_widths=(16, 8)),
        Architecture(encoder_widths=(), tower_widths=(16, 1)),
    ],
    ids=["protocol", "deep", "width-1"],
)
@pytest.mark.parametrize("method", METHODS)
def test_training_steps_are_bitwise_equal_to_the_loss_graph(method, arch):
    # The step against the reference graph: the forward's per-tower dense
    # chains and the loss graph of bce, mean, masked-mean,
    # inverse-propensity, stop-gradient, product and weighted-sum nodes.
    # Equal term values, equal gradient bits on every parameter and three
    # equal Adam steps, for detached and attached weights, each weight set
    # and each kind of batch.
    log, _ = generate(SIM)
    schema = sim_schema(SIM, embed_width=4)
    fm = build_matrix(log, schema)
    o, r = label_arrays(log)
    batches = _grid_batches(o)
    for ipw, weights, kind in itertools.product((IPW, ATTACHED), GRID_WEIGHTS, batches):
        case = f"detach={ipw.detach} {weights} {kind}"
        params = init_model(schema, arch, seed=0)
        reference = params.copy()
        states = [OptimizerState.for_params(p) for p in (params, reference)]
        for step, idx in enumerate(batches[kind]):
            batch = fm.rows(idx)
            bundle, grad = training_step(params, batch, o[idx], r[idx], method, weights, ipw)
            heads, leaves = reference_forward(reference, batch)
            terms, total = reference_method_loss(method, heads, o[idx], r[idx], weights, ipw)
            expected = assert_layout_equal(params, grad, leaf_grads(total, leaves), f"{case} step {step}")
            assert bundle.terms == {name: t.item() for name, t in terms.items()}, case
            assert bundle.total.item() == total.item(), case
            optimizer_step(params, grad, states[0], OptimizerConfig())
            optimizer_step(reference, expected, states[1], OptimizerConfig())


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
