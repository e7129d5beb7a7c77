"""Each benchmark check passes on the program's real output and fails on a wrong one."""

from dataclasses import replace

import numpy as np
import pytest

import reference as ref
import workloads
from advgame import attacks, nets, theorems, two_gaussians_1d
from advgame.attacks import CwConfig
from advgame.experiments import BatBenchmarkRow
from advgame.game import GameConfig
from advgame.hypotheses import MixedClassifier, Mlp, Threshold

# ---------------------------------------------------------------------------
# gap-oracle
# ---------------------------------------------------------------------------

GAP_CASES = {"mass": (GameConfig("mass", 0.4, 0.5), None),
             "norm": (GameConfig("norm", 0.45, 0.5), 0.25)}


@pytest.fixture(scope="module", params=sorted(GAP_CASES))
def gap_case(request):
    cfg, delta = GAP_CASES[request.param]
    lo, hi = theorems.admissible_alpha_interval(cfg, delta)
    alpha = lo + (hi - lo) / 3
    rep = theorems.randomization_gap(Threshold(0.0), two_gaussians_1d(), cfg,
                                     alpha_thm=alpha, delta=delta)
    return cfg, alpha, rep


def _gap_problems(case, **wrong):
    cfg, alpha, rep = case
    return ref.check_gap(replace(rep, **wrong), cfg.penalty, cfg.lam, cfg.epsilon, alpha)


def test_gap_check_passes_on_the_program(gap_case):
    assert _gap_problems(gap_case) == []


@pytest.mark.parametrize("field", ["gap", "score_h1", "score_mixture"])
def test_gap_check_catches_a_closed_form_off_by_1e6(gap_case, field):
    value = getattr(gap_case[2], field)
    assert _gap_problems(gap_case, **{field: value + 1e-6})


def test_gap_check_catches_a_failed_report(gap_case):
    assert _gap_problems(gap_case, passed=False)


def test_gap_check_catches_a_vanishing_oracle_gap(gap_case):
    assert _gap_problems(gap_case, gap_oracle=5e-7)


def test_gap_check_catches_an_oracle_above_the_supremum(gap_case):
    assert _gap_problems(gap_case, score_h1_oracle=gap_case[2].score_h1 + 1e-9)


def test_gap_check_catches_an_oracle_gap_outside_the_grid_bound(gap_case):
    cfg, _, rep = gap_case
    bound = ref.oracle_gap_bound(cfg.lam, cfg.epsilon, cfg.penalty)
    assert _gap_problems(gap_case, gap_oracle=rep.gap + 1.01 * bound)


def test_exact_integration_matches_the_mass_cdf_formula():
    lam, eps, alpha = 0.3, 0.5, 0.8
    h1, mix = ref.flip_cells(0.0, eps, alpha)
    s1 = ref.exact_score(h1, "mass", lam, eps)
    gap = s1 - ref.exact_score(mix, "mass", lam, eps)
    norm = ref.norm
    assert s1 == pytest.approx(norm.cdf(-1) + (1 - lam) * (norm.cdf(eps - 1) - norm.cdf(-1)),
                               abs=1e-12)
    assert gap == pytest.approx((1 - alpha) * 0.5 * (norm.cdf(1 + eps) - norm.cdf(1 - eps)),
                                abs=1e-12)


# ---------------------------------------------------------------------------
# br-dynamics
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dynamics():
    spec = workloads.dynamics_mixture(np.random.default_rng(3))
    cfg = GameConfig("mass", 0.3, 0.4)
    rep = theorems.verify_no_pure_nash(spec, cfg, rounds=3)
    wl = workloads.BrDynamics()
    return spec, cfg, rep, wl._worst_case(spec, cfg)


def _true_risk(spec):
    return lambda b, s: ref.own_risk(spec, b, s)


def test_dynamics_check_passes_on_the_program(dynamics):
    spec, cfg, rep, wc = dynamics
    wl = workloads.BrDynamics()
    state = wl.setup(0)
    assert ref.check_dynamics(spec, rep, True, wc, _true_risk(spec), 1e-6) == []
    assert wl.check(state, spec, wl.op(state, spec)) == []


def test_dynamics_check_catches_a_round_that_does_not_improve(dynamics):
    spec, _, rep, wc = dynamics
    r = rep.rounds[1]
    flat = replace(r, defender_score=r.attacker_score, improvement=0.0)
    bad = replace(rep, rounds=(rep.rounds[0], flat) + rep.rounds[2:])
    assert ref.check_dynamics(spec, bad, True, wc, _true_risk(spec), 1e-6)


@pytest.mark.parametrize("exact", [True, False])
def test_dynamics_check_catches_an_attacker_above_the_worst_case(dynamics, exact):
    spec, _, rep, wc = dynamics
    r = rep.rounds[1]
    up = replace(r, attacker_score=r.attacker_score + 1e-4,
                 improvement=r.attacker_score + 1e-4 - r.defender_score)
    bad = replace(rep, rounds=(rep.rounds[0], up) + rep.rounds[2:])
    assert ref.check_dynamics(spec, bad, exact, wc, _true_risk(spec), 1e-6)


def test_dynamics_check_catches_an_attacker_below_the_worst_case(dynamics):
    spec, _, rep, wc = dynamics
    r = rep.rounds[2]
    down = replace(r, attacker_score=r.attacker_score - 1e-4,
                   improvement=r.attacker_score - 1e-4 - r.defender_score)
    bad = replace(rep, rounds=rep.rounds[:2] + (down,))
    assert ref.check_dynamics(spec, bad, True, wc, _true_risk(spec), 1e-6)
    assert not ref.check_dynamics(spec, bad, False, wc, _true_risk(spec), 1e-6)


def test_dynamics_check_catches_a_wrong_risk(dynamics):
    spec, _, rep, wc = dynamics
    off = lambda b, s: ref.own_risk(spec, b, s) + 1e-9
    assert ref.check_dynamics(spec, rep, True, wc, off, 1e-6)


def test_duality_check_catches_a_violation_and_a_misreport(dynamics):
    spec, cfg, _, _ = dynamics
    dual = theorems.weak_duality_grid(spec, cfg, np.linspace(-1, 1, 5))
    assert ref.check_duality(dual) == []
    assert ref.check_duality(replace(dual, sup_inf=dual.inf_sup + 1e-3))
    swapped = ((0.0, 1.0), (1.0, 0.0))  # max_j min_i = 0 <= min_i max_j = 1
    assert ref.check_duality(replace(dual, payoff=swapped, sup_inf=1.0, inf_sup=0.0))


def test_norm_probe_counts_the_fault_only_while_the_attacker_falls_short():
    wl = workloads.BrDynamics()
    state = wl.setup(0)
    rep = wl.op(state, wl.probe)
    spec = state["probe_spec"]
    sups = [short + r.attacker_score for (_, short, _), r in zip(
        ref.attacker_shortfalls(spec, rep, wl._worst_case(spec, wl.cfgs[1])), rep.rounds)]
    mended = replace(rep, rounds=tuple(
        replace(r, attacker_score=s, improvement=s - r.defender_score)
        for r, s in zip(rep.rounds, sups)))
    assert wl.known_fault(state, wl.probe, mended) is None
    short = replace(mended, rounds=(replace(mended.rounds[0],
                                            attacker_score=sups[0] - 1e-4),)
                    + mended.rounds[1:])
    assert "below the worst case" in wl.known_fault(state, wl.probe, short)
    assert wl.known_fault(state, state["rounds"][0][0], mended) is None


# ---------------------------------------------------------------------------
# bat-seed
# ---------------------------------------------------------------------------

ROW = BatBenchmarkRow(seed=7, at_clean=0.9, at_aua=0.7, mixture_clean=0.9,
                      mixture_aua=0.72, alpha=0.1, weights=(0.9, 0.1))
CANDS = workloads.BatSeed.alpha_candidates


def test_bat_row_check():
    assert ref.check_bat_row(ROW, CANDS) == []
    assert ref.check_bat_row(replace(ROW, alpha=0.0, weights=(1.0,)), CANDS) == []
    assert ref.check_bat_row(replace(ROW, mixture_aua=1.2), CANDS)
    assert ref.check_bat_row(replace(ROW, at_clean=-0.1), CANDS)
    assert ref.check_bat_row(replace(ROW, alpha=0.15, weights=(0.85, 0.15)), CANDS)
    assert ref.check_bat_row(replace(ROW, weights=(0.8, 0.2)), CANDS)
    assert ref.check_bat_row(replace(ROW, alpha=0.0, weights=(1.0, 0.0)), CANDS)


def test_bat_repeat_check():
    assert ref.check_bat_repeats({7: [ROW, ROW]}) == []
    assert ref.check_bat_repeats({7: [ROW]})
    assert ref.check_bat_repeats({7: [ROW, replace(ROW, at_aua=0.704)]})


# ---------------------------------------------------------------------------
# cw-eval
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cw_case():
    mix = MixedClassifier(tuple(Mlp(nets.init_mlp((2, 12, 12, 2), seed=s)) for s in (1, 2, 3)),
                          (0.5, 0.3, 0.2))
    comps = [(q, h.net) for q, h in zip(mix.weights, mix.hypotheses)]
    rng = np.random.default_rng(0)
    X, Y = workloads.satellite_points(rng, 30)
    adv, l2, ok = attacks.cw_l2_batch(mix, X, Y, CwConfig(iters=30, binary_search_steps=4))
    assert ok.any() and (~ok).any()
    return mix, comps, X, Y, adv, l2, ok


def test_cw_batch_check(cw_case):
    _, comps, X, Y, adv, l2, ok = cw_case
    assert ref.check_cw_batch(comps, X, Y, adv, l2, ok) == []
    i, j = np.flatnonzero(ok)[0], np.flatnonzero(~ok)[0]
    moved = adv.copy()
    moved[i] += 0.05  # a success pushed off its reported norm
    assert ref.check_cw_batch(comps, X, Y, moved, l2, ok)
    moved = adv.copy()
    moved[j] += 1e-3  # a failed point that did not keep x
    assert ref.check_cw_batch(comps, X, Y, moved, l2, ok)
    claimed = ok.copy()
    claimed[j] = True  # a success that is not misclassified
    l2c = l2.copy()
    l2c[j] = 0.0
    assert ref.check_cw_batch(comps, X, Y, adv, l2c, claimed)


def test_cw_accuracy_check(cw_case):
    mix, comps, X, Y, *_ = cw_case
    clean = attacks.accuracy(mix, X, Y)
    own = float(1.0 - ref.own_expected_errors(comps, X, Y).mean())
    assert clean == own
    good = {0.1: clean - 0.1, 0.4: clean - 0.2}
    assert ref.check_cw_accuracy(clean, good, own) == []
    assert ref.check_cw_accuracy(clean, {0.1: clean - 0.2, 0.4: clean - 0.1}, own)
    assert ref.check_cw_accuracy(clean, {0.1: clean + 0.01}, own)
    assert ref.check_cw_accuracy(clean, good, own + 1e-3)


def test_input_gradient_check(cw_case):
    mix, comps, X, Y, *_ = cw_case
    keep = ref.kink_free(comps, X, 1e-6)
    assert keep.sum() >= 5
    Xk, Yk = X[keep], Y[keep]
    for mode in ("eot_logits", "eot_loss"):
        loss_fn = lambda Z: attacks.loss_and_input_grad(mix, Z, Yk, mode)[0]
        _, grad = attacks.loss_and_input_grad(mix, Xk, Yk, mode)
        assert ref.check_input_grad(loss_fn, Xk, grad) == []
        wrong = grad.copy()
        wrong[0, 0] += 1e-3
        assert ref.check_input_grad(loss_fn, Xk, wrong)
