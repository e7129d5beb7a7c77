import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

import advgame as ag
from advgame.errors import ConfigError
from advgame.game import (
    GameConfig,
    IdentityAttack,
    ZoneAttack1D,
    adversarial_score,
    best_response_attack,
    penalty_value,
    risk,
    score_decomposition,
    worst_case_score,
)
from quadrature_oracle import GridSpec, integrate


def test_game_config_validation():
    with pytest.raises(ConfigError):
        GameConfig("mass", 0.0, 0.5)  # lambda = 0 admits the trivial equilibrium
    with pytest.raises(ConfigError):
        GameConfig("mass", 1.0, 0.5)
    with pytest.raises(ConfigError):
        GameConfig("norm", 0.3, 1.5)  # norm penalty needs epsilon <= 1
    with pytest.raises(ConfigError):
        GameConfig("mass", 0.3, -0.1)
    with pytest.raises(ConfigError):
        GameConfig("other", 0.3, 0.5)
    GameConfig("mass", 0.3, 1.5)  # mass penalty has no epsilon cap


# ---------------------------------------------------------------------------
# risk
# ---------------------------------------------------------------------------

def test_risk_bayes_matches_cdf(spec_1d, cfg_mass):
    assert risk(ag.bayes_optimal(spec_1d), spec_1d, cfg_mass) == pytest.approx(
        norm.cdf(-1.0), abs=1e-4
    )


def test_risk_constant_classifier(spec_1d_mix, cfg_mass):
    # always predicting +1 errs exactly on the negative-class mass
    always_pos = ag.Threshold(-1e9)
    value = risk(always_pos, spec_1d_mix, cfg_mass)
    assert value == pytest.approx(1 - spec_1d_mix.prior_pos, abs=1e-9)


def test_risk_complementary_mixture(spec_1d, cfg_mass):
    h = ag.Threshold(0.3)
    anti = ag.Threshold(0.3, -1)
    m = ag.MixedClassifier((h, anti), (0.5, 0.5))
    assert risk(m, spec_1d, cfg_mass) == pytest.approx(0.5, abs=1e-12)


def test_risk_monte_carlo_within_band(spec_1d):
    cfg = GameConfig("mass", 0.3, 0.5, eval_method="monte_carlo", mc_n=20000, mc_seed=3)
    h = ag.bayes_optimal(spec_1d)
    mc = risk(h, spec_1d, cfg)
    exact = norm.cdf(-1.0)
    assert abs(mc - exact) < 5 * math.sqrt(exact * (1 - exact) / 20000)


# ---------------------------------------------------------------------------
# penalty
# ---------------------------------------------------------------------------

def test_penalty_identity_is_zero(spec_1d, cfg_mass, cfg_norm):
    for cfg in (cfg_mass, cfg_norm):
        assert penalty_value(IdentityAttack(), spec_1d, cfg) == 0.0


def test_penalty_none_kind_is_zero(spec_1d):
    cfg = GameConfig("none", 0.3, 0.5)
    attack = ag.best_response_attack(ag.Threshold(0.0), spec_1d, cfg)
    assert penalty_value(attack, spec_1d, cfg) == 0.0


def test_penalty_move_one_class_mass(spec_1d):
    # an attack moving every class-+1 point and fixing class -1 has mass
    # penalty nu_1 exactly
    from advgame.game import TranslateAttack1D

    cfg = GameConfig("mass", 0.3, 0.5)
    attack = TranslateAttack1D(shift_pos=0.5, shift_neg=0.0, budget=0.5)
    assert penalty_value(attack, spec_1d, cfg) == pytest.approx(spec_1d.prior_pos)


def _window(lo, hi):
    def f(pts):
        x = pts[:, 0]
        return ((x > lo) & (x < hi)) + 0.5 * ((x == lo) | (x == hi))

    return f


def test_penalty_norm_matches_quadrature_oracle(spec_1d, cfg_norm):
    # nu1 * int_0^0.5 x dmu1 + nu-1 * int_-0.5^0 |x| dmu-1, by the trapezoid oracle
    attack = ag.best_response_attack(ag.Threshold(0.0), spec_1d, cfg_norm)
    got = penalty_value(attack, spec_1d, cfg_norm)
    grid = GridSpec(resolution=16001, bounds=((-10.0, 10.0),))
    pos = integrate(
        lambda pts: np.abs(pts[:, 0]) * _window(0.0, 0.5)(pts), spec_1d, 1, grid)
    neg = integrate(
        lambda pts: np.abs(pts[:, 0]) * _window(-0.5, 0.0)(pts), spec_1d, -1, grid)
    assert got == pytest.approx(0.5 * pos + 0.5 * neg, abs=1e-6)


@pytest.mark.parametrize("norm_kind", ["l2", "linf"])
def test_mc_norm_penalty_is_measured_in_the_attack_norm(norm_kind):
    # a linf step along sign(w) = (1, 1) is sqrt(2) times longer in l2
    spec = ag.DistributionSpec(
        0.5, 2,
        (ag.GaussianComponent(1.0, (0.6, 0.6), (0.02, 0.02)),),
        (ag.GaussianComponent(1.0, (0.4, 0.4), (0.02, 0.02)),),
    )
    h = ag.Linear((1.0, 1.0), -1.0)
    cfg = GameConfig("norm", 0.3, 0.1, norm_kind, "monte_carlo", 2000, 0)
    attack = best_response_attack(h, spec, cfg)
    sample = ag.sample_labeled(spec, cfg.mc_n, cfg.mc_seed)
    step = ag.pushforward_empirical(sample, attack).points - sample.points
    moves = {"l2": np.linalg.norm(step, axis=1), "linf": np.abs(step).max(axis=1)}
    assert moves[norm_kind].mean() > 0
    assert penalty_value(attack, spec, cfg) == moves[norm_kind].mean()
    assert adversarial_score(h, attack, spec, cfg).penalty_value == moves[norm_kind].mean()
    if norm_kind == "linf":
        assert moves["l2"].mean() / moves["linf"].mean() == pytest.approx(math.sqrt(2))


# ---------------------------------------------------------------------------
# adversarial score
# ---------------------------------------------------------------------------

def _threshold_errors(spec, t, orientation, shifts):
    """Per-class error of Threshold(t, orientation) on mu_y shifted by shifts[y]."""
    out = {}
    for y in (1, -1):
        below = sum(c.weight * norm.cdf(t - shifts[y], c.mean[0], math.sqrt(c.var[0]))
                    for c in spec.components(y))
        # the threshold predicts +1 above t for orientation 1, below t otherwise
        out[y] = below if y == orientation else 1.0 - below
    return out


@pytest.mark.parametrize("spec_name", ["spec_1d", "spec_1d_mix"])
@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("penalty", ["mass", "norm", "none"])
def test_translate_score_matches_closed_form(spec_name, orientation, penalty, request):
    from advgame.game import TranslateAttack1D

    spec = request.getfixturevalue(spec_name)
    t, shifts = 0.25, {1: -0.3, -1: 0.2}
    h = ag.Threshold(t, orientation)
    cfg = GameConfig(penalty, 0.3, 0.3)
    attack = TranslateAttack1D(shift_pos=shifts[1], shift_neg=shifts[-1], budget=0.3)
    rep = adversarial_score(h, attack, spec, cfg)
    nat = _threshold_errors(spec, t, orientation, {1: 0.0, -1: 0.0})
    att = _threshold_errors(spec, t, orientation, shifts)
    pen = {"mass": 1.0, "norm": spec.prior(1) * 0.3 + spec.prior(-1) * 0.2, "none": 0.0}
    assert rep.risk_term == pytest.approx(
        spec.prior(1) * nat[1] + spec.prior(-1) * nat[-1], abs=1e-12)
    assert rep.attack_zone_pos == pytest.approx(spec.prior(1) * (att[1] - nat[1]), abs=1e-12)
    assert rep.attack_zone_neg == pytest.approx(spec.prior(-1) * (att[-1] - nat[-1]), abs=1e-12)
    assert rep.penalty_value == pytest.approx(pen[penalty], abs=1e-12)
    assert rep.score == pytest.approx(
        spec.prior(1) * att[1] + spec.prior(-1) * att[-1] - 0.3 * pen[penalty], abs=1e-12)


def test_score_identity_equals_risk(spec_1d_mix, cfg_mass):
    h = ag.Threshold(0.4)
    rep = adversarial_score(h, IdentityAttack(), spec_1d_mix, cfg_mass)
    assert rep.score == risk(h, spec_1d_mix, cfg_mass)
    assert rep.attack_zone_pos == 0.0
    assert rep.attack_zone_neg == 0.0
    assert rep.penalty_value == 0.0


def test_score_report_identity_decomposition(spec_1d, cfg_norm):
    h = ag.Threshold(0.0)
    attack = ag.best_response_attack(h, spec_1d, cfg_norm)
    rep = adversarial_score(h, attack, spec_1d, cfg_norm)
    total = rep.risk_term + rep.attack_zone_pos + rep.attack_zone_neg \
        - rep.lam * rep.penalty_value
    assert rep.score == pytest.approx(total, abs=1e-12)
    assert 0.0 <= rep.unpenalized <= 1.0
    assert rep.score <= rep.unpenalized


def test_score_regularized_example_mass(spec_1d):
    # threshold(0,+), mass penalty, lam=0.3, eps=0.5: the worst case is
    # Phi(-1) + (1 - lam) * (mu1((0, .5]) + mu-1([-.5, 0))) / 2, i.e. the
    # appendix-style decomposition evaluated with Gaussian CDFs
    cfg = GameConfig("mass", 0.3, 0.5)
    h = ag.Threshold(0.0)
    zone = norm.cdf(-0.5) - norm.cdf(-1.0)  # mu1((0, 0.5]) for N(1,1)
    expect = norm.cdf(-1.0) + (1 - 0.3) * (0.5 * zone + 0.5 * zone)
    assert worst_case_score(h, spec_1d, cfg) == pytest.approx(expect, abs=1e-12)
    rep = adversarial_score(h, ag.best_response_attack(h, spec_1d, cfg), spec_1d, cfg)
    # the canonical overshoot map gives up an O(overshoot) sliver of the zone
    assert rep.score == pytest.approx(expect, abs=1e-5)
    assert rep.score <= expect


def test_score_degenerate_mixture_matches_component(spec_1d, cfg_mass):
    h1, h2 = ag.Threshold(0.0), ag.Threshold(0.7)
    m = ag.MixedClassifier((h1, h2), (1.0, 0.0))
    attack = ag.best_response_attack(h1, spec_1d, cfg_mass)
    a = adversarial_score(m, attack, spec_1d, cfg_mass)
    b = adversarial_score(h1, attack, spec_1d, cfg_mass)
    assert a.score == pytest.approx(b.score, abs=1e-12)


def test_budget_monotonicity(spec_1d):
    scores = []
    for eps in (0.2, 0.4, 0.6, 0.8):
        cfg = GameConfig("mass", 0.3, eps)
        scores.append(worst_case_score(ag.Threshold(0.0), spec_1d, cfg))
    assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))


def test_score_monte_carlo_reports_stderr(spec_1d):
    cfg = GameConfig("mass", 0.3, 0.5, eval_method="monte_carlo", mc_n=5000, mc_seed=1)
    h = ag.Threshold(0.0)
    attack = ZoneAttack1D(
        __import__("advgame.hypotheses", fromlist=["interval_form"]).interval_form(h),
        0.5, "mass")
    rep = adversarial_score(h, attack, spec_1d, cfg)
    assert rep.method == "monte_carlo"
    assert rep.stderr is not None and rep.stderr > 0
    exact = adversarial_score(h, attack, spec_1d, GameConfig("mass", 0.3, 0.5))
    assert abs(rep.score - exact.score) < 6 * rep.stderr
    # the norm and the penalty-free best responses, with their per-point penalties
    for penalty in ("norm", "none"):
        exact_cfg = GameConfig(penalty, 0.3, 0.5)
        mc_cfg = replace(exact_cfg, eval_method="monte_carlo", mc_n=20000, mc_seed=1)
        attack = best_response_attack(h, spec_1d, exact_cfg)
        rep = adversarial_score(h, attack, spec_1d, mc_cfg)
        exact = adversarial_score(h, attack, spec_1d, exact_cfg)
        assert abs(rep.score - exact.score) < 4 * rep.stderr
        assert abs(rep.penalty_value - exact.penalty_value) < 0.002
        assert (rep.penalty_value == 0.0) == (penalty == "none")


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decomposition_zero_budget_reduces_to_risk(spec_1d):
    cfg = GameConfig("norm", 0.3, 1e-12)
    h = ag.Threshold(0.0)
    rep = score_decomposition(h, spec_1d, cfg)
    assert rep.score == pytest.approx(risk(h, spec_1d, cfg), abs=1e-9)
    assert rep.attack_zone_pos == pytest.approx(0.0, abs=1e-9)


def test_decomposition_integrand_at_zone_edge(spec_1d):
    # at the zone edge the integrand 1 - lam*dist is 1 - lam*eps: check the
    # total is continuous as lambda -> 1 via direct evaluation near both ends
    h = ag.Threshold(0.0)
    for lam in (0.9, 0.99, 0.999):
        cfg = GameConfig("norm", lam, 0.5)
        rep = score_decomposition(h, spec_1d, cfg)
        assert rep.score >= risk(h, spec_1d, cfg) - 1e-12
        # zone contribution bounded below by (1 - lam*eps) * zone mass
        zone_mass = rep.attack_zone_pos + rep.attack_zone_neg
        assert rep.score - rep.risk_term >= (1 - lam * 0.5) * zone_mass - 1e-9


def test_decomposition_matches_attack_score(spec_1d):
    cfg = GameConfig("norm", 0.3, 0.5)
    h = ag.Threshold(0.0)
    attack = ag.best_response_attack(h, spec_1d, cfg)
    total = score_decomposition(h, spec_1d, cfg).score
    direct = adversarial_score(h, attack, spec_1d, cfg).score
    assert total == pytest.approx(direct, abs=1e-5)


def test_decomposition_requires_norm_penalty(spec_1d, cfg_mass):
    with pytest.raises(ConfigError):
        score_decomposition(ag.Threshold(0.0), spec_1d, cfg_mass)
