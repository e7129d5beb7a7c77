import csv
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.stats import norm
from scipy.integrate import quad

import advgame as ag
from advgame.distributions import bayes_roots
from advgame.errors import ConfigError, InvalidInput, TheoremRangeError, UnsupportedKind
from advgame.game import (
    GameConfig,
    adversarial_score,
    best_response_attack,
    best_response_defender,
    transported_measure,
)
from advgame.hypotheses import as_mixture, interval_form
from advgame.theorems import (
    DynamicsRound,
    admissible_alpha_interval,
    fig1_export,
    randomization_gap,
    verify_no_pure_nash,
    weak_duality_grid,
    worst_case_score_oracle,
)


# ---------------------------------------------------------------------------
# No pure Nash equilibrium
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("penalty", ["mass", "norm"])
def test_dynamics_strict_improvement_every_round(spec_1d, penalty):
    cfg = GameConfig(penalty, 0.3, 0.5)
    rep = verify_no_pure_nash(spec_1d, cfg, rounds=5)
    assert rep.passed and not rep.falsified
    assert len(rep.rounds) == 5
    for r in rep.rounds:
        assert r.improvement > 1e-6


def test_dynamics_rejects_none_penalty(spec_1d):
    with pytest.raises(ConfigError):
        verify_no_pure_nash(spec_1d, GameConfig("none", 0.3, 0.5))


def test_dynamics_report_dict_roundtrip(spec_1d):
    rep = verify_no_pure_nash(spec_1d, GameConfig("mass", 0.4, 0.4), rounds=2)
    d = asdict(rep)
    assert d["passed"] is True
    assert len(d["rounds"]) == 2
    assert d["rounds"][0]["improvement"] > 0


def test_dynamics_asymmetric_spec(spec_1d_mix):
    rep = verify_no_pure_nash(spec_1d_mix, GameConfig("mass", 0.3, 0.3), rounds=3)
    assert rep.passed


def test_dynamics_skip_zero_mass_atoms():
    # far above both negative components the negative zone mass rounds to 0.0;
    # the resulting zero-mass atom has nothing to classify and must not be
    # checked against its cell
    def comp(w, m):
        return ag.GaussianComponent(w, (m,), (0.273,))

    spec = ag.DistributionSpec(
        0.5, 1,
        (comp(0.386, 1.650), comp(0.345, 0.677), comp(0.269, 1.266)),
        (comp(0.539, -2.909), comp(0.461, -2.732)),
    )
    rep = verify_no_pure_nash(spec, GameConfig("mass", 0.3, 0.4), rounds=8)
    assert rep.passed and len(rep.rounds) == 8


def _three_root_mixture():
    """The first seeded two-vs-two-component mixture with three Bayes roots."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        sd = float(rng.uniform(0.8, 1.2))

        def comps(means):
            w = float(rng.uniform(0.3, 0.7))
            return tuple(ag.GaussianComponent(q, (float(m),), (sd * sd,))
                         for q, m in zip((w, 1.0 - w), means))

        spec = ag.DistributionSpec(0.5, 1, comps(rng.uniform(-3.0, 3.0, 2)),
                                   comps(rng.uniform(-3.0, 3.0, 2)))
        if len(bayes_roots(spec)) == 3:
            return spec
    raise AssertionError("no three-root mixture among the seeds")


def _public_dynamics(spec, cfg, rounds):
    """verify_no_pure_nash's rounds composed from the public best responses
    and scores, one call each, as the verifier read them before it shared
    one measure and one profile per round."""
    cfg = replace(cfg, eval_method="quadrature")
    h = interval_form(ag.bayes_optimal(spec))
    out = []
    for r in range(1, rounds + 1):
        attack = best_response_attack(h, spec, cfg)
        s_att = adversarial_score(h, attack, spec, cfg).score
        h_next = best_response_defender(attack, spec, cfg)
        s_def = adversarial_score(h_next, attack, spec, cfg).score
        out.append(DynamicsRound(r, s_att, s_def, s_att - s_def, interval_form(h_next).breaks))
        h = interval_form(h_next)
    return out


@pytest.mark.parametrize("spec_name", ["two_gaussians", "three_roots"])
@pytest.mark.parametrize("penalty", ["mass", "norm"])
def test_dynamics_rounds_equal_the_public_loop(spec_name, penalty):
    spec = ag.two_gaussians_1d() if spec_name == "two_gaussians" else _three_root_mixture()
    cfg = GameConfig(penalty, 0.3, 0.4)
    rep = verify_no_pure_nash(spec, cfg, rounds=8)
    assert list(rep.rounds) == _public_dynamics(spec, cfg, 8)  # every bit, no tolerance


def test_memoised_roots_and_measures_are_not_shared_with_callers():
    spec = _three_root_mixture()
    roots = list(bayes_roots(spec))
    assert len(roots) == 3
    got = bayes_roots(spec)
    got.append(99.0)
    got[0] = -99.0
    assert bayes_roots(spec) == roots
    cfg = GameConfig("mass", 0.3, 0.4)
    attack = best_response_attack(ag.bayes_optimal(spec), spec, cfg)
    tr = transported_measure(attack, spec)
    for y in (1, -1):
        alive, atoms = list(tr.alive(y)), list(tr.atoms(y))
        assert atoms
        tr.alive(y).append((5.0, 6.0))
        tr.atoms(y).clear()
        assert tr.alive(y) == alive and tr.atoms(y) == atoms
    # one measure keeps a penalty per kind: each equals a fresh measure's
    for kind in ("mass", "norm", "none", "mass", "norm"):
        kind_cfg = GameConfig(kind, 0.3, 0.4)
        assert tr.penalty(kind_cfg) == transported_measure(attack, spec).penalty(kind_cfg)


# ---------------------------------------------------------------------------
# Randomization gap
# ---------------------------------------------------------------------------

def test_admissible_interval_mass():
    assert admissible_alpha_interval(GameConfig("mass", 0.4, 0.5)) == (0.6, 1.0)
    assert admissible_alpha_interval(GameConfig("mass", 0.7, 0.5)) == (0.7, 1.0)


def test_admissible_interval_norm():
    # lam=0.5, eps=0.5, delta=0.25: (max(1 - 0.125, 0.125), 1) = (0.875, 1)
    got = admissible_alpha_interval(GameConfig("norm", 0.5, 0.5), delta=0.25)
    assert got == (0.875, 1.0)


def test_gap_out_of_range_raises(spec_1d):
    cfg = GameConfig("mass", 0.4, 0.5)
    with pytest.raises(TheoremRangeError):
        randomization_gap(ag.Threshold(0.0), spec_1d, cfg, alpha_thm=0.5)
    with pytest.raises(ConfigError):
        randomization_gap(ag.Threshold(0.0), spec_1d,
                          GameConfig("norm", 0.5, 0.5), alpha_thm=0.9)  # delta missing


def test_gap_mass_closed_form_value(spec_1d):
    # gap = (1 - alpha) * nu_neg * (mu_neg(U) + mu_neg(N_eps)), U = P_h(eps)
    cfg = GameConfig("mass", 0.4, 0.5)
    rep = randomization_gap(ag.Threshold(0.0), spec_1d, cfg, alpha_thm=0.8,
                            run_oracle=False)
    b1 = norm.cdf(1.5) - norm.cdf(1.0)  # mu_neg((0, 0.5]) for N(-1,1)
    b3 = norm.cdf(1.0) - norm.cdf(0.5)  # mu_neg([-0.5, 0))
    assert rep.gap == pytest.approx(0.2 * 0.5 * (b1 + b3), rel=1e-10)
    assert rep.score_mixture < rep.score_h1


def test_gap_mass_verified_by_oracle(spec_1d):
    cfg = GameConfig("mass", 0.4, 0.5)
    rep = randomization_gap(ag.Threshold(0.0), spec_1d, cfg, alpha_thm=0.8)
    assert rep.passed
    assert rep.gap_oracle == pytest.approx(rep.gap, abs=5e-6)


def test_gap_norm_closed_form_matches_independent_quadrature(spec_1d):
    # the proof's region integrals evaluated with scipy quadrature; the last two
    # settings have c/lam < eps, where the band integrand turns affine
    mu_neg = norm(-1.0, 1.0)
    for lam, eps, delta, alpha in ((0.4, 0.5, 0.25, 0.95), (0.8, 1.0, 0.7, 0.58),
                                   (0.9, 1.0, 0.9, 0.6)):
        cfg = GameConfig("norm", lam, eps)
        rep = randomization_gap(ag.Threshold(0.0), spec_1d, cfg, alpha_thm=alpha,
                                delta=delta, run_oracle=False)
        tau = eps - delta
        g1 = quad(lambda x: 0.5 * (1 - max(alpha, 1 - lam * (tau - x))) * mu_neg.pdf(x),
                  0.0, tau, epsabs=1e-13)[0]

        def band(x):
            opts = [0.0, alpha - lam * (0.0 - x)]
            if tau - x <= eps:
                opts.append(1 - lam * (tau - x))
            return (1 - lam * (0.0 - x)) - max(opts)

        g2 = quad(lambda x: 0.5 * band(x) * mu_neg.pdf(x), -eps, 0.0, epsabs=1e-13)[0]
        assert rep.gap == pytest.approx(g1 + g2, abs=1e-9)


def test_gap_norm_verified_by_oracle(spec_1d):
    cfg = GameConfig("norm", 0.5, 0.5)
    rep = randomization_gap(ag.Threshold(0.0), spec_1d, cfg, alpha_thm=0.9,
                            delta=0.25)
    assert rep.passed
    assert rep.gap > 1e-6 and rep.gap_oracle > 1e-6
    assert rep.gap_oracle == pytest.approx(rep.gap, abs=5e-5)


def test_no_nash_needs_at_least_one_round(spec_1d, cfg_mass):
    # zero rounds would pass with nothing checked
    for rounds in (0, -1):
        with pytest.raises(ConfigError, match="rounds must be >= 1"):
            verify_no_pure_nash(spec_1d, cfg_mass, rounds=rounds)


def test_oracle_needs_at_least_one_point_per_piece(spec_1d, cfg_mass):
    # 0 divides by zero; a negative count gives a false score
    for per_piece in (0, -4):
        with pytest.raises(InvalidInput, match="per_piece must be >= 1"):
            worst_case_score_oracle(ag.Threshold(0.0), spec_1d, cfg_mass, 65, per_piece)


def test_gap_rejects_multi_boundary_base(spec_1d):
    h = ag.Interval1D((0.0, 1.0), (-1, 1, -1))
    with pytest.raises(UnsupportedKind):
        randomization_gap(h, spec_1d, GameConfig("mass", 0.4, 0.5), alpha_thm=0.8)


@pytest.mark.parametrize("penalty,delta", [("mass", None), ("norm", 0.2)])
def test_gap_mirror_symmetry(penalty, delta):
    # flipping the whole line maps the game onto itself: an orientation -1
    # base on the mirrored distribution must give identical scores and gap
    spec = ag.DistributionSpec(
        0.35, 1,
        (ag.GaussianComponent(1.0, (1.2,), (0.8,)),),
        (ag.GaussianComponent(1.0, (-0.7,), (1.1,)),),
    )
    mirrored = ag.DistributionSpec(
        0.35, 1,
        (ag.GaussianComponent(1.0, (-1.2,), (0.8,)),),
        (ag.GaussianComponent(1.0, (0.7,), (1.1,)),),
    )
    cfg = GameConfig(penalty, 0.4, 0.5)
    alpha = 0.93 if penalty == "norm" else 0.8
    a = randomization_gap(ag.Threshold(0.1, 1), spec, cfg, alpha_thm=alpha,
                          delta=delta, run_oracle=False)
    b = randomization_gap(ag.Threshold(-0.1, -1), mirrored, cfg, alpha_thm=alpha,
                          delta=delta, run_oracle=False)
    assert a.gap == pytest.approx(b.gap, rel=1e-12)
    assert a.score_h1 == pytest.approx(b.score_h1, rel=1e-12)
    assert a.flip_zone[0] == pytest.approx(-b.flip_zone[1], abs=1e-12)


def test_oracle_score_matches_closed_worst_case(spec_1d):
    from advgame.game import worst_case_score

    for cfg in (GameConfig("mass", 0.3, 0.5), GameConfig("norm", 0.3, 0.5)):
        h = ag.Threshold(0.0)
        closed = worst_case_score(h, spec_1d, cfg)
        brute = worst_case_score_oracle(h, spec_1d, cfg)
        assert brute == pytest.approx(closed, abs=5e-5)
        assert brute <= closed + 1e-9  # grid search never beats the true sup


def _oracle_score_piece_by_piece(model, spec, cfg, inner_n, per_piece, extra_splits):
    """worst_case_score_oracle with one oracle call per outer piece."""
    from advgame.distributions import density
    from advgame.game import oracle_value_profiles

    mix = as_mixture(model)
    breaks = sorted({b for h in mix.hypotheses for b in interval_form(h).breaks})
    lo_b, hi_b = (float(v[0]) for v in spec.bounds())
    splits = {lo_b, hi_b, *extra_splits}
    for b in breaks:
        splits.update((b, b - cfg.epsilon, b + cfg.epsilon))
    edges = sorted(s for s in splits if lo_b <= s <= hi_b)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a < 1e-12:
            continue
        h = (b - a) / per_piece
        xs = a + (np.arange(per_piece) + 0.5) * h
        profiles = oracle_value_profiles(mix, xs, cfg, inner_n)
        for label in (1, -1):
            dens = np.asarray(density(spec, label, xs.reshape(-1, 1)))
            total += spec.prior(label) * float((profiles[label] * dens).sum() * h)
    return total


@pytest.mark.parametrize("penalty", ["mass", "norm"])
def test_one_oracle_pass_sums_as_piece_by_piece(spec_1d, penalty):
    # one call over all pieces keeps every bit of one call per piece
    cfg = GameConfig(penalty, 0.4, 0.5)
    h1 = ag.Threshold(0.0)
    flip = ag.MixedClassifier((h1, ag.RegionFlip(h1, ag.IntervalRegion(0.0, 0.3))), (0.8, 0.2))
    extra = (-1.0, 0.3, 0.7, 1.0, 1e-13)
    for model in (h1, flip):
        for inner_n, per_piece, splits in ((1025, 256, extra), (65, 7, ())):
            assert worst_case_score_oracle(model, spec_1d, cfg, inner_n, per_piece, splits) \
                == _oracle_score_piece_by_piece(model, spec_1d, cfg, inner_n, per_piece, splits)


# ---------------------------------------------------------------------------
# Weak duality
# ---------------------------------------------------------------------------

def test_weak_duality_on_grid(spec_1d):
    cfg = GameConfig("mass", 0.3, 0.5)
    rep = weak_duality_grid(spec_1d, cfg, np.linspace(-1.0, 1.0, 11))
    assert rep.sup_inf <= rep.inf_sup + 1e-12
    assert rep.strict  # strict inequality in the regularized Gaussian instance


def test_weak_duality_norm_penalty(spec_1d):
    cfg = GameConfig("norm", 0.3, 0.5)
    rep = weak_duality_grid(spec_1d, cfg, np.linspace(-1.0, 1.0, 11))
    assert rep.sup_inf <= rep.inf_sup + 1e-12


@pytest.mark.parametrize("penalty", ["mass", "norm"])
@pytest.mark.parametrize("spec_name", ["spec_1d", "spec_1d_mix", "spec_1d_3_2"])
def test_weak_duality_payoff_is_the_adversarial_score(request, spec_name, penalty):
    # each cell is read from a shared error profile of h_i's interval form and
    # transported measure; it must carry the bits of the direct score of the
    # Threshold h_i against phi_j, also on criterion 10's grid of 11
    spec = request.getfixturevalue(spec_name)
    cfg = GameConfig(penalty, 0.3, 0.5)
    for thresholds in (np.linspace(-1.5, 1.5, 7), np.linspace(-1.0, 1.0, 11)):
        rep = weak_duality_grid(spec, cfg, thresholds)
        hyps = [ag.Threshold(float(t)) for t in thresholds]
        attacks = [ag.best_response_attack(h, spec, cfg) for h in hyps]
        direct = [[ag.adversarial_score(h, phi, spec, cfg).score for phi in attacks]
                  for h in hyps]
        assert np.array_equal(np.array(rep.payoff), np.array(direct))


# ---------------------------------------------------------------------------
# Figure data export
# ---------------------------------------------------------------------------

def test_fig1_export_files_and_content(tmp_path, spec_1d):
    cfg = GameConfig("mass", 0.3, 0.5)
    paths = fig1_export(spec_1d, cfg, tmp_path, resolution=401)
    names = {p.split("/")[-1] for p in paths}
    assert names == {"fig1_original.csv", "fig1_none.csv", "fig1_mass.csv",
                     "fig1_norm.csv", "fig1_atoms.csv"}

    def read(name):
        with open(tmp_path / name) as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], np.array(rows[1:], dtype=float)
        return header, data

    header, orig = read("fig1_original.csv")
    assert header == ["x", "mu_neg", "mu_pos"]
    xs = orig[:, 0]
    assert np.allclose(orig[:, 2], np.asarray(ag.density(spec_1d, 1, xs.reshape(-1, 1))))

    _, mass = read("fig1_mass.csv")
    zone = (xs > 0) & (xs <= 0.5 - 1e-5)
    assert np.all(mass[zone, 2] == 0.0)          # mu_pos zeroed on its zone
    off = xs > 0.55
    assert np.allclose(mass[off, 2], orig[off, 2])  # untouched off the zone

    _, none = read("fig1_none.csv")
    # translated toward the boundary: density of N(1 - eps, 1) for the pos class
    assert np.allclose(none[:, 2], norm.pdf(xs, loc=0.5, scale=1.0), atol=1e-12)

    with open(tmp_path / "fig1_atoms.csv") as fh:
        atoms = list(csv.reader(fh))[1:]
    panels = {row[0] for row in atoms}
    assert panels == {"mass", "norm"}
    # atom mass equals the evacuated zone mass
    norm_pos = [row for row in atoms if row[0] == "norm" and row[2] == "1"]
    assert float(norm_pos[0][3]) == pytest.approx(norm.cdf(-0.5) - norm.cdf(-1.0), rel=1e-9)
