import math

import numpy as np
import pytest
from scipy.stats import norm

import advgame as ag
from advgame.game import (
    GameConfig,
    IdentityAttack,
    LinearAttack,
    OVERSHOOT,
    TranslateAttack1D,
    ZoneAttack1D,
    adversarial_score,
    best_response_attack,
    best_response_defender,
    check_budget,
    oracle_attack_points_1d,
    oracle_value_profiles,
    pointwise_attack_oracle,
    transported_measure,
)
from advgame.hypotheses import Binned2D, Interval1D, MixedClassifier, Mlp, interval_form
from advgame import nets
from quadrature_oracle import discretized_score


# ---------------------------------------------------------------------------
# Closed-form attacker best responses
# ---------------------------------------------------------------------------

def test_mass_attack_crosses_boundary(spec_1d, cfg_mass):
    attack = best_response_attack(ag.Threshold(0.0), spec_1d, cfg_mass)
    assert isinstance(attack, ZoneAttack1D)
    xs = np.array([[0.1], [0.4], [0.499998], [0.6], [-0.2]])
    out = attack.apply(xs, 1)
    # attackable points land just across the boundary
    assert np.allclose(out[:3, 0], -OVERSHOOT)
    # depth beyond eps - overshoot stays put, as do negative-side points
    assert out[3, 0] == 0.6
    assert out[4, 0] == -0.2


def test_norm_attack_projects_onto_boundary(spec_1d, cfg_norm):
    attack = best_response_attack(ag.Threshold(0.0), spec_1d, cfg_norm)
    xs = np.array([[0.1], [0.5], [0.51], [-0.3]])
    out = attack.apply(xs, 1)
    assert np.all(out[:2, 0] == 0.0)
    assert out[2, 0] == 0.51
    assert out[3, 0] == -0.3
    neg = attack.apply(np.array([[-0.2], [-0.7]]), -1)
    assert neg[0, 0] == 0.0
    assert neg[1, 0] == -0.7


def test_attack_images_land_on_boundary_within_budget(spec_1d, cfg_norm):
    h = ag.Threshold(0.0)
    attack = best_response_attack(h, spec_1d, cfg_norm)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-3, 3, (500, 1))
    for label in (1, -1):
        out = attack.apply(xs, label)
        moved = out[:, 0] != xs[:, 0]
        # images on the decision boundary, within budget
        assert np.all(np.abs(h.decision_values(out[moved])) <= 1e-12)
        assert np.all(np.abs(out - xs)[moved] <= cfg_norm.epsilon + 1e-12)
        # points outside the attackable band are fixed
        band = ag.BandRegion(h, cfg_norm.epsilon, label)
        outside = ~band.contains_many(xs)
        assert not moved[outside].any()


def test_none_penalty_attack_translates_everything(spec_1d):
    cfg = GameConfig("none", 0.3, 0.5)
    attack = best_response_attack(ag.Threshold(0.0), spec_1d, cfg)
    assert isinstance(attack, TranslateAttack1D)
    xs = np.array([[1.4], [-0.2]])
    assert np.allclose(attack.apply(xs, 1)[:, 0], xs[:, 0] - 0.5)
    assert np.allclose(attack.apply(xs, -1)[:, 0], xs[:, 0] + 0.5)


def test_linear_attack_any_dimension():
    h = ag.Linear((3.0, 4.0), 0.0)  # ||w|| = 5
    cfg = GameConfig("norm", 0.3, 0.5)
    attack = best_response_attack(h, None, cfg)
    x = np.array([[0.3, 0.4]])  # g = 2.5, distance 0.5: just attackable
    out = attack.apply(x, 1)
    assert h.decision_values(out)[0] == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(out - x) == pytest.approx(0.5, abs=1e-12)
    far = np.array([[0.6, 0.8]])
    assert np.array_equal(attack.apply(far, 1), far)


@pytest.mark.parametrize("norm_kind", ["l2", "linf"])
@pytest.mark.parametrize("penalty", ["mass", "norm", "none"])
def test_linear_attack_zone_map(penalty, norm_kind):
    h = ag.Linear((1.0, 0.5), -0.75)
    budget = 0.2
    attack = best_response_attack(h, None, GameConfig(penalty, 0.3, budget, norm_kind))
    assert isinstance(attack, LinearAttack)
    w = np.asarray(h.w)
    dual = np.linalg.norm(w) if norm_kind == "l2" else np.abs(w).sum()
    radius = budget - OVERSHOOT if penalty == "mass" else budget
    X = np.random.default_rng(11).uniform(0.0, 1.0, (2000, 2))
    g = h.decision_values(X)
    for label in (1, -1):
        out = attack.apply(X, label)
        check_budget(X, out, attack)
        g_out = h.decision_values(out)
        if penalty == "none":
            assert np.allclose(g_out, g - label * budget * dual, rtol=0.0, atol=1e-12)
            continue
        zone = (np.sign(g) == label) & (np.abs(g) / dual <= radius)
        moved = np.any(out != X, axis=1)
        assert zone.any() and not moved[~zone].any()
        if penalty == "mass":
            assert np.all(np.sign(g_out[zone]) == -label)
        else:
            assert np.all(np.abs(g_out[zone]) <= 1e-12)


# ---------------------------------------------------------------------------
# Pointwise oracle
# ---------------------------------------------------------------------------

def test_oracle_fixes_deep_points(spec_1d, cfg_mass):
    h = ag.Threshold(0.0)
    z = pointwise_attack_oracle(h, np.array([2.0]), 1, cfg_mass)
    assert z[0] == 2.0


def test_oracle_fixes_misclassified_points(spec_1d, cfg_mass, cfg_norm):
    h = ag.Threshold(0.0)
    for cfg in (cfg_mass, cfg_norm):
        z = pointwise_attack_oracle(h, np.array([-0.2]), 1, cfg)  # already wrong
        assert z[0] == -0.2


def test_oracle_agrees_with_closed_form_on_grid(spec_1d, cfg_mass, cfg_norm):
    h = ag.Threshold(0.0)
    for cfg in (cfg_mass, cfg_norm):
        attack = best_response_attack(h, spec_1d, cfg)
        for x in np.linspace(-1.6, 1.6, 64):
            for label in (1, -1):
                z_oracle = pointwise_attack_oracle(h, np.array([x]), label, cfg,
                                                   grid_n=2 ** 15 + 1)
                z_closed = attack.apply(np.array([[x]]), label)[0]
                # both achieve the same value: compare achieved objectives
                def value(z):
                    err = float(h.predict(np.array([z])) != label)
                    pen = (z != x) if cfg.penalty == "mass" else abs(z - x)
                    return err - cfg.lam * pen
                assert value(z_closed[0]) >= value(z_oracle[0]) - 1e-4


def test_closed_form_never_beaten_on_sampled_points(spec_1d, cfg_mass, cfg_norm):
    # the per-point value of the closed form dominates the oracle's grid search
    h = ag.Threshold(0.0)
    rng = np.random.default_rng(2)
    xs = rng.uniform(-2, 2, 256)
    wrong = (h.predicts(xs.reshape(-1, 1)) != 1).astype(float)
    for cfg in (cfg_mass, cfg_norm):
        vals = oracle_value_profiles(h, xs, cfg, grid_n=4097)[1]
        if cfg.penalty == "norm":
            zone_val = np.where((xs > 0) & (xs <= 0.5), 1 - cfg.lam * xs, 0.0)
        else:
            zone_val = np.where((xs > 0) & (xs <= 0.5), 1 - cfg.lam, 0.0)
        closed = np.maximum(wrong, zone_val)
        assert np.all(closed >= vals - 1e-6)


def test_oracle_2d_ball_and_dimension_guard(cfg_mass):
    h = ag.Linear((1.0, 0.0), -0.5)
    z = pointwise_attack_oracle(h, np.array([0.55, 0.5]), 1, cfg_mass, grid_n=41)
    assert h.predict(z) != 1  # crossed
    # g = x + y - 1 lies 0.112 away in l2 and 0.079 in linf: only the square reaches it,
    # and with no penalty its least-linf wrong grid point is the diagonal one
    diag = ag.Linear((1.0, 1.0), -1.0)
    x = np.array([0.421, 0.421])
    for norm_kind, move in (("l2", 0.0), ("linf", 0.08)):
        z = pointwise_attack_oracle(diag, x, -1, GameConfig("none", 0.3, 0.1, norm_kind),
                                    grid_n=41)
        np.testing.assert_allclose(z, x + move, rtol=0, atol=1e-12)
    from advgame.errors import UnsupportedDimension

    with pytest.raises(UnsupportedDimension):
        pointwise_attack_oracle(h, np.array([0.5, 0.5, 0.5]), 1, cfg_mass)


def test_oracle_2d_norm_penalty_is_charged_in_the_attack_norm():
    # g = x + y/2 - 1 is 0.25/1.5 away from (0.5, 0.5) in linf (along (1, 1)) and
    # 0.25/sqrt(1.25) in l2 (along w): the norm penalty picks the shortest move to
    # an error in the attack's own norm
    h = ag.Linear((1.0, 0.5), -1.0)
    x = np.array([0.5, 0.5])
    for norm_kind, shortest in (("l2", 0.25 / math.sqrt(1.25)), ("linf", 0.25 / 1.5)):
        cfg = GameConfig("norm", 0.5, 0.25, norm_kind)
        z = pointwise_attack_oracle(h, x, -1, cfg, grid_n=129)
        move = np.abs(z - x).max() if norm_kind == "linf" else np.linalg.norm(z - x)
        assert h.predict(z) != -1  # on the boundary or past it: an error either way
        assert shortest <= move < shortest + 2 * 0.5 / 128


def _dense_oracle(forms, weights, xs, y, cfg, grid_n):
    """Full ball-grid search: (max value, tie-broken argmax point) per x."""
    offsets = np.linspace(-cfg.epsilon, cfg.epsilon, grid_n)
    Z = xs[:, None] + offsets[None, :]
    left = np.zeros(Z.shape)
    right = np.zeros(Z.shape)
    for q, f in zip(weights, forms):
        breaks, signs = np.asarray(f.breaks), np.asarray(f.signs)
        below = (breaks[None, None, :] < Z[:, :, None]).sum(axis=2)
        upto = (breaks[None, None, :] <= Z[:, :, None]).sum(axis=2)
        left += q * (signs[below] != y)
        right += q * (signs[upto] != y)
    err = np.maximum(left, right)  # one-sided limits at breaks
    if cfg.penalty == "mass":
        pen = cfg.lam * (np.abs(offsets) > 0)
    elif cfg.penalty == "norm":
        pen = cfg.lam * np.abs(offsets)
    else:
        pen = np.zeros(grid_n)
    vals = err - pen[None, :]
    best = vals.max(axis=1)
    points = np.empty(len(xs))
    for i in range(len(xs)):
        top = np.flatnonzero(vals[i] == best[i])
        nearest = top[np.abs(offsets[top]) == np.abs(offsets[top]).min()]
        points[i] = Z[i, nearest].min()
    return best, points, np.isin(Z, np.concatenate([f.breaks for f in forms])).any()


def _random_form(rng):
    breaks = np.unique(rng.integers(-48, 49, rng.integers(1, 5)) / 32.0)
    first = int(rng.choice([-1, 1]))
    return Interval1D(tuple(map(float, breaks)),
                      tuple(first * (-1) ** i for i in range(len(breaks) + 1)))


@pytest.mark.parametrize("grid_n", [33, 257, 1025])
@pytest.mark.parametrize("penalty", ["mass", "norm", "none"])
def test_pruned_oracle_matches_dense_grid(penalty, grid_n):
    # dyadic breaks, weights, budgets and xs: some grid points land exactly on
    # breaks, and the full grid is evaluated without rounding ambiguity
    rng = np.random.default_rng(grid_n + len(penalty))
    hits = 0
    for case in range(12):
        cfg = GameConfig(penalty, float(rng.choice([0.3, 0.45, 0.7])),
                         float(rng.choice([0.25, 0.5])))
        step = 2 * cfg.epsilon / (grid_n - 1)
        xs = np.concatenate([rng.uniform(-2, 2, 24),
                             rng.integers(-2 * 64, 2 * 64, 24) / 64.0,
                             rng.integers(-int(2 / step), int(2 / step), 16) * step])
        if case % 2:
            forms, weights = [_random_form(rng), _random_form(rng)], [0.625, 0.375]
            model = MixedClassifier(tuple(forms), tuple(weights))
        else:
            forms, weights = [_random_form(rng)], [1.0]
            model = forms[0]
        profiles = oracle_value_profiles(model, xs, cfg, grid_n)
        for y in (1, -1):
            best, points, hit = _dense_oracle(forms, weights, xs, y, cfg, grid_n)
            hits += hit
            assert np.array_equal(profiles[y], best)
            assert np.array_equal(oracle_attack_points_1d(model, xs, y, cfg, grid_n)[:, 0],
                                  points)
    assert hits > 0


def test_oracle_without_interval_form_searches_full_grid():
    h = Mlp(nets.init_mlp((1, 6, 1), seed=3))
    cfg = GameConfig("norm", 0.3, 0.5)
    xs = np.linspace(-1.0, 1.0, 17)
    offsets = np.linspace(-0.5, 0.5, 65)
    Z = xs[:, None] + offsets[None, :]
    for y in (1, -1):
        errs = h.predicts(Z.reshape(-1, 1)).reshape(Z.shape) != y
        vals = errs - cfg.lam * np.abs(offsets)[None, :]
        assert np.array_equal(oracle_value_profiles(h, xs, cfg, 65)[y], vals.max(axis=1))


# ---------------------------------------------------------------------------
# Defender best response
# ---------------------------------------------------------------------------

def test_defender_identity_attack_is_bayes(spec_1d, cfg_mass):
    d = best_response_defender(IdentityAttack(), spec_1d, cfg_mass)
    assert isinstance(d, ag.Bayes)


def test_defender_flips_evacuated_zone_mass(spec_1d, cfg_mass):
    attack = best_response_attack(ag.Threshold(0.0), spec_1d, cfg_mass)
    d = best_response_defender(attack, spec_1d, cfg_mass)
    # transported mu1 mass in (0, eps] is 0, mu-1 mass there is positive:
    # the returned defender classifies that zone -1
    assert d.predict(np.array([0.25])) == -1
    assert d.predict(np.array([-0.25])) == 1  # symmetric flip
    assert d.predict(np.array([1.0])) == 1
    assert d.predict(np.array([-1.0])) == -1


def test_defender_norm_attack_atom_assignment(spec_1d, cfg_norm):
    attack = best_response_attack(ag.Threshold(0.0), spec_1d, cfg_norm)
    d = best_response_defender(attack, spec_1d, cfg_norm)
    # both classes project onto the boundary with equal mass: tie goes to +1
    assert d.predict(np.array([0.0])) == 1
    # asymmetric prior breaks the tie toward the heavier class
    skew = ag.DistributionSpec(0.2, 1, spec_1d.components_pos, spec_1d.components_neg)
    attack2 = best_response_attack(ag.Threshold(0.0), skew, cfg_norm)
    d2 = best_response_defender(attack2, skew, cfg_norm)
    assert d2.predict(np.array([0.0])) == -1


def test_defender_improves_score(spec_1d, cfg_mass):
    h = ag.Threshold(0.0)
    attack = best_response_attack(h, spec_1d, cfg_mass)
    before = adversarial_score(h, attack, spec_1d, cfg_mass).score
    d = best_response_defender(attack, spec_1d, cfg_mass)
    after = adversarial_score(d, attack, spec_1d, cfg_mass).score
    assert after < before


def test_defender_binned_2d(spec_2d, cfg_mass):
    h = ag.Linear((1.0, 1.0), -1.0)
    cfg = GameConfig("mass", 0.3, 0.1, mc_n=20000)
    attack = best_response_attack(h, spec_2d, cfg)
    d = best_response_defender(attack, spec_2d, cfg)
    assert isinstance(d, Binned2D)
    # far from the boundary the binned Bayes rule matches the ground truth
    assert d.predict(np.array([0.6, 0.6])) == 1
    assert d.predict(np.array([0.4, 0.4])) == -1


# ---------------------------------------------------------------------------
# Transported measures
# ---------------------------------------------------------------------------

def test_transported_measure_masses(spec_1d, cfg_norm):
    attack = best_response_attack(ag.Threshold(0.0), spec_1d, cfg_norm)
    tr = transported_measure(attack, spec_1d)
    # the positive-class atom at the boundary carries exactly mu1((0, 0.5])
    atoms = dict(tr.atoms(1))
    assert atoms[0.0] == pytest.approx(norm.cdf(-0.5) - norm.cdf(-1.0), rel=1e-12)
    # alive part plus atoms is a probability measure
    from advgame.distributions import interval_mass
    total = interval_mass(spec_1d, 1, tr.alive(1)) + sum(m for _, m in tr.atoms(1))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_transported_measure_of_translation(spec_1d):
    attack = TranslateAttack1D(shift_pos=-0.3, shift_neg=0.2, budget=0.3)
    tr = transported_measure(attack, spec_1d)
    assert (tr.shift(1), tr.shift(-1)) == (-0.3, 0.2)
    for label in (1, -1):
        assert tr.alive(label) == [(-np.inf, np.inf)]
        assert tr.atoms(label) == []
    zone = transported_measure(best_response_attack(ag.Threshold(0.0), spec_1d,
                                                    GameConfig("mass", 0.3, 0.5)), spec_1d)
    assert (zone.shift(1), zone.shift(-1)) == (0.0, 0.0)


def test_discretized_score_matches_between_paths(spec_1d, cfg_mass):
    h = ag.Threshold(0.0)
    attack = best_response_attack(h, spec_1d, cfg_mass)
    xs = np.linspace(-8, 8, 200)
    a = discretized_score(h, attack.apply, spec_1d, cfg_mass, xs)

    def oracle_apply(pts, label):
        return np.vstack([
            pointwise_attack_oracle(h, x, label, cfg_mass, grid_n=2 ** 15 + 1)
            for x in pts
        ])

    b = discretized_score(h, oracle_apply, spec_1d, cfg_mass, xs)
    assert a >= b - 1e-9
    assert abs(a - b) < 1e-6
