import itertools
import math

import numpy as np
import pytest
from scipy.stats import norm

import advgame as ag
from advgame.game import (
    GameConfig,
    IdentityAttack,
    LinearAttack,
    Map1D,
    OVERSHOOT,
    adversarial_score,
    best_response_attack,
    best_response_defender,
    check_budget,
    oracle_attack_points_1d,
    oracle_value_profiles,
    pointwise_attack_oracle,
    transported_measure,
)
from advgame.hypotheses import (
    Binned2D,
    Interval1D,
    IntervalRegion,
    MixedClassifier,
    Mlp,
    RegionFlip,
    as_mixture,
    interval_form,
    make_interval1d,
)
from advgame import game, intervals as iv, nets
from quadrature_oracle import discretized_score


# ---------------------------------------------------------------------------
# Closed-form attacker best responses
# ---------------------------------------------------------------------------

def test_mass_attack_crosses_boundary(spec_1d, cfg_mass):
    attack = best_response_attack(ag.Threshold(0.0), spec_1d, cfg_mass)
    assert isinstance(attack, Map1D)
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
    assert isinstance(attack, Map1D)
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
    # breaks, and the full grid is evaluated without rounding ambiguity. The
    # last two models are not Interval1D (criterion 4's flip mixture and a 1-D
    # Linear): the oracle tables, and the dense grid reads, their interval forms
    rng = np.random.default_rng(grid_n + len(penalty))
    flip = MixedClassifier((ag.Threshold(0.0), RegionFlip(ag.Threshold(0.0),
                                                          IntervalRegion(0.0, 0.45))), (0.8, 0.2))
    hits = 0
    for case in range(14):
        cfg = GameConfig(penalty, float(rng.choice([0.3, 0.45, 0.7])),
                         float(rng.choice([0.25, 0.5])))
        step = 2 * cfg.epsilon / (grid_n - 1)
        xs = np.concatenate([rng.uniform(-2, 2, 24),
                             rng.integers(-2 * 64, 2 * 64, 24) / 64.0,
                             rng.integers(-int(2 / step), int(2 / step), 16) * step])
        if case >= 12:
            model = flip if case == 12 else ag.Linear((-1.5,), 0.375)
            mix = as_mixture(model)
            forms, weights = [interval_form(h) for h in mix.hypotheses], mix.weights
        elif case % 2:
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


@pytest.mark.parametrize("penalty", ["mass", "norm"])
def test_oracle_does_not_depend_on_batching(penalty):
    # rows reach no break, one break, several, or (the dense comb) more than
    # a windowed grid of 33 points holds, so their blocks differ in width
    comb = make_interval1d(np.linspace(1.0, 1.3, 9).tolist(), [(-1) ** i for i in range(10)])
    models = [
        ag.Threshold(0.0),
        MixedClassifier((ag.Threshold(0.0), Interval1D((-0.5, 0.25), (1, -1, 1)), comb),
                        (0.5, 0.3, 0.2)),
        Mlp(nets.init_mlp((1, 6, 1), seed=3)),
    ]
    cfg = GameConfig(penalty, 0.3, 0.5)
    rng = np.random.default_rng(7)
    xs = np.concatenate([rng.uniform(-3, 3, 4000), np.arange(-12, 13) / 8.0])
    perm = rng.permutation(len(xs))
    for model in models:
        profiles = oracle_value_profiles(model, xs, cfg, 33)
        shuffled = oracle_value_profiles(model, xs[perm], cfg, 33)
        halves = [oracle_value_profiles(model, part, cfg, 33) for part in (xs[:1700], xs[1700:])]
        for y in (1, -1):
            assert np.array_equal(shuffled[y], profiles[y][perm])
            assert np.array_equal(np.concatenate([h[y] for h in halves]), profiles[y])
            points = oracle_attack_points_1d(model, xs, y, cfg, 33)
            assert np.array_equal(oracle_attack_points_1d(model, xs[perm], y, cfg, 33),
                                  points[perm])
            assert np.array_equal(np.concatenate([
                oracle_attack_points_1d(model, part, y, cfg, 33) for part in (xs[:1700], xs[1700:])
            ]), points)


def test_oracle_on_no_points_returns_empty_arrays(cfg_norm):
    for model in (ag.Threshold(0.0), Mlp(nets.init_mlp((1, 6, 1), seed=3))):
        profiles = oracle_value_profiles(model, np.empty(0), cfg_norm, 33)
        assert profiles[1].shape == profiles[-1].shape == (0,)
        assert oracle_attack_points_1d(model, np.empty(0), 1, cfg_norm, 33).shape == (0, 1)


@pytest.mark.parametrize("penalty", ["mass", "norm"])
def test_oracle_attack_point_ties_go_to_the_smaller_z(penalty):
    # at x = 0 both breaks of the +1 cell are maxima at the same |offset|,
    # and the tie rule takes the smaller z whatever order the candidates have
    h = Interval1D((-0.25, 0.25), (-1, 1, -1))
    cfg = GameConfig(penalty, 0.3, 0.5)
    points = oracle_attack_points_1d(h, np.array([0.0, 0.125, -0.125]), 1, cfg, 33)
    assert points[:, 0].tolist() == [-0.25, 0.25, -0.25]


def test_oracle_value_profiles_reads_points_as_the_attack_points_do(cfg_norm):
    h = Interval1D((-0.25, 0.25), (-1, 1, -1))
    xs = np.linspace(-1.0, 1.0, 9)
    flat = oracle_value_profiles(h, xs, cfg_norm, 33)
    for form in (xs.tolist(), xs.reshape(-1, 1)):
        got = oracle_value_profiles(h, form, cfg_norm, 33)
        for y in (1, -1):
            assert np.array_equal(got[y], flat[y])


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
    attack = Map1D(0.3, shift_pos=-0.3, shift_neg=0.2)
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


# ---------------------------------------------------------------------------
# One piecewise map behind apply and the exact scores
# ---------------------------------------------------------------------------

def _sweep_form(rng, n_breaks):
    """Random breaks and cell signs, equal-sign neighbours merged; a lone break
    keeps opposite signs, so the penalty-free map has its boundary."""
    breaks = np.sort(rng.uniform(-3.0, 3.0, n_breaks)).tolist()
    signs = rng.choice([-1, 1], n_breaks + 1)
    if n_breaks == 1:
        signs[1] = -signs[0]
    return make_interval1d(breaks, signs)


@pytest.mark.parametrize("penalty", ["mass", "norm", "none"])
def test_map_apply_reads_the_pieces_on_a_seeded_sweep(penalty):
    rng = np.random.default_rng(19)
    for _ in range(40):
        form = _sweep_form(rng, 1 if penalty == "none" else int(rng.integers(1, 5)))
        eps = float(rng.uniform(0.05, 1.0))
        attack = best_response_attack(form, None, GameConfig(penalty, 0.3, eps))
        assert isinstance(attack, Map1D)
        assert (attack.pieces == ()) == (penalty == "none" or len(set(form.signs)) == 1)
        x = rng.uniform(-4.0, 4.0, 400)
        for y in (1, -1):
            out = attack.apply(x.reshape(-1, 1), y)[:, 0]
            want = x + attack.shift(y) if attack.shift(y) else x.copy()
            held = np.zeros(x.shape, dtype=bool)
            for label, lo, hi, target in attack.pieces:
                if label == y:
                    inside = (x > lo) & (x < hi)
                    want[inside] = target
                    assert not (held & inside).any()
                    held |= inside
            assert np.array_equal(out, want)
            if penalty == "none":
                continue
            # the pieces are the attackable band, each carried to its nearest
            # opposite boundary (across it by OVERSHOOT under mass)
            other = form.sign_intervals(-y)
            radius = eps - OVERSHOOT if penalty == "mass" else eps
            band = (form.predicts(x.reshape(-1, 1)) == y) & (iv.distance(other, x) <= radius)
            assert np.array_equal(held, band)
            ends = np.array([e for ab in other for e in ab if np.isfinite(e)])
            if band.any():
                near = ends[np.abs(ends[None, :] - x[band, None]).argmin(axis=1)]
                over = OVERSHOOT if penalty == "mass" else 0.0
                assert np.array_equal(out[band], near + np.sign(near - x[band]) * over)


@pytest.mark.parametrize("penalty", ["mass", "norm"])
def test_map_edge_rule_on_measure_zero_points(penalty):
    over = OVERSHOOT if penalty == "mass" else 0.0
    cfg = GameConfig(penalty, 0.3, 0.5)
    attack = best_response_attack(ag.Threshold(0.0), None, cfg)
    far = 0.5 - over  # the depth of the band
    assert attack.pieces == ((1, 0.0, far, -over), (-1, -far, 0.0, over))
    # a point on the boundary stays put: each piece is open next to its target
    assert attack.apply(np.array([[0.0]]), 1)[0, 0] == 0.0
    assert attack.apply(np.array([[0.0]]), -1)[0, 0] == 0.0
    # the far end of a piece moves
    assert attack.apply(np.array([[far]]), 1)[0, 0] == -over
    assert attack.apply(np.array([[-far]]), -1)[0, 0] == over
    # where two pieces meet, the first (left-target) piece takes the point
    form = Interval1D((-1.0, 0.3), (1, -1, 1))
    attack = best_response_attack(form, None, GameConfig(penalty, 0.3, 1.0))
    mid = 0.5 * (-1.0 + 0.3)
    neg = [p for p in attack.pieces if p[0] == -1]
    assert [p[1:3] for p in neg] == [(-1.0, mid), (mid, 0.3)]
    assert attack.apply(np.array([[mid]]), -1)[0, 0] == -1.0 - over


def test_map_with_zero_shift_keeps_signed_zeros():
    pts = np.array([[-0.0], [0.7]])
    out = Map1D(0.5, shift_pos=0.0, shift_neg=0.2).apply(pts, 1)
    assert np.array_equal(out, pts) and math.copysign(1.0, out[0, 0]) == -1.0
    assert np.array_equal(Map1D(0.5, shift_neg=0.2).apply(pts, -1)[:, 0], [0.2, 0.7 + 0.2])


def _nearest_opposite_pieces(form, budget, mode):
    """Reference zone map: each band piece searches every opposite-sign cell
    for its nearest boundary on either side and splits at their midpoint."""
    radius = budget - OVERSHOOT if mode == "mass" else budget
    over = OVERSHOOT if mode == "mass" else 0.0
    out = []
    for y in (1, -1):
        other = form.sign_intervals(-y)
        for lo, hi in form.band(y, radius):
            left = [bhi for _, bhi in other if bhi <= lo + 1e-300]
            right = [blo for blo, _ in other if blo >= hi - 1e-300]
            lt = max(left) if left else None
            rt = min(right) if right else None
            if lt is not None and rt is not None:
                mid = 0.5 * (lt + rt)
                if mid > lo:
                    out.append((y, lo, min(hi, mid), lt - over))
                if mid < hi:
                    out.append((y, max(lo, mid), hi, rt + over))
            elif lt is not None:
                out.append((y, lo, hi, lt - over))
            elif rt is not None:
                out.append((y, lo, hi, rt + over))
    return tuple(out)


def test_zone_pieces_match_the_nearest_opposite_cell_search_bit_for_bit():
    rng = np.random.default_rng(26)
    budgets = (2e-6, 0.0625, 0.25, 0.5, 1.0, 3.0, float(rng.uniform(0.01, 2.0)))
    split = 0
    for n, dyadic, first, _ in itertools.product(range(7), (True, False), (1, -1), range(6)):
        if dyadic:
            breaks = np.sort(rng.choice(np.arange(-48, 49), n, replace=False)) / 16
        else:
            breaks = np.sort(rng.uniform(-3.0, 3.0, n))
        form = Interval1D(tuple(map(float, breaks)), tuple(first * (-1) ** i for i in range(n + 1)))
        for budget, mode in itertools.product(budgets, ("mass", "norm")):
            got = game._zone_pieces(form, budget, mode)
            want = _nearest_opposite_pieces(form, budget, mode)
            assert ([(y, *map(float.hex, p)) for y, *p in got]
                    == [(y, *map(float.hex, p)) for y, *p in want])
            split += any(a[0] == b[0] and a[2] == b[1] for a, b in zip(got, got[1:]))
    assert split > 0  # some band pieces span a cell's midpoint
