import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import advgame as ag
from advgame import distributions as dist
from advgame.errors import BudgetViolation, ConfigError, InvalidInput, UnsupportedDimension
from advgame.game import IdentityAttack, PointwiseAttack
from quadrature_oracle import GridSpec, integrate


def test_density_standard_normal_at_mode():
    spec = ag.two_gaussians_1d(mean_neg=0.0, mean_pos=0.0)
    assert ag.density(spec, 1, np.array([0.0])) == pytest.approx(1 / math.sqrt(2 * math.pi))


def test_density_peak_formula_2d(spec_2d):
    # at the mean of a single-component class: (2 pi)^(-d/2) det(Sigma)^(-1/2)
    val = ag.density(spec_2d, 1, np.array([0.6, 0.6]))
    expect = (2 * math.pi) ** (-1) * (0.01 * 0.01) ** (-0.5)
    assert val == pytest.approx(expect, rel=1e-12)


def test_density_two_component_mixture_closed_form():
    spec = ag.DistributionSpec(
        0.5, 1,
        (ag.GaussianComponent(0.5, (-2.0,), (1.0,)),
         ag.GaussianComponent(0.5, (2.0,), (1.0,))),
        (ag.GaussianComponent(1.0, (0.0,), (1.0,)),),
    )
    # hand-evaluated Gaussian formula: 0.5 * (phi(-2) + phi(2)) at x = 0
    expect = 0.5 * (norm.pdf(-2) + norm.pdf(2))
    assert ag.density(spec, 1, np.array([0.0])) == pytest.approx(expect, rel=1e-12)


def test_density_dimension_mismatch(spec_2d):
    with pytest.raises(InvalidInput):
        ag.density(spec_2d, 1, np.array([0.0, 1.0, 2.0]))


def test_spec_validation_errors():
    comp = ag.GaussianComponent(1.0, (0.0,), (1.0,))
    with pytest.raises(InvalidInput):
        ag.DistributionSpec(0.0, 1, (comp,), (comp,))
    with pytest.raises(InvalidInput):
        ag.DistributionSpec(1.0, 1, (comp,), (comp,))
    with pytest.raises(InvalidInput):
        ag.DistributionSpec(0.5, 1, (ag.GaussianComponent(0.9, (0.0,), (1.0,)),), (comp,))
    with pytest.raises(InvalidInput):
        ag.GaussianComponent(1.0, (0.0,), (0.0,))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sample_label_frequency_within_binomial_band(spec_1d):
    n = 1000
    m = ag.sample_labeled(spec_1d, n, seed=0)
    frac = (m.labels == 1).mean()
    sigma = math.sqrt(0.25 / n)
    assert abs(frac - 0.5) < 5 * sigma


def test_sample_determinism(spec_1d_mix):
    a = ag.sample_labeled(spec_1d_mix, 500, seed=42)
    b = ag.sample_labeled(spec_1d_mix, 500, seed=42)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)
    c = ag.sample_labeled(spec_1d_mix, 500, seed=43)
    assert not np.array_equal(a.points, c.points)


def test_sample_class_mean_clt_band(spec_1d):
    n = 10 ** 5
    m = ag.sample_labeled(spec_1d, n, seed=1)
    pos = m.points[m.labels == 1, 0]
    assert abs(pos.mean() - 1.0) < 5 / math.sqrt(len(pos))


def test_sample_rejects_zero():
    with pytest.raises(InvalidInput):
        ag.sample_labeled(ag.two_gaussians_1d(), 0, seed=0)


def test_monte_carlo_expectation_within_statistical_band(spec_1d_mix):
    # E over samples of a bounded f converges to the quadrature value within
    # 5 * range(f) / sqrt(n)
    f = lambda pts: np.tanh(pts[:, 0])  # range 2
    n = 20000
    m = ag.sample_labeled(spec_1d_mix, n, seed=17)
    pos = m.points[m.labels == 1]
    mc = float(np.tanh(pos[:, 0]).mean())
    exact = integrate(f, spec_1d_mix, 1)
    assert abs(mc - exact) < 5 * 2 / math.sqrt(len(pos))


# ---------------------------------------------------------------------------
# Pushforward
# ---------------------------------------------------------------------------

def test_pushforward_identity_is_identity(spec_1d):
    m = ag.sample_labeled(spec_1d, 200, seed=3)
    out = ag.pushforward_empirical(m, IdentityAttack())
    assert np.array_equal(out.points, m.points)
    assert np.array_equal(out.labels, m.labels)


def test_pushforward_norm_attack_projects_zone(spec_1d, cfg_norm):
    h = ag.Threshold(0.0)
    attack = ag.best_response_attack(h, spec_1d, cfg_norm)
    m = ag.sample_labeled(spec_1d, 500, seed=4)
    out = ag.pushforward_empirical(m, attack)
    pos = m.labels == 1
    zone = pos & (m.points[:, 0] > 0) & (m.points[:, 0] <= 0.5)
    assert zone.any()
    assert np.all(out.points[zone, 0] == 0.0)  # projected onto the boundary
    untouched = pos & ~zone
    assert np.array_equal(out.points[untouched], m.points[untouched])


def test_pushforward_budget_violation(spec_1d):
    bad = PointwiseAttack(fn=lambda x, label: x + 0.6, budget=0.5)
    m = ag.sample_labeled(spec_1d, 10, seed=5)
    with pytest.raises(BudgetViolation):
        ag.pushforward_empirical(m, bad)


def test_pushforward_preserves_count_and_labels(spec_1d, cfg_mass):
    attack = ag.best_response_attack(ag.Threshold(0.0), spec_1d, cfg_mass)
    m = ag.sample_labeled(spec_1d, 300, seed=6)
    out = ag.pushforward_empirical(m, attack)
    assert len(out) == len(m)
    assert np.array_equal(out.labels, m.labels)


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------

def test_integrate_normalization(spec_1d_mix):
    for label in (1, -1):
        val = integrate(lambda pts: np.ones(pts.shape[0]), spec_1d_mix, label)
        assert val == pytest.approx(1.0, abs=1e-8)


def _half_indicator(threshold):
    # indicator of (threshold, inf) with the symmetric half-value convention at
    # the jump, so a grid node sitting exactly on it integrates cleanly
    def f(pts):
        x = pts[:, 0]
        return (x > threshold) + 0.5 * (x == threshold)

    return f


def test_integrate_indicator_matches_gaussian_cdf(spec_1d):
    # grid with a node exactly at the jump: (-7, 9) at 2^14+1 puts 0 on a node
    grid = GridSpec(resolution=2 ** 14 + 1, bounds=((-7.0, 9.0),))
    val = integrate(_half_indicator(0.0), spec_1d, 1, grid)
    assert val == pytest.approx(norm.cdf(1.0), abs=1e-6)
    sym = integrate(
        _half_indicator(0.0),
        ag.two_gaussians_1d(mean_pos=0.0),
        1,
        GridSpec(resolution=2 ** 14 + 1, bounds=((-8.0, 8.0),)),
    )
    assert sym == pytest.approx(0.5, abs=1e-8)


def test_integrate_doubling_self_check(spec_1d):
    f = lambda pts: np.cos(pts[:, 0])
    lo = integrate(f, spec_1d, 1, GridSpec(resolution=2 ** 14))
    hi = integrate(f, spec_1d, 1, GridSpec(resolution=2 ** 15))
    assert abs(hi - lo) < 1e-6


def test_integrate_2d_and_dimension_guard(spec_2d):
    val = integrate(lambda pts: np.ones(pts.shape[0]), spec_2d, -1)
    assert val == pytest.approx(1.0, abs=1e-6)
    spec3 = ag.DistributionSpec(
        0.5, 3,
        (ag.GaussianComponent(1.0, (0.0,) * 3, (1.0,) * 3),),
        (ag.GaussianComponent(1.0, (1.0,) * 3, (1.0,) * 3),),
    )
    with pytest.raises(UnsupportedDimension):
        integrate(lambda pts: np.ones(pts.shape[0]), spec3, 1)


# grid whose nodes land exactly on the interval endpoints used below
_ALIGNED = GridSpec(resolution=16001, bounds=((-10.0, 10.0),))


def _window(lo, hi):
    def f(pts):
        x = pts[:, 0]
        inside = (x > lo) & (x < hi)
        return inside + 0.5 * ((x == lo) | (x == hi))

    return f


def test_interval_mass_matches_quadrature(spec_1d_mix):
    exact = dist.interval_mass(spec_1d_mix, 1, [(-1.0, 0.5)])
    quad = integrate(_window(-1.0, 0.5), spec_1d_mix, 1, _ALIGNED)
    assert exact == pytest.approx(quad, abs=1e-7)


def test_interval_abs_moment_matches_quadrature(spec_1d_mix):
    exact = dist.interval_abs_moment(spec_1d_mix, -1, [(-0.5, 1.0)], 0.2)
    quad = integrate(
        lambda pts: np.abs(pts[:, 0] - 0.2) * _window(-0.5, 1.0)(pts),
        spec_1d_mix, -1, _ALIGNED,
    )
    assert exact == pytest.approx(quad, abs=1e-7)


@settings(max_examples=25, deadline=None)
@given(
    mean=st.floats(-3, 3),
    var=st.floats(0.1, 4.0),
    prior=st.floats(0.05, 0.95),
)
def test_density_nonnegative_and_normalized(mean, var, prior):
    spec = ag.DistributionSpec(
        prior, 1,
        (ag.GaussianComponent(1.0, (mean,), (var,)),),
        (ag.GaussianComponent(1.0, (-mean,), (var,)),),
    )
    xs = np.linspace(mean - 10, mean + 10, 201).reshape(-1, 1)
    d = np.asarray(ag.density(spec, 1, xs))
    assert np.all(d >= 0)
    assert integrate(lambda pts: np.ones(pts.shape[0]), spec, 1) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_bayes_roots_find_island_narrower_than_scan():
    # a 2e-4-weight N(-3, 1e-6) spike lifts the positive class above the
    # negative one on an island far narrower than the 4097-point scan spacing
    spec = ag.DistributionSpec(
        0.5, 1,
        (ag.GaussianComponent(1 - 2e-4, (1.0,), (1.0,)),
         ag.GaussianComponent(2e-4, (-3.0,), (1e-6,))),
        (ag.GaussianComponent(1.0, (-1.0,), (1.0,)),),
    )
    roots = dist.bayes_roots(spec)
    assert len(roots) == 3
    left, right, mid = roots
    assert -3.01 < left < -3.0 < right < -2.99
    assert abs(mid) < 1e-3
    f = lambda x: float(0.5 * (dist.density(spec, 1, np.array([[x]]))
                               - dist.density(spec, -1, np.array([[x]])))[0])
    assert f(-3.0) > 0 and f(left - 1e-4) < 0 and f(right + 1e-4) < 0


def test_spec_json_roundtrip(spec_1d_mix):
    text = json.dumps(dist.spec_to_dict(spec_1d_mix))
    back = dist.spec_from_dict(json.loads(text))
    assert back == spec_1d_mix


@pytest.mark.parametrize("key, value", [
    ("prior_pos", "0.5"),
    ("prior_pos", True),
    ("dimension", 1.7),
    ("dimension", True),
    ("dimension", "1"),
    ("components_pos", [{"weight": True, "mean": [1.0], "var": [1.0]}]),
    ("components_neg", [{"weight": 1.0, "mean": ["-1"], "var": [1.0]}]),
])
def test_spec_reader_rejects_a_value_of_the_wrong_type(spec_1d, key, value):
    raw = dist.spec_to_dict(spec_1d) | {key: value}
    path = {"components_pos": "components_pos[].weight",
            "components_neg": "components_neg[].mean"}.get(key, key)
    with pytest.raises(ConfigError, match=rf"^distribution\.{re.escape(path)} has the wrong type"):
        dist.spec_from_dict(raw)


def test_spec_reader_takes_a_whole_float_dimension(spec_1d):
    assert dist.spec_from_dict(dist.spec_to_dict(spec_1d) | {"dimension": 1.0}) == spec_1d


def test_spec_rejects_unknown_fields(spec_1d):
    raw = dist.spec_to_dict(spec_1d)
    raw["extra"] = 1
    with pytest.raises(ConfigError, match=r"^unknown fields in distribution: \['extra'\]$"):
        dist.spec_from_dict(raw)


def test_measure_csv_roundtrip(tmp_path, spec_2d):
    # the CLI's data.csv format, written by hand: header x0,...,x{d-1},label
    m = ag.sample_labeled(spec_2d, 50, seed=9)
    rows = [f"{p[0]!r},{p[1]!r},{lab}" for p, lab in zip(m.points.tolist(), m.labels.tolist())]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(["x0,x1,label"] + rows) + "\n")
    back = dist.measure_from_csv(path)
    assert np.array_equal(back.points, m.points)
    assert np.array_equal(back.labels, m.labels)
    for bad in ("x1,x0,label\n0.5,0.5,1\n", "x0,x1,label\n0.5,0.5,2\n"):
        path.write_text(bad)  # a wrong header, a label outside {-1, +1}
        with pytest.raises(InvalidInput):
            dist.measure_from_csv(path)


def _loads_scipy_optimize(code: str) -> bool:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ag.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", f"{code}; import sys; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    return run.stdout.strip() == "True"


def test_importing_advgame_does_not_load_scipy_optimize():
    # brentq is imported inside the Bayes-root solvers, so a command that never
    # solves a root does not pay for scipy.optimize at start-up
    if _loads_scipy_optimize("import scipy.special"):
        pytest.skip("this scipy loads scipy.optimize with scipy.special")
    assert not _loads_scipy_optimize("import advgame")
