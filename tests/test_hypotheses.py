import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import advgame as ag
from advgame import distributions, nets
from advgame.errors import ConfigError, InvalidInput, UnsupportedKind
from advgame.hypotheses import (
    Binned2D,
    Interval1D,
    as_mixture,
    cell_probes,
    distance_to_sign,
    hypothesis_from_dict,
    hypothesis_to_dict,
    interval_form,
    make_interval1d,
    mixture_from_dict,
    mixture_to_dict,
    region_from_dict,
    region_to_dict,
)


def test_threshold_decision_value():
    h = ag.Threshold(0.0)
    assert h.decision_value(np.array([0.3])) == pytest.approx(0.3)
    assert ag.Threshold(1.0, -1).decision_value(np.array([0.3])) == pytest.approx(0.7)


def test_linear_decision_value():
    h = ag.Linear((1.0, 0.0), 0.0)
    assert h.decision_value(np.array([0.3, 7.0])) == pytest.approx(0.3)


def test_bayes_decision_value_symmetry(spec_1d):
    h = ag.bayes_optimal(spec_1d)
    assert h.decision_value(np.array([0.0])) == pytest.approx(0.0, abs=1e-15)
    assert h.predict(np.array([0.5])) == 1
    assert h.predict(np.array([-0.5])) == -1


def test_predict_three_valued():
    h = ag.Threshold(0.0)
    assert h.predict(np.array([2.0])) == 1
    assert h.predict(np.array([-2.0])) == -1
    assert h.predict(np.array([0.0])) == 0


def test_region_flip_flips_inside():
    h = ag.Threshold(0.0)
    flipped = ag.RegionFlip(h, ag.IntervalRegion(0.0, 0.5))
    assert flipped.predict(np.array([0.25])) == -1
    assert flipped.predict(np.array([0.75])) == 1
    assert flipped.predict(np.array([-0.25])) == -1


def test_region_flip_involution():
    h = ag.Threshold(0.0)
    region = ag.IntervalRegion(-0.3, 0.7)
    twice = ag.RegionFlip(ag.RegionFlip(h, region), region)
    xs = np.linspace(-2, 2, 101).reshape(-1, 1)
    assert np.array_equal(twice.predicts(xs), h.predicts(xs))


def test_bayes_optimal_equals_threshold(spec_1d):
    h = ag.bayes_optimal(spec_1d)
    form = interval_form(h)
    assert len(form.breaks) == 1
    assert form.breaks[0] == pytest.approx(0.0, abs=1e-9)
    assert form.signs == (-1, 1)


def test_bayes_risk_closed_form(spec_1d, cfg_mass):
    # risk of the Bayes rule for symmetric unit Gaussians at +-1 is Phi(-1)
    value = ag.risk(ag.bayes_optimal(spec_1d), spec_1d, cfg_mass)
    assert value == pytest.approx(norm.cdf(-1.0), abs=1e-12)


def test_bayes_degenerate_prior_limit():
    spec = ag.DistributionSpec(
        1.0 - 1e-12, 1,
        (ag.GaussianComponent(1.0, (1.0,), (1.0,)),),
        (ag.GaussianComponent(1.0, (-1.0,), (1.0,)),),
    )
    h = ag.bayes_optimal(spec)
    for x in (-3.0, 0.0, 3.0):
        assert h.predict(np.array([x])) == 1
    # equal class conditionals: no Bayes root, one cell with the larger prior's sign
    same = (ag.GaussianComponent(1.0, (0.0,), (1.0,)),)
    for prior, sign in ((0.7, 1), (0.3, -1)):
        form = interval_form(ag.bayes_optimal(ag.DistributionSpec(prior, 1, same, same)))
        assert form.breaks == () and form.signs == (sign,)


# ---------------------------------------------------------------------------
# Attackable regions
# ---------------------------------------------------------------------------

def test_attackable_region_threshold_intervals():
    h = ag.Threshold(0.0)
    pos, neg = ag.BandRegion(h, 0.5, 1), ag.BandRegion(h, 0.5, -1)
    assert pos.intervals() == [(0.0, 0.5)]
    assert neg.intervals() == [(-0.5, 0.0)]
    assert pos.contains(np.array([0.25]))
    assert pos.contains(np.array([0.5]))
    assert not pos.contains(np.array([0.0]))  # boundary predicts 0, not +1
    assert not pos.contains(np.array([0.51]))
    assert neg.contains(np.array([-0.5]))
    assert not neg.contains(np.array([0.6]))


def test_attackable_region_zero_budget():
    h = ag.Threshold(0.0)
    pos, neg = ag.BandRegion(h, 0.0, 1), ag.BandRegion(h, 0.0, -1)
    assert pos.intervals() == []
    xs = np.linspace(-1, 1, 41).reshape(-1, 1)
    assert not pos.contains_many(xs).any()
    assert not neg.contains_many(xs).any()


def test_attackable_region_linear_band_distance():
    # membership governed by the point-to-hyperplane distance |g| / ||w||_2
    w = (3.0, 4.0)  # norm 5
    h = ag.Linear(w, 0.0)
    pos = ag.BandRegion(h, 0.5, 1, "l2")
    inside = np.array([0.3, 0.4]) * 0.9  # g = 2.25, dist = 0.45 <= 0.5
    outside = np.array([0.3, 0.4]) * 1.2  # dist = 0.6
    assert pos.contains(inside)
    assert not pos.contains(outside)
    # l-inf distance uses the dual (l1) norm of w
    pos_inf = ag.BandRegion(h, 0.5, 1, "linf")
    x = np.array([0.3, 0.4])  # g = 2.5, linf dist = 2.5/7
    assert pos_inf.contains(x)
    assert not pos_inf.contains(1.5 * x)


def test_attackable_region_monotone_in_delta():
    h = ag.Threshold(0.2)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-2, 2, (200, 1))
    small, large = ag.BandRegion(h, 0.3, 1), ag.BandRegion(h, 0.8, 1)
    inside_small = small.contains_many(xs)
    inside_large = large.contains_many(xs)
    assert np.all(~inside_small | inside_large)


def test_attackable_region_mlp_membership(spec_2d):
    # mlp kind has no closed geometry: membership via the ball search
    net = nets.init_mlp((2, 8, 2), seed=0)
    h = ag.Mlp(net)
    pos, neg = ag.BandRegion(h, 0.3, 1), ag.BandRegion(h, 0.3, -1)
    rng = np.random.default_rng(1)
    xs = rng.uniform(0, 1, (20, 2))
    got = pos.contains_many(xs)
    preds = h.predicts(xs)
    assert not got[preds != 1].any()
    # in 1-D the ball search finds the exact distance of the affine net g = 2x - 0.6
    affine = ag.Mlp(nets.MlpModel([np.array([[2.0]])], [np.array([-0.6])]))
    x = np.array([-1.0, -0.2, 0.1, 0.29, 0.3, 0.8])
    np.testing.assert_allclose(distance_to_sign(affine, x.reshape(-1, 1), 1),
                               np.maximum(0.3 - x, 0.0), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Interval form
# ---------------------------------------------------------------------------

def test_interval_form_canonicalizes_same_sign_cells():
    form = make_interval1d([0.0, 1.0], [-1, -1, 1])
    assert form.breaks == (1.0,)
    assert form.signs == (-1, 1)


def test_interval1d_rejects_adjacent_cells_of_equal_sign():
    # (1, 1, -1) would predict 0 at a break between two positive cells
    with pytest.raises(InvalidInput, match="opposite signs"):
        Interval1D((0.0, 1.0), (1, 1, -1))
    with pytest.raises(InvalidInput, match="opposite signs"):
        hypothesis_from_dict({"kind": "interval1d", "breaks": [0.0, 1.0], "signs": [1, 1, -1]})
    assert make_interval1d((0.0, 1.0), (1, 1, -1)) == Interval1D((1.0,), (1, -1))
    assert Interval1D((), (-1,)).predict(np.array([0.0])) == -1


def test_interval1d_point_labels():
    h = Interval1D((0.0,), (-1, 1), ((0.0, 1),))
    assert h.predict(np.array([0.0])) == 1
    h2 = Interval1D((0.0,), (-1, 1))
    assert h2.predict(np.array([0.0])) == 0
    with pytest.raises(InvalidInput):
        Interval1D((0.0,), (-1, 1), ((0.5, 1),))  # label not at a break


def test_interval_form_region_flip_merges():
    # flipping the band of a threshold just moves the boundary
    h = ag.RegionFlip(ag.Threshold(0.0), ag.IntervalRegion(0.0, 0.5))
    form = interval_form(h)
    assert form.breaks == (0.5,)
    assert form.signs == (-1, 1)


@pytest.mark.parametrize("breaks", [(0.0,), (-1.0, 2.5), (1e17,), (-1e17, 3e16)])
def test_cell_probes_lie_strictly_inside_their_cells(breaks):
    # past |b| = 2**53, b + 1.0 rounds back to b and would probe the break
    edges = (-np.inf,) + breaks + (np.inf,)
    probes = cell_probes(breaks)
    assert len(probes) == len(breaks) + 1
    assert all(lo < p < hi for lo, p, hi in zip(edges[:-1], probes, edges[1:]))


def test_interval_form_unsupported():
    net = nets.init_mlp((1, 4, 1), seed=0)
    with pytest.raises(UnsupportedKind):
        interval_form(ag.Mlp(net))


@settings(max_examples=30, deadline=None)
@given(x=st.floats(-5, 5), t=st.floats(-2, 2))
def test_predict_equals_sign_of_decision_value(x, t):
    for h in (ag.Threshold(t), ag.Linear((2.0,), -t),
              ag.RegionFlip(ag.Threshold(t), ag.IntervalRegion(-1.0, 1.0))):
        point = np.array([x])
        assert h.predict(point) == int(np.sign(h.decision_value(point)))


# ---------------------------------------------------------------------------
# Mixtures
# ---------------------------------------------------------------------------

# The mixture's output law at x is read from its expected errors: the mass
# voting -y is expected_errors(x, y) minus the abstain (zero-output) mass,
# which errs on both labels.

def test_mixture_distribution_weights():
    m = ag.MixedClassifier((ag.Threshold(0.0), ag.Threshold(1.0)), (0.7, 0.3))
    x = np.array([[0.5]])  # h1 says +1, h2 says -1
    assert m.expected_errors(x, 1)[0] == pytest.approx(0.3)
    assert m.expected_errors(x, -1)[0] == pytest.approx(0.7)


def test_mixture_unanimity_and_degenerate():
    m = ag.MixedClassifier((ag.Threshold(0.0), ag.Threshold(-1.0)), (0.6, 0.4))
    assert m.expected_errors(np.array([[2.0]]), 1).tolist() == [0.0]
    assert m.expected_errors(np.array([[2.0]]), -1)[0] == pytest.approx(1.0)
    single = ag.MixedClassifier((ag.Threshold(0.0),), (1.0,))
    assert single.expected_errors(np.array([[1.0]]), 1).tolist() == [0.0]


def test_mixture_abstain_mass_at_boundary():
    m = ag.MixedClassifier((ag.Threshold(0.0), ag.Threshold(1.0)), (0.5, 0.5))
    x = np.array([[0.0]])  # h1 outputs 0 exactly at its boundary, h2 says -1
    assert m.expected_errors(x, 1)[0] == pytest.approx(1.0)
    assert m.expected_errors(x, -1)[0] == pytest.approx(0.5)


def test_mixture_validation():
    with pytest.raises(InvalidInput):
        ag.MixedClassifier((ag.Threshold(0.0),), (0.9,))
    with pytest.raises(InvalidInput):
        ag.MixedClassifier((ag.Threshold(0.0), ag.Threshold(1.0)), (1.2, -0.2))


@settings(max_examples=20, deadline=None)
@given(q=st.floats(0.01, 0.99), x=st.floats(-3, 3))
def test_mixture_distribution_sums_to_one(q, x):
    # the votes for +1, for -1 and the abstain mass sum to one
    m = ag.MixedClassifier((ag.Threshold(0.0), ag.Threshold(0.5, -1)), (q, 1 - q))
    pt = np.array([[x]])
    abstain = q * (x == 0.0) + (1 - q) * (x == 0.5)
    errs = m.expected_errors(pt, 1)[0] + m.expected_errors(pt, -1)[0]
    assert errs == pytest.approx(1.0 + abstain, abs=1e-12)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_hypothesis_roundtrips(spec_1d):
    net = nets.init_mlp((2, 8, 2), seed=1)
    band = ag.BandRegion(ag.Threshold(0.2), 0.3, -1, "linf")
    cases = [
        ag.Threshold(0.3, -1),
        ag.Linear((1.0, -2.0), 0.5),
        ag.bayes_optimal(spec_1d),
        ag.Mlp(net),
        ag.RegionFlip(ag.Threshold(0.0), ag.IntervalRegion(0.0, 1.0)),
        ag.RegionFlip(ag.Threshold(0.0), band),
        Interval1D((0.0, 1.0), (-1, 1, -1), ((0.0, 1),)),
        Binned2D(((0.0, 0.5, 1.0), (0.0, 0.5, 1.0)), ((1, -1), (-1, 1))),
    ]
    for h in cases:
        raw = json.loads(json.dumps(hypothesis_to_dict(h)))
        back = hypothesis_from_dict(raw)
        assert hypothesis_to_dict(back) == raw
        xs = np.linspace(-2, 2, 23)
        pts = xs.reshape(-1, 1) if back.dimension == 1 else np.column_stack([xs, xs])
        assert np.array_equal(back.predicts(pts), h.predicts(pts))
    # every other writer's output reads back equal too, as it does from a file
    mixture = ag.MixedClassifier((ag.Threshold(0.0), cases[-2]), (0.25, 0.75))
    for write, read, value in [(mixture_to_dict, mixture_from_dict, mixture),
                               (region_to_dict, region_from_dict, band),
                               (region_to_dict, region_from_dict, ag.IntervalRegion(-1.0, 0.5)),
                               (distributions.spec_to_dict, distributions.spec_from_dict, spec_1d)]:
        raw = json.loads(json.dumps(write(value)))
        assert write(read(raw)) == raw


_THRESHOLD = {"kind": "threshold", "t": 0.0}
_CELLS = {"kind": "interval1d", "breaks": [0.0], "signs": [-1, 1]}
_MLP = {"kind": "mlp", "model": nets.mlp_to_dict(nets.init_mlp((2, 4, 2), seed=0))}
_BAND = {"kind": "band", "h": _THRESHOLD, "delta": 0.5, "side": 1}


@pytest.mark.parametrize("raw, key", [
    # floats: float(True) is 1.0 and float("0.5") is 0.5
    (_THRESHOLD | {"t": True}, "t"),
    (_THRESHOLD | {"t": "0.5"}, "t"),
    ({"kind": "linear", "w": [1.0, "2"], "b": 0.0}, "w"),
    ({"kind": "linear", "w": [1.0], "b": False}, "b"),
    (_CELLS | {"breaks": ["0"]}, "breaks"),
    (_CELLS | {"point_labels": [[True, 1]]}, "point_labels"),
    ({"kind": "binned2d", "edges": [[0.0, "1"], [0.0, 1.0]], "signs": [[1]]}, "edges"),
    # integers: int(1.9) is 1 and int(True) is 1
    (_THRESHOLD | {"orientation": 1.9}, "orientation"),
    (_THRESHOLD | {"orientation": True}, "orientation"),
    (_CELLS | {"signs": [-1.5, 1]}, "signs"),
    (_CELLS | {"signs": [-1, True]}, "signs"),
    (_CELLS | {"point_labels": [[0.0, 0.5]]}, "point_labels"),
    (_CELLS | {"point_labels": [[0.0, False]]}, "point_labels"),
    ({"kind": "binned2d", "edges": [[0.0, 1.0], [0.0, 1.0]], "signs": [[1.5]]}, "signs"),
    ({"kind": "region_flip", "base": _THRESHOLD,
      "region": {"kind": "band", "h": _THRESHOLD, "delta": 0.5, "side": 1.5}}, "side"),
    ({"kind": "region_flip", "base": _THRESHOLD,
      "region": {"kind": "interval", "lo": "0", "hi": 1.0}}, "lo"),
    # an mlp file: int(2.9) is 2, float(True) is 1.0 (a linear net)
    (_MLP | {"model": _MLP["model"] | {"sizes": [2.9, 4, 2]}}, "sizes"),
    (_MLP | {"model": _MLP["model"] | {"slope": True}}, "slope"),
    (_MLP | {"model": _MLP["model"] | {"slope": "0.5"}}, "slope"),
    ({"kind": "region_flip", "base": _THRESHOLD, "region": _BAND | {"norm_kind": 2}},
     "norm_kind"),
])
def test_hypothesis_reader_rejects_a_value_of_the_wrong_type(raw, key):
    # the nested fields sit in the flip's region or in the mlp's net
    path = {"side": "region.", "lo": "region.", "norm_kind": "region.",
            "sizes": "model.", "slope": "model."}.get(key, "") + key
    with pytest.raises(ConfigError, match=rf"^hypothesis\.{path} has the wrong type or shape: "):
        hypothesis_from_dict(raw)


def test_hypothesis_reader_takes_whole_floats_as_integers():
    assert hypothesis_from_dict(_THRESHOLD | {"orientation": -1.0}) == ag.Threshold(0.0, -1)
    assert hypothesis_from_dict(_CELLS | {"signs": [-1.0, 1.0]}) == Interval1D((0.0,), (-1, 1))
    with pytest.raises(ConfigError,
                       match=r"^mixture\.weights has the wrong type or shape: \['1'\]"):
        mixture_from_dict({"weights": ["1"], "hypotheses": [_THRESHOLD]})


def test_band_region_rejects_an_unknown_norm():
    with pytest.raises(InvalidInput, match="norm_kind must be one of"):
        ag.BandRegion(ag.Threshold(0.0), 0.3, 1, "l7")
    for norm_kind in ("l7", "L2"):
        with pytest.raises(InvalidInput, match=f"norm_kind must be one of .*got '{norm_kind}'"):
            region_from_dict(_BAND | {"norm_kind": norm_kind})
    for norm_kind in ("l2", "linf"):
        band = region_from_dict(_BAND | {"norm_kind": norm_kind})
        assert band.norm_kind == norm_kind
        assert region_from_dict(region_to_dict(band)).norm_kind == norm_kind
    assert region_from_dict(_BAND).norm_kind == "l2"


def test_mlp_reader_takes_whole_float_sizes_and_an_integer_slope():
    raw = _MLP["model"] | {"sizes": [2.0, 4, 2.0], "slope": 0}
    model = nets.mlp_from_dict(raw)
    assert model.slope == 0.0 and isinstance(model.slope, float)
    assert [w.shape for w in model.weights] == [(2, 4), (4, 2)]


def test_region_roundtrips_and_rejects_unknown_kinds():
    h = ag.Threshold(0.2)
    for region in (ag.IntervalRegion(-0.5, 0.5), ag.BandRegion(h, 0.3, 1)):
        back = region_from_dict(region_to_dict(region))
        xs = np.linspace(-2, 2, 41).reshape(-1, 1)
        assert np.array_equal(back.contains_many(xs), region.contains_many(xs))
    for kind in ("halfspace", "hull"):
        with pytest.raises(UnsupportedKind, match="unknown region kind"):
            region_from_dict({"kind": kind})


def test_mlp_roundtrip_bitexact():
    net = nets.init_mlp((2, 16, 16, 2), seed=2)
    back = nets.mlp_from_dict(nets.mlp_to_dict(net))
    for w1, w2 in zip(net.weights, back.weights):
        assert np.array_equal(w1, w2)


def test_mixture_roundtrip():
    m = ag.MixedClassifier((ag.Threshold(0.0), ag.Threshold(1.0)), (0.25, 0.75))
    back = mixture_from_dict(mixture_to_dict(m))
    assert back.weights == m.weights
    xs = np.linspace(-1, 2, 31).reshape(-1, 1)
    assert np.allclose(back.expected_errors(xs, 1), m.expected_errors(xs, 1))
