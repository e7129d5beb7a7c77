import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advgame import intervals as iv

INF = math.inf


def ivsets(max_pieces=4):
    pair = st.tuples(st.floats(-10, 10), st.floats(-10, 10)).map(
        lambda ab: (min(ab), max(ab)))
    return st.lists(pair, min_size=0, max_size=max_pieces)


def brute_contains(ivs, x):
    return any(lo <= x <= hi for lo, hi in ivs)


def test_normalize_merges_and_sorts():
    assert iv.normalize([(2, 3), (0, 1), (1, 2)]) == [(0, 3)]
    assert iv.normalize([(0, 0), (1, 1)]) == []  # empty pieces dropped
    assert iv.normalize([(-INF, 0), (0, INF)]) == [(-INF, INF)]


def test_complement_roundtrip():
    a = [(-1.0, 0.0), (2.0, 3.0)]
    assert iv.complement(iv.complement(a)) == a
    assert iv.complement([]) == [(-INF, INF)]


def test_difference_and_dilate():
    assert iv.dilate([(0, 1), (2.5, 3)], 0.5) == [(-0.5, 1.5), (2.0, 3.5)]
    with pytest.raises(ValueError):
        iv.dilate([(0, 1)], -0.1)


def test_distance_to_an_interval_set():
    a = [(-2.0, -1.0), (1.0, 2.0)]
    xs = np.array([-3.0, -1.5, 0.0, 0.9, 1.5, 4.0])
    dist = iv.distance(a, xs)
    assert np.allclose(dist, [1.0, 0.0, 1.0, 0.1, 0.0, 2.0])
    assert iv.distance([], np.array([0.0]))[0] == INF


@settings(max_examples=60, deadline=None)
@given(a=ivsets(), b=ivsets(), x=st.floats(-12, 12))
def test_set_operations_match_pointwise_semantics(a, b, x):
    na, nb = iv.normalize(a), iv.normalize(b)
    in_a, in_b = brute_contains(na, x), brute_contains(nb, x)
    # membership after each operation matches boolean algebra, away from the
    # measure-zero endpoint set where open/closed choices differ
    endpoints = {e for lo, hi in na + nb for e in (lo, hi)}
    if any(abs(x - e) < 1e-9 for e in endpoints):
        return
    assert bool(iv.contains(iv.intersect(na, nb), x)) == (in_a and in_b)
    assert bool(iv.contains(iv.complement(na), x)) == (not in_a)


@settings(max_examples=40, deadline=None)
@given(a=ivsets(), r=st.floats(0, 3), x=st.floats(-12, 12))
def test_dilation_is_distance_thresholding(a, r, x):
    na = iv.normalize(a)
    d = float(iv.distance(na, np.array([x]))[0])
    if abs(d - r) < 1e-9:
        return  # boundary of the dilation, convention-dependent
    assert bool(iv.contains(iv.dilate(na, r), x)) == (d <= r)
