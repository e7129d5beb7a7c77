"""Interval-set algebra on the real line.

An interval set is a list of (lo, hi) pairs with lo < hi, kept sorted and
disjoint by :func:`normalize`. Endpoints are measure-zero for every density we
integrate against, so open/closed distinctions are not tracked here; operations
treat intervals as closed where a point query needs an answer.
"""

from __future__ import annotations

import math

import numpy as np

Iv = tuple[float, float]
INF = math.inf


def normalize(ivs: list[Iv]) -> list[Iv]:
    """Sort, drop empty intervals, and merge overlapping or touching ones."""
    if len(ivs) == 1:
        (lo, hi), = ivs
        return [(lo, hi)] if hi > lo else []
    ivs = sorted((lo, hi) for lo, hi in ivs if hi > lo)
    out: list[Iv] = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out




def intersect(a: list[Iv], b: list[Iv]) -> list[Iv]:
    out: list[Iv] = []
    for alo, ahi in a:
        for blo, bhi in b:
            lo, hi = max(alo, blo), min(ahi, bhi)
            if hi > lo:
                out.append((lo, hi))
    return normalize(out)


def complement(a: list[Iv]) -> list[Iv]:
    """Complement within (-inf, inf)."""
    a = normalize(a)
    out: list[Iv] = []
    cur = -INF
    for lo, hi in a:
        if lo > cur:
            out.append((cur, lo))
        cur = hi
    if cur < INF:
        out.append((cur, INF))
    return out




def dilate(a: list[Iv], r: float) -> list[Iv]:
    """All points within distance r of the set."""
    if r < 0:
        raise ValueError("dilation radius must be >= 0")
    return normalize([(lo - r, hi + r) for lo, hi in a])




def contains(a: list[Iv], x) -> np.ndarray:
    """Closed-interval membership, vectorized over x."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=bool)
    for lo, hi in a:
        out |= (x >= lo) & (x <= hi)
    return out


def distance(a: list[Iv], x) -> np.ndarray:
    """Distance from x to the set (0 inside), vectorized; inf for empty set."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, INF)
    for lo, hi in a:
        d = np.maximum(np.maximum(lo - x, x - hi), 0.0)
        out = np.minimum(out, d)
    return out
