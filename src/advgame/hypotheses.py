"""Deterministic classifiers h = sign(g), regions, and finite mixtures.

Every hypothesis exposes a real decision value g and the three-valued sign
prediction sign(g) in {-1, 0, +1}; an output of 0 (a point exactly on the
decision boundary) counts as an error against both labels everywhere in the
scoring layer. Supported 1-D kinds can be converted to a canonical
piecewise-constant interval form, which is what the exact game layer works on.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass

import numpy as np

from . import intervals as iv
from . import nets
from .distributions import (
    DistributionSpec,
    _as_points,
    bayes_roots,
    density,
    spec_from_dict,
    spec_to_dict,
)
from .errors import DimensionMismatch, InvalidInput, UnsupportedDimension, UnsupportedKind
from .fields import count, exactly, listed, read, read_kind, real, row

WEIGHT_TOL = 1e-12
BALL_GRID_N = 65  # grid points per axis of the ball that distance_to_sign searches
NORMS = ("l2", "linf")


def three_sign(values) -> np.ndarray:
    """Three-valued sign: +1 / -1 / 0."""
    return np.sign(np.asarray(values)).astype(int)


class Hypothesis:
    """Base classifier interface. Subclasses implement decision_values."""

    dimension: int = 1

    def decision_values(self, X) -> np.ndarray:
        raise NotImplementedError

    def decision_value(self, x) -> float:
        pts, _ = _as_points(x, self.dimension)
        return float(self.decision_values(pts)[0])

    def predicts(self, X) -> np.ndarray:
        return three_sign(self.decision_values(X))

    def predict(self, x) -> int:
        return int(three_sign(self.decision_value(x)))


@dataclass(frozen=True)
class Threshold(Hypothesis):
    """1-D threshold: g(x) = orientation * (x - t)."""

    t: float
    orientation: int = 1

    def __post_init__(self):
        if self.orientation not in (-1, 1):
            raise InvalidInput("orientation must be +1 or -1")

    dimension = 1

    def decision_values(self, X) -> np.ndarray:
        pts, _ = _as_points(X, 1)
        return self.orientation * (pts[:, 0] - self.t)


@dataclass(frozen=True)
class Linear(Hypothesis):
    """g(x) = w . x + b."""

    w: tuple[float, ...]
    b: float

    def __post_init__(self):
        if not any(v != 0 for v in self.w):
            raise InvalidInput("weight vector must be nonzero")

    @property
    def dimension(self) -> int:
        return len(self.w)

    def decision_values(self, X) -> np.ndarray:
        pts, _ = _as_points(X, self.dimension)
        return pts @ np.asarray(self.w) + self.b


@dataclass(frozen=True)
class Bayes(Hypothesis):
    """g(x) = nu1 * mu1(x) - nu-1 * mu-1(x): the Bayes-optimal rule for its spec."""

    spec: DistributionSpec

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    def decision_values(self, X) -> np.ndarray:
        pts, _ = _as_points(X, self.dimension)
        return self.spec.prior_pos * np.asarray(density(self.spec, 1, pts)) - (
            1.0 - self.spec.prior_pos
        ) * np.asarray(density(self.spec, -1, pts))


def bayes_optimal(spec: DistributionSpec) -> Bayes:
    return Bayes(spec)


@dataclass(frozen=True, eq=False)
class Mlp(Hypothesis):
    """Wraps a trained net; g is the scalar output or the logit margin."""

    net: nets.MlpModel

    @property
    def dimension(self) -> int:
        return self.net.in_dim

    def decision_values(self, X) -> np.ndarray:
        pts, _ = _as_points(X, self.dimension)
        out = nets.forward(self.net, pts)
        return out[:, 0] if out.shape[1] == 1 else out[:, 1] - out[:, 0]


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

class Region:
    def contains(self, x) -> bool:
        return bool(self.contains_many(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def contains_many(self, X) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class IntervalRegion(Region):
    """Closed interval [lo, hi] on the line."""

    lo: float
    hi: float

    def contains_many(self, X) -> np.ndarray:
        pts, _ = _as_points(X, 1)
        return (pts[:, 0] >= self.lo) & (pts[:, 0] <= self.hi)


@dataclass(frozen=True, eq=False)
class BandRegion(Region):
    """The delta-attackable band P_h(delta) (side=+1) or N_h(delta) (side=-1).

    Membership: predicted side matches AND some point of the opposite strict
    sign region is within delta in the chosen norm.
    """

    h: Hypothesis
    delta: float
    side: int
    norm_kind: str = "l2"

    def __post_init__(self):
        if self.delta < 0:
            raise InvalidInput("delta must be >= 0")
        if self.side not in (-1, 1):
            raise InvalidInput("side must be +1 or -1")
        if self.norm_kind not in NORMS:
            raise InvalidInput(f"norm_kind must be one of {NORMS}, got {self.norm_kind!r}")

    def contains_many(self, X) -> np.ndarray:
        pts, _ = _as_points(X, self.h.dimension)
        on_side = self.h.predicts(pts) == self.side
        dist = distance_to_sign(self.h, pts, -self.side, self.norm_kind)
        return on_side & (dist <= self.delta)

    def intervals(self) -> list[iv.Iv]:
        """Exact interval realization, for 1-D interval-formable hypotheses."""
        return interval_form(self.h).band(self.side, self.delta)


def distance_to_sign(h: Hypothesis, X, sign: int, norm_kind: str = "l2") -> np.ndarray:
    """Distance from each point to the region where h predicts `sign`.

    Exact for 1-D interval-formable kinds and linear kinds; for anything else
    a documented approximation: a bisection on the radius of a ball, searched
    on a grid of BALL_GRID_N points per axis.
    """
    pts, _ = _as_points(X, h.dimension)
    if isinstance(h, Linear):
        w = np.asarray(h.w)
        dual = np.linalg.norm(w, 2) if norm_kind == "l2" else np.abs(w).sum()
        g = h.decision_values(pts)
        # distance to the open halfspace {sign * g > 0} is 0 inside, |g|/dual across
        inside = sign * g > 0
        return np.where(inside, 0.0, np.abs(g) / dual)
    try:
        form = interval_form(h)
    except UnsupportedKind:
        return _grid_distance_to_sign(h, pts, sign, norm_kind)
    return iv.distance(form.sign_intervals(sign), pts[:, 0])


def _grid_distance_to_sign(h: Hypothesis, pts: np.ndarray, sign: int,
                           norm_kind: str) -> np.ndarray:
    if h.dimension > 2:
        raise UnsupportedDimension("grid distance search needs d <= 2")
    # bisect on the radius at which a grid over the ball first hits the sign
    out = np.empty(pts.shape[0])
    for i, x in enumerate(pts):
        if h.predict(x) == sign:
            out[i] = 0.0
            continue
        lo, hi = 0.0, 1e-3
        while hi < 1e3 and not _ball_hits_sign(h, x, hi, sign, norm_kind):
            lo, hi = hi, hi * 2
        if hi >= 1e3:
            out[i] = math.inf
            continue
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if _ball_hits_sign(h, x, mid, sign, norm_kind):
                hi = mid
            else:
                lo = mid
        out[i] = hi
    return out


def _ball_hits_sign(h: Hypothesis, x: np.ndarray, radius: float, sign: int,
                    norm_kind: str) -> bool:
    Z = x + ball_offsets(radius, BALL_GRID_N, h.dimension, norm_kind)
    return bool(np.any(h.predicts(Z) == sign))


def ball_offsets(radius: float, n: int, dim: int, norm_kind: str) -> np.ndarray:
    """(m, dim) grid of n points per axis over [-radius, radius]^dim.

    In 2-D under the l2 norm only the points of the disc are kept.
    """
    side = np.linspace(-radius, radius, n)
    if dim == 1:
        return side.reshape(-1, 1)
    ox, oy = np.meshgrid(side, side, indexing="ij")
    offsets = np.column_stack([ox.ravel(), oy.ravel()])
    if norm_kind == "l2":
        offsets = offsets[np.linalg.norm(offsets, axis=1) <= radius]
    return offsets


@dataclass(frozen=True, eq=False)
class RegionFlip(Hypothesis):
    """Flips the base prediction inside a region: g = -g_base there."""

    base: Hypothesis
    region: Region

    @property
    def dimension(self) -> int:
        return self.base.dimension

    def decision_values(self, X) -> np.ndarray:
        pts, _ = _as_points(X, self.dimension)
        g = np.asarray(self.base.decision_values(pts), dtype=float)
        inside = self.region.contains_many(pts)
        return np.where(inside, -g, g)


# ---------------------------------------------------------------------------
# Canonical 1-D interval form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval1D(Hypothesis):
    """Piecewise-constant sign on the line, with optional labels at breakpoints.

    signs has one entry per cell (len(breaks) + 1) and alternates: adjacent
    cells of equal sign are rejected (make_interval1d merges them). point_labels
    assigns a definite prediction at individual breakpoints (used for Dirac atoms
    that a best-responding defender must classify); unlabeled breakpoints
    predict 0.
    """

    breaks: tuple[float, ...]
    signs: tuple[int, ...]
    point_labels: tuple[tuple[float, int], ...] = ()

    dimension = 1

    def __post_init__(self):
        if len(self.signs) != len(self.breaks) + 1:
            raise InvalidInput("need len(signs) == len(breaks) + 1")
        if any(s not in (-1, 1) for s in self.signs):
            raise InvalidInput("cell signs must be +1 or -1")
        if any(a == b for a, b in zip(self.signs, self.signs[1:])):
            raise InvalidInput(f"adjacent cells must have opposite signs, got {self.signs}")
        if list(self.breaks) != sorted(set(self.breaks)):
            raise InvalidInput("breaks must be strictly increasing")
        bset = set(self.breaks)
        for loc, lab in self.point_labels:
            if loc not in bset:
                raise InvalidInput("point labels are only supported at breakpoints")
            if lab not in (-1, 1):
                raise InvalidInput("point labels must be +1 or -1")

    def decision_values(self, X) -> np.ndarray:
        pts, _ = _as_points(X, 1)
        x = pts[:, 0]
        breaks = np.asarray(self.breaks)
        signs = np.asarray(self.signs, dtype=float)
        lo_idx = np.searchsorted(breaks, x, side="left")
        hi_idx = np.searchsorted(breaks, x, side="right")
        vals = signs[np.minimum(lo_idx, len(self.signs) - 1)]
        vals = np.where(lo_idx != hi_idx, 0.0, vals)
        for loc, lab in self.point_labels:
            vals = np.where(x == loc, float(lab), vals)
        return vals

    def sign_intervals(self, sign: int) -> list[iv.Iv]:
        edges = [-math.inf] + list(self.breaks) + [math.inf]
        return iv.normalize(
            [(edges[i], edges[i + 1]) for i, s in enumerate(self.signs) if s == sign]
        )

    def band(self, side: int, delta: float) -> list[iv.Iv]:
        """Cells of sign `side` within delta of the opposite sign: the
        delta-attackable band P_h(delta) (side=+1) or N_h(delta) (side=-1)."""
        return iv.intersect(self.sign_intervals(side),
                            iv.dilate(self.sign_intervals(-side), delta))

    def flipped(self, region_ivs: list[iv.Iv]) -> "Interval1D":
        """Sign structure with cells inside the region flipped."""
        edges = sorted(
            set(self.breaks)
            | {e for lo, hi in region_ivs for e in (lo, hi) if math.isfinite(e)}
        )
        probes = cell_probes(edges)
        signs = three_sign(self.decision_values(probes.reshape(-1, 1)))
        return make_interval1d(edges, np.where(iv.contains(region_ivs, probes), -signs, signs))


def cell_probes(breaks) -> np.ndarray:
    """A strictly interior probe point of every cell between sorted breaks:
    the midpoint, 1 past the end of an unbounded cell (the next float past it
    where 1 is below the float spacing, |break| >= 2**53), 0.0 for the whole line."""
    if len(breaks) == 0:
        return np.array([0.0])
    b = np.asarray(breaks, dtype=float)
    first = min(b[0] - 1.0, np.nextafter(b[0], -np.inf))
    last = max(b[-1] + 1.0, np.nextafter(b[-1], np.inf))
    return np.concatenate([[first], 0.5 * (b[:-1] + b[1:]), [last]])


def make_interval1d(breaks, signs, point_labels=()) -> Interval1D:
    """Canonicalize: merge adjacent equal-sign cells, keep labels on survivors."""
    breaks = [float(b) for b in breaks]
    signs = [int(s) for s in signs]
    out_breaks, out_signs = [], [signs[0]] if signs else [1]
    for b, s in zip(breaks, signs[1:]):
        if s != out_signs[-1]:
            out_breaks.append(b)
            out_signs.append(s)
    keep = set(out_breaks)
    labels = tuple((float(l), int(s)) for l, s in point_labels if float(l) in keep)
    return Interval1D(tuple(out_breaks), tuple(out_signs), labels)


def interval_form(h: Hypothesis) -> Interval1D:
    """Exact interval realization of a supported 1-D hypothesis."""
    if isinstance(h, Interval1D):
        return h
    if isinstance(h, Threshold):
        return Interval1D((h.t,), (-h.orientation, h.orientation))
    if isinstance(h, Linear):
        if h.dimension != 1:
            raise UnsupportedKind("interval form needs a 1-D hypothesis")
        w, b = h.w[0], h.b
        s = 1 if w > 0 else -1
        return Interval1D((-b / w,), (-s, s))
    if isinstance(h, Bayes):
        if h.dimension != 1:
            raise UnsupportedKind("interval form needs a 1-D hypothesis")
        roots = bayes_roots(h.spec)
        signs = three_sign(h.decision_values(cell_probes(roots).reshape(-1, 1)))
        return make_interval1d(roots, np.where(signs == 0, 1, signs))
    if isinstance(h, RegionFlip):
        base = interval_form(h.base)
        return base.flipped(_region_intervals(h.region))
    raise UnsupportedKind(f"no exact interval form for {type(h).__name__}")


def _region_intervals(region: Region) -> list[iv.Iv]:
    if isinstance(region, IntervalRegion):
        return [(region.lo, region.hi)]
    if isinstance(region, BandRegion):
        return region.intervals()
    raise UnsupportedKind(f"no interval realization for {type(region).__name__}")


@dataclass(frozen=True)
class Binned2D(Hypothesis):
    """Grid-lookup classifier on a 2-D histogram (the binned-defender output).

    Queries outside the grid are clamped to the nearest cell. Approximate by
    construction: the sign is constant on each bin.
    """

    edges: tuple[tuple[float, ...], tuple[float, ...]]
    signs: tuple[tuple[int, ...], ...]  # (nx_bins, ny_bins)

    dimension = 2

    def decision_values(self, X) -> np.ndarray:
        pts, _ = _as_points(X, 2)
        ex = np.asarray(self.edges[0])
        ey = np.asarray(self.edges[1])
        ix = np.clip(np.searchsorted(ex, pts[:, 0], side="right") - 1, 0, len(ex) - 2)
        iy = np.clip(np.searchsorted(ey, pts[:, 1], side="right") - 1, 0, len(ey) - 2)
        grid = np.asarray(self.signs)
        return grid[ix, iy].astype(float)


# ---------------------------------------------------------------------------
# Mixed classifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MixedClassifier:
    """Finite hypothesis sequence with a probability vector over it."""

    hypotheses: tuple[Hypothesis, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.hypotheses) < 1:
            raise InvalidInput("need at least one hypothesis")
        if len(self.weights) != len(self.hypotheses):
            raise InvalidInput("weights and hypotheses must have equal length")
        if any(w < 0 for w in self.weights):
            raise InvalidInput("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > WEIGHT_TOL:
            raise InvalidInput(f"weights sum to {sum(self.weights)}, expected 1")
        dims = {h.dimension for h in self.hypotheses}
        if len(dims) != 1:
            raise DimensionMismatch("all component hypotheses must share a dimension")

    @property
    def dimension(self) -> int:
        return self.hypotheses[0].dimension

    def __len__(self) -> int:
        return len(self.hypotheses)

    def expected_errors(self, X, Y) -> np.ndarray:
        """E over the mixture of 1{prediction != y}, exactly from the weights."""
        pts, _ = _as_points(X, self.dimension)
        y = np.asarray(Y, dtype=int)
        if y.ndim == 0:
            y = np.full(pts.shape[0], int(y))
        out = np.zeros(pts.shape[0])
        for q, h in zip(self.weights, self.hypotheses):
            out += q * (h.predicts(pts) != y)
        return out


def as_mixture(model) -> MixedClassifier:
    """View any deterministic hypothesis as a one-component mixture."""
    if isinstance(model, MixedClassifier):
        return model
    return MixedClassifier((model,), (1.0,))


def flatten_mixture(model) -> MixedClassifier:
    """Expand nested mixtures into a single flat weight vector."""
    mix = as_mixture(model)
    hyps: list[Hypothesis] = []
    weights: list[float] = []
    for q, h in zip(mix.weights, mix.hypotheses):
        if isinstance(h, MixedClassifier):
            inner = flatten_mixture(h)
            hyps.extend(inner.hypotheses)
            weights.extend(q * w for w in inner.weights)
        else:
            hyps.append(h)
            weights.append(q)
    total = sum(weights)
    return MixedClassifier(tuple(hyps), tuple(w / total for w in weights))


# ---------------------------------------------------------------------------
# Serialization (kind-discriminated JSON dicts)
# ---------------------------------------------------------------------------

def hypothesis_to_dict(h: Hypothesis) -> dict:
    if isinstance(h, Threshold):
        return {"kind": "threshold", "t": h.t, "orientation": h.orientation}
    if isinstance(h, Linear):
        return {"kind": "linear", "w": list(h.w), "b": h.b}
    if isinstance(h, Bayes):
        return {"kind": "bayes", "spec": spec_to_dict(h.spec)}
    if isinstance(h, Mlp):
        return {"kind": "mlp", "model": nets.mlp_to_dict(h.net)}
    if isinstance(h, RegionFlip):
        return {
            "kind": "region_flip",
            "base": hypothesis_to_dict(h.base),
            "region": region_to_dict(h.region),
        }
    if isinstance(h, Interval1D):
        return {
            "kind": "interval1d",
            "breaks": list(h.breaks),
            "signs": list(h.signs),
            "point_labels": [[loc, lab] for loc, lab in h.point_labels],
        }
    if isinstance(h, Binned2D):
        return {
            "kind": "binned2d",
            "edges": [list(e) for e in h.edges],
            "signs": [list(row) for row in h.signs],
        }
    raise UnsupportedKind(f"cannot serialize {type(h).__name__}")


def hypothesis_from_dict(d: dict, where: str = "hypothesis") -> Hypothesis:
    return read_kind(d, where, _HYPOTHESES, "hypothesis")


def region_to_dict(r: Region) -> dict:
    if isinstance(r, IntervalRegion):
        return {"kind": "interval", "lo": r.lo, "hi": r.hi}
    if isinstance(r, BandRegion):
        return {
            "kind": "band",
            "h": hypothesis_to_dict(r.h),
            "delta": r.delta,
            "side": r.side,
            "norm_kind": r.norm_kind,
        }
    raise UnsupportedKind(f"cannot serialize region {type(r).__name__}")


def region_from_dict(d: dict, where: str = "region") -> Region:
    return read_kind(d, where, _REGIONS, "region")


def mixture_to_dict(m: MixedClassifier) -> dict:
    return {
        "weights": list(m.weights),
        "hypotheses": [hypothesis_to_dict(h) for h in m.hypotheses],
    }


def mixture_from_dict(d: dict, where: str = "mixture") -> MixedClassifier:
    return MixedClassifier(**read(d, where, _MIXTURE))


# Each kind's (constructor, table); the readers above look them up when called.
_HYPOTHESES = {
    "threshold": (Threshold, {"t": (real, MISSING), "orientation": (count, None)}),
    "linear": (Linear, {"w": (listed(real), MISSING), "b": (real, MISSING)}),
    "bayes": (Bayes, {"spec": (spec_from_dict, MISSING)}),
    "mlp": (lambda model: Mlp(model), {"model": (nets.mlp_from_dict, MISSING)}),
    "region_flip": (RegionFlip, {"base": (hypothesis_from_dict, MISSING),
                                 "region": (region_from_dict, MISSING)}),
    "interval1d": (Interval1D, {"breaks": (listed(real), MISSING),
                                "signs": (listed(count), MISSING),
                                "point_labels": (listed(row(real, count)), None)}),
    "binned2d": (Binned2D, {"edges": (listed(listed(real)), MISSING),
                            "signs": (listed(listed(count)), MISSING)}),
}
_REGIONS = {
    "interval": (IntervalRegion, {"lo": (real, MISSING), "hi": (real, MISSING)}),
    "band": (BandRegion, {"h": (hypothesis_from_dict, MISSING), "delta": (real, MISSING),
                          "side": (count, MISSING), "norm_kind": (exactly(str), None)}),
}
_MIXTURE = {"hypotheses": (listed(hypothesis_from_dict), MISSING),
            "weights": (listed(real), MISSING)}
