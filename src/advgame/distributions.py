"""Synthetic data distributions: Gaussian-mixture class conditionals.

The ground truth is a label prior nu together with one Gaussian mixture per
class (diagonal covariance). Everything downstream is grounded in this module:
sampling, exact interval integrals on the line, and the Bayes boundary.
"""

from __future__ import annotations

import csv
import math
from dataclasses import MISSING, dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr
from scipy.optimize import brentq

from .errors import DimensionMismatch, InvalidInput, UnsupportedDimension
from .fields import count, listed, read, real, section
from . import intervals as iv

WEIGHT_TOL = 1e-12
BAYES_SCAN_POINTS = 4097  # grid that bayes_roots scans for sign changes
_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianComponent:
    weight: float
    mean: tuple[float, ...]
    var: tuple[float, ...]  # diagonal covariance

    def __post_init__(self):
        if self.weight < 0:
            raise InvalidInput(f"component weight must be >= 0, got {self.weight}")
        if len(self.mean) != len(self.var):
            raise InvalidInput("mean and var must have the same length")
        if any(v <= 0 for v in self.var):
            raise InvalidInput(f"all variances must be > 0, got {self.var}")


@dataclass(frozen=True)
class DistributionSpec:
    """Class prior P(Y=+1) plus per-class Gaussian-mixture conditionals."""

    prior_pos: float
    dimension: int
    components_pos: tuple[GaussianComponent, ...]
    components_neg: tuple[GaussianComponent, ...]

    def __post_init__(self):
        if not 0.0 < self.prior_pos < 1.0:
            raise InvalidInput(f"prior_pos must be in (0, 1), got {self.prior_pos}")
        if self.dimension < 1:
            raise InvalidInput("dimension must be >= 1")
        for name, comps in (("pos", self.components_pos), ("neg", self.components_neg)):
            if not comps:
                raise InvalidInput(f"components_{name} must be nonempty")
            if any(len(c.mean) != self.dimension for c in comps):
                raise InvalidInput(f"components_{name} dimension mismatch")
            total = sum(c.weight for c in comps)
            if abs(total - 1.0) > WEIGHT_TOL:
                raise InvalidInput(
                    f"components_{name} weights sum to {total}, expected 1 within {WEIGHT_TOL}"
                )

    def prior(self, label: int) -> float:
        return self.prior_pos if label == 1 else 1.0 - self.prior_pos

    def components(self, label: int) -> tuple[GaussianComponent, ...]:
        return self.components_pos if label == 1 else self.components_neg

    def bounds(self, k_sigma: float = 8.0) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned box covering k_sigma standard deviations of every component."""
        comps = list(self.components_pos) + list(self.components_neg)
        means = np.array([c.mean for c in comps])
        sds = np.sqrt(np.array([c.var for c in comps]))
        return (means - k_sigma * sds).min(axis=0), (means + k_sigma * sds).max(axis=0)

    @cached_property
    def _bayes_roots(self) -> tuple[float, ...]:
        return tuple(_solve_bayes_roots(self))


def two_gaussians_1d(mean_neg: float = -1.0, mean_pos: float = 1.0,
                     var: float = 1.0, prior_pos: float = 0.5) -> DistributionSpec:
    """The workhorse instance: one Gaussian per class on the line."""
    return DistributionSpec(
        prior_pos=prior_pos,
        dimension=1,
        components_pos=(GaussianComponent(1.0, (mean_pos,), (var,)),),
        components_neg=(GaussianComponent(1.0, (mean_neg,), (var,)),),
    )


def _as_points(x, dimension: int) -> tuple[np.ndarray, bool]:
    """Coerce x to an (n, d) array. Returns (points, was_single)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
        single = True
    elif arr.ndim == 1:
        if dimension == 1 and arr.shape[0] != 1:
            # a batch of scalar points
            arr = arr.reshape(-1, 1)
            single = False
        else:
            arr = arr.reshape(1, -1)
            single = True
    elif arr.ndim == 2:
        single = False
    else:
        raise InvalidInput(f"points must have ndim <= 2, got {arr.ndim}")
    if arr.shape[1] != dimension:
        raise DimensionMismatch(
            f"points have dimension {arr.shape[1]}, spec has {dimension}"
        )
    return arr, single


def density(spec: DistributionSpec, label: int, x) -> float | np.ndarray:
    """Mixture-of-Gaussians density of the class conditional at x."""
    pts, single = _as_points(x, spec.dimension)
    out = np.zeros(pts.shape[0])
    for c in spec.components(label):
        mean = np.asarray(c.mean)
        var = np.asarray(c.var)
        z2 = ((pts - mean) ** 2 / var).sum(axis=1)
        norm = np.prod(np.sqrt(2.0 * math.pi * var))
        out += c.weight * np.exp(-0.5 * z2) / norm
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalMeasure:
    """Labeled sample with the seed that produced it (bit-reproducible)."""

    points: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) in {-1, +1}
    seed: int | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        labs = np.asarray(self.labels, dtype=int)
        if pts.ndim != 2 or labs.ndim != 1 or pts.shape[0] != labs.shape[0]:
            raise InvalidInput("points must be (n, d) and labels (n,)")
        if not np.all(np.isin(labs, (-1, 1))):
            raise InvalidInput("labels must be in {-1, +1}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labs)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def sample_labeled(spec: DistributionSpec, n: int, seed: int) -> EmpiricalMeasure:
    """n i.i.d. draws from the joint; label stream then point stream, in index order."""
    if n < 1:
        raise InvalidInput(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(n) < spec.prior_pos, 1, -1)
    comp_u = rng.random(n)
    normals = rng.standard_normal((n, spec.dimension))
    points = np.empty((n, spec.dimension))
    for label in (1, -1):
        mask = labels == label
        if not mask.any():
            continue
        comps = spec.components(label)
        cumw = np.cumsum([c.weight for c in comps])
        idx = np.searchsorted(cumw, comp_u[mask], side="right").clip(0, len(comps) - 1)
        means = np.array([c.mean for c in comps])[idx]
        sds = np.sqrt(np.array([c.var for c in comps]))[idx]
        points[mask] = means + sds * normals[mask]
    return EmpiricalMeasure(points, labels, seed)


def pushforward_empirical(measure: EmpiricalMeasure, attack) -> EmpiricalMeasure:
    """Replace each point by its per-class attack image; labels and order kept.

    Raises BudgetViolation if any point moves farther than the attack budget
    (plus 1e-9 tolerance) in the attack's norm.
    """
    from .game import check_budget  # local import to keep layering one-way

    moved = np.array(measure.points, copy=True)
    for label in (-1, 1):
        mask = measure.labels == label
        if mask.any():
            moved[mask] = attack.apply(measure.points[mask], label)
    check_budget(measure.points, moved, attack)
    return EmpiricalMeasure(moved, measure.labels, measure.seed)


# ---------------------------------------------------------------------------
# Exact 1-D interval integrals (the closed-form layer)
# ---------------------------------------------------------------------------

def _check_1d(spec: DistributionSpec):
    if spec.dimension != 1:
        raise UnsupportedDimension("closed-form interval integrals need d = 1")


def interval_mass(spec: DistributionSpec, label: int, ivs: list[iv.Iv]) -> float:
    """mu_label(union of intervals), exact via the Gaussian CDF."""
    _check_1d(spec)
    total = 0.0
    for lo, hi in iv.normalize(list(ivs)):
        for c in spec.components(label):
            m, s = c.mean[0], math.sqrt(c.var[0])
            total += c.weight * (ndtr((hi - m) / s) - ndtr((lo - m) / s))
    return float(total)


def _comp_partial_first(m: float, s: float, lo: float, hi: float) -> float:
    """int_lo^hi x dN(m, s^2)(x), exact."""
    a, b = (lo - m) / s, (hi - m) / s
    pdf_a = 0.0 if not math.isfinite(a) else math.exp(-0.5 * a * a) / _SQRT2PI
    pdf_b = 0.0 if not math.isfinite(b) else math.exp(-0.5 * b * b) / _SQRT2PI
    return m * (ndtr(b) - ndtr(a)) + s * (pdf_a - pdf_b)


def interval_first_moment(spec: DistributionSpec, label: int, ivs: list[iv.Iv]) -> float:
    """int over the set of x dmu_label(x), exact."""
    _check_1d(spec)
    total = 0.0
    for lo, hi in iv.normalize(list(ivs)):
        for c in spec.components(label):
            total += c.weight * _comp_partial_first(c.mean[0], math.sqrt(c.var[0]), lo, hi)
    return float(total)


def interval_affine_moment(spec: DistributionSpec, label: int, ivs: list[iv.Iv],
                           const: float, slope: float) -> float:
    """int over the set of (const + slope * x) dmu_label(x), exact."""
    return const * interval_mass(spec, label, ivs) + slope * interval_first_moment(spec, label, ivs)


def interval_abs_moment(spec: DistributionSpec, label: int, ivs: list[iv.Iv], c: float) -> float:
    """int over the set of |x - c| dmu_label(x), exact (split at c)."""
    _check_1d(spec)
    total = 0.0
    for lo, hi in iv.normalize(list(ivs)):
        if lo < c:
            total += interval_affine_moment(spec, label, [(lo, min(hi, c))], c, -1.0)
        if hi > c:
            total += interval_affine_moment(spec, label, [(max(lo, c), hi)], -c, 1.0)
    return float(total)


def bayes_roots(spec: DistributionSpec) -> list[float]:
    """Sign changes of nu1*mu1 - nu-1*mu-1 (the Bayes boundary), solved once per spec."""
    _check_1d(spec)
    return list(spec._bayes_roots)


def _solve_bayes_roots(spec: DistributionSpec) -> list[float]:
    lo, hi = spec.bounds()
    xs = np.linspace(float(lo[0]), float(hi[0]), BAYES_SCAN_POINTS)

    def f(x):
        pts = np.atleast_1d(np.asarray(x, dtype=float)).reshape(-1, 1)
        vals = spec.prior_pos * np.asarray(density(spec, 1, pts)) - (
            1.0 - spec.prior_pos
        ) * np.asarray(density(spec, -1, pts))
        return vals if np.ndim(x) else float(vals[0])

    vals = f(xs)
    roots = []
    sign = np.sign(vals)
    for i in np.flatnonzero((sign[:-1] == 0) | (sign[:-1] * sign[1:] < 0)):
        if sign[i] == 0:
            roots.append(float(xs[i]))
        else:
            roots.append(float(brentq(f, xs[i], xs[i + 1], xtol=1e-14)))
    roots.extend(_island_roots(spec, f, xs, sign))
    # dedupe near-identical roots from flat crossings
    out: list[float] = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-12:
            out.append(r)
    return out


def _island_roots(spec: DistributionSpec, f, xs: np.ndarray, sign: np.ndarray) -> list[float]:
    """Roots of sign islands narrower than the scan spacing.

    f is probed at every component mean and at mean +- 1 sd. A probe whose
    sign is opposite to both (equal) ends of its scan interval marks an
    island the scan stepped over; one root is solved for on each side of the
    interval's probes.
    """
    probes = np.array([
        c.mean[0] + k * math.sqrt(c.var[0])
        for c in spec.components_pos + spec.components_neg for k in (-1, 0, 1)
    ])
    idx = np.searchsorted(xs, probes) - 1
    inside = (idx >= 0) & (idx < len(xs) - 1)
    probes, idx = probes[inside], idx[inside]
    island = (sign[idx] != 0) & (sign[idx] == sign[idx + 1]) & (np.sign(f(probes)) == -sign[idx])
    roots = []
    for i in np.unique(idx[island]):
        ps = probes[island & (idx == i)]
        roots.append(float(brentq(f, xs[i], ps.min(), xtol=1e-14)))
        roots.append(float(brentq(f, ps.max(), xs[i + 1], xtol=1e-14)))
    return roots


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def spec_to_dict(spec: DistributionSpec) -> dict:
    def comps(cs):
        return [{"weight": c.weight, "mean": list(c.mean), "var": list(c.var)} for c in cs]

    return {
        "prior_pos": spec.prior_pos,
        "dimension": spec.dimension,
        "components_pos": comps(spec.components_pos),
        "components_neg": comps(spec.components_neg),
    }


_COMPONENTS = listed(section({"weight": (real, MISSING), "mean": (listed(real), MISSING),
                               "var": (listed(real), MISSING)}, GaussianComponent))
_SPEC = {"prior_pos": (real, MISSING), "dimension": (count, MISSING),
         "components_pos": (_COMPONENTS, MISSING), "components_neg": (_COMPONENTS, MISSING)}


def spec_from_dict(d: dict, where: str = "distribution") -> DistributionSpec:
    return DistributionSpec(**read(d, where, _SPEC))


def measure_from_csv(path) -> EmpiricalMeasure:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[-1] != "label" or not all(h == f"x{i}" for i, h in enumerate(header[:-1])):
            raise InvalidInput(f"unexpected CSV header: {header}")
        pts, labs = [], []
        for row in reader:
            pts.append([float(v) for v in row[:-1]])
            labs.append(int(row[-1]))
    pts = np.array(pts)
    if not np.isfinite(pts).all():
        raise ValueError("a csv cell is not a finite number")
    return EmpiricalMeasure(pts, np.array(labs))
