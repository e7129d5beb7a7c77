"""Trapezoid quadrature: an independent reference for the exact layer's checks.

``integrate`` estimates class-conditional expectations in d <= 2 and
``discretized_score`` the regularized score of an attack on a fixed 1-D grid.
Neither shares code with the closed forms they are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from advgame.distributions import DistributionSpec, density
from advgame.errors import UnsupportedDimension
from advgame.game import GameConfig, perturbation_norms
from advgame.hypotheses import as_mixture

DEFAULT_RESOLUTION_1D = 2 ** 14
DEFAULT_RESOLUTION_2D = 2 ** 9


@dataclass(frozen=True)
class GridSpec:
    """Uniform-grid description for the quadrature oracle."""

    resolution: int | None = None  # points per axis
    bounds: tuple | None = None    # ((lo, hi), ...) per axis
    k_sigma: float = 8.0


def integrate(f, spec: DistributionSpec, label: int, grid: GridSpec | None = None) -> float:
    """Trapezoid estimate of E[f(X)] for X ~ class conditional, d <= 2.

    f must be vectorized over an (n, d) array of points. Bounds default to
    +-8 sigma of every component on each axis.
    """
    if spec.dimension > 2:
        raise UnsupportedDimension("quadrature oracle only supports d <= 2")
    grid = grid or GridSpec()
    res = grid.resolution or (
        DEFAULT_RESOLUTION_1D if spec.dimension == 1 else DEFAULT_RESOLUTION_2D
    )
    if grid.bounds is not None:
        bounds = [(float(lo), float(hi)) for lo, hi in grid.bounds]
    else:
        lo, hi = spec.bounds(grid.k_sigma)
        bounds = list(zip(lo.tolist(), hi.tolist()))
    axes = [np.linspace(lo, hi, res) for lo, hi in bounds]
    if spec.dimension == 1:
        pts = axes[0].reshape(-1, 1)
        vals = np.asarray(f(pts), dtype=float) * np.asarray(density(spec, label, pts))
        return float(np.trapezoid(vals, axes[0]))
    xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    vals = (np.asarray(f(pts), dtype=float) * np.asarray(density(spec, label, pts))).reshape(xx.shape)
    return float(np.trapezoid(np.trapezoid(vals, axes[1], axis=1), axes[0]))


def discretized_score(model, apply_fn, spec: DistributionSpec, cfg: GameConfig,
                      xs: np.ndarray) -> float:
    """Regularized score on a fixed 1-D grid discretization of the densities.

    Both sides of a closed-form-vs-oracle comparison must be fed the same grid;
    apply_fn(points, label) returns the attacked points.
    """
    total = 0.0
    for y in (1, -1):
        pts = xs.reshape(-1, 1)
        moved = np.atleast_2d(apply_fn(pts, y))
        errs = as_mixture(model).expected_errors(moved, y)
        norms = perturbation_norms(pts, moved, "l2")
        if cfg.penalty == "mass":
            pens = (norms > 0).astype(float)
        elif cfg.penalty == "norm":
            pens = norms
        else:
            pens = np.zeros_like(norms)
        dens = np.asarray(density(spec, y, pts))
        total += spec.prior(y) * float(np.trapezoid((errs - cfg.lam * pens) * dens, xs))
    return total
