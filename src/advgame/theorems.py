"""Verifiers for the game's structural results.

* no-pure-Nash dynamics: alternate exact best responses and require a strictly
  positive defender improvement every round;
* randomization gap: a two-classifier mixture built from a best response
  strictly beats its deterministic base, verified both by region-wise closed
  forms and by the brute-force per-point oracle;
* weak duality on finite strategy grids;
* figure-data export of the original and attacked densities.

The norm-penalty gap decomposes over four regions rather than the three the
mass penalty needs: with the canonical flip zone touching the decision
boundary, points of the negative attackable band lose their full-error
boundary target (crossing now lands in the randomized zone), so that band
contributes its own strictly positive term. The closed form below carries it;
the oracle cross-check pins it down.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from . import intervals as iv
from .distributions import (
    DistributionSpec,
    density,
    interval_affine_moment,
    interval_mass,
)
from .errors import ConfigError, InvalidInput, TheoremRangeError, UnsupportedKind
from .game import (
    GameConfig,
    _defender_of,
    _error_profile,
    _quadrature_score,
    best_response_attack,
    oracle_value_profiles,
    transported_measure,
    worst_case_score,
)
from .hypotheses import (
    Hypothesis,
    IntervalRegion,
    MixedClassifier,
    RegionFlip,
    as_mixture,
    bayes_optimal,
    interval_form,
)

IMPROVEMENT_THRESHOLD = 1e-6


# ---------------------------------------------------------------------------
# Theorem: no pure Nash equilibrium
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DynamicsRound:
    round: int
    attacker_score: float      # S_reg(h_r, phi_r), phi_r best response to h_r
    defender_score: float      # S_reg(h_{r+1}, phi_r) after the defender replies
    improvement: float
    defender_breaks: tuple[float, ...]


@dataclass(frozen=True)
class DynamicsReport:
    rounds: tuple[DynamicsRound, ...]
    threshold: float
    passed: bool
    falsified: bool  # a non-improving round falsifies the implementation


def verify_no_pure_nash(spec: DistributionSpec, cfg: GameConfig, rounds: int = 5,
                        threshold: float = IMPROVEMENT_THRESHOLD) -> DynamicsReport:
    """Alternate exact best responses from the Bayes classifier.

    Every round the standing defender is attacked optimally, then replaced by
    the exact best response to that attack; the score drop must exceed the
    strictness threshold every single round, otherwise the pair would be an
    (approximate) equilibrium and the run reports a falsification.
    """
    if spec.dimension != 1:
        raise ConfigError("the dynamics verifier runs on the exact 1-D layer")
    if cfg.penalty not in ("mass", "norm"):
        raise ConfigError("no-pure-Nash dynamics need a mass or norm penalty")
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    h = interval_form(bayes_optimal(spec))
    profile = _error_profile(h, spec)
    out = []
    for r in range(1, rounds + 1):
        tr = transported_measure(best_response_attack(h, spec, cfg), spec)
        s_att = _quadrature_score(profile, tr, cfg).score
        h_next = _defender_of(tr)
        next_profile = _error_profile(h_next, spec)
        s_def = _quadrature_score(next_profile, tr, cfg).score
        h = interval_form(h_next)
        out.append(DynamicsRound(r, s_att, s_def, s_att - s_def, h.breaks))
        profile = next_profile if h is h_next else _error_profile(h, spec)
    improvements_ok = all(r.improvement > threshold for r in out)
    return DynamicsReport(tuple(out), threshold, improvements_ok, not improvements_ok)


# ---------------------------------------------------------------------------
# Theorem: randomization strictly beats any deterministic classifier
# ---------------------------------------------------------------------------

def admissible_alpha_interval(cfg: GameConfig, delta: float | None = None
                              ) -> tuple[float, float]:
    """Open interval of first-classifier weights with a guaranteed gap."""
    if cfg.penalty == "mass":
        return (max(cfg.lam, 1.0 - cfg.lam), 1.0)
    if cfg.penalty == "norm":
        if delta is None or not 0.0 < delta < cfg.epsilon:
            raise ConfigError("norm penalty needs a margin delta in (0, epsilon)")
        return (max(1.0 - cfg.lam * delta, cfg.lam * (cfg.epsilon - delta)), 1.0)
    raise ConfigError("randomization gap is stated for mass and norm penalties")


@dataclass(frozen=True)
class GapReport:
    alpha: float
    delta: float | None
    admissible: tuple[float, float]
    flip_zone: tuple[float, float]
    score_h1: float
    score_mixture: float
    gap: float
    score_h1_oracle: float | None
    score_mixture_oracle: float | None
    gap_oracle: float | None
    threshold: float
    passed: bool


def _single_boundary(h1: Hypothesis) -> tuple[float, int]:
    form = interval_form(h1)
    if len(form.breaks) != 1:
        raise UnsupportedKind(
            "the gap verifier needs a single-boundary base classifier"
        )
    return form.breaks[0], form.signs[1]  # boundary, sign above it


def _u_interval(t: float, up: int, a: float, b: float) -> iv.Iv:
    """Map a depth interval (a, b) on the positive side into x-space."""
    return (t + a, t + b) if up == 1 else (t - b, t - a)


def randomization_gap(h1: Hypothesis, spec: DistributionSpec, cfg: GameConfig,
                      alpha_thm: float, delta: float | None = None,
                      run_oracle: bool = True, threshold: float = IMPROVEMENT_THRESHOLD,
                      oracle_inner: int = 1025, oracle_per_piece: int = 256
                      ) -> GapReport:
    """Worst-case regularized scores of h1 and of the flip mixture, plus the gap.

    The mixture puts weight alpha_thm on h1 and 1 - alpha_thm on h1 flipped on
    the canonical zone U (the whole attackable band for the mass penalty; the
    band at margin delta from the safe positive region for the norm penalty).
    Scores come from region-wise closed forms and, optionally, from the
    brute-force per-point oracle.
    """
    lo, hi = admissible_alpha_interval(cfg, delta)
    if not lo < alpha_thm < hi:
        raise TheoremRangeError(
            f"alpha_thm={alpha_thm} outside the admissible interval ({lo:.6g}, {hi:.6g})"
        )
    t, up = _single_boundary(h1)
    eps, lam, a = cfg.epsilon, cfg.lam, alpha_thm
    nu_neg = 1.0 - spec.prior_pos

    if cfg.penalty == "mass":
        U = _u_interval(t, up, 0.0, eps)
        Neps = _u_interval(t, up, -eps, 0.0)
        gap = (1 - a) * nu_neg * (
            interval_mass(spec, -1, [U]) + interval_mass(spec, -1, [Neps])
        )
    else:
        tau = eps - delta
        U = _u_interval(t, up, 0.0, tau)
        Neps = _u_interval(t, up, -eps, 0.0)
        gap = nu_neg * _norm_gap_zone_term(spec, t, up, tau, lam, a)
        gap += nu_neg * _norm_gap_band_term(spec, t, up, eps, tau, delta, lam, a)

    score_h1 = worst_case_score(h1, spec, cfg)
    score_mix = score_h1 - gap

    h2 = RegionFlip(h1, IntervalRegion(min(U), max(U)))
    mixture = MixedClassifier((h1, h2), (a, 1.0 - a))
    s1_oracle = sm_oracle = gap_oracle = None
    if run_oracle:
        extra = [t + s * v for s in (-1, 1)
                 for v in (eps, 2 * eps, (delta or 0.0), eps - (delta or 0.0),
                           2 * eps - (delta or 0.0), a / lam, (1 - a) / lam)]
        s1_oracle = worst_case_score_oracle(h1, spec, cfg, oracle_inner,
                                            oracle_per_piece, extra)
        sm_oracle = worst_case_score_oracle(mixture, spec, cfg, oracle_inner,
                                            oracle_per_piece, extra)
        gap_oracle = s1_oracle - sm_oracle
    passed = gap > threshold and (gap_oracle is None or gap_oracle > threshold)
    return GapReport(
        alpha=a, delta=delta, admissible=(lo, hi), flip_zone=U,
        score_h1=score_h1, score_mixture=score_mix, gap=gap,
        score_h1_oracle=s1_oracle, score_mixture_oracle=sm_oracle,
        gap_oracle=gap_oracle, threshold=threshold, passed=passed,
    )


def _norm_gap_zone_term(spec, t, up, tau, lam, a) -> float:
    """int over U of [1 - max(a, 1 - lam*(tau - u))] dmu_neg, u = depth into P.

    The mixture's only options for a negative-label point inside the flip zone
    are the randomized zone itself (error a) or the surely-positive region
    past it (error 1 at distance tau - u).
    """
    label = -1
    u_star = tau - (1 - a) / lam  # where the two options tie
    total = 0.0
    if u_star > 0:  # integrand 1 - a below the tie point
        total += (1 - a) * interval_mass(spec, label, [_u_interval(t, up, 0.0, min(u_star, tau))])
    lo_u = max(0.0, u_star)
    if lo_u < tau:  # integrand lam * (tau - u) above it
        x_iv = _u_interval(t, up, lo_u, tau)
        # lam*(tau - u) with u = up*(x - t): affine in x
        const = lam * (tau + up * t)
        total += interval_affine_moment(spec, label, [x_iv], const, -lam * up)
    return total


def _norm_gap_band_term(spec, t, up, eps, tau, delta, lam, a) -> float:
    """Negative attackable band: h1 concedes the boundary target, the mixture
    does not (crossing lands in the randomized zone), worth
    (1 + lam*u) - max(0, c + lam*u) per unit mass at depth u in [-eps, 0),
    with c = max(a, 1 - lam*tau) within delta of the zone and c = a beyond.
    """
    label = -1
    total = 0.0
    for u_lo, u_hi, c in (
        (-delta, 0.0, max(a, 1.0 - lam * tau)),
        (-eps, -delta, a),
    ):
        if u_hi <= u_lo:
            continue
        u_cross = -c / lam  # below this depth the mixture option is worthless
        if max(u_lo, u_cross) < u_hi:  # integrand 1 - c
            x_iv = _u_interval(t, up, max(u_lo, u_cross), u_hi)
            total += (1.0 - c) * interval_mass(spec, label, [x_iv])
        if u_lo < min(u_hi, u_cross):  # integrand 1 + lam*u, u = up*(x - t)
            x_iv = _u_interval(t, up, u_lo, min(u_hi, u_cross))
            total += interval_affine_moment(spec, label, [x_iv], 1.0 - lam * up * t, lam * up)
    return total


def worst_case_score_oracle(model, spec: DistributionSpec, cfg: GameConfig,
                            inner_n: int = 1025, per_piece: int = 256,
                            extra_splits=()) -> float:
    """Brute-force sup-score: per-point ball-grid search under the expectation.

    Outer integration is the midpoint rule on pieces split at every structural
    breakpoint, so the integrand is smooth per piece and no evaluation point
    ever sits on a kink or touches a cell boundary with the ball endpoint.
    The inner grid contains the origin and both ball endpoints. One oracle
    pass scores the midpoints of all pieces; the sums stay per piece.
    """
    if per_piece < 1:
        raise InvalidInput(f"per_piece must be >= 1, got {per_piece}")
    mix = as_mixture(model)
    breaks = sorted({b for h in mix.hypotheses for b in interval_form(h).breaks})
    lo_b, hi_b = spec.bounds()
    lo_b, hi_b = float(lo_b[0]), float(hi_b[0])
    splits = {lo_b, hi_b}
    for b in breaks:
        splits.update((b, b - cfg.epsilon, b + cfg.epsilon))
    splits.update(extra_splits)
    edges = sorted(s for s in splits if lo_b <= s <= hi_b)
    pieces = [(a, (b - a) / per_piece) for a, b in zip(edges[:-1], edges[1:])
              if b - a >= 1e-12]
    a, h = np.array(pieces).T
    xs = (a[:, None] + (np.arange(per_piece) + 0.5) * h[:, None]).ravel()
    profiles = oracle_value_profiles(mix, xs, cfg, inner_n)
    sums = {label: (profiles[label] * np.asarray(density(spec, label, xs.reshape(-1, 1))))
            .reshape(-1, per_piece).sum(axis=1) * h for label in (1, -1)}
    total = 0.0
    for i in range(h.size):
        for label in (1, -1):
            total += spec.prior(label) * float(sums[label][i])
    return total


# ---------------------------------------------------------------------------
# Weak duality on finite strategy grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualityReport:
    thresholds: tuple[float, ...]
    payoff: tuple[tuple[float, ...], ...]  # payoff[i][j] = S_reg(h_i, phi_j)
    sup_inf: float
    inf_sup: float
    strict: bool


def weak_duality_grid(spec: DistributionSpec, cfg: GameConfig,
                      thresholds) -> DualityReport:
    """max_j min_i <= min_i max_j over threshold defenders vs their best responses.

    Each defender's error profile and each attack's transported measure is
    built once; the n^2 exact payoffs are read from them. A threshold predicts
    what its interval form predicts at every point, so the profiles are of
    the forms, whose atom errors come from tables.
    """
    from .hypotheses import Threshold

    hyps = [Threshold(float(t)) for t in thresholds]
    measures = [transported_measure(best_response_attack(h, spec, cfg), spec) for h in hyps]
    profiles = [_error_profile(interval_form(h), spec) for h in hyps]
    payoff = np.array(
        [[_quadrature_score(p, tr, cfg).score for tr in measures] for p in profiles]
    )
    sup_inf = float(payoff.min(axis=0).max())
    inf_sup = float(payoff.max(axis=1).min())
    return DualityReport(
        tuple(float(t) for t in thresholds),
        tuple(map(tuple, payoff)),
        sup_inf,
        inf_sup,
        strict=sup_inf < inf_sup,
    )


# ---------------------------------------------------------------------------
# Figure-data export: original and attacked densities
# ---------------------------------------------------------------------------

def fig1_export(spec: DistributionSpec, cfg: GameConfig, out_dir,
                resolution: int = 2001) -> list[str]:
    """Write density CSVs for the original distribution and the three attacks
    on the Bayes classifier (none / mass / norm), plus an atom sidecar.
    """
    import os

    if spec.dimension != 1:
        raise ConfigError("figure export is 1-D")
    if resolution < 2:
        raise ConfigError(f"resolution must be >= 2, got {resolution}")
    os.makedirs(out_dir, exist_ok=True)
    lo, hi = spec.bounds()
    xs = np.linspace(float(lo[0]), float(hi[0]), resolution)
    pts = xs.reshape(-1, 1)
    h = bayes_optimal(spec)
    paths = []
    atoms_rows = []

    def write(name, dens_neg, dens_pos):
        path = os.path.join(out_dir, f"fig1_{name}.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "mu_neg", "mu_pos"])
            for row in zip(xs, dens_neg, dens_pos):
                w.writerow([repr(float(v)) for v in row])
        paths.append(path)

    write("original", density(spec, -1, pts), density(spec, 1, pts))

    for kind in ("none", "mass", "norm"):
        attack = best_response_attack(h, spec, replace(cfg, penalty=kind))
        tr = transported_measure(attack, spec)
        dens = {}
        for label in (1, -1):
            src = xs - tr.shift(label)
            alive = iv.contains(tr.alive(label), src)
            dens[label] = np.asarray(density(spec, label, src.reshape(-1, 1))) * alive
            for loc, m in tr.atoms(label):
                atoms_rows.append([kind, repr(float(loc)), label, repr(float(m))])
        write(kind, dens[-1], dens[1])

    atom_path = os.path.join(out_dir, "fig1_atoms.csv")
    with open(atom_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["panel", "location", "label", "mass"])
        w.writerows(atoms_rows)
    paths.append(atom_path)
    return paths
