"""The zero-sum game: scores, penalties, and exact best responses.

The exact layer works on the line. A hypothesis with computable geometry is
converted to its interval form; the attacker's best response then has a closed
form (zone maps), the transported measure is an interval-supported
density plus Dirac atoms, and every expectation is an exact Gaussian-mixture
interval integral. A brute-force per-point oracle provides the independent
route used to cross-check every closed form.

Conventions baked in here:
  * predictions of 0 (decision boundary) count as errors against both labels;
  * the attacker's supremum is an essential supremum: values on measure-zero
    sets (isolated boundary points) cannot be exploited, which the oracle
    honors by taking one-sided limits of the error at cell boundaries;
  * the canonical mass-penalty map crosses the boundary by a fixed overshoot
    of 1e-6 and therefore only attacks points at depth <= epsilon - overshoot,
    so that it respects the budget exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import intervals as iv
from .distributions import (
    DistributionSpec,
    GaussianComponent,
    density,
    interval_abs_moment,
    interval_mass,
    pushforward_empirical,
    sample_labeled,
)
from .errors import (
    BudgetViolation,
    ConfigError,
    InvalidInput,
    UnsupportedDimension,
    UnsupportedKind,
)
from .hypotheses import (
    Hypothesis,
    Interval1D,
    Linear,
    MixedClassifier,
    as_mixture,
    ball_offsets,
    cell_probes,
    interval_form,
    make_interval1d,
    bayes_optimal,
)

OVERSHOOT = 1e-6
BUDGET_TOL = 1e-9
DEFENDER_BINS = 64  # bins per axis of the 2-D binned best-response defender

PENALTIES = ("mass", "norm", "none")
NORMS = ("l2", "linf")
EVALS = ("quadrature", "monte_carlo")


@dataclass(frozen=True)
class GameConfig:
    """Penalty kind, regularization weight, budget, norm, and evaluation mode."""

    penalty: str
    lam: float
    epsilon: float
    norm_kind: str = "l2"
    eval_method: str = "quadrature"
    mc_n: int = 10000
    mc_seed: int = 0

    def __post_init__(self):
        if self.penalty not in PENALTIES:
            raise ConfigError(f"penalty must be one of {PENALTIES}, got {self.penalty!r}")
        if not 0.0 < self.lam < 1.0:
            raise ConfigError(
                f"lambda must lie strictly in (0, 1), got {self.lam} "
                "(lambda = 0 admits the trivial penalty-free equilibrium)"
            )
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.penalty == "norm" and self.epsilon > 1.0:
            raise ConfigError(
                "norm penalty requires epsilon <= 1 (boundary projections must "
                "keep the per-point gain 1 - lambda*dist nonnegative)"
            )
        if self.norm_kind not in NORMS:
            raise ConfigError(f"norm_kind must be one of {NORMS}")
        if self.eval_method not in EVALS:
            raise ConfigError(f"eval must be one of {EVALS}")
        if self.mc_n < 1:
            raise ConfigError("mc_n must be >= 1")


def perturbation_norms(X: np.ndarray, Z: np.ndarray, norm_kind: str) -> np.ndarray:
    d = np.atleast_2d(Z) - np.atleast_2d(X)
    if norm_kind == "linf":
        return np.abs(d).max(axis=1)
    return np.linalg.norm(d, axis=1)


def _penalty_of_norms(norms: np.ndarray, penalty: str) -> np.ndarray:
    """Per-point Omega of perturbations with these norms, before the factor lam:
    1{moved} for mass, the norm for norm, 0 for none."""
    if penalty == "mass":
        return (norms > 0).astype(float)
    if penalty == "norm":
        return norms
    return np.zeros_like(norms)


def check_budget(X: np.ndarray, Z: np.ndarray, attack) -> None:
    norms = perturbation_norms(X, Z, attack.norm_kind)
    worst = float(norms.max()) if norms.size else 0.0
    if worst > attack.budget + BUDGET_TOL:
        raise BudgetViolation(
            f"attack moved a point by {worst:.6g} > budget {attack.budget:.6g} + 1e-9"
        )


# ---------------------------------------------------------------------------
# Attack maps
# ---------------------------------------------------------------------------

class AttackMap:
    """Per-class transport phi = (phi_-1, phi_+1) with a budget."""

    budget: float
    norm_kind: str = "l2"
    kind: str = "abstract"

    def apply(self, X: np.ndarray, label: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityAttack(AttackMap):
    budget: float = 0.0
    norm_kind: str = "l2"
    kind = "identity"

    def apply(self, X, label):
        return np.array(np.atleast_2d(X), dtype=float, copy=True)


@dataclass(frozen=True, eq=False)
class ZoneAttack1D(AttackMap):
    """Closed-form best response for mass/norm penalties on an interval form.

    mode "norm": project attackable points onto the decision boundary.
    mode "mass": carry them across, overshooting by OVERSHOOT; the zone is
    shrunk to depth budget - OVERSHOOT so the map stays within budget.
    """

    form: Interval1D
    budget: float
    mode: str  # "mass" | "norm"
    norm_kind: str = "l2"
    kind = "closed_form"

    @property
    def radius(self) -> float:
        return self.budget - OVERSHOOT if self.mode == "mass" else self.budget

    def zone(self, label: int) -> list[iv.Iv]:
        return self.form.band(label, self.radius)

    def pieces(self, label: int) -> list[tuple[float, float, float]]:
        """(lo, hi, atom location) pieces of the zone, split at target midpoints."""
        other = self.form.sign_intervals(-label)
        out = []
        for lo, hi in self.zone(label):
            left = [bhi for _, bhi in other if bhi <= lo + 1e-300]
            right = [blo for blo, _ in other if blo >= hi - 1e-300]
            lt = max(left) if left else None
            rt = min(right) if right else None
            if lt is not None and rt is not None:
                mid = 0.5 * (lt + rt)
                if mid > lo:
                    out.append((lo, min(hi, mid), self._target(lt, side=-1)))
                if mid < hi:
                    out.append((max(lo, mid), hi, self._target(rt, side=+1)))
            elif lt is not None:
                out.append((lo, hi, self._target(lt, side=-1)))
            elif rt is not None:
                out.append((lo, hi, self._target(rt, side=+1)))
            else:  # zone nonempty implies a reachable opposite cell
                raise UnsupportedKind("attack zone with no adjacent opposite cell")
        return out

    def _target(self, boundary: float, side: int) -> float:
        if self.mode == "norm":
            return boundary
        return boundary + side * OVERSHOOT

    def apply(self, X, label):
        pts = np.array(np.atleast_2d(X), dtype=float, copy=True)
        x = pts[:, 0]
        other = self.form.sign_intervals(-label)
        attackable = (self.form.predicts(pts) == label) & (
            iv.distance(other, x) <= self.radius
        )
        if attackable.any():
            near = iv.nearest_point(other, x)
            if self.mode == "norm":
                target = near
            else:
                target = near + np.where(near > x, OVERSHOOT, -OVERSHOOT)
            pts[:, 0] = np.where(attackable, target, x)
        return pts


@dataclass(frozen=True, eq=False)
class TranslateAttack1D(AttackMap):
    """Penalty-free best response: shift each class bodily toward the boundary."""

    shift_pos: float
    shift_neg: float
    budget: float
    norm_kind: str = "l2"
    kind = "closed_form"

    def apply(self, X, label):
        pts = np.array(np.atleast_2d(X), dtype=float, copy=True)
        pts[:, 0] += self.shift_pos if label == 1 else self.shift_neg
        return pts


@dataclass(frozen=True, eq=False)
class LinearAttack(AttackMap):
    """Zone map against a linear hypothesis in any dimension."""

    h: Linear
    budget: float
    mode: str  # "mass" | "norm" | "none"
    norm_kind: str = "l2"
    kind = "closed_form"

    def _geometry(self):
        w = np.asarray(self.h.w, dtype=float)
        if self.norm_kind == "l2":
            dual = np.linalg.norm(w)
            step = w / dual  # unit step that changes g fastest per unit l2
        else:
            dual = np.abs(w).sum()
            step = np.sign(w)  # unit-linf step with maximal effect on g
        return w, dual, step

    def apply(self, X, label):
        pts = np.array(np.atleast_2d(X), dtype=float, copy=True)
        w, dual, step = self._geometry()
        g = self.h.decision_values(pts)
        dist = np.abs(g) / dual
        if self.mode == "none":
            return pts - label * self.budget * step
        radius = self.budget - OVERSHOOT if self.mode == "mass" else self.budget
        move = dist if self.mode == "norm" else dist + OVERSHOOT
        attackable = (np.sign(g).astype(int) == label) & (dist <= radius)
        pts -= np.where(attackable, move, 0.0)[:, None] * (label * step)
        return pts


@dataclass(frozen=True, eq=False)
class PointwiseAttack(AttackMap):
    """Per-point perturbation procedure (brute-force oracle realization)."""

    fn: object  # callable (x vector, label) -> perturbed vector
    budget: float
    norm_kind: str = "l2"
    kind = "pointwise"

    def apply(self, X, label):
        pts = np.atleast_2d(np.asarray(X, dtype=float))
        return np.vstack([np.atleast_1d(self.fn(x, label)) for x in pts])


# ---------------------------------------------------------------------------
# Transported measures (1-D exact layer)
# ---------------------------------------------------------------------------

_FULL_LINE = ((-math.inf, math.inf),)


@dataclass(frozen=True)
class Transported1D:
    """phi_y # mu_y for both classes: mu_y on alive_y, shifted by shift_y, plus atoms.

    alive_y is in the coordinates of mu_y: the density at x is mu_y(x - shift_y)
    where x - shift_y lies in alive_y. Zone maps keep the shifts at 0.0 and move
    their zones' mass to atoms; the penalty-free translation shifts the whole
    line and has no atoms.
    """

    spec: DistributionSpec
    alive_pos: tuple[iv.Iv, ...]
    alive_neg: tuple[iv.Iv, ...]
    atoms_pos: tuple[tuple[float, float], ...]  # (location, mass)
    atoms_neg: tuple[tuple[float, float], ...]
    shift_pos: float = 0.0
    shift_neg: float = 0.0

    def alive(self, label: int):
        return list(self.alive_pos if label == 1 else self.alive_neg)

    def atoms(self, label: int):
        return list(self.atoms_pos if label == 1 else self.atoms_neg)

    def shift(self, label: int) -> float:
        return self.shift_pos if label == 1 else self.shift_neg


def transported_measure(attack: AttackMap, spec: DistributionSpec) -> Transported1D:
    if spec.dimension != 1:
        raise UnsupportedDimension("transported measures are exact only for d = 1")
    if isinstance(attack, IdentityAttack):
        return Transported1D(spec, _FULL_LINE, _FULL_LINE, (), ())
    if isinstance(attack, TranslateAttack1D):
        return Transported1D(spec, _FULL_LINE, _FULL_LINE, (), (),
                             attack.shift_pos, attack.shift_neg)
    if isinstance(attack, ZoneAttack1D):
        alive, atoms = {}, {}
        for label in (1, -1):
            zone = attack.zone(label)
            alive[label] = tuple(iv.complement(zone))
            acc: dict[float, float] = {}
            for lo, hi, target in attack.pieces(label):
                m = interval_mass(spec, label, [(lo, hi)])
                acc[target] = acc.get(target, 0.0) + m
            atoms[label] = tuple(sorted(acc.items()))
        return Transported1D(spec, alive[1], alive[-1], atoms[1], atoms[-1])
    raise UnsupportedKind(
        f"no exact transported measure for attack kind {type(attack).__name__}"
    )


def _error_profile(model) -> tuple[list[float], np.ndarray, np.ndarray]:
    """Common cell refinement of all component forms with per-cell expected errors.

    Returns (breaks, err_vs_pos_label, err_vs_neg_label), one entry per cell.
    """
    mix = as_mixture(model)
    forms = [interval_form(h) for h in mix.hypotheses]
    breaks = sorted({b for f in forms for b in f.breaks})
    err_pos = np.zeros(len(breaks) + 1)
    err_neg = np.zeros(len(breaks) + 1)
    probes = cell_probes(breaks)
    for q, f in zip(mix.weights, forms):
        idx = np.searchsorted(np.asarray(f.breaks), probes, side="left")
        signs = np.asarray(f.signs)[idx]
        err_pos += q * (signs != 1)
        err_neg += q * (signs != -1)
    return breaks, err_pos, err_neg


def _pushforward_errors(model, tr: Transported1D) -> dict[int, float]:
    """E under phi_y # mu_y of the model's expected error, for y = +1 and -1."""
    breaks, err_pos, err_neg = _error_profile(model)
    edges = [-math.inf] + breaks + [math.inf]
    mix = as_mixture(model)
    out = {}
    for label, errs in ((1, err_pos), (-1, err_neg)):
        s, alive = tr.shift(label), tr.alive(label)
        total = 0.0
        for e, lo, hi in zip(errs, edges[:-1], edges[1:]):
            if e > 0.0:
                total += e * interval_mass(tr.spec, label,
                                           iv.intersect(alive, [(lo - s, hi - s)]))
        atoms = tr.atoms(label)
        if atoms:
            locs, masses = zip(*atoms)
            errs = mix.expected_errors(np.reshape(locs, (-1, 1)), label)
            for m, e in zip(masses, errs):
                total += m * float(e)
        out[label] = total
    return out


def _natural_errors(model, spec: DistributionSpec) -> dict[int, float]:
    return _pushforward_errors(model, Transported1D(spec, _FULL_LINE, _FULL_LINE, (), ()))


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreReport:
    """Regularized adversarial score with its decomposition.

    score = risk_term + attack_zone_pos + attack_zone_neg - lam * penalty_value.
    attack_zone_* is the unpenalized error-mass gain of the attack on that
    class (zero for the identity attack), so the identity attack reproduces
    the plain risk exactly.
    """

    score: float
    risk_term: float
    attack_zone_pos: float
    attack_zone_neg: float
    penalty_value: float
    lam: float
    method: str
    stderr: float | None = None
    mc_n: int | None = None
    mc_seed: int | None = None

    @property
    def unpenalized(self) -> float:
        return self.risk_term + self.attack_zone_pos + self.attack_zone_neg


def risk(model, spec: DistributionSpec, cfg: GameConfig | None = None) -> float:
    """E 1{h(X) != Y}; expected over the weights for a mixture."""
    cfg = cfg or GameConfig("none", 0.5, 1.0)
    report = adversarial_score(model, IdentityAttack(norm_kind=cfg.norm_kind), spec, cfg)
    return report.score


def penalty_value(attack: AttackMap, spec: DistributionSpec, cfg: GameConfig) -> float:
    """Omega(phi): transported mass (mass) or expected perturbation norm (norm)."""
    if cfg.penalty == "none":
        return 0.0
    if cfg.eval_method == "monte_carlo":
        return float(_mc_evaluate(attack, spec, cfg)[2].mean())
    if isinstance(attack, IdentityAttack):
        return 0.0
    if isinstance(attack, TranslateAttack1D):
        shifts = {1: attack.shift_pos, -1: attack.shift_neg}
        if cfg.penalty == "mass":
            return sum(spec.prior(y) * (1.0 if shifts[y] != 0 else 0.0) for y in (1, -1))
        return sum(spec.prior(y) * abs(shifts[y]) for y in (1, -1))
    if isinstance(attack, ZoneAttack1D):
        total = 0.0
        for y in (1, -1):
            for lo, hi, target in attack.pieces(y):
                if cfg.penalty == "mass":
                    total += spec.prior(y) * interval_mass(spec, y, [(lo, hi)])
                else:
                    total += spec.prior(y) * interval_abs_moment(spec, y, [(lo, hi)], target)
        return total
    raise UnsupportedKind(
        "penalty of a pointwise attack needs monte_carlo evaluation"
    )


def adversarial_score(model, attack: AttackMap, spec: DistributionSpec,
                      cfg: GameConfig) -> ScoreReport:
    """Regularized score of the model against a fixed attack."""
    if cfg.eval_method == "monte_carlo":
        return _mc_score(model, attack, spec, cfg)
    if spec.dimension != 1:
        raise ConfigError(
            f"quadrature evaluation is exact only in 1-D, the distribution is "
            f"{spec.dimension}-D; use \"eval\": {{\"method\": \"monte_carlo\"}}"
        )
    nat = _natural_errors(model, spec)
    att = _pushforward_errors(model, transported_measure(attack, spec))
    pen = penalty_value(attack, spec, cfg)
    risk_term = spec.prior_pos * nat[1] + (1 - spec.prior_pos) * nat[-1]
    zone_pos = spec.prior_pos * (att[1] - nat[1])
    zone_neg = (1 - spec.prior_pos) * (att[-1] - nat[-1])
    return ScoreReport(
        score=risk_term + zone_pos + zone_neg - cfg.lam * pen,
        risk_term=risk_term,
        attack_zone_pos=zone_pos,
        attack_zone_neg=zone_neg,
        penalty_value=pen,
        lam=cfg.lam,
        method="quadrature",
    )


def _mc_evaluate(attack: AttackMap, spec: DistributionSpec, cfg: GameConfig):
    """Seeded sample, its attacked points and each point's penalty."""
    sample = sample_labeled(spec, cfg.mc_n, cfg.mc_seed)
    moved = pushforward_empirical(sample, attack).points
    pens = _penalty_of_norms(perturbation_norms(sample.points, moved, cfg.norm_kind),
                             cfg.penalty)
    return sample, moved, pens


def _mc_score(model, attack: AttackMap, spec: DistributionSpec,
              cfg: GameConfig) -> ScoreReport:
    sample, moved, pens = _mc_evaluate(attack, spec, cfg)
    mix = as_mixture(model)
    errs = mix.expected_errors(moved, sample.labels)
    nat_errs = mix.expected_errors(sample.points, sample.labels)
    vals = errs - cfg.lam * pens
    stderr = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    risk_term = float(nat_errs.mean())
    gain = errs - nat_errs
    zone_pos = float(gain[sample.labels == 1].sum() / len(sample))
    zone_neg = float(gain[sample.labels == -1].sum() / len(sample))
    return ScoreReport(
        score=float(vals.mean()),
        risk_term=risk_term,
        attack_zone_pos=zone_pos,
        attack_zone_neg=zone_neg,
        penalty_value=float(pens.mean()),
        lam=cfg.lam,
        method="monte_carlo",
        stderr=stderr,
        mc_n=cfg.mc_n,
        mc_seed=cfg.mc_seed,
    )


# ---------------------------------------------------------------------------
# Best responses
# ---------------------------------------------------------------------------

def best_response_attack(h: Hypothesis, spec: DistributionSpec,
                         cfg: GameConfig) -> AttackMap:
    """Closed-form attacker best response where the geometry allows it.

    Falls back to the pointwise oracle for hypotheses without computable
    boundary geometry (d <= 2 only).
    """
    try:
        form = interval_form(h)
    except UnsupportedKind:
        form = None
    if form is not None:
        if cfg.penalty in ("mass", "norm"):
            return ZoneAttack1D(form, cfg.epsilon, cfg.penalty, cfg.norm_kind)
        if len(form.breaks) != 1:
            raise UnsupportedKind(
                "penalty-free best response needs a single-boundary hypothesis"
            )
        up = form.signs[1]  # sign above the boundary
        return TranslateAttack1D(
            shift_pos=-up * cfg.epsilon,
            shift_neg=up * cfg.epsilon,
            budget=cfg.epsilon,
            norm_kind=cfg.norm_kind,
        )
    if isinstance(h, Linear):
        return LinearAttack(h, cfg.epsilon, cfg.penalty, cfg.norm_kind)
    if spec.dimension <= 2:
        return PointwiseAttack(
            fn=lambda x, label: pointwise_attack_oracle(h, x, label, cfg),
            budget=cfg.epsilon,
            norm_kind=cfg.norm_kind,
        )
    raise UnsupportedKind(f"no best-response attack for {type(h).__name__} in d > 2")


def _worst_case_zone(h: Hypothesis, spec: DistributionSpec, cfg: GameConfig):
    """Natural risk of h's interval form and its full-epsilon zone pieces.

    Each piece (label, lo, hi, boundary) is a part of class label's attack
    zone whose nearest boundary point of the opposite sign is boundary.
    """
    form = interval_form(h)
    nat = _natural_errors(form, spec)
    risk_term = spec.prior_pos * nat[1] + (1 - spec.prior_pos) * nat[-1]
    attack = ZoneAttack1D(form, cfg.epsilon, "norm", cfg.norm_kind)
    pieces = [(y, lo, hi, b) for y in (1, -1) for lo, hi, b in attack.pieces(y)]
    return risk_term, pieces


def worst_case_score(h: Hypothesis, spec: DistributionSpec, cfg: GameConfig) -> float:
    """sup over admissible attacks of the regularized score (exact, 1-D forms)."""
    total, pieces = _worst_case_zone(h, spec, cfg)
    for y, lo, hi, boundary in pieces:
        m = interval_mass(spec, y, [(lo, hi)])
        if cfg.penalty == "mass":
            total += spec.prior(y) * (1 - cfg.lam) * m
        else:
            total += spec.prior(y) * m
            if cfg.penalty == "norm":
                total -= spec.prior(y) * cfg.lam * interval_abs_moment(
                    spec, y, [(lo, hi)], boundary)
    return total


def score_decomposition(h: Hypothesis, spec: DistributionSpec,
                        cfg: GameConfig) -> ScoreReport:
    """Adversarial risk split into natural risk plus per-class attack-zone terms.

    Norm penalty only: the worst case is risk + sum over classes of
    nu_y * int over the attack zone of (1 - lam * dist to boundary) dmu_y.
    """
    if cfg.penalty != "norm":
        raise ConfigError("score_decomposition is defined for the norm penalty")
    risk_term, pieces = _worst_case_zone(h, spec, cfg)
    zone = {1: 0.0, -1: 0.0}
    pen = {1: 0.0, -1: 0.0}
    for y, lo, hi, boundary in pieces:
        zone[y] += spec.prior(y) * interval_mass(spec, y, [(lo, hi)])
        pen[y] += spec.prior(y) * interval_abs_moment(spec, y, [(lo, hi)], boundary)
    total_pen = pen[1] + pen[-1]
    return ScoreReport(
        score=risk_term + zone[1] + zone[-1] - cfg.lam * total_pen,
        risk_term=risk_term,
        attack_zone_pos=zone[1],
        attack_zone_neg=zone[-1],
        penalty_value=total_pen,
        lam=cfg.lam,
        method="quadrature",
    )


def best_response_defender(attack: AttackMap, spec: DistributionSpec,
                           cfg: GameConfig) -> Hypothesis:
    """Bayes-style best response to a fixed attack.

    d = 1: exact piecewise classifier on the transported measure, with Dirac
    atoms classified by their mass comparison. d = 2: binned empirical Bayes.
    """
    if spec.dimension == 2:
        return _binned_defender(attack, spec, cfg)
    if spec.dimension != 1:
        raise UnsupportedDimension("defender best response needs d <= 2")
    if isinstance(attack, IdentityAttack):
        return bayes_optimal(spec)
    tr = transported_measure(attack, spec)
    if isinstance(attack, TranslateAttack1D):
        return bayes_optimal(_shifted_spec(tr))
    return _transported_bayes(tr)


def _shifted_spec(tr: Transported1D) -> DistributionSpec:
    """The spec of a translated measure: every component mean moved by its shift."""
    def shift_comps(label):
        return tuple(
            GaussianComponent(c.weight, (c.mean[0] + tr.shift(label),), c.var)
            for c in tr.spec.components(label)
        )

    return DistributionSpec(
        prior_pos=tr.spec.prior_pos,
        dimension=1,
        components_pos=shift_comps(1),
        components_neg=shift_comps(-1),
    )


def _transported_bayes(tr: Transported1D) -> Interval1D:
    """Exact Bayes rule for an interval-supported density pair plus atoms."""
    from .distributions import bayes_roots

    spec = tr.spec
    breaks = set(bayes_roots(spec))
    for label in (1, -1):
        for lo, hi in tr.alive(label):
            for e in (lo, hi):
                if math.isfinite(e):
                    breaks.add(e)
    atom_masses: dict[float, dict[int, float]] = {}
    for label in (1, -1):
        for loc, m in tr.atoms(label):
            atom_masses.setdefault(loc, {1: 0.0, -1: 0.0})[label] += m
    breaks_sorted = sorted(breaks)
    probes = cell_probes(breaks_sorted)
    w_pos, w_neg = (
        np.where(iv.contains(tr.alive(y), probes),
                 spec.prior(y) * density(spec, y, probes.reshape(-1, 1)), 0.0)
        for y in (1, -1)
    )
    signs = np.where(w_pos > w_neg, 1, -1)
    labels = []
    nu1 = spec.prior_pos
    for loc, masses in atom_masses.items():
        if masses[1] == 0.0 and masses[-1] == 0.0:
            continue  # a zero-mass atom has nothing to classify
        lab = 1 if nu1 * masses[1] >= (1 - nu1) * masses[-1] else -1
        labels.append((loc, lab))
    point_labels = [(loc, lab) for loc, lab in labels if loc in breaks]
    h = make_interval1d(breaks_sorted, signs, point_labels)
    for loc, lab in labels:  # atoms must end up classified as decided
        if h.predict(np.array([loc])) != lab:
            raise InvalidInput(
                f"internal: atom at {loc} classified {h.predict(np.array([loc]))}, wanted {lab}"
            )
    return h


def _binned_defender(attack: AttackMap, spec: DistributionSpec, cfg: GameConfig) -> Hypothesis:
    from .hypotheses import Binned2D

    sample = sample_labeled(spec, max(cfg.mc_n, 20000), cfg.mc_seed)
    moved = pushforward_empirical(sample, attack).points
    lo, hi = spec.bounds(6.0)
    edges = [np.linspace(lo[i], hi[i], DEFENDER_BINS + 1) for i in range(2)]
    pos = np.histogram2d(*moved[sample.labels == 1].T, bins=edges)[0]
    neg = np.histogram2d(*moved[sample.labels == -1].T, bins=edges)[0]
    signs = np.where(pos > neg, 1, -1).tolist()  # python ints, so reports serialize
    return Binned2D((tuple(edges[0].tolist()), tuple(edges[1].tolist())),
                    tuple(map(tuple, signs)))


# ---------------------------------------------------------------------------
# Brute-force pointwise oracle
# ---------------------------------------------------------------------------

def _essential_error_pair(forms_weights, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expected error at each z against labels (+1, -1), one-sided at breaks.

    This is the essential-supremum-compatible error: an isolated boundary
    point only counts for what holds on a neighborhood side of it.
    """
    pos_left = np.zeros(z.shape)
    pos_right = np.zeros(z.shape)
    for q, breaks, signs in forms_weights:
        il = np.searchsorted(breaks, z, side="left")
        ir = np.minimum(np.searchsorted(breaks, z, side="right"), len(signs) - 1)
        pos_left += q * (signs[il] != 1)
        pos_right += q * (signs[ir] != 1)
    # binary signs: err against -1 is the complement of err against +1
    return (
        np.maximum(pos_left, pos_right),
        np.maximum(1.0 - pos_left, 1.0 - pos_right),
    )


def _forms_weights(mix: MixedClassifier):
    return [
        (q, np.asarray(f.breaks), np.asarray(f.signs))
        for q, f in ((q, interval_form(h)) for q, h in zip(mix.weights, mix.hypotheses))
    ]


def _ball_grid_values(model, xs: np.ndarray, cfg: GameConfig, grid_n: int, labels):
    """Yield (rows, Z, |offsets|, {label: err - lam*pen}) per block of xs.

    The ball grid is Z = x + offsets[j], offsets = linspace(-eps, eps, grid_n).
    Each row holds, in ascending j, only the candidate offsets that can carry
    max_j [err(Z_j) - lam*pen(offsets[j])]: the origin index, plus a window of
    j = k-2 .. k+2 around k = searchsorted(offsets, b - x) for every distinct
    break b of the interval forms that some ball of the block reaches. This is
    exact: the one-sided error is constant on each run of grid points between
    consecutive breaks (and on each run sitting exactly on a break), and the
    penalty grows with |offset|, so a run's best point is the origin or its
    end nearest the origin, which lies next to a break. Rounding b - x instead
    of x + offsets[j] moves that end by at most one index. The values kept are
    computed exactly as on the full grid, so maxima are bit-identical, and the
    first maximizer of smallest |offset| is the same grid point. A model
    without interval forms keeps all grid_n offsets.
    """
    offsets = np.linspace(-cfg.epsilon, cfg.epsilon, grid_n)
    abs_off = np.abs(offsets)
    pens = cfg.lam * _penalty_of_norms(abs_off, cfg.penalty)
    origin = int(np.argmin(abs_off))
    window = np.arange(-2, 3)
    mix = as_mixture(model)
    try:
        fw = _forms_weights(mix)
        all_breaks = np.unique(np.concatenate([b for _, b, _ in fw]))
    except UnsupportedKind:
        fw = None
    chunk = max(1, int(4e6 // grid_n))
    for i in range(0, len(xs), chunk):
        block = xs[i:i + chunk]
        J = np.arange(grid_n)[None, :]
        if fw is not None:
            lo, hi = block.min() + offsets[0], block.max() + offsets[-1]
            bs = all_breaks[(all_breaks >= lo) & (all_breaks <= hi)]
            if 1 + window.size * bs.size < grid_n:
                k = np.searchsorted(offsets, bs[None, :] - block[:, None])
                near = (k[:, :, None] + window).reshape(len(block), -1)
                J = np.column_stack([np.full(len(block), origin), near])
                J = np.sort(np.clip(J, 0, grid_n - 1), axis=1)
        J = np.broadcast_to(J, (len(block), J.shape[1]))
        Z = block[:, None] + offsets[J]
        if fw is not None:
            pair = dict(zip((1, -1), _essential_error_pair(fw, Z.ravel())))
        else:
            pair = {y: mix.expected_errors(Z.reshape(-1, 1), y) for y in labels}
        vals = {y: pair[y].reshape(Z.shape) - pens[J] for y in labels}
        yield slice(i, i + len(block)), Z, abs_off[J], vals


def oracle_value_profiles(model, xs: np.ndarray, cfg: GameConfig,
                          grid_n: int = 4097) -> dict[int, np.ndarray]:
    """sup_z [err(z, y) - lam*pen(x, z)] for both labels at once.

    The supremum is the maximum over the grid_n-point ball grid around each
    x; grid points that cannot hold it are skipped (see _ball_grid_values),
    which leaves every value bit-identical to the full grid search.
    """
    if grid_n < 3 or grid_n % 2 == 0:
        raise InvalidInput(f"grid_n must be odd and >= 3 so the grid includes the origin, "
                           f"got {grid_n}")
    out = {1: np.empty(xs.shape[0]), -1: np.empty(xs.shape[0])}
    for rows, _, _, vals in _ball_grid_values(model, xs, cfg, grid_n, (1, -1)):
        for label in (1, -1):
            out[label][rows] = vals[label].max(axis=1)
    return out


def oracle_attack_points_1d(model, xs: np.ndarray, y: int, cfg: GameConfig,
                            grid_n: int = 4097) -> np.ndarray:
    """Vectorized 1-D oracle: grid argmax of err - lam*pen for every x.

    Tie-break: smallest |offset| first (the offsets grid is symmetric and
    ascending, so the first minimizer is also the smallest z). Only the grid
    points that can hold the maximum are evaluated (see _ball_grid_values);
    the tie-broken maximizer of the full grid is always among them.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    out = np.empty(xs.shape[0])
    for rows, Z, abs_off, vals in _ball_grid_values(model, xs, cfg, grid_n, (y,)):
        best = vals[y].max(axis=1, keepdims=True)
        pick = np.where(vals[y] == best, abs_off, np.inf).argmin(axis=1)
        out[rows] = Z[np.arange(Z.shape[0]), pick]
    return out.reshape(-1, 1)


def pointwise_attack_oracle(model, x, y: int, cfg: GameConfig,
                            grid_n: int | None = None) -> np.ndarray:
    """Brute-force per-point best response over a grid of the budget ball.

    The norm penalty and the tie rule measure a move in cfg.norm_kind. Ties
    are broken toward the smallest perturbation norm, then toward the
    lexicographically smallest point. d <= 2 only.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.shape[0]
    if d > 2:
        raise UnsupportedDimension("pointwise oracle supports d <= 2 only")
    mix = as_mixture(model)
    if d == 1:
        return oracle_attack_points_1d(mix, x, y, cfg, grid_n or 4097)[0]
    offsets = ball_offsets(cfg.epsilon, grid_n or 129, d, cfg.norm_kind)
    Z = x[None, :] + offsets
    norms = perturbation_norms(np.zeros(d), offsets, cfg.norm_kind)
    vals = mix.expected_errors(Z, y) - cfg.lam * _penalty_of_norms(norms, cfg.penalty)
    best = vals.max()
    cand = np.flatnonzero(vals >= best)
    cand = cand[norms[cand] == norms[cand].min()]
    keys = Z[cand]
    order = np.lexsort(tuple(keys[:, i] for i in reversed(range(d))))
    return Z[cand[order[0]]]
