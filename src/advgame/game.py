"""The zero-sum game: scores, penalties, and exact best responses.

The exact layer works on the line. A hypothesis with computable geometry is
converted to its interval form; the attacker's best response then has a closed
form, one piecewise map (Map1D) whose pieces both its `apply` and the
transported measure read; that measure is an interval-supported density plus
Dirac atoms, and every expectation is an exact Gaussian-mixture interval
integral. Scores and verifiers read one error profile per model and one measure
per attack. A brute-force per-point oracle cross-checks every closed form.

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

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import ndtr

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
from .fields import check_numbers
from .hypotheses import (
    Hypothesis,
    Interval1D,
    Linear,
    MixedClassifier,
    NORMS,
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
ORACLE_BLOCK = 8192  # grid values (candidates x rows) per ball-grid oracle block; 16384 ran slower

PENALTIES = ("mass", "norm", "none")
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
        # an infinite epsilon is an unbounded attack; a NaN one would pass every check below
        check_numbers({"mc_n": self.mc_n, "mc_seed": self.mc_seed},
                      {"lambda": self.lam, "epsilon": self.epsilon})
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


@dataclass(frozen=True)
class Map1D(AttackMap):
    """Closed-form best response on the line, as one piecewise map.

    Each piece (y, lo, hi, target) carries class y's points on (lo, hi) to
    target; every other class-y point moves by shift(y). The zone maps of the
    mass and norm penalties have pieces and no shifts, the penalty-free
    translation has shifts and no pieces.

    On measure-zero sets: a piece is open at the end next to its target (the
    decision boundary, which stays put) and closed at its far end, and where
    two pieces meet the first one takes the point.
    """

    budget: float
    pieces: tuple[tuple[int, float, float, float], ...] = ()
    shift_pos: float = 0.0
    shift_neg: float = 0.0
    norm_kind: str = "l2"
    kind = "closed_form"

    def shift(self, label: int) -> float:
        return self.shift_pos if label == 1 else self.shift_neg

    def apply(self, X, label):
        pts = np.array(np.atleast_2d(X), dtype=float, copy=True)
        x = pts[:, 0].copy()
        if self.shift(label):  # a zero shift keeps every bit, -0.0 included
            pts[:, 0] += self.shift(label)
        free = np.ones(x.shape, dtype=bool)
        for y, lo, hi, target in self.pieces:
            if y == label:
                inside = (x > lo) & (x <= hi) if target <= lo else (x >= lo) & (x < hi)
                pts[free & inside, 0] = target
                free &= ~inside
        return pts


def _zone_pieces(form: Interval1D, budget: float,
                 mode: str) -> tuple[tuple[int, float, float, float], ...]:
    """(y, lo, hi, target) pieces of the zone map of mode "mass" or "norm",
    for y = +1 then -1: class y's band of cells within reach of the opposite
    sign, split at the midpoint of the cell that holds it.

    Norm carries each piece onto its nearest boundary. Mass carries it across
    by OVERSHOOT, and its band is only budget - OVERSHOOT deep (none below
    OVERSHOOT), so the map stays within budget.
    """
    radius = max(budget - OVERSHOOT, 0.0) if mode == "mass" else budget

    def target(boundary, side):
        return boundary if mode == "norm" else boundary + side * OVERSHOOT

    edges = [-math.inf, *form.breaks, math.inf]
    out = []
    for y in (1, -1):
        for lo, hi in form.band(y, radius):
            i = bisect.bisect_right(form.breaks, lo)
            lt, rt = edges[i], edges[i + 1]
            mid = 0.5 * (lt + rt)  # -inf or inf when the cell has one finite end
            if mid > lo:
                out.append((y, lo, min(hi, mid), target(lt, -1)))
            if mid < hi:
                out.append((y, max(lo, mid), hi, target(rt, +1)))
    return tuple(out)


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

@dataclass(frozen=True)
class Transported1D:
    """phi_y # mu_y for both classes: mu_y off the map's pieces, shifted by
    the map's shift_y, plus atoms. The identity map is Map1D(0.0).

    Each piece (y, lo, hi, target, mass) is a part of class y's attack zone:
    the map carries mu_y's mass on (lo, hi) to an atom at target. Zone maps
    keep the shifts at 0.0; the penalty-free translation shifts the whole line
    and has no pieces. Pieces are computed once, alive sets and atoms once per
    label, the penalty once per kind.
    """

    spec: DistributionSpec
    attack: Map1D = Map1D(0.0)
    _penalties: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def pieces(self) -> tuple[tuple[int, float, float, float, float], ...]:
        return tuple((y, lo, hi, target, interval_mass(self.spec, y, [(lo, hi)]))
                     for y, lo, hi, target in self.attack.pieces)

    def alive(self, label: int) -> list[iv.Iv]:
        """Where mu_label stays, in the coordinates of mu_label."""
        return list(self._by_label[label][0])

    def atoms(self, label: int) -> list[tuple[float, float]]:
        """(location, mass) of each atom of class label, sorted by location."""
        return list(self._by_label[label][1])

    @cached_property
    def _by_label(self) -> dict[int, tuple[list[iv.Iv], list[tuple[float, float]]]]:
        acc: dict[int, dict[float, float]] = {1: {}, -1: {}}
        for y, _, _, target, m in self.pieces:
            acc[y][target] = acc[y].get(target, 0.0) + m
        return {y: (iv.complement([(lo, hi) for z, lo, hi, _, _ in self.pieces if z == y]),
                    sorted(acc[y].items())) for y in (1, -1)}

    def shift(self, label: int) -> float:
        return self.attack.shift(label)

    def penalty(self, cfg: GameConfig) -> float:
        """Omega of the map: the moved mass (mass) or the expected move length
        (norm), each class weighted by its prior."""
        kind = cfg.penalty
        if kind == "none" or kind in self._penalties:
            return self._penalties.get(kind, 0.0)
        total = 0.0
        for y in (1, -1):
            s = self.shift(y)
            total += self.spec.prior(y) * (abs(s) if kind == "norm" else float(s != 0))
        for y, lo, hi, target, m in self.pieces:
            move = interval_abs_moment(self.spec, y, [(lo, hi)], target) if kind == "norm" else m
            total += self.spec.prior(y) * move
        self._penalties[kind] = total
        return total


def transported_measure(attack: AttackMap, spec: DistributionSpec) -> Transported1D:
    if spec.dimension != 1:
        raise UnsupportedDimension("transported measures are exact only for d = 1")
    if isinstance(attack, IdentityAttack):
        return Transported1D(spec)
    if isinstance(attack, Map1D):
        return Transported1D(spec, attack)
    raise UnsupportedKind(
        f"no exact transported measure for attack kind {type(attack).__name__}"
    )


@dataclass(frozen=True)
class _ErrorProfile:
    """A model's expected error on each cell between its components' common
    breaks, against either label: the model's whole input to a quadrature score,
    and the oracle's per-cell table. Only `natural` reads spec."""

    spec: DistributionSpec | None
    mix: MixedClassifier
    breaks: list[float]
    errs: dict[int, np.ndarray]  # label -> error on each cell, then at each break
    tabled: bool  # every component is its own interval form: errs holds its error everywhere

    def errors(self, tr: Transported1D) -> dict[int, float]:
        """E under phi_y # mu_y of the model's expected error, for y = +1 and -1.

        One walk of the sorted alive pieces against the shifted cells; each
        cell's mass is summed as interval_mass sums it, overlap by overlap and
        component by component. An atom reads its error from the tables when
        the model is tabled, else from the model at its location.
        """
        n = len(self.breaks)
        edges = [-math.inf] + self.breaks + [math.inf]
        out = {}
        for label in (1, -1):
            s, alive, terms = tr.shift(label), tr.alive(label), tr.spec.mass_terms[label]
            errs, total, j = self.errs[label], 0.0, 0
            for e, lo, hi in zip(errs, edges[:-1], edges[1:]):
                lo, hi = lo - s, hi - s
                while j < len(alive) and alive[j][1] <= lo:
                    j += 1  # the cells only move right, so a piece left behind stays behind
                if e > 0.0:
                    mass = 0.0
                    for alo, ahi in alive[j:]:
                        if alo >= hi:
                            break
                        a, b = max(alo, lo), min(ahi, hi)
                        if b > a:
                            for w, m, sd in terms:
                                mass += w * (ndtr((b - m) / sd) - ndtr((a - m) / sd))
                    total += e * float(mass)
            atoms = tr.atoms(label)
            if atoms and self.tabled:
                for loc, m in atoms:
                    i = bisect.bisect_left(self.breaks, loc)
                    total += m * float(errs[n + 1 + i] if i < n and self.breaks[i] == loc
                                       else errs[i])
            elif atoms:
                locs, masses = zip(*atoms)
                pointwise = self.mix.expected_errors(np.reshape(locs, (-1, 1)), label)
                for m, e in zip(masses, pointwise):
                    total += m * float(e)
            out[label] = total
        return out

    @cached_property
    def natural(self) -> dict[int, float]:
        return self.errors(Transported1D(self.spec))


def _error_profile(model, spec: DistributionSpec | None) -> _ErrorProfile:
    mix = as_mixture(model)
    forms = tuple(interval_form(h) for h in mix.hypotheses)
    breaks = sorted({b for f in forms for b in f.breaks})
    probes = np.concatenate([cell_probes(breaks), breaks]).reshape(-1, 1)
    cells = MixedClassifier(forms, mix.weights)
    return _ErrorProfile(spec, mix, breaks,
                         {y: cells.expected_errors(probes, y) for y in (1, -1)},
                         all(f is h for f, h in zip(forms, mix.hypotheses)))


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
    return _quadrature_score(_error_profile(model, spec), transported_measure(attack, spec),
                             cfg)


def _quadrature_score(profile: _ErrorProfile, tr: Transported1D,
                      cfg: GameConfig) -> ScoreReport:
    """The exact score of a profiled model on a transported measure."""
    nat, att, nu1 = profile.natural, profile.errors(tr), tr.spec.prior_pos
    pen = tr.penalty(cfg)
    risk_term = nu1 * nat[1] + (1 - nu1) * nat[-1]
    zone_pos = nu1 * (att[1] - nat[1])
    zone_neg = (1 - nu1) * (att[-1] - nat[-1])
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
            return Map1D(cfg.epsilon, _zone_pieces(form, cfg.epsilon, cfg.penalty),
                         norm_kind=cfg.norm_kind)
        if len(form.breaks) != 1:
            raise UnsupportedKind(
                "penalty-free best response needs a single-boundary hypothesis"
            )
        up = form.signs[1]  # sign above the boundary
        return Map1D(cfg.epsilon, shift_pos=-up * cfg.epsilon, shift_neg=up * cfg.epsilon,
                     norm_kind=cfg.norm_kind)
    if isinstance(h, Linear):
        return LinearAttack(h, cfg.epsilon, cfg.penalty, cfg.norm_kind)
    if spec.dimension <= 2:
        return PointwiseAttack(
            fn=lambda x, label: pointwise_attack_oracle(h, x, label, cfg),
            budget=cfg.epsilon,
            norm_kind=cfg.norm_kind,
        )
    raise UnsupportedKind(f"no best-response attack for {type(h).__name__} in d > 2")


def _worst_case(h: Hypothesis, spec: DistributionSpec, cfg: GameConfig) -> ScoreReport:
    """sup over admissible attacks of the regularized score (exact, 1-D forms).

    One pass over the pieces of the full-epsilon norm map of h's interval
    form: each piece of class y gains nu_y times its mass in error, and costs
    lam times its mass (mass penalty) or its mean distance to the boundary
    point it is carried to (norm penalty).
    """
    form = interval_form(h)
    nat = _error_profile(form, spec).natural
    risk_term = spec.prior_pos * nat[1] + (1 - spec.prior_pos) * nat[-1]
    score, zone, pen = risk_term, {1: 0.0, -1: 0.0}, {1: 0.0, -1: 0.0}
    for y, lo, hi, boundary in _zone_pieces(form, cfg.epsilon, "norm"):
        nu, m = spec.prior(y), interval_mass(spec, y, [(lo, hi)])
        zone[y] += nu * m
        if cfg.penalty == "mass":
            pen[y] += nu * m
            score += nu * (1 - cfg.lam) * m
        else:
            score += nu * m
            if cfg.penalty == "norm":
                move = interval_abs_moment(spec, y, [(lo, hi)], boundary)
                pen[y] += nu * move
                score -= nu * cfg.lam * move
    return ScoreReport(
        score=score,
        risk_term=risk_term,
        attack_zone_pos=zone[1],
        attack_zone_neg=zone[-1],
        penalty_value=pen[1] + pen[-1],
        lam=cfg.lam,
        method="quadrature",
    )


def worst_case_score(h: Hypothesis, spec: DistributionSpec, cfg: GameConfig) -> float:
    """sup over admissible attacks of the regularized score (exact, 1-D forms)."""
    return _worst_case(h, spec, cfg).score


def score_decomposition(h: Hypothesis, spec: DistributionSpec,
                        cfg: GameConfig) -> ScoreReport:
    """Adversarial risk split into natural risk plus per-class attack-zone terms.

    Norm penalty only: the worst case is risk + sum over classes of
    nu_y * int over the attack zone of (1 - lam * dist to boundary) dmu_y.
    """
    if cfg.penalty != "norm":
        raise ConfigError("score_decomposition is defined for the norm penalty")
    return _worst_case(h, spec, cfg)


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
    return _defender_of(transported_measure(attack, spec))


def _defender_of(tr: Transported1D) -> Hypothesis:
    """The exact Bayes rule of a transported measure on the line."""
    return _transported_bayes(tr) if tr.pieces else bayes_optimal(_shifted_spec(tr))


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
    got = h.predicts(np.reshape([loc for loc, _ in labels], (-1, 1)))
    for (loc, lab), pred in zip(labels, got):
        if pred != lab:  # atoms must end up classified as decided
            raise InvalidInput(f"internal: atom at {loc} classified {pred}, wanted {lab}")
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

def _essential_error_pair(cells, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expected error at each z against labels (+1, -1), one-sided at breaks.

    This is the essential-supremum-compatible error: an isolated boundary
    point only counts for what holds on a neighborhood side of it. cells is
    (breaks, error against +1 on each cell) from the model's _error_profile.
    """
    breaks, pos = cells
    pos_left = pos[np.searchsorted(breaks, z, side="left")]
    pos_right = pos[np.searchsorted(breaks, z, side="right")]
    # binary signs: err against -1 is the complement of err against +1, and
    # rounded 1 - e falls as e grows, so 1 - min is the max of the complements
    return np.maximum(pos_left, pos_right), 1.0 - np.minimum(pos_left, pos_right)


def _ball_grid_values(model, xs: np.ndarray, cfg: GameConfig, grid_n: int, labels):
    """Yield (rows, offsets[J], Z, {label: err - lam*pen}) per block of xs.

    The ball grid is Z = x + offsets[j], offsets = linspace(-eps, eps, grid_n).
    Every array of a block is (candidates, rows): the candidate offsets J run
    down axis 0 and the block's rows along axis 1, so a row's maximum is an
    elementwise max over a few contiguous lines. A row reaches the `count`
    breaks b of the interval forms from breaks[first] on, those with
    x + offsets[0] <= b <= x + offsets[-1] (in floats, as Z is computed). A
    block is a set of rows that reach the same number of breaks, cut to at
    most ORACLE_BLOCK grid values or one row. Its candidates, in no particular
    order, are only the offsets that can carry
    max_j [err(Z_j) - lam*pen(offsets[j])]: the origin index, plus a window
    of j = k-2 .. k+2 around k = searchsorted(offsets, b - x) for every break
    b the row reaches. This is exact: the one-sided error is constant on each
    run of grid points between consecutive breaks (and on each run sitting
    exactly on a break), and the penalty grows with |offset|, so a run's best
    point is the origin or its end nearest the origin, which lies next to a
    break. Rounding b - x instead of x + offsets[j] moves that end by at most
    one index. The errors come from the per-cell table of the model's
    _error_profile, the one the exact scores read: its union breaks and each
    cell's error against +1, summed over components as the full grid sums
    them, so maxima are bit-identical. The full grid's tie rule, the smallest
    |offset| and then the smallest z, picks the same grid point among the
    candidates whatever their order. No row's values depend on the other rows
    of its block, so results do not depend on how xs is ordered or batched.
    A model without interval forms keeps all grid_n offsets.
    """
    offsets = np.linspace(-cfg.epsilon, cfg.epsilon, grid_n)
    abs_off = np.abs(offsets)
    pens = cfg.lam * _penalty_of_norms(abs_off, cfg.penalty)
    origin = int(np.argmin(abs_off))
    window = np.arange(-2, 3)[None, :, None]
    mix = as_mixture(model)
    try:
        profile = _error_profile(mix, None)
        cells = np.asarray(profile.breaks), profile.errs[1][:len(profile.breaks) + 1]
    except UnsupportedKind:
        cells = None
    breaks = np.empty(0) if cells is None else cells[0]
    # a row reaches breaks[first:first + count]; one group per count
    first = np.searchsorted(breaks, xs + offsets[0], side="left")
    count = np.searchsorted(breaks, xs + offsets[-1], side="right") - first
    order = np.argsort(count, kind="stable")
    starts = np.flatnonzero(np.diff(count[order], prepend=-1))
    for s, e in zip(starts, np.r_[starts[1:], len(xs)]):
        reach = np.arange(count[order[s]])[:, None]
        width = 1 + window.size * reach.size
        windowed = cells is not None and width < grid_n
        step = max(1, ORACLE_BLOCK // (width if windowed else grid_n))
        for i in range(s, e, step):
            rows = order[i:min(i + step, e)]
            block = xs[rows]
            J = np.arange(grid_n)[:, None]
            if windowed:
                k = np.searchsorted(offsets, breaks[first[rows] + reach] - block)
                near = (k[:, None, :] + window).reshape(-1, len(block))
                J = np.vstack([np.full((1, len(block)), origin), np.clip(near, 0, grid_n - 1)])
            off = offsets[J]
            Z = block + off
            if cells is not None:
                pair = dict(zip((1, -1), _essential_error_pair(cells, Z)))
            else:
                pair = {y: mix.expected_errors(Z.reshape(-1, 1), y).reshape(Z.shape)
                        for y in labels}
            pen = pens[J]
            yield rows, off, Z, {y: pair[y] - pen for y in labels}


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
    xs = np.asarray(xs, dtype=float).ravel()
    out = {1: np.empty(xs.shape[0]), -1: np.empty(xs.shape[0])}
    for rows, _, _, vals in _ball_grid_values(model, xs, cfg, grid_n, (1, -1)):
        for label in (1, -1):
            out[label][rows] = vals[label].max(axis=0)
    return out


def oracle_attack_points_1d(model, xs: np.ndarray, y: int, cfg: GameConfig,
                            grid_n: int = 4097) -> np.ndarray:
    """Vectorized 1-D oracle: grid argmax of err - lam*pen for every x.

    Tie-break: among the maxima, the smallest |offset|, then the smallest z.
    Only the grid points that can hold the maximum are evaluated (see
    _ball_grid_values); the tie-broken maximizer of the full grid is always
    among them.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    out = np.empty(xs.shape[0])
    for rows, off, Z, vals in _ball_grid_values(model, xs, cfg, grid_n, (y,)):
        dist = np.where(vals[y] == vals[y].max(axis=0), np.abs(off), np.inf)
        out[rows] = np.where(dist == dist.min(axis=0), Z, np.inf).min(axis=0)
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
