"""Computations made apart from the program, and the per-workload checks.

Every check returns a list of failure messages (empty when the output is
right). Each compares the program's output either with a value computed here
from scratch (scipy.stats.norm, scipy.integrate.quad, a numpy forward of the
leaky nets) or with a property the method must have. None compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import norm

# ---------------------------------------------------------------------------
# gap-oracle
# ---------------------------------------------------------------------------

GAP_THRESHOLD = 1e-6   # strictness threshold of the theorem
FORMULA_TOL = 1e-12    # closed forms vs. the Gaussian-CDF formulas
INDEP_TOL = 1e-9       # closed forms vs. the exact per-point integration here


def cell_values(x: float, cells, label: int, penalty: str, lam: float, eps: float) -> float:
    """sup over z in [x - eps, x + eps] of err(z, label) - lam * pen(x, z).

    cells are (lo, hi, {label: expected error}); a cell counts with its
    closure, which is the essential-supremum convention for boundary points.
    """
    best = -math.inf
    for lo, hi, err in cells:
        d = max(0.0, lo - x, x - hi)
        if d <= eps:
            pen = 0.0 if d == 0.0 else (lam if penalty == "mass" else lam * d)
            best = max(best, err[label] - pen)
    return best


def exact_score(cells, penalty: str, lam: float, eps: float,
                means=(-1.0, 1.0), sd: float = 1.0) -> float:
    """Worst-case regularized score on N(-1, sd^2) / N(+1, sd^2), equal priors,
    by adaptive quadrature of the per-point attack value between its kinks."""
    edges = sorted({e for lo, hi, _ in cells for e in (lo, hi) if math.isfinite(e)})
    knots = sorted({e + s for e in edges for s in (-eps, 0.0, eps)})
    knots = [-12.0 * sd + min(means)] + knots + [12.0 * sd + max(means)]
    total = 0.0
    for label, m in ((-1, means[0]), (1, means[1])):
        f = lambda x: cell_values(x, cells, label, penalty, lam, eps) * norm.pdf(x, m, sd)
        for a, b in zip(knots[:-1], knots[1:]):
            if b > a:
                total += 0.5 * quad(f, a, b, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    return total


def flip_cells(t: float, zone_hi: float, alpha: float):
    """Cells of the threshold at t (+1 above) and of its flip mixture on (t, zone_hi)."""
    inf = math.inf
    h1 = [(-inf, t, {1: 1.0, -1: 0.0}), (t, inf, {1: 0.0, -1: 1.0})]
    mix = [(-inf, t, {1: 1.0, -1: 0.0}),
           (t, zone_hi, {1: 1.0 - alpha, -1: alpha}),
           (zone_hi, inf, {1: 0.0, -1: 1.0})]
    return h1, mix


def oracle_gap_bound(lam: float, eps: float, penalty: str, inner_n: int = 1025) -> float:
    """Largest |gap - gap_oracle| the oracle grid allows on N(-1,1) / N(+1,1).

    Grid shortfall: the ball grid has spacing 2*eps/(inner_n - 1) and holds the
    origin and both ends, so for the norm penalty each point's grid maximum
    falls short of its supremum by less than lam * spacing (zero for the mass
    penalty, whose cost does not depend on the distance). Only points within
    2*eps of the boundary can be moved by either classifier, so the two
    shortfalls differ by at most lam * spacing * mu(band). Outer rule: h1 and
    the mixture share the oracle's pieces, so the midpoint-rule error acts on
    the difference of their integrands, which lives on the band; with pieces
    no wider than eps and 256 points each it is at most
    (eps/256)^2 / 24 * (band length) * sup|f''|, where f = value * density,
    |value| <= 1, |value'| <= lam, sup|phi''| = phi(0) and sup|phi'| = phi(1).
    """
    spacing = 2.0 * eps / (inner_n - 1)
    band = 0.5 * sum(norm.cdf(2 * eps, m, 1) - norm.cdf(-2 * eps, m, 1) for m in (-1, 1))
    shortfall = (lam * spacing * band) if penalty == "norm" else 0.0
    f2 = norm.pdf(0.0) + 2.0 * lam * norm.pdf(1.0)
    rule = (eps / 256) ** 2 / 24.0 * (4 * eps) * f2
    return shortfall + rule


def check_gap(rep, penalty: str, lam: float, eps: float, alpha: float) -> list[str]:
    """rep is the GapReport of Threshold(0) on two_gaussians_1d with the oracle on."""
    bad = []
    if not rep.passed:
        bad.append("report did not pass")
    if not (rep.gap > GAP_THRESHOLD and rep.gap_oracle is not None
            and rep.gap_oracle > GAP_THRESHOLD):
        bad.append(f"gap {rep.gap!r} / oracle gap {rep.gap_oracle!r} not above {GAP_THRESHOLD}")
        return bad
    if not rep.score_h1_oracle <= rep.score_h1:
        bad.append(f"oracle score {rep.score_h1_oracle!r} exceeds the supremum {rep.score_h1!r}")
    bound = oracle_gap_bound(lam, eps, penalty)
    if not abs(rep.gap - rep.gap_oracle) <= bound:
        bad.append(f"|gap - gap_oracle| = {abs(rep.gap - rep.gap_oracle):.3e} > {bound:.3e}")
    if penalty == "mass":
        s1 = norm.cdf(-1) + (1 - lam) * (norm.cdf(eps - 1) - norm.cdf(-1))
        gap = (1 - alpha) * 0.5 * (norm.cdf(1 + eps) - norm.cdf(1 - eps))
        if abs(rep.score_h1 - s1) > FORMULA_TOL:
            bad.append(f"mass score_h1 {rep.score_h1!r} != CDF formula {s1!r}")
        if abs(rep.gap - gap) > FORMULA_TOL:
            bad.append(f"mass gap {rep.gap!r} != CDF formula {gap!r}")
    h1, mix = flip_cells(0.0, rep.flip_zone[1], alpha)
    s1 = exact_score(h1, penalty, lam, eps)
    sm = exact_score(mix, penalty, lam, eps)
    for what, got, want in (("score_h1", rep.score_h1, s1),
                            ("score_mixture", rep.score_mixture, sm),
                            ("gap", rep.gap, s1 - sm)):
        if abs(got - want) > INDEP_TOL:
            bad.append(f"{what} {got!r} != exact integration {want!r}")
    return bad


# ---------------------------------------------------------------------------
# br-dynamics
# ---------------------------------------------------------------------------

OVERSHOOT = 1e-6  # the mass best response concedes this sliver at each zone edge


def class_mass(spec, label: int, lo: float, hi: float) -> float:
    comps = spec.components_pos if label == 1 else spec.components_neg
    return sum(c.weight * (norm.cdf(hi, c.mean[0], math.sqrt(c.var[0]))
                           - norm.cdf(lo, c.mean[0], math.sqrt(c.var[0]))) for c in comps)


def own_risk(spec, breaks, signs) -> float:
    """Natural risk of a sign-interval classifier, from the Gaussian CDFs."""
    edges = [-math.inf] + list(breaks) + [math.inf]
    total = 0.0
    for s, lo, hi in zip(signs, edges[:-1], edges[1:]):
        label = -s  # the cell errs on the other label
        prior = spec.prior_pos if label == 1 else 1.0 - spec.prior_pos
        total += prior * class_mass(spec, label, lo, hi)
    return total


def max_density(spec) -> float:
    """Upper bound on nu_y * p_y(x) over x and y."""
    out = 0.0
    for label, comps in ((1, spec.components_pos), (-1, spec.components_neg)):
        prior = spec.prior_pos if label == 1 else 1.0 - spec.prior_pos
        out = max(out, prior * sum(c.weight / math.sqrt(2 * math.pi * c.var[0]) for c in comps))
    return out


def own_bayes_roots(spec, lo: float = -12.0, hi: float = 12.0, n: int = 6001) -> list[float]:
    """Sign changes of nu1*p1 - nu-1*p-1 by a fine scan and bisection.

    Enough for the benchmark's mixtures: one shared variance, no component
    narrower than 0.8 or lighter than 0.07.
    """
    def f(x):
        x = np.asarray(x, dtype=float)
        pos = sum(c.weight * norm.pdf(x, c.mean[0], math.sqrt(c.var[0]))
                  for c in spec.components_pos)
        neg = sum(c.weight * norm.pdf(x, c.mean[0], math.sqrt(c.var[0]))
                  for c in spec.components_neg)
        return spec.prior_pos * pos - (1.0 - spec.prior_pos) * neg

    xs = np.linspace(lo, hi, n)
    s = np.sign(f(xs))
    roots = []
    for i in range(1, n - 1):
        if s[i] == 0 and s[i - 1] * s[i + 1] < 0:
            roots.append(float(xs[i]))
        elif s[i] * s[i + 1] < 0:
            roots.append(float(brentq(f, xs[i], xs[i + 1], xtol=1e-14)))
    return roots


def alternating_signs(n_breaks: int, right_sign: int) -> tuple[int, ...]:
    return tuple(right_sign * (-1) ** (n_breaks - i) for i in range(n_breaks + 1))


def attacker_shortfalls(spec, rep, worst_case):
    """Per round: (round, worst-case score of the standing classifier minus the
    attacker's score, overshoot sliver).

    The standing classifier of round 1 is the Bayes rule, found here by
    bisection; later ones are the previous round's defender. Their cells
    alternate in sign and the rightmost cell is +1, because the positive
    class owns the largest mean (by construction of the inputs). The mass
    best response leaves an OVERSHOOT-wide sliver unattacked at each zone
    edge, two per break.
    """
    sliver_unit = 2 * OVERSHOOT * max_density(spec)
    standing = own_bayes_roots(spec)
    out = []
    for r in rep.rounds:
        sup = worst_case(standing, alternating_signs(len(standing), 1))
        out.append((r.round, sup - r.attacker_score, sliver_unit * len(standing) + 1e-12))
        standing = list(r.defender_breaks)
    return out


def check_dynamics(spec, rep, exact: bool, worst_case, risk_of,
                   threshold: float) -> list[str]:
    """rep is a DynamicsReport; worst_case(breaks, signs) and risk_of(breaks,
    signs) are the program's worst_case_score and risk of that classifier.

    The attacker's score must equal the standing classifier's worst case
    within the sliver; with exact=False that equality is checked in round 1
    only. That is for the norm penalty: from round 2 the defender labels the
    atoms at its breaks and the verifier's boundary projection lands on them,
    a known fault that BrDynamics.known_fault counts on a fixed input. In
    every round no attacker may beat the worst case.
    """
    bad = []
    if not rep.passed or rep.falsified:
        bad.append("dynamics report did not pass")
    for (rnd, short, sliver), r in zip(attacker_shortfalls(spec, rep, worst_case), rep.rounds):
        if not r.improvement > threshold:
            bad.append(f"round {rnd} improvement {r.improvement!r} <= {threshold}")
        if r.improvement != r.attacker_score - r.defender_score:
            bad.append(f"round {rnd} improvement is not attacker - defender score")
        if short < -sliver or ((exact or rnd == 1) and short > sliver):
            bad.append(f"round {rnd} attacker score {r.attacker_score!r} is {short:.3e} "
                       f"below the worst case (sliver {sliver:.2e})")
        breaks = list(r.defender_breaks)
        signs = alternating_signs(len(breaks), 1)
        got, want = risk_of(breaks, signs), own_risk(spec, breaks, signs)
        if abs(got - want) > 1e-12:
            bad.append(f"round {rnd} defender risk {got!r} != CDF risk {want!r}")
    return bad


def check_duality(dual) -> list[str]:
    payoff = np.asarray(dual.payoff)
    sup_inf, inf_sup = float(payoff.min(axis=0).max()), float(payoff.max(axis=1).min())
    bad = []
    if (dual.sup_inf, dual.inf_sup) != (sup_inf, inf_sup):
        bad.append("reported sup-inf / inf-sup do not match the payoff table")
    if not dual.sup_inf <= dual.inf_sup:
        bad.append(f"weak duality violated: {dual.sup_inf!r} > {dual.inf_sup!r}")
    return bad


# ---------------------------------------------------------------------------
# bat-seed
# ---------------------------------------------------------------------------

def check_bat_row(row, alpha_candidates) -> list[str]:
    bad = []
    for name in ("at_clean", "at_aua", "mixture_clean", "mixture_aua"):
        v = getattr(row, name)
        if not 0.0 <= v <= 1.0:
            bad.append(f"{name} = {v!r} outside [0, 1]")
    if row.alpha not in alpha_candidates:
        bad.append(f"alpha {row.alpha!r} is not a candidate")
    want = (1.0,) if row.alpha == 0.0 else (1.0 - row.alpha, row.alpha)
    if tuple(row.weights) != want:
        bad.append(f"weights {row.weights!r} != {want!r}")
    return bad


def check_bat_repeats(rows_by_seed: dict) -> list[str]:
    """training is deterministic in (data, config, seed): a seed repeats its row."""
    bad = []
    for seed, rows in rows_by_seed.items():
        if len(rows) < 2:
            bad.append(f"seed {seed} ran {len(rows)} time(s), need at least 2")
        elif any(r != rows[0] for r in rows[1:]):
            bad.append(f"seed {seed} gave differing rows")
    return bad


# ---------------------------------------------------------------------------
# cw-eval
# ---------------------------------------------------------------------------

def leaky_forward(weights, biases, slope, X):
    """Output and hidden pre-activations of a leaky-rectifier net."""
    h = np.asarray(X, dtype=float)
    pres = []
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = h @ w + b
        if i == len(weights) - 1:
            return a, pres
        pres.append(a)
        h = np.maximum(a, 0.0) + slope * np.minimum(a, 0.0)


def margins(net, X) -> np.ndarray:
    out, _ = leaky_forward(net.weights, net.biases, net.slope, X)
    return out[:, 0] if out.shape[1] == 1 else out[:, 1] - out[:, 0]


def own_expected_errors(components, X, Y) -> np.ndarray:
    """components: (weight, MlpModel) pairs; a zero margin errs on both labels."""
    Y = np.asarray(Y)
    return sum(q * (np.sign(margins(net, X)) != Y) for q, net in components)


def check_cw_accuracy(clean: float, by_threshold: dict, own_clean: float) -> list[str]:
    bad = []
    if abs(clean - own_clean) > 1e-12:
        bad.append(f"clean accuracy {clean!r} != independent forward {own_clean!r}")
    accs = [by_threshold[t] for t in sorted(by_threshold)]
    if any(b > a for a, b in zip(accs, accs[1:])):
        bad.append(f"accuracy rises with the rejection threshold: {accs}")
    if any(a > clean for a in accs):
        bad.append(f"accuracy under attack {max(accs)!r} exceeds clean {clean!r}")
    return bad


def check_cw_batch(components, X, Y, adv, l2, success) -> list[str]:
    bad = []
    err = own_expected_errors(components, adv, Y)
    if np.any(success & ~(err > 0.5)):
        bad.append(f"{int(np.sum(success & ~(err > 0.5)))} successes are not misclassified")
    dist = np.linalg.norm(adv - X, axis=1)
    if not np.allclose(l2[success], dist[success], rtol=1e-12, atol=1e-15):
        bad.append("returned l2 differs from ||adv - x||")
    if not (np.array_equal(adv[~success], X[~success]) and np.all(np.isinf(l2[~success]))):
        bad.append("failed points moved or carry a finite norm")
    return bad


def kink_free(components, X, h: float, margin: float = 1e-4) -> np.ndarray:
    """Rows whose rectifier pattern is the same at x and x +- h along each axis."""
    ok = np.ones(len(X), dtype=bool)
    for _, net in components:
        _, pres = leaky_forward(net.weights, net.biases, net.slope, X)
        ok &= np.all([np.all(np.abs(p) > margin, axis=1) for p in pres], axis=0)
        for j in range(X.shape[1]):
            for s in (-h, h):
                Xs = X.copy()
                Xs[:, j] += s
                _, pres_s = leaky_forward(net.weights, net.biases, net.slope, Xs)
                ok &= np.all([np.all((p > 0) == (q > 0), axis=1)
                              for p, q in zip(pres, pres_s)], axis=0)
    return ok


def check_input_grad(loss_fn, X, grad, h: float = 1e-6) -> list[str]:
    """Central differences of the per-sample loss against the returned gradient."""
    fd = np.empty_like(X)
    for j in range(X.shape[1]):
        Xp, Xm = X.copy(), X.copy()
        Xp[:, j] += h
        Xm[:, j] -= h
        fd[:, j] = (loss_fn(Xp) - loss_fn(Xm)) / (2 * h)
    if not np.allclose(grad, fd, rtol=1e-5, atol=1e-6):
        return [f"input gradient off central differences by {np.abs(grad - fd).max():.3e}"]
    return []
