"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and nowhere else. Every expected value is either a
closed-form constant, an independently computed oracle value, or a structural
property; nothing is calibrated after the fact.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm

import advgame as ag
from advgame import attacks, nets, training
from advgame.experiments import bat_vs_at_benchmark, satellite_task
from advgame.game import (
    GameConfig,
    OVERSHOOT,
    adversarial_score,
    best_response_attack,
    pointwise_attack_oracle,
    score_decomposition,
)
from advgame.hypotheses import MixedClassifier, Mlp
from advgame.theorems import (
    admissible_alpha_interval,
    randomization_gap,
    verify_no_pure_nash,
    weak_duality_grid,
)
from quadrature_oracle import discretized_score

SPEC = ag.two_gaussians_1d()
THRESH = ag.Threshold(0.0)


def report(num, name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Best-response fidelity against the brute-force oracle
# ---------------------------------------------------------------------------

def test_criterion_1_best_response_fidelity():
    t0 = time.time()
    xs = np.linspace(-8.0, 8.0, 200)
    # the canonical mass map concedes an overshoot-thin sliver at the zone
    # edge; the comparison grid must not sample inside it
    edges = np.array([0.5, -0.5, 0.5 - OVERSHOOT, -0.5 + OVERSHOOT])
    assert np.abs(xs[:, None] - edges[None, :]).min() > 1e-5
    worst_gap = 0.0
    for penalty in ("mass", "norm"):
        cfg = GameConfig(penalty, 0.3, 0.5)
        attack = best_response_attack(THRESH, SPEC, cfg)

        def oracle_apply(pts, label):
            from advgame.game import oracle_attack_points_1d

            return oracle_attack_points_1d(THRESH, pts, label, cfg,
                                           grid_n=2 ** 16 + 1)

        closed = discretized_score(THRESH, attack.apply, SPEC, cfg, xs)
        oracle = discretized_score(THRESH, oracle_apply, SPEC, cfg, xs)
        assert closed >= oracle - 1e-9, f"{penalty}: oracle beat the closed form"
        worst_gap = max(worst_gap, abs(closed - oracle))
        assert abs(closed - oracle) <= 1e-6, f"{penalty}: gap {closed - oracle}"
    elapsed = time.time() - t0
    report(1, "closed-form best responses match the pointwise oracle",
           elapsed < 10.0, f"max score gap {worst_gap:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Decomposition cross-check
# ---------------------------------------------------------------------------

def test_criterion_2_decomposition_cross_check():
    cfg = GameConfig("norm", 0.3, 0.5)
    total = score_decomposition(THRESH, SPEC, cfg).score
    attack = best_response_attack(THRESH, SPEC, cfg)
    direct = adversarial_score(THRESH, attack, SPEC, cfg).score
    gap = abs(total - direct)
    report(2, "risk decomposition equals the attacked score", gap <= 1e-5,
           f"gap {gap:.2e}")


# ---------------------------------------------------------------------------
# 3. No-pure-Nash dynamics
# ---------------------------------------------------------------------------

def test_criterion_3_no_pure_nash_dynamics():
    t0 = time.time()
    ok = True
    worst = math.inf
    for penalty in ("mass", "norm"):
        rep = verify_no_pure_nash(SPEC, GameConfig(penalty, 0.3, 0.5), rounds=5)
        ok &= rep.passed and not rep.falsified
        worst = min(worst, min(r.improvement for r in rep.rounds))
    elapsed = time.time() - t0
    report(3, "five rounds of best responses all strictly improve",
           ok and worst > 1e-6 and elapsed < 30.0,
           f"min improvement {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Randomization gap (both penalties, closed forms and oracle)
# ---------------------------------------------------------------------------

def _alpha_sweep(lo, hi, k=5):
    return [lo + i * (hi - lo) / (k + 1) for i in range(1, k + 1)]


def test_criterion_4_randomization_gap():
    worst_closed = worst_oracle = math.inf
    runs = 0
    for lam in (0.3, 0.4, 0.45):
        cfg = GameConfig("mass", lam, 0.5)
        lo, hi = admissible_alpha_interval(cfg)
        for alpha in _alpha_sweep(lo, hi):
            rep = randomization_gap(THRESH, SPEC, cfg, alpha_thm=alpha)
            assert rep.passed, f"mass lam={lam} alpha={alpha}"
            worst_closed = min(worst_closed, rep.gap)
            worst_oracle = min(worst_oracle, rep.gap_oracle)
            runs += 1
        for delta in (0.05, 0.25):  # 0.1*eps and 0.5*eps
            cfg_n = GameConfig("norm", lam, 0.5)
            lo, hi = admissible_alpha_interval(cfg_n, delta)
            for alpha in _alpha_sweep(lo, hi):
                rep = randomization_gap(THRESH, SPEC, cfg_n, alpha_thm=alpha,
                                        delta=delta)
                assert rep.passed, f"norm lam={lam} d={delta} alpha={alpha}"
                worst_closed = min(worst_closed, rep.gap)
                worst_oracle = min(worst_oracle, rep.gap_oracle)
                runs += 1
    ok = worst_closed > 1e-6 and worst_oracle > 1e-6
    report(4, "mixtures strictly beat the deterministic base", ok,
           f"{runs} configs, min gap closed {worst_closed:.2e} / oracle {worst_oracle:.2e}")


# ---------------------------------------------------------------------------
# 5. Gradient suite
# ---------------------------------------------------------------------------

def _kink_safe_case(trial, margin=5e-4, tries=200):
    """A random small net plus a probe input away from every rectifier kink,
    so central differences stay on one linear piece. Pathological nets are
    reseeded, which keeps the sweep deterministic."""
    for bump in range(20):
        rng = np.random.default_rng((777, trial, bump))
        sizes = (int(rng.integers(1, 3)), int(rng.integers(4, 20)),
                 int(rng.integers(4, 20)), int(rng.integers(1, 3)))
        net = nets.init_mlp(sizes, seed=1000 + trial + 7919 * bump)
        for _ in range(tries):
            x = rng.uniform(-1.5, 1.5, (1, net.in_dim))
            _, pres, _, gates = nets.forward_cached(net, x)
            # the pre-activations read back from the cache, not their gates (each 1.0 or the slope)
            assert all(np.all((g == 1.0) | (g == net.slope)) for g in gates)
            if all(np.abs(p).min() > margin for p in pres):
                return net, x
    raise AssertionError("could not build a kink-safe gradient-check case")


def test_criterion_5_gradient_suite():
    rng = np.random.default_rng(123)
    step, tol = 1e-5, 1e-4
    worst = 0.0
    for trial in range(100):
        net, x = _kink_safe_case(trial)
        y = np.array([1 if rng.random() < 0.5 else -1])
        loss, grads, gin = nets.loss_and_grads(net, x, y)
        # every parameter layer probed at a random coordinate, plus the input
        for layer in range(len(net.weights)):
            w = net.weights[layer]
            i, j = int(rng.integers(w.shape[0])), int(rng.integers(w.shape[1]))
            w[i, j] += step
            lp = float(nets.loss_and_grads(net, x, y)[0][0])
            w[i, j] -= 2 * step
            lm = float(nets.loss_and_grads(net, x, y)[0][0])
            w[i, j] += step
            fd = (lp - lm) / (2 * step)
            rel = abs(fd - grads[layer][0][i, j]) / max(abs(fd), 1e-7)
            worst = max(worst, rel)
        for j in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[0, j] += step
            xm[0, j] -= step
            fd = (float(nets.loss_and_grads(net, xp, y)[0][0])
                  - float(nets.loss_and_grads(net, xm, y)[0][0])) / (2 * step)
            rel = abs(fd - gin[0, j]) / max(abs(fd), 1e-7)
            worst = max(worst, rel)
    assert worst < tol, f"worst relative gradient error {worst}"

    # EOT: mixture input gradient equals the q-weighted component sum and
    # matches finite differences of the expected-logit loss
    a = Mlp(nets.init_mlp((2, 12, 2), seed=7))
    b = Mlp(nets.init_mlp((2, 10, 10, 1), seed=8))
    m = MixedClassifier((a, b), (0.65, 0.35))
    X = np.array([[0.3, -0.4]])
    y = np.array([-1])
    _, grad = attacks.loss_and_input_grad(m, X, y, "eot_logits")
    for j in range(2):
        Xp, Xm = X.copy(), X.copy()
        Xp[0, j] += step
        Xm[0, j] -= step
        fd = (attacks.loss_and_input_grad(m, Xp, y, "eot_logits")[0][0]
              - attacks.loss_and_input_grad(m, Xm, y, "eot_logits")[0][0]) / (2 * step)
        rel = abs(fd - grad[0, j]) / max(abs(fd), 1e-7)
        worst = max(worst, rel)
    report(5, "100 random nets pass finite-difference checks", worst < tol,
           f"worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. PGD closed form and budget sweep
# ---------------------------------------------------------------------------

def test_criterion_6_pgd_closed_form_and_budget_sweep():
    rng = np.random.default_rng(5)
    lin = ag.Linear((0.9, -1.7), 0.2)
    X = rng.uniform(0.3, 0.7, (100, 2))
    Y = np.where(lin.decision_values(X) > 0, 1, -1)
    cfg = ag.PgdConfig(0.1, 0.02, 40, restarts=2, random_init=True, seed=0)
    adv, _ = attacks.pgd_linf_batch(lin, X, Y, cfg)
    closed = X - cfg.epsilon_inf * np.sign(np.asarray(lin.w)) * Y[:, None]
    linf_gap = float(np.abs(adv - closed).max())
    assert linf_gap < 1e-9, f"PGD missed the linear worst case by {linf_gap}"

    # budget sweep on a trained 2-D model: nonincreasing, reaching zero
    spec = satellite_task()
    data = ag.sample_labeled(spec, 1200, seed=11)
    test = ag.sample_labeled(spec, 400, seed=12)
    tcfg = training.TrainConfig(epochs=15, batch_size=64, seed=0,
                                lr_stages=((0, 0.1), (10, 0.02)),
                                sizes=(2, 16, 16, 2))
    model, _ = training.train_natural(data, tcfg)
    accs = []
    for eps in (0.015, 0.031, 0.125, 0.25, 1.0):
        pgd = ag.PgdConfig(eps, max(eps / 8, 0.004), 60, restarts=3, seed=0)
        accs.append(attacks.accuracy_under_pgd(Mlp(model), test.points,
                                               test.labels, pgd))
    monotone = all(a >= b for a, b in zip(accs, accs[1:]))
    report(6, "PGD recovers the linear worst case; accuracy-vs-budget sane",
           linf_gap < 1e-9 and monotone and accs[-1] == 0.0,
           f"linf gap {linf_gap:.1e}, sweep {[round(a, 3) for a in accs]}")


# ---------------------------------------------------------------------------
# 7. C&W closed form
# ---------------------------------------------------------------------------

def test_criterion_7_cw_closed_form():
    rng = np.random.default_rng(9)
    hits = 0
    total = 0
    for w, b in (((0.7, -1.3), -0.05), ((1.1, 0.6), -0.8)):
        lin = ag.Linear(w, b)
        X = rng.uniform(0.35, 0.65, (100, 2))
        Y = np.where(lin.decision_values(X) > 0, 1, -1)
        cfg = ag.CwConfig(lr=0.01, binary_search_steps=9, initial_const=1e-3,
                          iters=100)
        _, l2, ok = attacks.cw_l2_batch(lin, X, Y, cfg)
        ideal = np.abs(lin.decision_values(X)) / np.linalg.norm(w)
        hits += int(np.sum(ok & (l2 <= 1.05 * ideal)))
        total += len(X)
    frac = hits / total
    report(7, "C&W finds near-minimal perturbations on linear models",
           frac >= 0.95, f"{hits}/{total} within 5%")


# ---------------------------------------------------------------------------
# 8. BAT direction (Table-1 analogue at desk scale)
# ---------------------------------------------------------------------------

def test_criterion_8_bat_direction():
    t0 = time.time()
    rows = bat_vs_at_benchmark(first_candidates=3)
    elapsed = time.time() - t0
    improvements = sorted(r.improvement for r in rows)
    all_nonneg = all(v >= -1e-12 for v in improvements)
    median = improvements[len(improvements) // 2]
    detail = ", ".join(f"s{r.seed}:{r.improvement:+.4f}" for r in rows)
    report(8, "boosted mixture at least matches adversarial training",
           all_nonneg and median > 0 and elapsed < 600.0,
           f"{detail}; median {median:+.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. Attack sanity invariants
# ---------------------------------------------------------------------------

def test_criterion_9_attack_sanity():
    spec = satellite_task()
    data = ag.sample_labeled(spec, 1500, seed=21)
    test = ag.sample_labeled(spec, 500, seed=22)
    tcfg = training.TrainConfig(epochs=20, batch_size=64, seed=1,
                                lr_stages=((0, 0.1), (12, 0.02)),
                                sizes=(2, 24, 24, 2))
    eps = 0.08
    model, _ = training.train_adversarial(
        data, tcfg, ag.PgdConfig(eps, eps / 4, 20, 1, True, 0))

    # (a) adding a constant to both logits leaves the attack unchanged
    shifted = model.copy()
    shifted.biases[-1] = shifted.biases[-1] + 7.0
    cfg = ag.PgdConfig(eps, eps / 10, 50, restarts=2, seed=3)
    adv_a, _ = attacks.pgd_linf_batch(Mlp(model), test.points, test.labels, cfg)
    adv_b, _ = attacks.pgd_linf_batch(Mlp(shifted), test.points, test.labels, cfg)
    drift = float(np.abs(adv_a - adv_b).max())
    acc_a = attacks.accuracy(Mlp(model), adv_a, test.labels)
    acc_b = attacks.accuracy(Mlp(model), adv_b, test.labels)
    shift_ok = drift <= 1e-9 and acc_a == acc_b

    # (b) doubling evaluation iterations moves accuracy by < 1 point
    pgd100 = ag.PgdConfig(eps, eps / 10, 100, restarts=2, seed=0)
    pgd200 = ag.PgdConfig(eps, eps / 10, 200, restarts=2, seed=0)
    a100 = attacks.accuracy_under_pgd(Mlp(model), test.points, test.labels, pgd100)
    a200 = attacks.accuracy_under_pgd(Mlp(model), test.points, test.labels, pgd200)
    stable = abs(a100 - a200) < 0.01
    report(9, "logit-shift invariance and iteration stability",
           shift_ok and stable,
           f"drift {drift:.1e}, acc100 {a100:.3f} vs acc200 {a200:.3f}")


# ---------------------------------------------------------------------------
# 10. Weak duality on finite grids
# ---------------------------------------------------------------------------

def test_criterion_10_weak_duality():
    cfg = GameConfig("mass", 0.3, 0.5)
    rep = weak_duality_grid(SPEC, cfg, np.linspace(-1.0, 1.0, 11))
    ok = rep.sup_inf <= rep.inf_sup + 1e-12 and rep.strict
    report(10, "sup-inf <= inf-sup on the strategy grid, strictly here", ok,
           f"sup-inf {rep.sup_inf:.6f} < inf-sup {rep.inf_sup:.6f}")
