"""The four workloads: inputs from the seed, one op, and its checks.

A workload is a closed loop: one caller runs ops back to back. ``setup``
builds the inputs (and trains a model where the workload needs one), and
``round(state, k)`` lists the op inputs of round k; a run does whole rounds.
``op`` is the only timed call. ``check`` checks one op's output and
``check_run`` checks what needs the whole run. ``known_fault`` names the one
kind of op that fails every time, because of a fault in the program, on an
input that does not depend on the seed; the run counts it in ``failed``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from advgame import attacks, experiments, game, theorems, training
from advgame.attacks import CW_PAPER, PgdConfig
from advgame.distributions import (
    DistributionSpec,
    EmpiricalMeasure,
    GaussianComponent,
    two_gaussians_1d,
)
from advgame.game import GameConfig
from advgame.hypotheses import Interval1D, Threshold

import reference as ref


class Workload:
    name = ""
    traced_rounds = 1  # whole rounds a traced run holds, so its counts repeat

    def check_run(self, state) -> list[str]:
        return []

    def known_fault(self, state, item, result) -> str | None:
        return None


def _sweep(lo: float, hi: float, k: int = 5) -> list[float]:
    return [lo + i * (hi - lo) / (k + 1) for i in range(1, k + 1)]


class GapOracle(Workload):
    """randomization_gap with the oracle on, over the criterion-4 sweep.

    A round is one group of three configs that share lambda and the position
    of alpha in its admissible interval: the mass penalty and the norm
    penalty at delta = 0.05 and 0.25. Every round thus holds one mass and two
    norm ops, so a run's mix does not depend on where the seed starts it.
    """

    name = "gap-oracle"
    traced_rounds = 5
    eps = 0.5

    def setup(self, seed: int):
        groups = []
        for lam in (0.3, 0.4, 0.45):
            mass = GameConfig("mass", lam, self.eps)
            norm_cfg = GameConfig("norm", lam, self.eps)
            lo, hi = theorems.admissible_alpha_interval(mass)
            alphas = {None: _sweep(lo, hi)}
            for delta in (0.05, 0.25):
                lo, hi = theorems.admissible_alpha_interval(norm_cfg, delta)
                alphas[delta] = _sweep(lo, hi)
            for i in range(5):
                groups.append([(mass, alphas[None][i], None)]
                              + [(norm_cfg, alphas[d][i], d) for d in (0.05, 0.25)])
        order = np.random.default_rng(seed).permutation(len(groups))
        return {"spec": two_gaussians_1d(), "h1": Threshold(0.0),
                "groups": [groups[i] for i in order]}

    def round(self, state, k):
        return state["groups"][k % len(state["groups"])]

    def op(self, state, item):
        cfg, alpha, delta = item
        return theorems.randomization_gap(state["h1"], state["spec"], cfg,
                                          alpha_thm=alpha, delta=delta)

    def check(self, state, item, rep):
        cfg, alpha, _ = item
        return ref.check_gap(rep, cfg.penalty, cfg.lam, cfg.epsilon, alpha)

    def numbers(self, rep):
        return [rep.score_h1, rep.score_mixture, rep.gap, rep.score_h1_oracle,
                rep.score_mixture_oracle, rep.gap_oracle]


def dynamics_mixture(rng) -> DistributionSpec:
    """A 3+2-component 1-D mixture with one shared standard deviation.

    The positive class owns the largest mean and the negative class the
    smallest, each at least 1 clear of the other class's means, so the
    density ratio has one sign in each far tail and no Bayes root sits out
    there. The second negative mean lies 1 to 2 below the largest one, so
    over 8 rounds of eps = 0.4 no break gets farther than about 7 sd above
    every negative component, where a zone's negative mass would round to
    0.0. Components are no lighter than about 0.07 and no narrower than 0.8,
    so there are no narrow islands either.
    """
    sd = float(rng.uniform(0.8, 1.2))
    top, bottom = float(rng.uniform(1.5, 3.0)), float(rng.uniform(-3.0, -1.5))
    pos = [top] + [float(v) for v in rng.uniform(bottom + 1.0, top, 2)]
    neg = [bottom] + [float(v) for v in rng.uniform(top - 2.0, top - 1.0, 1)]

    def comps(means):
        w = 0.1 + 0.9 * rng.dirichlet(np.full(len(means), 4.0))
        w = [float(v) for v in w / w.sum()]
        w[-1] = 1.0 - sum(w[:-1])
        return tuple(GaussianComponent(q, (m,), (sd * sd,)) for q, m in zip(w, means))

    return DistributionSpec(0.5, 1, comps(pos), comps(neg))


class BrDynamics(Workload):
    """verify_no_pure_nash for both penalties over 8 rounds plus
    weak_duality_grid, on a pool of seeded mixtures.

    A round is the pool plus one fault probe: the norm-penalty dynamics on
    two_gaussians_1d, whose attacker score falls below the standing
    classifier's worst case from round 2 on (the boundary projection lands on
    atoms the defender has labelled). The probe fails every time and is
    counted in ``failed``, one op in every 11.
    """

    name = "br-dynamics"
    traced_rounds = 3
    rounds = 8
    per_round = {1: 7, 3: 3}  # mixtures per round by number of Bayes roots
    pool_rounds = 6
    cfgs = (GameConfig("mass", 0.3, 0.4), GameConfig("norm", 0.3, 0.4))
    thresholds = tuple(np.linspace(-2.0, 2.0, 9))
    probe = "norm-probe"

    def setup(self, seed: int):
        """Draw mixtures until every round's strata are full.

        Op cost grows with the number of Bayes roots (0.17 s with one, 0.26 s
        with three), so every round holds the same mix, near the family's own
        69/31 split, and a run's costs do not depend on the seed's draws.
        """
        rng = np.random.default_rng(seed)
        drawn = {k: [] for k in self.per_round}
        while any(len(drawn[k]) < n * self.pool_rounds for k, n in self.per_round.items()):
            spec = dynamics_mixture(rng)
            k = len(ref.own_bayes_roots(spec))
            if k in drawn and len(drawn[k]) < self.per_round[k] * self.pool_rounds:
                drawn[k].append(spec)
        rounds = [[s for k, n in self.per_round.items() for s in drawn[k][r * n:(r + 1) * n]]
                  for r in range(self.pool_rounds)]
        return {"rounds": rounds, "probe_spec": two_gaussians_1d()}

    def round(self, state, k):
        return state["rounds"][k % self.pool_rounds] + [self.probe]

    def op(self, state, item):
        if item == self.probe:
            return theorems.verify_no_pure_nash(state["probe_spec"], self.cfgs[1],
                                                rounds=self.rounds)
        reps = tuple(theorems.verify_no_pure_nash(item, cfg, rounds=self.rounds)
                     for cfg in self.cfgs)
        return reps, theorems.weak_duality_grid(item, self.cfgs[0], self.thresholds)

    @staticmethod
    def _worst_case(spec, cfg):
        return lambda b, s: game.worst_case_score(Interval1D(tuple(b), s), spec, cfg)

    def known_fault(self, state, item, rep):
        if item != self.probe:
            return None
        short = [(r, d) for r, d, sliver in ref.attacker_shortfalls(
            state["probe_spec"], rep, self._worst_case(state["probe_spec"], self.cfgs[1]))
            if d > sliver]
        if short:
            r, d = max(short, key=lambda t: t[1])
            return (f"norm dynamics on two_gaussians_1d: attacker score below the worst "
                    f"case in {len(short)} rounds, by up to {d:.3g} (round {r})")
        return None

    def check(self, state, spec, result):
        if spec == self.probe:  # reached only once the known fault is mended
            return ref.check_dynamics(state["probe_spec"], result, True,
                                      self._worst_case(state["probe_spec"], self.cfgs[1]),
                                      lambda b, s: game.risk(Interval1D(tuple(b), s),
                                                             state["probe_spec"]),
                                      theorems.IMPROVEMENT_THRESHOLD)
        reps, dual = result
        bad = []
        for cfg, rep in zip(self.cfgs, reps):
            bad += ref.check_dynamics(
                spec, rep, cfg.penalty == "mass", self._worst_case(spec, cfg),
                lambda b, s: game.risk(Interval1D(tuple(b), s), spec),
                theorems.IMPROVEMENT_THRESHOLD)
        return bad + ref.check_duality(dual)

    def numbers(self, result):
        if not isinstance(result, tuple):
            result = ((result,), None)
        reps, dual = result
        out = [v for rep in reps for r in rep.rounds
               for v in (r.attacker_score, r.defender_score, len(r.defender_breaks))]
        return out + ([dual.sup_inf, dual.inf_sup] if dual else [])


class BatSeed(Workload):
    """One desk-size seed of experiments.bat_vs_at on satellite_task.

    Round k runs seed s_k twice (s_k drawn from the workload seed), so every
    seed repeats within its round and its rows can be compared.
    """

    name = "bat-seed"
    traced_rounds = 2
    alpha_candidates = (0.0, 0.05, 0.1, 0.2, 0.3)
    pool = 32

    def setup(self, seed: int):
        seeds = np.random.default_rng(seed).choice(1_000_000, size=self.pool, replace=False)
        return {"spec": experiments.satellite_task(), "seeds": [int(s) for s in seeds],
                "rows": defaultdict(list)}

    def round(self, state, k):
        return [state["seeds"][k % self.pool]] * 2

    def op(self, state, seed):
        cfg = training.TrainConfig(epochs=8, batch_size=64,
                                   lr_stages=((0, 0.1), (5, 0.02), (7, 0.004)),
                                   seed=seed, sizes=(2, 24, 24, 2))
        return experiments.bat_vs_at(state["spec"], seed, n_train=1000, n_test=250,
                                     train_cfg=cfg, alpha_candidates=self.alpha_candidates)

    def check(self, state, seed, row):
        state["rows"][seed].append(row)
        bad = ref.check_bat_row(row, self.alpha_candidates)
        if row.seed != seed:
            bad.append(f"row for seed {row.seed}, asked for {seed}")
        return bad

    def check_run(self, state):
        return ref.check_bat_repeats(state["rows"])

    def numbers(self, row):
        return [row.seed, row.at_clean, row.at_aua, row.mixture_clean,
                row.mixture_aua, row.alpha, *row.weights]


def satellite_points(rng, n: int):
    """n labelled draws from experiments.satellite_task, clipped to the unit box."""
    spec = experiments.satellite_task()
    labels = np.where(rng.random(n) < spec.prior_pos, 1, -1)
    points = np.empty((n, 2))
    for label in (1, -1):
        comps = spec.components(label)
        mask = labels == label
        pick = rng.choice(len(comps), size=int(mask.sum()), p=[c.weight for c in comps])
        means = np.array([c.mean for c in comps])[pick]
        sds = np.sqrt(np.array([c.var for c in comps]))[pick]
        points[mask] = means + sds * rng.standard_normal((int(mask.sum()), 2))
    return np.clip(points, 0.0, 1.0), labels


class CwEval(Workload):
    """Adaptive C&W (both EOT modes, rejection filter) on held-out batches.

    The target is a fixed 3-component BAT mixture built in set-up with the
    same data and seed on every run; the workload seed only draws the
    held-out batches. A round is one batch of 100 points; at that size the
    op's cost varies by about 5% from batch to batch (15% at 50 points).
    """

    name = "cw-eval"
    traced_rounds = 6
    batches = 40
    batch = 100
    reject = (0.02, 0.05, 0.1, 0.4, 0.6, 0.8)  # 0.4/0.6/0.8 plus three that bite in the unit box

    def setup(self, seed: int):
        X, Y = satellite_points(np.random.default_rng(20200227), 1000)
        eps = 0.08
        mix = training.bat(
            EmpiricalMeasure(X, Y, 20200227), 3, 0.3,
            training.TrainConfig(epochs=10, batch_size=64, lr_stages=((0, 0.1), (6, 0.02)),
                                 seed=0, sizes=(2, 24, 24, 2)),
            PgdConfig(eps, eps / 4, 10, 1, True, 0))
        rng = np.random.default_rng(seed)
        pool = [satellite_points(rng, self.batch) for _ in range(self.batches)]
        return {"mix": mix, "pool": pool,
                "components": [(q, h.net) for q, h in zip(mix.weights, mix.hypotheses)]}

    def round(self, state, k):
        return [k % self.batches]

    def op(self, state, i):
        X, Y = state["pool"][i]
        return (attacks.accuracy(state["mix"], X, Y),
                attacks.accuracy_under_cw(state["mix"], X, Y, CW_PAPER, reject_eps=self.reject))

    def check(self, state, i, result):
        X, Y = state["pool"][i]
        own = float(1.0 - ref.own_expected_errors(state["components"], X, Y).mean())
        return ref.check_cw_accuracy(result[0], result[1], own)

    def check_run(self, state):
        """One direct cw_l2_batch call and a central-difference gradient check."""
        mix, comps = state["mix"], state["components"]
        X, Y = state["pool"][0]
        adv, l2, ok = attacks.cw_l2_batch(mix, X, Y, CW_PAPER)
        bad = ref.check_cw_batch(comps, X, Y, adv, l2, ok)
        h = 1e-6
        keep = ref.kink_free(comps, X, h)
        if keep.sum() < 5:
            return bad + [f"only {int(keep.sum())} kink-free points for the gradient check"]
        Xk, Yk = X[keep], Y[keep]
        for mode in ("eot_logits", "eot_loss"):
            _, grad = attacks.loss_and_input_grad(mix, Xk, Yk, mode)
            bad += ref.check_input_grad(
                lambda Z: attacks.loss_and_input_grad(mix, Z, Yk, mode)[0], Xk, grad, h)
        return bad

    def numbers(self, result):
        clean, by_t = result
        return [clean] + [by_t[t] for t in sorted(by_t)]


WORKLOADS = {w.name: w for w in (GapOracle(), BrDynamics(), BatSeed(), CwEval())}

def _rows(args) -> int:
    return np.atleast_2d(args["X"]).shape[0]


# Per-layer metrics of the traced run: for each wrapped function, its stats
# and, where it has one, how to count its work from the call's arguments.
LAYER_METRICS = {
    "game.oracle_value_profiles": (("calls", "ms", "grid_points"),
                                   lambda a: len(a["xs"]) * a["grid_n"]),
    "theorems.worst_case_score_oracle": (("ms", "self_ms"), None),
    "theorems.randomization_gap": (("self_ms",), None),
    "distributions.interval_mass": (("calls", "ms"), None),
    "distributions.bayes_roots": (("calls", "ms"), None),
    "hypotheses.interval_form": (("calls", "ms"), None),
    "game.best_response_attack": (("ms",), None),
    "game.best_response_defender": (("ms",), None),
    "game.adversarial_score": (("calls", "ms", "self_ms"), None),
    "game.worst_case_score": (("ms",), None),
    "theorems.verify_no_pure_nash": (("ms",), None),
    "theorems.weak_duality_grid": (("ms",), None),
    "nets.forward_cached": (("calls", "rows", "ms"), _rows),
    "nets.backward": (("calls", "ms", "self_ms"), None),
    "nets.loss_and_grads": (("calls", "ms"), None),
    "attacks.loss_and_input_grad": (("calls", "rows", "ms", "self_ms"), _rows),
    "attacks.pgd_linf_batch": (("calls", "ms"), None),
    "attacks.accuracy_under_pgd": (("ms",), None),
    "attacks.cw_l2_batch": (("calls", "ms", "self_ms"), None),
    "attacks.expected_errors": (("calls", "ms"), None),
    "attacks.accuracy_under_cw": (("ms",), None),
    "training.train_adversarial": (("calls", "ms", "self_ms"), None),
    "training.train_natural": (("ms",), None),
    "training.grid_search_alpha": (("ms",), None),
    "experiments.bat_vs_at": (("ms",), None),
    "training.bat": (("ms",), None),
}


def per_layer(stats: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics by name, from the tracer's per-function stats."""
    out = {}
    for fn, (stat_names, _) in LAYER_METRICS.items():
        for stat in stat_names:
            key = "work" if stat in ("rows", "grid_points") else stat
            unit = "ms" if stat.endswith("ms") else "count"
            out[f"{fn}.{stat}"] = (float(stats[fn][key]), unit)
    fwd, bwd = stats["nets.forward_cached"]["calls"], stats["nets.backward"]["calls"]
    out["nets.forward_cached_per_backward"] = (fwd / bwd if bwd else 0.0, "ratio")
    return out
