"""Desk-scale experiment harnesses tying training, attacks, and evaluation together.

The boosted-mixture benchmark mirrors the full evaluation protocol: per seed it
trains candidate first classifiers (candidate 0 is the plain adversarially
trained baseline), keeps the best one by accuracy under attack on a validation
split, adds one boosted classifier with training's BAT loop, grid-searches the
mixture weight on the same validation split, and compares exact expected
accuracies under the adaptive attack on held-out test data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attacks import PgdConfig, accuracy, accuracy_under_pgd
from .distributions import DistributionSpec, sample_labeled
from .hypotheses import MixedClassifier, Mlp, as_mixture
from .training import TrainConfig, _boosted, _first_classifier, grid_search_alpha

# PGD of the desk-scale benchmark (unit box, eps_inf 0.08): up to 20 steps to
# train, up to 100 steps with two restarts to select and evaluate (a restart
# stops once its iterate repeats; see attacks.pgd_linf_batch).
EPS = 0.08
ATTACK_TRAIN = PgdConfig(EPS, EPS / 4, 20, 1, True, 0)
ATTACK_EVAL = PgdConfig(EPS, EPS / 10, 100, 2, True, 0)


def satellite_task() -> DistributionSpec:
    """The default 2-D benchmark: a main cluster pair plus a positive satellite.

    The satellite sits in the negative class's quadrant with low negative
    density around it, which keeps adversarial training honest (it must carve
    an island) while leaving room for the boosted second classifier to matter.
    """
    from .distributions import GaussianComponent

    return DistributionSpec(
        prior_pos=0.5,
        dimension=2,
        components_pos=(
            GaussianComponent(0.8, (0.30, 0.70), (0.004, 0.004)),
            GaussianComponent(0.2, (0.75, 0.25), (0.0036, 0.0036)),
        ),
        components_neg=(GaussianComponent(1.0, (0.55, 0.45), (0.0064, 0.0064)),),
    )


@dataclass(frozen=True)
class BatBenchmarkRow:
    seed: int
    at_clean: float
    at_aua: float
    mixture_clean: float
    mixture_aua: float
    alpha: float
    weights: tuple[float, ...]

    @property
    def improvement(self) -> float:
        return self.mixture_aua - self.at_aua


def bat_vs_at(spec: DistributionSpec, seed: int, *,
              n_train: int = 2000, n_test: int = 1000,
              train_cfg: TrainConfig | None = None,
              first_candidates: int = 2,
              alpha_candidates=(0.0, 0.05, 0.1, 0.2, 0.3)) -> BatBenchmarkRow:
    """One seed of the benchmark comparison at desk scale.

    The baseline is candidate 0 of training._first_classifier. The mixture
    keeps the best candidate by accuracy under attack as h1, adds h2 from one
    boosting round with the sub-seed train_cfg.seed + 17, and grid-searches
    h2's weight; both choices read the validation split. Every attack runs in
    the unit box.
    """
    epochs = 25
    stages = ((0, 0.1), (15, 0.02), (21, 0.004))
    train_cfg = train_cfg or TrainConfig(
        epochs=epochs, batch_size=64, lr_stages=stages, seed=seed,
        sizes=(2, 24, 24, 2))
    data = sample_labeled(spec, n_train, seed=1000 + seed)
    val = sample_labeled(spec, n_test, seed=5000 + seed)
    test = sample_labeled(spec, n_test, seed=9000 + seed)

    candidates, best = _first_classifier(data, train_cfg, ATTACK_TRAIN, first_candidates,
                                         val, ATTACK_EVAL)
    baseline = Mlp(candidates[0])  # the plain adversarially trained model
    # the boosting round's weight is unused: the grid search sets it
    h1, h2 = _boosted(data, Mlp(candidates[best]), [train_cfg.seed + 17], 0.0, train_cfg,
                      ATTACK_TRAIN, (0.0, 1.0)).hypotheses

    alpha, _ = grid_search_alpha(h1, h2, val, alpha_candidates, ATTACK_EVAL)
    if alpha == 0.0:
        mixture = as_mixture(h1)
    else:
        mixture = MixedClassifier((h1, h2), (1.0 - alpha, alpha))

    return BatBenchmarkRow(
        seed=seed,
        at_clean=accuracy(baseline, test.points, test.labels),
        at_aua=accuracy_under_pgd(baseline, test.points, test.labels, ATTACK_EVAL),
        mixture_clean=accuracy(mixture, test.points, test.labels),
        mixture_aua=accuracy_under_pgd(mixture, test.points, test.labels, ATTACK_EVAL),
        alpha=float(alpha),
        weights=tuple(mixture.weights),
    )


def bat_vs_at_benchmark(seeds=(0, 1, 2, 3, 4), **kwargs) -> list[BatBenchmarkRow]:
    """bat_vs_at on satellite_task for every seed."""
    spec = satellite_task()
    return [bat_vs_at(spec, seed, **kwargs) for seed in seeds]
