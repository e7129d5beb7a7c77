"""Adversarial classification as a zero-sum game, at desk scale.

Exact best responses and theorem verifiers on synthetic Gaussian-mixture
distributions, gradient attacks (PGD, C&W, adaptive EOT variants), and the
boosted construction of randomized classifier mixtures.
"""

from .distributions import (
    DistributionSpec,
    EmpiricalMeasure,
    GaussianComponent,
    density,
    pushforward_empirical,
    sample_labeled,
    two_gaussians_1d,
)
from .game import (
    AttackMap,
    GameConfig,
    IdentityAttack,
    ScoreReport,
    adversarial_score,
    best_response_attack,
    best_response_defender,
    pointwise_attack_oracle,
    risk,
    score_decomposition,
    worst_case_score,
)
from .hypotheses import (
    Bayes,
    BandRegion,
    Hypothesis,
    Interval1D,
    IntervalRegion,
    Linear,
    MixedClassifier,
    Mlp,
    RegionFlip,
    Threshold,
    bayes_optimal,
)
from .theorems import (
    fig1_export,
    randomization_gap,
    verify_no_pure_nash,
    weak_duality_grid,
)
from .attacks import (
    CwConfig,
    PgdConfig,
    accuracy,
    accuracy_under_cw,
    accuracy_under_pgd,
    adaptive_cw,
)
from .training import (
    TrainConfig,
    bat,
    grid_search_alpha,
    train_adversarial,
    train_natural,
)

__version__ = "0.1.0"
