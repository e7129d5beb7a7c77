"""Small-model training: natural, adversarial, and the boosted mixture.

SGD with momentum and weight decay over seeded mini-batches; everything is
deterministic in (data, config, seed). The boosted procedure adversarially
trains a first classifier, then repeatedly trains a fresh classifier naturally
on adversarial examples generated against the running mixture (with exact EOT
gradients) and reweights the mixture geometrically.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import nets
from .attacks import PgdConfig, accuracy, accuracy_under_pgd, pgd_linf_batch
from .distributions import EmpiricalMeasure
from .errors import ConfigError, InvalidInput
from .hypotheses import MixedClassifier, Mlp, flatten_mixture


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 128
    lr_stages: tuple[tuple[int, float], ...] = ((0, 0.1),)  # (start epoch, lr)
    momentum: float = 0.9
    weight_decay: float = 2e-4
    seed: int = 0
    sizes: tuple[int, ...] = (2, 32, 32, 2)

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        starts = [s for s, _ in self.lr_stages]
        if not starts or starts != sorted(starts) or starts[0] != 0:
            raise ConfigError("lr_stages must be nonempty, start at epoch 0 and be ordered")
        if any(lr <= 0 for _, lr in self.lr_stages):
            raise ConfigError("learning rates must be > 0")

    def lr_at(self, epoch: int) -> float:
        lr = self.lr_stages[0][1]
        for start, value in self.lr_stages:
            if epoch >= start:
                lr = value
        return lr


def train_paper_preset(sizes=(2, 32, 32, 2), seed: int = 0) -> TrainConfig:
    """The full 200-epoch schedule with its four learning-rate stages."""
    return TrainConfig(
        epochs=200,
        batch_size=128,
        lr_stages=((0, 0.1), (60, 0.02), (120, 0.004), (160, 0.0008)),
        momentum=0.9,
        weight_decay=2e-4,
        seed=seed,
        sizes=tuple(sizes),
    )


def train_desk_preset(sizes=(2, 32, 32, 2), seed: int = 0) -> TrainConfig:
    """Scaled-down default: same shape of schedule over 50 epochs."""
    return TrainConfig(
        epochs=50,
        batch_size=64,
        lr_stages=((0, 0.1), (15, 0.02), (30, 0.004), (40, 0.0008)),
        momentum=0.9,
        weight_decay=2e-4,
        seed=seed,
        sizes=tuple(sizes),
    )


@dataclass(frozen=True)
class TraceRow:
    epoch: int
    train_loss: float
    train_acc: float
    eval_acc_under_attack: float  # nan when no eval attack was configured


def trace_to_csv(trace, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "train_loss", "train_acc", "eval_acc_under_attack"])
        for row in trace:
            w.writerow([row.epoch, repr(row.train_loss), repr(row.train_acc),
                        repr(row.eval_acc_under_attack)])


# ---------------------------------------------------------------------------
# SGD loops
# ---------------------------------------------------------------------------

def _sgd_epochs(model: nets.MlpModel, data: EmpiricalMeasure, cfg: TrainConfig,
                batch_hook, eval_hook):
    """Shared loop: batch_hook may replace the batch (adversarial training)."""
    n = len(data)
    rng = np.random.default_rng(cfg.seed + 1)  # batch order stream
    vel = [(np.zeros_like(w), np.zeros_like(b))
           for w, b in zip(model.weights, model.biases)]
    trace = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            Xb, Yb = data.points[idx], data.labels[idx]
            Xb = batch_hook(model, Xb, Yb)
            loss, grads, _ = nets.loss_and_grads(model, Xb, Yb)
            epoch_loss += float(loss.sum())
            for i, (gw, gb) in enumerate(grads):
                gw = gw / len(idx) + cfg.weight_decay * model.weights[i]
                gb = gb / len(idx)
                vw, vb = vel[i]
                vw[...] = cfg.momentum * vw + gw
                vb[...] = cfg.momentum * vb + gb
                model.weights[i] -= lr * vw
                model.biases[i] -= lr * vb
        trace.append(TraceRow(
            epoch=epoch,
            train_loss=epoch_loss / n,
            train_acc=accuracy(Mlp(model), data.points, data.labels),
            eval_acc_under_attack=eval_hook(model),
        ))
    return trace


def _make_eval_hook(eval_set, eval_attack, box):
    if eval_set is None or eval_attack is None:
        return lambda model: math.nan
    return lambda model: accuracy_under_pgd(
        Mlp(model), eval_set.points, eval_set.labels, eval_attack, box
    )


def train_natural(data: EmpiricalMeasure, cfg: TrainConfig, *,
                  eval_set: EmpiricalMeasure | None = None,
                  eval_attack: PgdConfig | None = None,
                  box=(0.0, 1.0)):
    """Plain SGD on the cross-entropy loss. Returns (model, trace)."""
    if len(data) == 0:
        raise InvalidInput("training data must be nonempty")
    model = nets.init_mlp(cfg.sizes, cfg.seed)
    trace = _sgd_epochs(model, data, cfg, lambda m, X, Y: X,
                        _make_eval_hook(eval_set, eval_attack, box))
    return model, trace


def train_adversarial(data: EmpiricalMeasure, cfg: TrainConfig,
                      attack_cfg: PgdConfig, *,
                      eval_set: EmpiricalMeasure | None = None,
                      eval_attack: PgdConfig | None = None,
                      box=(0.0, 1.0)):
    """Each batch is replaced by PGD examples against the
    current model before the gradient step. Returns (model, trace)."""
    if len(data) == 0:
        raise InvalidInput("training data must be nonempty")
    model = nets.init_mlp(cfg.sizes, cfg.seed)

    def hook(m, X, Y):
        adv, _ = pgd_linf_batch(Mlp(m), X, Y, attack_cfg, box)
        return adv

    trace = _sgd_epochs(model, data, cfg, hook,
                        _make_eval_hook(eval_set, eval_attack, box))
    return model, trace


# ---------------------------------------------------------------------------
# Boosted adversarial training
# ---------------------------------------------------------------------------

def bat(data: EmpiricalMeasure, n: int, alpha_bat: float, cfg: TrainConfig,
        attack_cfg: PgdConfig, *, box=(0.0, 1.0),
        first_candidates: int = 1, first_best_aua: bool = True,
        eval_set: EmpiricalMeasure | None = None):
    """Boosted adversarial training.

    Adversarially train h1; then for i = 2..n build the adversarial dataset
    against the running mixture (adaptive PGD through the exact expected
    logits), train h_i naturally on it, and reweight: q_k <- (1 - a) q_k for
    the earlier classifiers, q_i <- a. n = 2 reduces to the two-classifier
    procedure with weights (1 - alpha, alpha).

    first_candidates > 1 trains several first classifiers from sub-seeds and
    keeps the best one by accuracy under attack (default) or natural accuracy.
    """
    if n < 2:
        raise InvalidInput("the boosted mixture needs n >= 2 classifiers")
    if not 0.0 <= alpha_bat <= 1.0:
        raise InvalidInput("alpha_bat must lie in [0, 1]")
    if first_candidates < 1:
        raise InvalidInput(f"first_candidates must be >= 1, got {first_candidates}")

    candidates = []
    for k in range(first_candidates):
        sub = TrainConfig(**{**cfg.__dict__, "seed": cfg.seed + 1000 * k})
        model, _ = train_adversarial(data, sub, attack_cfg, box=box)
        candidates.append(model)
    if len(candidates) == 1:
        h1 = candidates[0]
    else:
        ref = eval_set or data
        if first_best_aua:
            scores = [accuracy_under_pgd(Mlp(m), ref.points, ref.labels, attack_cfg, box)
                      for m in candidates]
        else:
            scores = [accuracy(Mlp(m), ref.points, ref.labels) for m in candidates]
        h1 = candidates[int(np.argmax(scores))]

    hyps = [Mlp(h1)]
    weights = (1.0,)
    for i in range(2, n + 1):
        mixture = MixedClassifier(tuple(hyps), weights)
        adv_points, _ = pgd_linf_batch(mixture, data.points, data.labels, attack_cfg, box)
        d_tilde = EmpiricalMeasure(adv_points, data.labels, data.seed)
        sub = TrainConfig(**{**cfg.__dict__, "seed": cfg.seed + 17 * i})
        hyps.append(Mlp(train_natural(d_tilde, sub, box=box)[0]))
        weights = tuple(w * (1.0 - alpha_bat) for w in weights) + (alpha_bat,)
    total = sum(weights)
    weights = tuple(w / total for w in weights)
    return MixedClassifier(tuple(hyps), weights)


def grid_search_alpha(h1, h2, validation: EmpiricalMeasure, candidates,
                      attack_cfg: PgdConfig, *, box=(0.0, 1.0)):
    """Pick the mixture weight by accuracy under the adaptive attack.

    Evaluates the (1-alpha, alpha) mixture of (h1, h2) for every candidate on
    the validation set; ties break toward the smaller alpha. Returns
    (best alpha, table of (alpha, accuracy under attack)).
    """
    cands = [float(a) for a in candidates]
    if not cands:
        raise InvalidInput("candidate list must be nonempty")
    table = []
    for a in cands:
        if a == 0.0:
            mix = flatten_mixture(h1)
        elif a == 1.0:
            mix = flatten_mixture(h2)
        else:
            mix = flatten_mixture(MixedClassifier((h1, h2), (1.0 - a, a)))
        aua = accuracy_under_pgd(mix, validation.points, validation.labels,
                                 attack_cfg, box)
        table.append((a, aua))
    best = max(table, key=lambda row: (row[1], -row[0]))
    return best[0], table
