"""Small-model training: natural, adversarial, and the boosted mixture.

SGD with momentum and weight decay over seeded mini-batches; everything is
deterministic in (data, config, seed). Nets that train on the same data with
the same schedule train in lockstep as one stacked net, each with the bits it
gets alone. The boosted procedure adversarially trains a first classifier
(the best of several candidates), then repeatedly trains a fresh classifier
naturally on adversarial examples generated against the running mixture (with
exact EOT gradients) and reweights the mixture geometrically.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import nets
from .attacks import PgdConfig, accuracy, accuracy_under_pgd, pgd_linf_batch
from .distributions import EmpiricalMeasure
from .errors import ConfigError, InvalidInput
from .fields import check_numbers
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
        starts = [s for s, _ in self.lr_stages]
        rates = [lr for _, lr in self.lr_stages]
        check_numbers({"epochs": self.epochs, "batch_size": self.batch_size, "seed": self.seed,
                       "sizes": self.sizes, "lr_stages": starts},
                      {"momentum": self.momentum, "weight_decay": self.weight_decay,
                       "lr_stages": rates}, finite=True)
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not starts or starts != sorted(starts) or starts[0] != 0:
            raise ConfigError("lr_stages must be nonempty, start at epoch 0 and be ordered")
        if any(lr <= 0 for lr in rates):
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

def _sgd_epochs(data: EmpiricalMeasure, cfg: TrainConfig, seeds, attack_cfg, box, *,
                eval_set: EmpiricalMeasure | None = None,
                eval_attack: PgdConfig | None = None):
    """The one SGD loop: K = len(seeds) nets trained in lockstep as one stack.

    Net k starts from ``init_mlp(cfg.sizes, seeds[k])`` and draws its batch
    order from its own stream ``default_rng(seeds[k] + 1)``. Each step gathers
    the K batches with a (K, b) index array into one (K, b, d) input, replaces
    them by PGD examples against each net when attack_cfg is set, and runs one
    forward and backward pass over the stack. The momentum and weight-decay
    updates are elementwise, so every net gets the bits it gets when trained
    alone. One seed trains a lone net on (b, d) batches. Returns (the trained
    net or stack, one trace per net).
    """
    if len(data) == 0:
        raise InvalidInput("training data must be nonempty")
    n = len(data)
    inits = [nets.init_mlp(cfg.sizes, s) for s in seeds]
    model = inits[0] if len(inits) == 1 else nets.stack(inits)
    lead = model.weights[0].shape[:-2]  # () for a lone net, (K,) for a stack
    # biases as views in the shape of their gradients: (K, fan_out) on a stack
    params = [(w, b.reshape(lead + b.shape[-1:])) for w, b in zip(model.weights, model.biases)]
    vel = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
    rngs = [np.random.default_rng(s + 1) for s in seeds]  # batch order streams
    traces = [[] for _ in seeds]
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        orders = np.stack([rng.permutation(n) for rng in rngs]).reshape(lead + (n,))
        epoch_loss = 0.0  # a float for a lone net, a (K,) array for a stack
        for start in range(0, n, cfg.batch_size):
            idx = orders[..., start:start + cfg.batch_size]
            Xb, Yb = data.points[idx], data.labels[idx]
            if attack_cfg is not None:
                Xb, _ = pgd_linf_batch(Mlp(model), Xb, Yb, attack_cfg, box)
            loss, grads, _ = nets.loss_and_grads(model, Xb, Yb)
            epoch_loss += loss.sum(axis=-1)
            for (w, b), (vw, vb), (gw, gb) in zip(params, vel, grads):
                gw = gw / idx.shape[-1] + cfg.weight_decay * w
                gb = gb / idx.shape[-1]
                vw[...] = cfg.momentum * vw + gw
                vb[...] = cfg.momentum * vb + gb
                w -= lr * vw
                b -= lr * vb
        for trace, loss_sum, net in zip(traces, np.atleast_1d(epoch_loss), nets.unstack(model)):
            trace.append(TraceRow(
                epoch=epoch,
                train_loss=float(loss_sum) / n,
                train_acc=accuracy(Mlp(net), data.points, data.labels),
                eval_acc_under_attack=math.nan if eval_set is None or eval_attack is None
                else accuracy_under_pgd(Mlp(net), eval_set.points, eval_set.labels,
                                        eval_attack, box),
            ))
    return model, traces


def train_natural(data: EmpiricalMeasure, cfg: TrainConfig, *,
                  eval_set: EmpiricalMeasure | None = None,
                  eval_attack: PgdConfig | None = None,
                  box=(0.0, 1.0)):
    """Plain SGD on the cross-entropy loss. Returns (model, trace)."""
    model, traces = _sgd_epochs(data, cfg, [cfg.seed], None, box,
                                eval_set=eval_set, eval_attack=eval_attack)
    return model, traces[0]


def train_adversarial(data: EmpiricalMeasure, cfg: TrainConfig,
                      attack_cfg: PgdConfig, *,
                      eval_set: EmpiricalMeasure | None = None,
                      eval_attack: PgdConfig | None = None,
                      box=(0.0, 1.0)):
    """Each batch is replaced by PGD examples against the
    current model before the gradient step. Returns (model, trace)."""
    model, traces = _sgd_epochs(data, cfg, [cfg.seed], attack_cfg, box,
                                eval_set=eval_set, eval_attack=eval_attack)
    return model, traces[0]


def _first_classifier(data: EmpiricalMeasure, cfg: TrainConfig, attack_cfg: PgdConfig,
                      count: int, ref: EmpiricalMeasure, select_attack: PgdConfig,
                      box=(0.0, 1.0)):
    """Adversarially train count candidate first classifiers, in lockstep.

    Candidate k trains from the sub-seed cfg.seed + 101 * k, so candidate 0 is
    the net that train_adversarial gives for cfg. Returns (the candidates as
    lone nets, index of the kept one). With one candidate that is 0;
    otherwise the candidate with the best accuracy on ref under select_attack
    (one PGD run on the stack), the first one on a tie.
    """
    if count < 1:
        raise InvalidInput(f"first_candidates must be >= 1, got {count}")
    model, _ = _sgd_epochs(data, cfg, [cfg.seed + 101 * k for k in range(count)],
                           attack_cfg, box)
    candidates = nets.unstack(model)
    if count == 1:
        return candidates, 0
    points, _ = pgd_linf_batch(Mlp(model), ref.points, ref.labels, select_attack, box)
    scores = [accuracy(Mlp(m), X, ref.labels) for m, X in zip(candidates, points)]
    return candidates, int(np.argmax(scores))


# ---------------------------------------------------------------------------
# Boosted adversarial training
# ---------------------------------------------------------------------------

def _boosted(data: EmpiricalMeasure, first, seeds, alpha_bat: float, cfg: TrainConfig,
             attack_cfg: PgdConfig, box):
    """The boosting loop: per seed, PGD against the running mixture (exact
    expected logits), a fresh net trained naturally on the attacked data from
    that seed, and the reweighting q_k <- (1 - a) q_k, q_new <- a. Returns the
    mixture of first and the new nets, weights normalised to sum to 1."""
    hyps, weights = [first], (1.0,)
    for seed in seeds:
        mixture = MixedClassifier(tuple(hyps), weights)
        adv_points, _ = pgd_linf_batch(mixture, data.points, data.labels, attack_cfg, box)
        d_tilde = EmpiricalMeasure(adv_points, data.labels, data.seed)
        hyps.append(Mlp(train_natural(d_tilde, replace(cfg, seed=seed), box=box)[0]))
        weights = tuple(w * (1.0 - alpha_bat) for w in weights) + (alpha_bat,)
    total = sum(weights)
    return MixedClassifier(tuple(hyps), tuple(w / total for w in weights))


def bat(data: EmpiricalMeasure, n: int, alpha_bat: float, cfg: TrainConfig,
        attack_cfg: PgdConfig, *, box=(0.0, 1.0), first_candidates: int = 1):
    """Boosted adversarial training.

    Adversarially train h1 (with first_candidates > 1, the best candidate of
    _first_classifier by accuracy on the training data under attack_cfg);
    then for i = 2..n one round of _boosted trains h_i from the sub-seed
    cfg.seed + 17 * i. n = 2 reduces to the two-classifier procedure with
    weights (1 - alpha, alpha).
    """
    if n < 2:
        raise InvalidInput("the boosted mixture needs n >= 2 classifiers")
    if not 0.0 <= alpha_bat <= 1.0:
        raise InvalidInput("alpha_bat must lie in [0, 1]")
    candidates, best = _first_classifier(data, cfg, attack_cfg, first_candidates, data,
                                         attack_cfg, box)
    return _boosted(data, Mlp(candidates[best]), [cfg.seed + 17 * i for i in range(2, n + 1)],
                    alpha_bat, cfg, attack_cfg, box)


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
