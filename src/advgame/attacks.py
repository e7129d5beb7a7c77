"""Gradient-based attacks and the robust-accuracy evaluation harness.

Attacks run against any differentiable model: linear hypotheses, the
hand-rolled nets, and finite mixtures of those. Mixtures are attacked through
the exact expectation over the weight vector (no Monte Carlo anywhere): either
the expected logits or the expected loss, both with exact gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nets
from .errors import ConfigError, UnsupportedKind
from .fields import check_numbers
from .hypotheses import Linear, Mlp, as_mixture


@dataclass(frozen=True)
class PgdConfig:
    epsilon_inf: float
    step: float
    iters: int
    restarts: int = 1
    random_init: bool = True
    seed: int = 0

    def __post_init__(self):
        check_numbers({"iters": self.iters, "restarts": self.restarts, "seed": self.seed},
                      {"epsilon_inf": self.epsilon_inf, "step": self.step}, finite=True)
        if self.epsilon_inf <= 0:
            raise ConfigError("epsilon_inf must be > 0")
        if self.step <= 0:
            raise ConfigError("step must be > 0")
        if self.iters < 1:
            raise ConfigError("iters must be >= 1")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")


@dataclass(frozen=True)
class CwConfig:
    lr: float = 0.01
    binary_search_steps: int = 9
    initial_const: float = 1e-3
    iters: int = 100
    abort_early: bool = True

    def __post_init__(self):
        check_numbers({"binary_search_steps": self.binary_search_steps, "iters": self.iters},
                      {"lr": self.lr, "initial_const": self.initial_const}, finite=True)
        for name in ("lr", "binary_search_steps", "initial_const", "iters"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")


# Presets from the evaluation protocol: PGD at eps_inf ~ 8/255 with step 2/255
# and random restarts; C&W with 9 binary-search steps from constant 1e-3 and
# rejection thresholds 0.4 / 0.6 / 0.8. Training-time PGD uses 20 iterations,
# evaluation 100 (five times more).
PGD_PAPER = PgdConfig(epsilon_inf=0.031, step=0.008, iters=100, restarts=3)
PGD_TRAIN_PAPER = PgdConfig(epsilon_inf=0.031, step=0.008, iters=20, restarts=1)
CW_PAPER = CwConfig(lr=0.01, binary_search_steps=9, initial_const=1e-3,
                    iters=100, abort_early=True)
CW_REJECT_THRESHOLDS = (0.4, 0.6, 0.8)

ATTACK_PRESETS = {
    "pgd_paper": PGD_PAPER,
    "pgd_train_paper": PGD_TRAIN_PAPER,
    "at_paper": PGD_TRAIN_PAPER,  # training-time attack of the AT protocol
    "cw_paper": CW_PAPER,
}


# ---------------------------------------------------------------------------
# Differentiable-model plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Batched:
    weights: tuple[float, ...]
    parts: tuple  # (model, index into the component axis) pairs


def _batched(model) -> _Batched:
    """The components grouped once per attack call: Mlps that share sizes and
    slope as one :func:`nets.stack` at an array of component positions, a lone
    Mlp as its own net and a Linear as itself, each at its position. A stack
    copies the weights, so it is never cached: SGD updates nets in place."""
    if isinstance(model, _Batched):
        return model
    mix = as_mixture(model)
    groups: dict = {}
    for k, h in enumerate(mix.hypotheses):
        if not isinstance(h, (Linear, Mlp)):
            raise UnsupportedKind(
                f"{type(h).__name__} is not differentiable; attacks need linear or mlp kinds")
        groups.setdefault((h.net.sizes, h.net.slope) if isinstance(h, Mlp) else k, []).append(k)
    parts = []
    for idx in groups.values():
        h = mix.hypotheses[idx[0]]
        if len(idx) == 1:
            parts.append((h if isinstance(h, Linear) else h.net, idx[0]))
        else:
            parts.append((nets.stack([mix.hypotheses[k].net for k in idx]), np.array(idx)))
    return _Batched(mix.weights, tuple(parts))


def _forward(mix: _Batched, X: np.ndarray, lanes: bool = False):
    """The (K, n, 2) logit pairs in component order and each part's forward
    cache (None for a Linear). A lone component that is a stack of J nets
    gives (1, J, n, 2): its nets are J independent models, not a mixture.

    With lanes, X is (L, n, d), one batch of rows per lane, and the pairs are
    (K, L, n, 2). Each part still runs once: a stack of components on
    X[:, None], giving (L, J, n, 2); a lone net broadcasts over the lanes; a
    Linear runs lane by lane. A one-part model's pairs are that part's own
    output, not a copy.
    """
    pairs = None
    caches = []
    for part, idx in mix.parts:
        across = lanes and np.ndim(idx) > 0  # components stacked behind the lane axis
        if isinstance(part, Linear):
            cache = None
            out = (np.array([part.decision_values(x) for x in X]) if lanes
                   else part.decision_values(X))[..., None]
        else:
            cache = nets.forward_cached(part, X[:, None] if across else X)
            out = cache[0]
        pair = nets.logit_pair_from_output(out)
        if across:
            pair = pair.swapaxes(0, 1)
        caches.append(cache)
        if len(mix.parts) == 1:
            return (pair if np.ndim(idx) else pair[None]), caches
        if pairs is None:  # a grouped part's output has the group axis in front
            pairs = np.empty((len(mix.weights),) + pair.shape[np.ndim(idx):])
        pairs[idx] = pair
    return pairs, caches


def _weighted_sum(weights, values) -> np.ndarray:
    """sum_k q_k * values[k], added in component order (the order sets the bits)."""
    out = np.zeros_like(values[0])
    for q, v in zip(weights, values):
        out += q * v
    return out


def _pair_errors(weights, pairs: np.ndarray, Y) -> np.ndarray:
    """Expected error from the (K, n, 2) per-component logit pairs, with the
    boundary rule of ``MixedClassifier.expected_errors``: a zero margin errs
    on both labels. A Linear pair's margin is 2g, so its sign is g's."""
    return _weighted_sum(weights, (np.sign(pairs[..., 1] - pairs[..., 0]) != Y) * 1.0)


def _rows(X, Y):
    """X as float rows (..., n, d) and Y as floats broadcast to its (..., n) row shape."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return X, np.broadcast_to(np.asarray(Y, dtype=float), X.shape[:-1])


def model_logits(model, X: np.ndarray) -> np.ndarray:
    """Exact expected logit pair of the model at each row of X."""
    mix = _batched(model)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return _weighted_sum(mix.weights, _forward(mix, X)[0])


def _eot_mode(weights, pairs: np.ndarray, Y: np.ndarray, mode: str, loss):
    """One EOT mode's per-sample value and its derivative with respect to the
    (K, n, 2) per-component logit pairs."""
    if mode == "eot_logits":
        value, dpair = loss(_weighted_sum(weights, pairs), Y)
        return value, np.broadcast_to(dpair, pairs.shape)
    if mode == "eot_loss":
        values, dpairs = loss(pairs, Y)
        return _weighted_sum(weights, values), dpairs
    raise ConfigError(f"unknown EOT mode {mode!r}")


def _eot_value(mix: _Batched, X: np.ndarray, Y: np.ndarray, mode, loss):
    """The forward half of :func:`_eot_objective`: the per-sample value, its
    derivative with respect to each component's logit pair (K, n, 2), and the
    (K, n, 2) logit pairs with the forward caches. No backward pass runs.

    mode may be a tuple of L modes, one per lane of X (L, n, d): the value is
    then (L, n) and the derivatives and pairs (K, L, n, 2), each lane's slice
    computed by its own mode.
    """
    if isinstance(mode, str):
        pairs, caches = _forward(mix, X)
        return (*_eot_mode(mix.weights, pairs, Y, mode, loss), pairs, caches)
    pairs, caches = _forward(mix, X, lanes=True)
    value = np.empty(pairs.shape[1:-1])
    dpairs = np.empty(pairs.shape)
    for lane, lane_mode in enumerate(mode):
        value[lane], dpairs[:, lane] = _eot_mode(mix.weights, pairs[:, lane], Y, lane_mode, loss)
    return value, dpairs, pairs, caches


def _eot_objective(model, X: np.ndarray, Y, mode, loss):
    """Per-sample objective of the logit pairs, its input gradient, and the
    (K, n, 2) per-component logit pairs it was computed from.

    loss(pair, Y) returns the per-sample value and its derivative with respect
    to the logit pair, and works on a leading component axis. Mode
    "eot_logits" applies it to the expected logits; mode "eot_loss" takes the
    expectation of the per-component values. Both coincide for deterministic
    models. Each part runs forward once; its backward reuses that pass.
    X and Y come normalised, as :func:`_rows` returns them. With a tuple of
    modes X carries a leading lane axis (see :func:`_eot_value`), and each
    part runs forward and backward once for all the lanes.
    """
    mix = _batched(model)
    lanes = not isinstance(mode, str)
    value, dpairs, pairs, caches = _eot_value(mix, X, Y, mode, loss)
    single = len(mix.parts) == 1  # reads and writes the part's own arrays
    dX = None if single else np.empty(pairs.shape[:-1] + X.shape[-1:])  # each component's VJP
    for (part, idx), cache in zip(mix.parts, caches):
        across = lanes and np.ndim(idx) > 0
        dpair = dpairs if single and np.ndim(idx) else dpairs[idx]
        if across:
            dpair = dpair.swapaxes(0, 1)
        if cache is None:  # Linear
            grad = (dpair[..., 1] - dpair[..., 0])[..., None] * np.asarray(part.w)
        else:
            dout = dpair if part.out_dim == 2 else (dpair[..., 1] - dpair[..., 0])[..., None]
            grad = nets.backward(part, cache, dout, need_param_grads=False)[1]
        if across:
            grad = grad.swapaxes(0, 1)
        if single:
            dX = grad if np.ndim(idx) else grad[None]
        else:
            dX[idx] = grad
    return value, _weighted_sum(mix.weights, dX), pairs


def loss_and_input_grad(model, X: np.ndarray, Y, mode: str = "eot_logits"):
    """Per-sample CE loss and its input gradient.

    mode "eot_logits": loss of the expected logits (the default adaptive
    gradient); mode "eot_loss": expectation of the per-component losses.
    """
    value, grad, _ = _eot_objective(model, *_rows(X, Y), mode, nets.ce_loss)
    return value, grad


def expected_errors(model, X, Y) -> np.ndarray:
    return as_mixture(model).expected_errors(X, Y)


def accuracy(model, X, Y) -> float:
    """Exact expected accuracy (no sampling of the mixture)."""
    return float(1.0 - expected_errors(model, X, Y).mean())


# ---------------------------------------------------------------------------
# PGD (l-infinity)
# ---------------------------------------------------------------------------

def _clip_box(X: np.ndarray, box) -> np.ndarray:
    if box is None:
        return X
    return np.clip(X, box[0], box[1])


def _same_bits(a: np.ndarray, b) -> bool:
    """Equal shapes and equal bits: NaN never matches and -0.0 differs from 0.0."""
    return (b is not None and a.shape == b.shape and a.tobytes() == b.tobytes()
            and not np.isnan(a).any())


def pgd_linf_batch(model, X: np.ndarray, Y, cfg: PgdConfig,
                   box=(0.0, 1.0), mode: str = "eot_logits"):
    """Best-of-restarts signed-gradient ascent, projected to the ball each step.

    Each restart contributes only its final iterate, scored by the loss its
    last step already computed, or, when it ran all ``cfg.iters`` steps, by
    one more forward pass. Returns (adversarial points, per-sample best
    losses).

    A restart ends its step loop early, with the bits the full ``cfg.iters``
    steps give, once the whole-batch iterate repeats: equal to the iterate one
    step back (a fixed point) or two steps back (a two-point cycle, ended on
    the point the remaining steps' parity selects). This is exact because a
    step is a deterministic function of the batch iterate: nothing is drawn
    after the start and the model does not change during the attack. Rows are
    never retired one by one; a row's bits can depend on the rows batched with
    it. So ``cfg.iters`` is an upper bound on the steps run.

    An Mlp over a :func:`nets.stack` of K nets is attacked as K independent
    nets: X is (K, n, d), one batch per net, or (n, d) for all of them, and
    the results are (K, n, d) and (K, n), each net's slice bit-identical to
    attacking that net alone on its batch.
    """
    mix = _batched(model)
    X, Y = _rows(X, Y)
    eps = cfg.epsilon_inf
    # the ball clipped to the box: one clip per step projects onto both
    lo, hi = _clip_box(X - eps, box), _clip_box(X + eps, box)
    best_x = None
    for restart in range(cfg.restarts):
        # per-restart stream drawn for the (n, d) batch shape from (seed, restart):
        # row i's start depends on the batch it sits in, and every batch of the
        # same shape gets the same start pattern, on every net of a stack too
        rng = np.random.default_rng((cfg.seed, restart))
        init = rng.uniform(-eps, eps, X.shape[-2:]) if cfg.random_init else 0.0
        x_adv = _clip_box(X + init, box)
        x_back = back_loss = None  # the iterate one step before x_adv, and its loss
        for it in range(cfg.iters):
            loss, grad, _ = _eot_objective(mix, x_adv, Y, mode, nets.ce_loss)
            x_new = np.clip(x_adv + cfg.step * np.sign(grad), lo, hi)
            if _same_bits(x_new, x_adv):
                break
            if _same_bits(x_new, x_back):  # x_adv and x_new alternate from here
                if (cfg.iters - it - 1) % 2 == 0:
                    x_adv, loss = x_new, back_loss
                break
            x_back, x_adv, back_loss = x_adv, x_new, loss
        else:  # the last step's iterate has not been scored yet
            loss = _eot_value(mix, x_adv, Y, mode, nets.ce_loss)[0]
        if best_x is None:  # a stack's row shape is known after its first pass
            best_x = np.array(np.broadcast_to(X, loss.shape + X.shape[-1:]))
            best_loss = np.full(loss.shape, -np.inf)
        better = loss > best_loss
        best_x[better] = x_adv[better]
        best_loss[better] = loss[better]
    return best_x, best_loss


# ---------------------------------------------------------------------------
# C&W (l2) with tanh change of variable and binary search on the constant
# ---------------------------------------------------------------------------

def _cw_hinge(pair: np.ndarray, Y: np.ndarray):
    """Carlini-Wagner margin cost max(z_true - z_other, 0) and its d/d pair."""
    margin = np.where(Y == 1, pair[..., 1] - pair[..., 0], pair[..., 0] - pair[..., 1])
    active = margin > 0
    sgn = np.where(Y == 1, 1.0, -1.0) * active  # d margin / d (z_pos - z_neg)
    return np.maximum(margin, 0.0), sgn[..., None] * nets.MARGIN_SIGNS


def _cw_l2_lanes(mix: _Batched, X: np.ndarray, Y: np.ndarray, cfg: CwConfig, box, modes):
    """C&W through each EOT mode in modes, the modes run as lanes of one loop.

    Every per-row array carries a leading lane axis, one lane per mode: the
    iterate, the Adam moments, the constants and their bounds, the best
    points and the success masks. Each Adam step runs every part of the model
    forward and backward once over all the lanes still stepping. A lane's
    early abort reads only its own batch-summed objective; a lane that aborts
    leaves the active set, and a binary-search step ends when none is left.
    So each lane's slice has the bits that running its mode alone gives.
    X and Y come normalised, as :func:`_rows` returns them, with X (n, d).
    Returns (best points (L, n, d), best l2 norms (L, n), success (L, n)).
    """
    if box is None:
        raise ConfigError("C&W needs a box domain for the tanh change of variable")
    lo, hi = float(box[0]), float(box[1])
    scale, mid = (hi - lo) / 2.0, (hi + lo) / 2.0
    shape = (len(modes),) + X.shape[:-1]
    x_tanh = np.arctanh(np.clip((X - mid) / scale, -1, 1) * 0.999999)
    const = np.full(shape, cfg.initial_const)
    lower = np.zeros(shape)
    upper = np.full(shape, 1e10)
    o_best_l2 = np.full(shape, np.inf)
    o_best_x = np.array(np.broadcast_to(X, shape + X.shape[-1:]))
    o_success = np.zeros(shape, dtype=bool)
    check_every = max(1, cfg.iters // 10)
    for _ in range(cfg.binary_search_steps):
        step_success = np.zeros(shape, dtype=bool)
        live, live_modes = np.arange(len(modes)), tuple(modes)  # the lanes still stepping
        w = np.array(np.broadcast_to(x_tanh, o_best_x.shape))
        m_t = np.zeros_like(w)
        v_t = np.zeros_like(w)
        prev = np.full(len(modes), np.inf)
        # the live lanes' rows: views of the full arrays until a lane aborts
        c, best_l2, best_x, success = const, o_best_l2, o_best_x, step_success
        for it in range(1, cfg.iters + 1):
            tanh_w = np.tanh(w)
            x_new = mid + scale * tanh_w
            tau = x_new - X
            l2sq = (tau ** 2).sum(axis=-1)
            cost, dcost, pairs = _eot_objective(mix, x_new, Y, live_modes, _cw_hinge)
            miss = _pair_errors(mix.weights, pairs, Y) > 0.5
            l2 = np.sqrt(l2sq)
            improved = miss & (l2 < best_l2)
            np.copyto(best_l2, l2, where=improved)
            np.copyto(best_x, x_new, where=improved[..., None])
            success |= miss
            dx = 2.0 * tau + c[..., None] * dcost
            dw = dx * scale * (1.0 - tanh_w ** 2)
            m_t = 0.9 * m_t + 0.1 * dw
            v_t = 0.999 * v_t + 0.001 * dw ** 2
            mhat = m_t / (1 - 0.9 ** it)
            vhat = v_t / (1 - 0.999 ** it)
            w = w - cfg.lr * mhat / (np.sqrt(vhat) + 1e-8)
            if cfg.abort_early and it % check_every == 0:
                total = (l2sq + c * cost).sum(axis=-1)
                stop = total > prev * 0.9999
                prev = total
                if stop.any():  # write the live lanes back, then drop the aborted ones
                    o_best_l2[live], o_best_x[live], step_success[live] = best_l2, best_x, success
                    if stop.all():
                        break
                    keep = ~stop
                    live, w, m_t, v_t, c, prev = (a[keep] for a in (live, w, m_t, v_t, c, prev))
                    live_modes = tuple(modes[lane] for lane in live)
                    best_l2, best_x, success = o_best_l2[live], o_best_x[live], step_success[live]
        else:
            o_best_l2[live], o_best_x[live], step_success[live] = best_l2, best_x, success
        # binary search on the constant, per lane and row
        o_success |= step_success
        upper = np.where(step_success, np.minimum(upper, const), upper)
        lower = np.where(step_success, lower, np.maximum(lower, const))
        mid_c = (lower + upper) / 2.0
        const = np.where(upper < 1e9, mid_c, np.where(step_success, const, const * 10.0))
    return o_best_x, o_best_l2, o_success


def cw_l2_batch(model, X: np.ndarray, Y, cfg: CwConfig, box=(0.0, 1.0),
                mode: str = "eot_logits"):
    """Batched C&W: minimize ||tau||^2 + c * cost with Adam in tanh space.

    Returns (best adversarial points, best l2 norms, success mask). Failed
    samples keep their natural point and an infinite best norm. The binary
    search on the constant runs per row, but with ``cfg.abort_early`` the
    early abort (Carlini & Wagner 2017) reads the objective summed over the
    batch, so a row's result can depend on the other rows of its batch. This
    is the one-lane view of the loop in which :func:`adaptive_cw` runs both
    EOT modes as lanes: each lane's early abort reads only its own mode's
    batch-summed objective, so a row's result never depends on the other mode.
    """
    X, Y = _rows(X, Y)
    points, l2, success = _cw_l2_lanes(_batched(model), X, Y, cfg, box, (mode,))
    return points[0], l2[0], success[0]


def _take_eot_loss(model, Y, adv_logits, adv_loss, l2_logits, l2_loss) -> np.ndarray:
    """The adaptive-C&W tie rule, per row: keep the eot_loss point only if its
    exact expected error is strictly larger, or equal with a strictly shorter
    l2 norm; otherwise keep the eot_logits point."""
    err_logits = expected_errors(model, adv_logits, Y)
    err_loss = expected_errors(model, adv_loss, Y)
    return (err_loss > err_logits) | ((err_loss == err_logits) & (l2_loss < l2_logits))


def adaptive_cw(model, X: np.ndarray, Y, cfg: CwConfig, box=(0.0, 1.0)) -> np.ndarray:
    """Adaptive C&W: the adversarial point per row of X.

    Runs C&W (:func:`cw_l2_batch`) through the expected logits; for a mixture
    of more than one component it also runs it through the expected loss and,
    per row, keeps the candidate with the larger exact expected error, then
    the shorter l2 norm, and the expected-logits one on a full tie. The two
    modes run as two lanes of one Adam loop. With ``cfg.abort_early`` each
    mode's early abort reads its own batch-summed objective, so a row's point
    can depend on the other rows of its batch, but not on the other mode.
    """
    X, Y = _rows(X, Y)
    mix = _batched(model)
    modes = ("eot_logits", "eot_loss") if len(mix.weights) > 1 else ("eot_logits",)
    points = _cw_l2_lanes(mix, X, Y, cfg, box, modes)[0]
    if len(modes) == 1:
        return points[0]
    adv, adv_b = points
    take_b = _take_eot_loss(model, Y, adv, adv_b, np.linalg.norm(adv - X, axis=1),
                            np.linalg.norm(adv_b - X, axis=1))
    return np.where(take_b[:, None], adv_b, adv)


# ---------------------------------------------------------------------------
# Robust-accuracy evaluation
# ---------------------------------------------------------------------------

def accuracy_under_pgd(model, X, Y, cfg: PgdConfig, box=(0.0, 1.0),
                       mode: str = "eot_logits") -> float:
    adv, _ = pgd_linf_batch(model, X, Y, cfg, box, mode)
    return accuracy(model, adv, Y)


def accuracy_under_cw(model, X, Y, cfg: CwConfig, box=(0.0, 1.0),
                      reject_eps=CW_REJECT_THRESHOLDS) -> dict[float, float]:
    """Accuracy after :func:`adaptive_cw` with the hard-constraint filter, per
    threshold: a perturbation is kept if its l2 norm is at most the threshold
    (non-strict), otherwise the natural point is."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    adv = adaptive_cw(model, X, Y, cfg, box)
    norms = np.linalg.norm(adv - X, axis=1)
    out = {}
    for eps2 in np.atleast_1d(np.asarray(reject_eps, dtype=float)):
        effective = np.where((norms <= eps2)[:, None], adv, X)
        out[float(eps2)] = accuracy(model, effective, Y)
    return out
