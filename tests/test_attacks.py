import numpy as np
import pytest

import advgame as ag
from advgame import attacks, nets
from advgame.attacks import (
    ATTACK_PRESETS,
    CW_PAPER,
    PGD_PAPER,
    PGD_TRAIN_PAPER,
    cw_l2_batch,
    loss_and_input_grad,
    model_logits,
    pgd_linf_batch,
)
from advgame.errors import ConfigError, UnsupportedKind
from advgame.hypotheses import MixedClassifier, Mlp, as_mixture


@pytest.fixture
def linear_model():
    return ag.Linear((0.7, -1.3), -0.1)


@pytest.fixture
def mlp_model():
    return Mlp(nets.init_mlp((2, 16, 16, 2), seed=3))


def _labels(model, X):
    return np.where(model.decision_values(X) > 0, 1, -1)


# ---------------------------------------------------------------------------
# Configs and presets
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        ag.PgdConfig(0.1, 0.0, 10)
    with pytest.raises(ConfigError):
        ag.PgdConfig(0.1, 0.01, 0)  # iters = 0 forbidden
    with pytest.raises(ConfigError):
        ag.CwConfig(binary_search_steps=0)


@pytest.mark.parametrize("make, message", [
    # a NaN budget died inside numpy's uniform draw, a fractional count at run time
    (lambda: ag.PgdConfig(np.nan, 0.01, 5), "epsilon_inf must be finite"),
    (lambda: ag.PgdConfig(np.inf, 0.01, 5), "epsilon_inf must be finite"),
    (lambda: ag.PgdConfig(0.1, np.nan, 5), "step must be finite"),
    (lambda: ag.PgdConfig(0.1, 0.01, 2.5), "iters must be an integer"),
    (lambda: ag.PgdConfig(0.1, 0.01, 5, restarts=True), "restarts must be an integer"),
    (lambda: ag.PgdConfig(0.1, 0.01, 5, seed=0.0), "seed must be an integer"),
    (lambda: ag.CwConfig(lr=np.nan), "lr must be finite"),
    (lambda: ag.CwConfig(initial_const=np.inf), "initial_const must be finite"),
    (lambda: ag.CwConfig(binary_search_steps=9.0), "binary_search_steps must be an integer"),
    (lambda: ag.CwConfig(iters=1.5), "iters must be an integer"),
])
def test_attack_configs_reject_non_finite_numbers_and_fractional_counts(make, message):
    with pytest.raises(ConfigError, match=message):
        make()
    # numpy integers are integers
    assert ag.PgdConfig(0.1, 0.01, np.int64(5)).iters == 5


def test_paper_presets():
    assert PGD_PAPER.epsilon_inf == pytest.approx(0.031)
    assert PGD_PAPER.step == pytest.approx(0.008)
    assert PGD_PAPER.iters == 100 and PGD_PAPER.restarts == 3
    assert PGD_PAPER.random_init
    # training uses 20 iterations, evaluation five times more
    assert PGD_TRAIN_PAPER.iters == 20
    assert PGD_PAPER.iters == 5 * PGD_TRAIN_PAPER.iters
    assert CW_PAPER.binary_search_steps == 9
    assert CW_PAPER.initial_const == pytest.approx(0.001)
    assert CW_PAPER.lr == pytest.approx(0.01)
    assert attacks.CW_REJECT_THRESHOLDS == (0.4, 0.6, 0.8)
    assert set(ATTACK_PRESETS) == {"pgd_paper", "pgd_train_paper", "at_paper",
                                   "cw_paper"}
    assert ATTACK_PRESETS["at_paper"].iters == 20


def test_attacks_reject_non_differentiable(spec_1d):
    cfg = ag.PgdConfig(0.1, 0.02, 5)
    with pytest.raises(UnsupportedKind):
        pgd_linf_batch(ag.bayes_optimal(spec_1d), np.array([[0.3]]), 1, cfg)


# ---------------------------------------------------------------------------
# PGD
# ---------------------------------------------------------------------------

def test_pgd_linear_closed_form(linear_model):
    rng = np.random.default_rng(0)
    X = rng.uniform(0.3, 0.7, (64, 2))
    Y = _labels(linear_model, X)
    cfg = ag.PgdConfig(0.1, 0.03, 30, restarts=2, random_init=True, seed=1)
    adv, _ = pgd_linf_batch(linear_model, X, Y, cfg)
    closed = X - cfg.epsilon_inf * np.sign(np.asarray(linear_model.w)) * Y[:, None]
    assert np.abs(adv - closed).max() < 1e-9


def test_pgd_fgsm_degenerate_case(linear_model):
    # iters=1 with a full-budget step is the one-step signed-gradient attack
    x = np.array([0.5, 0.5])
    y = int(_labels(linear_model, x.reshape(1, -1))[0])
    cfg = ag.PgdConfig(0.05, 0.05, 1, restarts=1, random_init=False)
    adv, _ = pgd_linf_batch(linear_model, x.reshape(1, -1), y, cfg)
    closed = x - 0.05 * np.sign(np.asarray(linear_model.w)) * y
    assert np.allclose(adv[0], closed)


def test_pgd_iterates_stay_in_ball(mlp_model):
    rng = np.random.default_rng(1)
    X = rng.uniform(0.2, 0.8, (32, 2))
    Y = np.where(rng.random(32) < 0.5, 1, -1)
    cfg = ag.PgdConfig(0.07, 0.02, 25, restarts=2, seed=4)
    adv, _ = pgd_linf_batch(mlp_model, X, Y, cfg)
    assert np.abs(adv - X).max() <= 0.07 + 1e-12
    assert adv.min() >= 0.0 and adv.max() <= 1.0


def test_pgd_more_restarts_never_lower_best_loss(mlp_model):
    # restart r draws its start from (seed, r), so restarts=3 extends restarts=1
    rng = np.random.default_rng(2)
    X = rng.uniform(0.2, 0.8, (48, 2))
    Y = np.where(rng.random(48) < 0.5, 1, -1)
    one = pgd_linf_batch(mlp_model, X, Y, ag.PgdConfig(0.08, 0.01, 20, restarts=1, seed=2))[1]
    three = pgd_linf_batch(mlp_model, X, Y, ag.PgdConfig(0.08, 0.01, 20, restarts=3, seed=2))[1]
    assert np.all(three >= one)
    assert np.any(three > one)


def test_pgd_accuracy_nonincreasing_in_budget(mlp_model):
    rng = np.random.default_rng(5)
    X = rng.uniform(0.25, 0.75, (150, 2))
    Y = _labels(mlp_model, X)
    accs = []
    for eps in (0.01, 0.05, 0.15, 0.4):
        cfg = ag.PgdConfig(eps, eps / 4, 30, restarts=2, seed=0)
        accs.append(attacks.accuracy_under_pgd(mlp_model, X, Y, cfg))
    assert all(a >= b for a, b in zip(accs, accs[1:]))


# ---------------------------------------------------------------------------
# EOT
# ---------------------------------------------------------------------------

def test_eot_logits_degenerate(linear_model):
    m = MixedClassifier((linear_model,), (1.0,))
    x = np.array([0.3, 0.4])
    pair = model_logits(m, x.reshape(1, -1))[0]
    g = linear_model.decision_value(x)
    assert pair[1] - pair[0] == pytest.approx(2 * g)


def test_eot_logits_two_linear_models_average():
    h1 = ag.Linear((1.0, 0.0), 0.2)
    h2 = ag.Linear((0.0, 2.0), -0.4)
    m = MixedClassifier((h1, h2), (0.3, 0.7))
    avg = ag.Linear((0.3, 1.4), 0.3 * 0.2 + 0.7 * -0.4)
    X = np.random.default_rng(0).uniform(-1, 1, (10, 2))
    pair = model_logits(m, X)
    assert pair[:, 1] - pair[:, 0] == pytest.approx(2 * avg.decision_values(X), rel=1e-12)


EOT_OBJECTIVES = {
    "ce": loss_and_input_grad,
    "cw_hinge": lambda model, X, Y, mode: attacks._eot_objective(
        model, X, Y, mode, attacks._cw_hinge)[:2],
}


@pytest.mark.parametrize("mode", ["eot_logits", "eot_loss"])
@pytest.mark.parametrize("objective", sorted(EOT_OBJECTIVES))
def test_eot_gradient_is_weighted_sum_and_matches_fd(mlp_model, objective, mode):
    fn = EOT_OBJECTIVES[objective]
    other = Mlp(nets.init_mlp((2, 8, 2), seed=9))
    m = MixedClassifier((mlp_model, other), (0.6, 0.4))
    # labels follow the mixture's margin, so the hinge is active on every row;
    # on rows 0 and 2 one component disagrees and its hinge is flat
    X = np.array([[0.4, 0.55], [0.7, 0.3], [-1.6, 1.0], [-0.2, 1.6]])
    Y = np.array([1, 1, -1, -1])
    h = 1e-5
    for comp in (mlp_model, other):
        # central differences stay off the leaky-ReLU kinks and the hinge's kink
        _, pres, _ = nets.forward_cached(comp.net, X)
        assert min(np.abs(p).min() for p in pres) > 1e-2
        pair = model_logits(comp, X)
        assert np.abs(pair[:, 1] - pair[:, 0]).min() > 1e-2
    pair = model_logits(m, X)
    assert np.all(Y * (pair[:, 1] - pair[:, 0]) > 1e-2)
    value, grad = fn(m, X, Y, mode)
    assert np.all(value > 0) and np.all(np.abs(grad).max(axis=1) > 0)
    for j in range(2):
        xp, xm = X.copy(), X.copy()
        xp[:, j] += h
        xm[:, j] -= h
        fd = (fn(m, xp, Y, mode)[0] - fn(m, xm, Y, mode)[0]) / (2 * h)
        assert np.all(np.abs(fd - grad[:, j]) / np.maximum(np.abs(fd), 1e-12) < 1e-4)
    if mode == "eot_logits":
        # the expected-logit pair is the q-weighted sum of component pairs
        manual = 0.6 * model_logits(mlp_model, X) + 0.4 * model_logits(other, X)
        assert np.allclose(pair, manual, atol=1e-12)
    else:
        # the expected objective and its gradient are q-weighted sums
        (va, ga), (vb, gb) = fn(mlp_model, X, Y, mode), fn(other, X, Y, mode)
        assert np.allclose(value, 0.6 * va + 0.4 * vb, atol=1e-12)
        assert np.allclose(grad, 0.6 * ga + 0.4 * gb, atol=1e-12)


@pytest.mark.parametrize("mode", ["eot_logits", "eot_loss"])
def test_eot_gradient_runs_each_component_forward_once(mlp_model, mode, net_calls):
    comps = (mlp_model, Mlp(nets.init_mlp((2, 6, 1), seed=2)), ag.Linear((0.7, -1.3), -0.1),
             Mlp(nets.init_mlp((2, 8, 8, 2), seed=5)))
    m = MixedClassifier(comps, (0.4, 0.3, 0.2, 0.1))
    X = np.random.default_rng(6).uniform(0, 1, (7, 2))
    loss_and_input_grad(m, X, np.ones(7, dtype=int), mode)
    # three Mlp components: one forward and one backward each; Linear has neither
    assert net_calls == {"forward_cached": 3, "backward": 3}


@pytest.mark.parametrize("mode", ["eot_logits", "eot_loss"])
def test_same_shape_components_run_as_one_stack(mlp_model, mode, net_calls):
    comps = (mlp_model, Mlp(nets.init_mlp((2, 16, 16, 2), seed=4)), ag.Linear((0.7, -1.3), -0.1),
             Mlp(nets.init_mlp((2, 16, 16, 2), seed=5)))
    m = MixedClassifier(comps, (0.4, 0.3, 0.2, 0.1))
    X = np.random.default_rng(6).uniform(0, 1, (7, 2))
    loss_and_input_grad(m, X, np.ones(7, dtype=int), mode)
    assert net_calls == {"forward_cached": 1, "backward": 1}


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _per_component_ce(comps, weights, X, Y, mode):
    """Reference CE value, input gradient and expected logits, running every
    component through its own forward and backward pass."""
    pairs, grads_of = [], []
    for h in comps:
        if isinstance(h, ag.Linear):
            g = h.decision_values(X)
            pairs.append(np.column_stack([-g, g]))
            grads_of.append(lambda dp, h=h: (dp[:, 1] - dp[:, 0])[:, None] * np.asarray(h.w))
        else:
            cache = nets.forward_cached(h.net, X)
            pairs.append(nets.logit_pair_from_output(cache[0]))

            def vjp(dp, h=h, cache=cache):
                dout = dp if h.net.out_dim == 2 else (dp[:, 1] - dp[:, 0])[:, None]
                return nets.backward(h.net, cache, dout, need_param_grads=False)[1]
            grads_of.append(vjp)
    expected = np.zeros_like(pairs[0])
    for q, pair in zip(weights, pairs):
        expected += q * pair
    if mode == "eot_logits":
        value, dpair = nets.ce_loss(expected, Y)
        dpairs = [dpair] * len(comps)
    else:
        value = np.zeros(len(Y))
        dpairs = []
        for q, pair in zip(weights, pairs):
            v, dpair = nets.ce_loss(pair, Y)
            value += q * v
            dpairs.append(dpair)
    grad = np.zeros_like(X)
    for q, vjp, dpair in zip(weights, grads_of, dpairs):
        grad += q * vjp(dpair)
    return value, grad, expected


def _apart(model):
    """Every component in its own batched part: nothing is stacked."""
    if isinstance(model, attacks._Batched):
        return model
    mix = as_mixture(model)
    return attacks._Batched(mix.weights, tuple(
        (h.net if isinstance(h, Mlp) else h, k) for k, h in enumerate(mix.hypotheses)))


@pytest.mark.parametrize("mode", ["eot_logits", "eot_loss"])
def test_stacked_mixture_matches_per_component_reference(mode, monkeypatch):
    comps = (Mlp(nets.init_mlp((2, 16, 16, 2), seed=1)), ag.Linear((0.7, -1.3), -0.05),
             Mlp(nets.init_mlp((2, 16, 16, 2), seed=2)), Mlp(nets.init_mlp((2, 6, 1), seed=3)))
    m = MixedClassifier(comps, (0.35, 0.15, 0.3, 0.2))
    rng = np.random.default_rng(8)
    X = rng.uniform(0.1, 0.9, (25, 2))
    Y = np.where(rng.random(25) < 0.5, 1, -1)
    value, grad, expected = _per_component_ce(comps, m.weights, X, Y, mode)
    got_value, got_grad = loss_and_input_grad(m, X, Y, mode)
    assert _same_bits(got_value, value) and _same_bits(got_grad, grad)
    assert _same_bits(model_logits(m, X), expected)
    pgd_cfg = ag.PgdConfig(0.08, 0.02, 6, restarts=2, seed=1)
    cw_cfg = ag.CwConfig(iters=15, binary_search_steps=3, abort_early=False)

    def attacked():
        return (*pgd_linf_batch(m, X, Y, pgd_cfg, mode=mode),
                *cw_l2_batch(m, X, Y, cw_cfg, mode=mode))
    stacked = attacked()
    monkeypatch.setattr(attacks, "_batched", _apart)
    for got, want in zip(stacked, attacked()):
        assert _same_bits(got, want)


@pytest.mark.parametrize("stack", [False, True])
def test_attack_sees_in_place_weight_updates(stack):
    nets_ = [nets.init_mlp((2, 8, 8, 2), seed=s) for s in (3, 4)][: 1 + stack]
    model = MixedClassifier(tuple(Mlp(n) for n in nets_), (0.6, 0.4)) if stack else Mlp(nets_[0])
    rng = np.random.default_rng(2)
    X = rng.uniform(0.1, 0.9, (20, 2))
    Y = np.where(rng.random(20) < 0.5, 1, -1)
    cfg = ag.PgdConfig(0.08, 0.02, 5, seed=2)
    before = pgd_linf_batch(model, X, Y, cfg)
    for net in nets_:  # one SGD step, in place as training applies it
        _, grads, _ = nets.loss_and_grads(net, X, Y)
        for w, b, (gw, gb) in zip(net.weights, net.biases, grads):
            w -= 0.5 * gw
            b -= 0.5 * gb
    after = pgd_linf_batch(model, X, Y, cfg)
    fresh = [Mlp(n.copy()) for n in nets_]
    fresh_model = MixedClassifier(tuple(fresh), (0.6, 0.4)) if stack else fresh[0]
    want = pgd_linf_batch(fresh_model, X, Y, cfg)
    assert not np.array_equal(after[1], before[1])
    assert _same_bits(after[0], want[0]) and _same_bits(after[1], want[1])


@pytest.mark.parametrize("mode", ["eot_logits", "eot_loss"])
@pytest.mark.parametrize("shared_rows", [False, True])
def test_stacked_nets_are_attacked_as_independent_nets(mode, shared_rows):
    lone = [nets.init_mlp((2, 8, 8, 2), seed=s) for s in (3, 4, 5)]
    for k, net in enumerate(lone):
        for b in net.biases:
            b[:] = 0.1 * np.random.default_rng(k).standard_normal(b.shape)
    rng = np.random.default_rng(9)
    X = rng.uniform(0.1, 0.9, (3, 17, 2))
    Y = np.where(rng.random((3, 17)) < 0.5, 1, -1)
    if shared_rows:  # one (n, d) batch broadcast to every net
        X, Y = X[0], Y[0]
    cfg = ag.PgdConfig(0.08, 0.02, 6, restarts=2, seed=1)
    points, losses = pgd_linf_batch(Mlp(nets.stack(lone)), X, Y, cfg, mode=mode)
    assert points.shape == (3, 17, 2) and losses.shape == (3, 17)
    for k, net in enumerate(lone):
        Xk, Yk = (X, Y) if shared_rows else (X[k], Y[k])
        want_points, want_losses = pgd_linf_batch(Mlp(net), Xk, Yk, cfg, mode=mode)
        assert _same_bits(points[k], want_points) and _same_bits(losses[k], want_losses)


def _pgd_full_length(model, X, Y, cfg, box=(0.0, 1.0), mode="eot_logits"):
    """Reference PGD: every restart runs all cfg.iters steps, and each step
    clips to the ball, then to the box. pgd_linf_batch must match its bits."""
    mix = attacks._batched(model)
    X, Y = attacks._rows(X, Y)
    eps = cfg.epsilon_inf
    best_x = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng((cfg.seed, restart))
        init = rng.uniform(-eps, eps, X.shape[-2:]) if cfg.random_init else 0.0
        x_adv = attacks._clip_box(X + init, box)
        for _ in range(cfg.iters):
            grad = attacks._eot_objective(mix, x_adv, Y, mode, nets.ce_loss)[1]
            x_adv = x_adv + cfg.step * np.sign(grad)
            x_adv = np.clip(x_adv, X - eps, X + eps)
            x_adv = attacks._clip_box(x_adv, box)
        loss = attacks._eot_value(mix, x_adv, Y, mode, nets.ce_loss)[0]
        if best_x is None:
            best_x = np.array(np.broadcast_to(X, loss.shape + X.shape[-1:]))
            best_loss = np.full(loss.shape, -np.inf)
        better = loss > best_loss
        best_x[better] = x_adv[better]
        best_loss[better] = loss[better]
    return best_x, best_loss


def _ridge(c):
    """A one-input ridge: margin 2 * (0.9 * |x0 - c| + 1) from two leaky units.
    Signed ascent on y = +1 walks x0 to c and then straddles it."""
    return Mlp(nets.MlpModel([np.array([[1.0, -1.0], [0.0, 0.0]]), np.array([[1.0], [1.0]])],
                             [np.array([-c, c]), np.array([1.0])]))


def _exit_cases():
    rng = np.random.default_rng(11)
    X = rng.uniform(0.1, 0.9, (30, 2))
    Y = np.where(rng.random(30) < 0.5, 1, -1)
    mlp = Mlp(nets.init_mlp((2, 16, 16, 2), seed=3))
    mix = MixedClassifier((mlp, Mlp(nets.init_mlp((2, 8, 1), seed=4)),
                           ag.Linear((0.7, -1.3), -0.05)), (0.5, 0.3, 0.2))
    lone = [nets.init_mlp((2, 8, 8, 2), seed=s) for s in (3, 4, 5)]
    stack = Mlp(nets.stack(lone))
    XK = rng.uniform(0.1, 0.9, (3, 30, 2))
    YK = np.where(rng.random((3, 30)) < 0.5, 1, -1)
    return {
        "linear": (ag.Linear((0.7, -1.3), -0.1), X, Y, (0.0, 1.0), "eot_logits"),
        "mlp": (mlp, X, Y, (0.0, 1.0), "eot_logits"),
        "mixture-eot_logits": (mix, X, Y, (0.0, 1.0), "eot_logits"),
        "mixture-eot_loss": (mix, X, Y, (0.0, 1.0), "eot_loss"),
        "stack-own-rows": (stack, XK, YK, (0.0, 1.0), "eot_logits"),
        "stack-shared-rows": (stack, X, Y, (0.0, 1.0), "eot_loss"),
        "no-box": (mlp, X, Y, None, "eot_logits"),
        "ridge": (_ridge(0.5 + np.pi / 1000), X, np.ones(30, dtype=int), (0.0, 1.0),
                  "eot_logits"),
    }


@pytest.mark.parametrize("iters", [60, 61])
@pytest.mark.parametrize("case", sorted(_exit_cases()))
def test_pgd_early_exit_matches_full_length_loop(case, iters):
    model, X, Y, box, mode = _exit_cases()[case]
    for cfg in (ag.PgdConfig(0.3, 0.01, iters, restarts=2, seed=1),
                ag.PgdConfig(0.08, 0.02, iters, restarts=2, seed=2),
                ag.PgdConfig(0.05, 0.05, iters, random_init=False)):
        got = pgd_linf_batch(model, X, Y, cfg, box, mode)
        want = _pgd_full_length(model, X, Y, cfg, box, mode)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


def test_linear_pgd_stops_at_its_fixed_point(monkeypatch):
    # a linear margin's gradient sign is constant: every row walks to its ball
    # corner in at most 2 eps / step = 8 steps, and the 9th step repeats it
    model, X, Y, box, mode = _exit_cases()["linear"]
    cfg = ag.PgdConfig(0.08, 0.02, 60, restarts=2, seed=2)
    steps = []
    objective = attacks._eot_objective

    def counted(*args):
        steps.append(1)
        return objective(*args)
    monkeypatch.setattr(attacks, "_eot_objective", counted)
    pgd_linf_batch(model, X, Y, cfg, box, mode)
    assert len(steps) == 2 * 9


@pytest.mark.parametrize("iters", [200, 201])
def test_ridge_pgd_stops_in_its_two_point_cycle(iters, net_calls):
    model, X, Y, box, mode = _exit_cases()["ridge"]
    cfg = ag.PgdConfig(0.3, 0.01, iters, restarts=2, seed=1)
    points = pgd_linf_batch(model, X, Y, cfg, box, mode)[0]
    # every row reaches c within 50 steps of 0.01 from its start in the unit
    # box: two restarts of 50 and 52 steps, each final iterate scored by the
    # loss its step already computed, against 2 * iters steps without the exit
    assert net_calls == {"forward_cached": 102, "backward": 102}
    assert _same_bits(points, _pgd_full_length(model, X, Y, cfg, box, mode)[0])
    # a two-point cycle, not a fixed point: the parity of iters picks the point
    other = pgd_linf_batch(model, X, Y, ag.PgdConfig(0.3, 0.01, iters + 1, restarts=2, seed=1),
                           box, mode)[0]
    assert not np.array_equal(points, other)
    # rows whose ball holds the ridge end within one step of it
    near = np.abs(X[:, 0] - 0.5 - np.pi / 1000) < 0.3
    assert 0 < near.sum() < len(X)
    assert np.all(np.abs(points[near, 0] - 0.5 - np.pi / 1000) < 0.01)


# ---------------------------------------------------------------------------
# C&W
# ---------------------------------------------------------------------------

def test_cw_linear_minimal_perturbation(linear_model):
    rng = np.random.default_rng(7)
    X = rng.uniform(0.35, 0.65, (60, 2))
    Y = _labels(linear_model, X)
    cfg = ag.CwConfig(lr=0.01, binary_search_steps=9, initial_const=1e-3, iters=100)
    adv, l2, ok = cw_l2_batch(linear_model, X, Y, cfg)
    assert ok.all()
    ideal = np.abs(linear_model.decision_values(X)) / np.linalg.norm(linear_model.w)
    rel = l2 / ideal
    assert np.mean(rel <= 1.05) >= 0.95


def test_cw_already_misclassified_zero_perturbation(linear_model):
    X = np.array([[0.5, 0.5]])
    Y = -_labels(linear_model, X)  # wrong label on purpose
    adv, l2, ok = cw_l2_batch(linear_model, X, Y, ag.CwConfig(iters=50))
    assert ok[0]
    assert l2[0] < 1e-3
    assert np.linalg.norm(adv[0] - X[0]) < 1e-3


def test_cw_requires_box(linear_model):
    with pytest.raises(ConfigError):
        cw_l2_batch(linear_model, np.array([[0.5, 0.5]]), 1, ag.CwConfig(), box=None)


def test_cw_runs_one_forward_per_backward(mlp_model, net_calls):
    m = MixedClassifier((mlp_model, Mlp(nets.init_mlp((2, 6, 1), seed=2))), (0.7, 0.3))
    X = np.random.default_rng(4).uniform(0.2, 0.8, (5, 2))
    cfg = ag.CwConfig(iters=6, binary_search_steps=2, abort_early=False)
    for mode in ("eot_logits", "eot_loss"):
        cw_l2_batch(m, X, np.ones(5, dtype=int), cfg, mode=mode)
    # 2 modes x 2 search steps x 6 iterations x 2 components, and the miss
    # test reads the same logits (no extra forward pass)
    assert net_calls == {"forward_cached": 48, "backward": 48}


@pytest.mark.parametrize("y", [1, -1])
def test_cw_miss_rule_matches_expected_errors_on_zero_margin(y):
    lin = ag.Linear((1.0, -1.0), 0.0)  # zero on the diagonal x1 == x2
    zero_nets = [nets.init_mlp(sizes, seed=0) for sizes in ((2, 4, 1), (2, 4, 2))]
    for net in zero_nets:
        for w in net.weights:
            w[...] = 0.0
    comps = (lin, Mlp(zero_nets[0]), Mlp(zero_nets[1]))
    X = np.array([[0.3, 0.3], [0.5, 0.5], [0.2, 0.7]])
    Y = np.full(3, y)
    m = MixedClassifier(comps, (0.5, 0.3, 0.2))
    pairs = attacks._forward(attacks._batched(m), X)[0]
    for h, pair in zip(comps, pairs):
        got = attacks._pair_errors((1.0,), pair[None], Y)
        assert np.array_equal(got, MixedClassifier((h,), (1.0,)).expected_errors(X, Y))
    got = attacks._pair_errors(m.weights, pairs, Y)
    assert np.array_equal(got, m.expected_errors(X, Y))
    # a zero margin errs on both labels
    assert got[:2].tolist() == [1.0, 1.0]


# ---------------------------------------------------------------------------
# Adaptive C&W on mixtures
# ---------------------------------------------------------------------------

def test_adaptive_cw_degenerate_mixture(linear_model):
    # a one-component mixture runs only the expected-logits attack
    m = MixedClassifier((linear_model,), (1.0,))
    X = np.vstack([[0.55, 0.5], np.random.default_rng(8).uniform(0.35, 0.65, (5, 2))])
    Y = _labels(linear_model, X)
    cfg = ag.CwConfig(iters=60)
    a = ag.adaptive_cw(m, X, Y, cfg)
    b, _, _ = cw_l2_batch(linear_model, X, Y, cfg)
    assert np.allclose(a, b)


def test_adaptive_cw_takes_stronger_variant(mlp_model):
    other = Mlp(nets.init_mlp((2, 16, 16, 2), seed=11))
    m = MixedClassifier((mlp_model, other), (0.5, 0.5))
    X = np.random.default_rng(3).uniform(0.2, 0.8, (6, 2))
    Y = np.ones(6, dtype=int)
    cfg = ag.CwConfig(iters=60)
    adv = ag.adaptive_cw(m, X, Y, cfg)
    errs = [attacks.expected_errors(m, cw_l2_batch(m, X, Y, cfg, mode=mode)[0], Y)
            for mode in ("eot_logits", "eot_loss")]
    got = attacks.expected_errors(m, adv, Y)
    assert np.all(got >= np.maximum(*errs) - 1e-12)


def test_cw_without_early_abort_does_not_depend_on_batching(linear_model):
    # the binary search runs per row; only the early abort reads the whole batch.
    # Both nets have a boundary inside the points' square, and with the early
    # abort on, this split changes rows of the eot_loss attack.
    comps = (Mlp(nets.init_mlp((2, 16, 16, 2), seed=1)), Mlp(nets.init_mlp((2, 6, 1), seed=8)),
             linear_model)
    m = MixedClassifier(comps, (0.5, 0.3, 0.2))
    X = np.random.default_rng(12).uniform(0.2, 0.8, (30, 2))
    pair = model_logits(m, X)
    Y = np.where(pair[:, 1] > pair[:, 0], 1, -1)
    cfg = ag.CwConfig(iters=40, binary_search_steps=5, abort_early=False)
    parts = (slice(0, 1), slice(1, 13), slice(13, 30))
    for mode in ("eot_logits", "eot_loss"):
        whole = cw_l2_batch(m, X, Y, cfg, mode=mode)
        split = [cw_l2_batch(m, X[p], Y[p], cfg, mode=mode) for p in parts]
        for k in range(3):
            assert np.array_equal(whole[k], np.concatenate([out[k] for out in split]))
    adv = ag.adaptive_cw(m, X, Y, cfg)
    assert np.array_equal(adv, np.concatenate([ag.adaptive_cw(m, X[p], Y[p], cfg)
                                               for p in parts]))


def _cw_one_mode(model, X, Y, cfg, box=(0.0, 1.0), mode="eot_logits"):
    """Reference C&W: one EOT mode in its own Adam loop, as cw_l2_batch ran it
    before the modes became lanes. Every lane must match its bits."""
    mix = attacks._batched(model)
    X, Y = attacks._rows(X, Y)
    lo, hi = box
    scale, mid = (hi - lo) / 2.0, (hi + lo) / 2.0
    n = X.shape[0]
    x_tanh = np.arctanh(np.clip((X - mid) / scale, -1, 1) * 0.999999)
    const, lower, upper = np.full(n, cfg.initial_const), np.zeros(n), np.full(n, 1e10)
    o_best_l2, o_best_x, o_success = np.full(n, np.inf), X.copy(), np.zeros(n, dtype=bool)
    check_every = max(1, cfg.iters // 10)
    for _ in range(cfg.binary_search_steps):
        w, m_t, v_t = x_tanh.copy(), np.zeros_like(X), np.zeros_like(X)
        step_success = np.zeros(n, dtype=bool)
        prev = np.inf
        for it in range(1, cfg.iters + 1):
            tanh_w = np.tanh(w)
            x_new = mid + scale * tanh_w
            tau = x_new - X
            l2sq = (tau ** 2).sum(axis=1)
            cost, dcost, pairs = attacks._eot_objective(mix, x_new, Y, mode, attacks._cw_hinge)
            total = l2sq + const * cost
            miss = attacks._pair_errors(mix.weights, pairs, Y) > 0.5
            l2 = np.sqrt(l2sq)
            improved = miss & (l2 < o_best_l2)
            o_best_l2[improved] = l2[improved]
            o_best_x[improved] = x_new[improved]
            o_success |= miss
            step_success |= miss
            dw = (2.0 * tau + const[:, None] * dcost) * scale * (1.0 - tanh_w ** 2)
            m_t = 0.9 * m_t + 0.1 * dw
            v_t = 0.999 * v_t + 0.001 * dw ** 2
            mhat = m_t / (1 - 0.9 ** it)
            vhat = v_t / (1 - 0.999 ** it)
            w = w - cfg.lr * mhat / (np.sqrt(vhat) + 1e-8)
            if cfg.abort_early and it % check_every == 0:
                if total.sum() > prev * 0.9999:
                    break
                prev = total.sum()
        upper = np.where(step_success, np.minimum(upper, const), upper)
        lower = np.where(step_success, lower, np.maximum(lower, const))
        const = np.where(upper < 1e9, (lower + upper) / 2.0,
                         np.where(step_success, const, const * 10.0))
    return o_best_x, o_best_l2, o_success


def _lane_cases():
    """Nets with random biases, so that their boundaries cross the box."""
    def net(sizes, seed):
        out = nets.init_mlp(sizes, seed)
        for b in out.biases:
            b[:] = 0.5 * np.random.default_rng(seed + 50).standard_normal(b.shape)
        return Mlp(out)
    return {
        "lone": net((2, 16, 16, 2), 3),
        "stacked": MixedClassifier(tuple(net((2, 8, 8, 2), s) for s in (3, 4, 5)),
                                   (0.5, 0.3, 0.2)),
        "apart": MixedClassifier((ag.Linear((0.7, -1.3), -0.05), net((2, 6, 1), 8),
                                  net((2, 8, 8, 2), 1)), (0.3, 0.3, 0.4)),
    }


@pytest.mark.parametrize("abort_early", [True, False])
@pytest.mark.parametrize("case", ["lone", "stacked", "apart"])
def test_cw_lanes_match_one_mode_runs(case, abort_early, monkeypatch):
    model = _lane_cases()[case]
    if case == "apart":  # every component in its own part, a Linear among them
        monkeypatch.setattr(attacks, "_batched", _apart)
    X = np.random.default_rng(21).uniform(0.2, 0.8, (24, 2))
    pair = model_logits(model, X)
    Y = np.where(pair[:, 1] > pair[:, 0], 1, -1)
    cfg = ag.CwConfig(lr=0.05, binary_search_steps=4, initial_const=0.1, iters=30,
                      abort_early=abort_early)
    modes = ("eot_logits", "eot_loss")
    lanes_run = []
    objective = attacks._eot_objective

    def counted(mix, x, y, mode, loss):
        lanes_run.append(len(mode))
        return objective(mix, x, y, mode, loss)
    monkeypatch.setattr(attacks, "_eot_objective", counted)
    got = attacks._cw_l2_lanes(attacks._batched(model), *attacks._rows(X, Y), cfg, (0.0, 1.0),
                               modes)
    monkeypatch.setattr(attacks, "_eot_objective", objective)
    alone = [cw_l2_batch(model, X, Y, cfg, mode=mode) for mode in modes]
    for lane, mode in enumerate(modes):
        want = _cw_one_mode(model, X, Y, cfg, mode=mode)
        assert want[2].any()
        for k in range(3):
            assert _same_bits(got[k][lane], want[k]) and _same_bits(alone[lane][k], want[k])
    # with the abort on, the two lanes of a mixture stop at different iterations
    assert (1 in lanes_run) == (abort_early and case != "lone")
    adv = ag.adaptive_cw(model, X, Y, cfg)
    (adv_logits, _, _), (adv_loss, _, _) = alone
    if case == "lone":  # one component: the expected-logits lane alone
        assert _same_bits(adv, adv_logits)
        return
    take = attacks._take_eot_loss(model, Y, adv_logits, adv_loss,
                                  np.linalg.norm(adv_logits - X, axis=1),
                                  np.linalg.norm(adv_loss - X, axis=1))
    assert _same_bits(adv, np.where(take[:, None], adv_loss, adv_logits))


def test_adaptive_tie_rule_prefers_expected_logits_unless_strictly_better():
    h = ag.Linear((1.0, 0.0), -0.5)  # predicts +1 right of x0 = 0.5
    x_miss, x_hit = np.array([0.4, 0.5]), np.array([0.6, 0.5])
    adv_logits = np.array([x_miss, x_hit, x_miss, x_miss])
    adv_loss = np.array([x_hit, x_miss, x_miss, x_miss])
    l2_logits = np.array([0.1, 0.1, 0.2, 0.2])
    l2_loss = np.array([0.1, 0.1, 0.1, 0.2])
    take = attacks._take_eot_loss(h, np.ones(4, dtype=int), adv_logits, adv_loss,
                                  l2_logits, l2_loss)
    assert take.tolist() == [False, True, True, False]


def test_adaptive_cw_near_oracle_on_toy(spec_2d):
    # 2-classifier mixture with disagreeing components on d=2 data: the found
    # perturbation's expected error stays within 0.05 of the pointwise oracle
    from advgame.game import GameConfig, pointwise_attack_oracle

    h1 = ag.Linear((1.0, 0.2), -0.55)
    h2 = ag.Linear((0.2, 1.0), -0.65)
    m = MixedClassifier((h1, h2), (0.5, 0.5))
    cfg = ag.CwConfig(iters=120, binary_search_steps=9)
    game_cfg = GameConfig("norm", 1e-9, 0.9)  # essentially unregularized search
    data = ag.sample_labeled(spec_2d, 40, seed=5)
    adv = ag.adaptive_cw(m, data.points, data.labels, cfg)
    oracle = np.array([pointwise_attack_oracle(m, x, int(y), game_cfg, grid_n=81)
                       for x, y in zip(data.points, data.labels)])
    # the oracle searches a larger ball; compare per point with slack
    gaps = (attacks.expected_errors(m, oracle, data.labels)
            - attacks.expected_errors(m, adv, data.labels))
    assert gaps.max() <= 0.5 + 1e-12  # never loses a full point to the oracle
    assert gaps.mean() <= 0.05  # and on average stays within 0.05


# ---------------------------------------------------------------------------
# Rejection filter
# ---------------------------------------------------------------------------

def _three_attacked_points():
    """Three +1 points that adaptive C&W flips, at strictly increasing norms."""
    h = ag.Linear((1.0, 1.0), -1.0)
    X = np.array([[0.52, 0.52], [0.56, 0.56], [0.62, 0.62]])
    Y = np.ones(3, dtype=int)
    cfg = ag.CwConfig(iters=40, binary_search_steps=5)
    adv = ag.adaptive_cw(h, X, Y, cfg)
    assert attacks.expected_errors(h, adv, Y).tolist() == [1.0, 1.0, 1.0]
    norms = np.linalg.norm(adv - X, axis=1)
    assert norms[0] < norms[1] < norms[2]
    return h, X, Y, cfg, norms


def test_reject_threshold_discards_large_perturbations():
    h, X, Y, cfg, norms = _three_attacked_points()
    below = np.nextafter(norms[1], 0.0)
    accs = attacks.accuracy_under_cw(h, X, Y, cfg,
                                     reject_eps=(below, np.nextafter(norms[0], 0.0)))
    # one ulp under row 1's norm puts the natural points of rows 1 and 2 back
    assert accs[float(below)] == pytest.approx(2 / 3)
    # under every norm, all natural points come back
    assert accs[float(np.nextafter(norms[0], 0.0))] == pytest.approx(1.0)


def test_reject_threshold_keeps_small_and_boundary():
    h, X, Y, cfg, norms = _three_attacked_points()
    accs = attacks.accuracy_under_cw(h, X, Y, cfg, reject_eps=(norms[1], norms[2] + 1.0))
    # a threshold equal to row 1's norm keeps its attack (non-strict accept)
    assert accs[float(norms[1])] == pytest.approx(1 / 3)
    # a threshold above every norm keeps every attack
    assert accs[float(norms[2] + 1.0)] == pytest.approx(0.0)


def test_accuracy_under_cw_with_rejection(spec_2d):
    data = ag.sample_labeled(spec_2d, 120, seed=8)
    h = ag.Linear((1.0, 1.0), -1.0)
    cfg = ag.CwConfig(iters=40, binary_search_steps=5)
    accs = attacks.accuracy_under_cw(h, data.points, data.labels, cfg,
                                     reject_eps=(0.01, 0.4, 0.8))
    # a tiny threshold only admits flips of points within 0.01 of the boundary
    nat = attacks.accuracy(h, data.points, data.labels)
    margin = np.abs(h.decision_values(data.points)) / np.linalg.norm(h.w)
    near = (margin <= 0.0101).mean()
    assert nat - near - 1e-9 <= accs[0.01] <= nat + 1e-9
    # larger budgets admit more perturbations: accuracy nonincreasing
    assert accs[0.01] >= accs[0.4] >= accs[0.8]
