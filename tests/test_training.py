import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advgame as ag
from advgame import attacks, experiments, nets, training
from advgame.errors import ConfigError, InvalidInput
from advgame.hypotheses import MixedClassifier, Mlp
from advgame.training import TrainConfig


@pytest.fixture
def blobs_2d():
    spec = ag.DistributionSpec(
        0.5, 2,
        (ag.GaussianComponent(1.0, (0.7, 0.7), (0.005, 0.005)),),
        (ag.GaussianComponent(1.0, (0.3, 0.3), (0.005, 0.005)),),
    )
    return ag.sample_labeled(spec, 400, seed=5)


def quick_cfg(seed=0, epochs=12):
    return TrainConfig(epochs=epochs, batch_size=32, seed=seed,
                       lr_stages=((0, 0.1), (8, 0.02)), sizes=(2, 16, 16, 2))


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def test_forward_zero_weights_gives_zero():
    net = nets.init_mlp((2, 8, 1), seed=0)
    for w in net.weights:
        w[...] = 0.0
    out = nets.forward(net, np.array([0.3, -0.7]))
    assert out[0, 0] == 0.0


def test_single_linear_layer_matches_linear_hypothesis():
    net = nets.MlpModel([np.array([[1.5], [-2.0]])], [np.array([0.3])])
    h_lin = ag.Linear((1.5, -2.0), 0.3)
    xs = np.random.default_rng(0).uniform(-1, 1, (20, 2))
    assert np.allclose(Mlp(net).decision_values(xs), h_lin.decision_values(xs))


def test_forward_finite_on_box():
    net = nets.init_mlp((2, 32, 32, 2), seed=1)
    xs = np.random.default_rng(1).uniform(-10, 10, (100, 2))
    out = nets.forward(net, xs)
    assert np.all(np.isfinite(out))


def _fd_param_check(net, X, Y, rel_tol=1e-4, step=1e-5, n_probe=25, rng=None):
    rng = rng or np.random.default_rng(0)
    loss, grads, gin = nets.loss_and_grads(net, X, Y)
    worst = 0.0
    for _ in range(n_probe):
        layer = rng.integers(len(net.weights))
        w = net.weights[layer]
        i, j = rng.integers(w.shape[0]), rng.integers(w.shape[1])
        w[i, j] += step
        lp = nets.loss_and_grads(net, X, Y)[0].sum()
        w[i, j] -= 2 * step
        lm = nets.loss_and_grads(net, X, Y)[0].sum()
        w[i, j] += step
        fd = (lp - lm) / (2 * step)
        got = grads[layer][0][i, j]
        denom = max(abs(fd), 1e-8)
        worst = max(worst, abs(fd - got) / denom)
    return worst, gin


def test_param_and_input_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    net = nets.init_mlp((2, 16, 16, 2), seed=7)
    X = rng.uniform(-1, 1, (4, 2))
    Y = np.array([1, -1, 1, -1])
    worst, gin = _fd_param_check(net, X, Y, rng=rng)
    assert worst < 1e-4
    # input gradients too
    step = 1e-5
    for j in range(2):
        Xp, Xm = X.copy(), X.copy()
        Xp[:, j] += step
        Xm[:, j] -= step
        fd = (nets.loss_and_grads(net, Xp, Y)[0] - nets.loss_and_grads(net, Xm, Y)[0]) / (2 * step)
        rel = np.abs(fd - gin[:, j]) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-4


def test_input_gradient_linear_closed_form():
    # single linear layer, scalar output: dL/dx = dL/dmargin * 2 * w
    net = nets.MlpModel([np.array([[0.8], [-0.5]])], [np.array([0.1])])
    x = np.array([[0.2, 0.4]])
    y = np.array([1])
    loss, _, gin = nets.loss_and_grads(net, x, y)
    g = float(nets.forward(net, x)[0, 0])
    from scipy.special import expit
    dmargin = -1 * expit(-1 * 2 * g)
    expect = dmargin * 2 * np.array([0.8, -0.5])
    assert np.allclose(gin[0], expect, rtol=1e-12)


def test_saturated_correct_prediction_has_tiny_gradient():
    net = nets.MlpModel([np.array([[50.0], [0.0]])], [np.array([0.0])])
    x = np.array([[1.0, 0.0]])  # margin = 100, fully saturated
    loss, grads, gin = nets.loss_and_grads(net, x, np.array([1]))
    assert float(loss[0]) < 1e-8
    assert np.linalg.norm(gin) < 1e-8
    assert all(np.linalg.norm(gw) < 1e-8 for gw, _ in grads)


def test_loss_and_grads_runs_one_forward(net_calls):
    net = nets.init_mlp((2, 8, 8, 2), seed=4)
    X = np.random.default_rng(4).uniform(-1, 1, (6, 2))
    nets.loss_and_grads(net, X, np.array([1, -1, 1, 1, -1, -1]))
    assert net_calls == {"forward_cached": 1, "backward": 1}


@pytest.mark.parametrize("slope", [0.0, 0.1, 1.0])
def test_rectifier_and_its_backward_step_keep_signed_zeros(slope):
    # the where-form of the leaky rectifier, on zero, positive and negative
    # preactivations (slope 0 turns the negative ones into -0.0)
    net = nets.MlpModel([np.eye(2), np.array([[1.0], [-1.0]])],
                        [np.zeros(2), np.zeros(1)], slope)
    cache = nets.forward_cached(net, np.array([[0.0, -0.0], [1.5, -2.0], [-0.5, 3.0]]))
    a = cache[1][0]
    leaky = np.where(a > 0, a, slope * a)
    assert np.array_equal(cache[2][1], leaky)
    assert np.array_equal(np.signbit(cache[2][1]), np.signbit(leaky))
    dout = np.array([[-0.0], [2.0], [-1.0]])
    _, dX = nets.backward(net, cache, dout, need_param_grads=False)
    want = ((dout @ net.weights[1].T) * np.where(a > 0, 1.0, slope)) @ net.weights[0].T
    assert np.array_equal(dX, want)
    assert np.array_equal(np.signbit(dX), np.signbit(want))


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("slope", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("sizes", [(2, 8, 8, 2), (3, 6, 1)])
def test_stacked_nets_match_each_net_alone(sizes, slope):
    singles = [nets.init_mlp(sizes, seed=s, slope=slope) for s in range(3)]
    for k, net in enumerate(singles):
        for b in net.biases:
            b[:] = np.random.default_rng(k).standard_normal(b.shape)
    stacked = nets.stack(singles)
    assert (stacked.sizes, stacked.in_dim, stacked.out_dim) == (sizes, sizes[0], sizes[-1])
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, (9, sizes[0]))
    X[0, 0] = -0.0
    cache = nets.forward_cached(stacked, X)
    assert cache[0].shape == (3, 9, sizes[-1])
    dout = rng.standard_normal(cache[0].shape)
    dout[:, 0] = -0.0
    grads, dX = nets.backward(stacked, cache, dout)
    for k, net in enumerate(singles):
        own = nets.forward_cached(net, X)
        own_grads, own_dX = nets.backward(net, own, dout[k])
        assert _same_bits(cache[0][k], own[0])
        assert _same_bits(dX[k], own_dX)
        for (dw, db), (own_dw, own_db) in zip(grads, own_grads):
            assert _same_bits(dw[k], own_dw) and _same_bits(db[k], own_db)
    with pytest.raises(InvalidInput):
        nets.stack([singles[0], nets.init_mlp(sizes, seed=0, slope=0.5)])
    with pytest.raises(InvalidInput):
        nets.stack([singles[0], nets.init_mlp(sizes[:1] + (5,) + sizes[1:], seed=0)])


def test_rectifier_slope_must_lie_in_unit_interval():
    d = nets.mlp_to_dict(nets.init_mlp((2, 4, 2), seed=0))
    for slope in (0.0, 1.0):
        assert nets.mlp_from_dict({**d, "slope": slope}).slope == slope
    for slope in (1.5, -0.1, math.nan):
        with pytest.raises(InvalidInput, match="slope"):
            nets.mlp_from_dict({**d, "slope": slope})


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

def test_train_natural_separable_blobs(blobs_2d):
    model, trace = training.train_natural(blobs_2d, quick_cfg())
    acc = attacks.accuracy(Mlp(model), blobs_2d.points, blobs_2d.labels)
    assert acc >= 0.99
    assert len(trace) == 12


def test_train_zero_epochs_returns_initialization(blobs_2d):
    cfg = quick_cfg(epochs=0)
    model, trace = training.train_natural(blobs_2d, cfg)
    init = nets.init_mlp(cfg.sizes, cfg.seed)
    assert all(np.array_equal(a, b) for a, b in zip(model.weights, init.weights))
    assert trace == []


def test_train_determinism(blobs_2d):
    m1, _ = training.train_natural(blobs_2d, quick_cfg(seed=4))
    m2, _ = training.train_natural(blobs_2d, quick_cfg(seed=4))
    assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))
    assert all(np.array_equal(a, b) for a, b in zip(m1.biases, m2.biases))


def test_train_empty_data_rejected():
    with pytest.raises((InvalidInput, ConfigError, ValueError)):
        training.train_natural(
            ag.EmpiricalMeasure(np.zeros((0, 2)), np.zeros(0, dtype=int)), quick_cfg())


def _lone_sgd(data, cfg, attack_cfg=None, box=(0.0, 1.0)):
    """Reference: one net, its own SGD loop, lone-net PGD; returns (net, trace)."""
    model = nets.init_mlp(cfg.sizes, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    vel = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(model.weights, model.biases)]
    trace = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        order = rng.permutation(len(data))
        epoch_loss = 0.0
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            Xb, Yb = data.points[idx], data.labels[idx]
            if attack_cfg is not None:
                Xb, _ = attacks.pgd_linf_batch(Mlp(model), Xb, Yb, attack_cfg, box)
            loss, grads, _ = nets.loss_and_grads(model, Xb, Yb)
            epoch_loss += float(loss.sum())
            for i, (gw, gb) in enumerate(grads):
                vw, vb = vel[i]
                vw[...] = cfg.momentum * vw + (gw / len(idx) + cfg.weight_decay * model.weights[i])
                vb[...] = cfg.momentum * vb + gb / len(idx)
                model.weights[i] -= lr * vw
                model.biases[i] -= lr * vb
        trace.append((epoch_loss / len(data),
                      attacks.accuracy(Mlp(model), data.points, data.labels)))
    return model, trace


def _same_net(a, b):
    return all(_same_bits(x, y) and x.shape == y.shape
               for x, y in zip(a.weights + a.biases, b.weights + b.biases))


def _short_run(blobs):
    """70 rows in batches of 16, so every epoch ends on a short batch, over
    three learning-rate stages; with a 3-step training PGD."""
    data = ag.EmpiricalMeasure(blobs.points[:70], blobs.labels[:70])
    cfg = TrainConfig(epochs=4, batch_size=16, seed=3, lr_stages=((0, 0.1), (2, 0.02), (3, 0.004)),
                      sizes=(2, 8, 8, 2))
    return data, cfg, ag.PgdConfig(0.05, 0.02, 3)


def test_lone_training_matches_the_reference_loop(blobs_2d):
    data, cfg, pgd = _short_run(blobs_2d)
    for attack_cfg in (None, pgd):
        if attack_cfg is None:
            model, trace = training.train_natural(data, cfg)
        else:
            model, trace = training.train_adversarial(data, cfg, attack_cfg)
        ref_model, ref_trace = _lone_sgd(data, cfg, attack_cfg)
        assert _same_net(model, ref_model)
        assert [(r.train_loss, r.train_acc) for r in trace] == ref_trace


# select None: keep the best candidate under the training attack, as bat does
@pytest.mark.parametrize("select", [None, ag.PgdConfig(0.1, 0.02, 4, restarts=2)])
@pytest.mark.parametrize("k", [2, 3])
def test_lockstep_candidates_match_lone_training(blobs_2d, k, select):
    data, cfg, pgd = _short_run(blobs_2d)
    select = select or pgd
    candidates, best = training._first_classifier(data, cfg, pgd, k, blobs_2d, select)
    alone = [training.train_adversarial(data, replace(cfg, seed=cfg.seed + 101 * j), pgd)[0]
             for j in range(k)]
    assert len(candidates) == k
    assert all(_same_net(c, a) for c, a in zip(candidates, alone))
    scores = [attacks.accuracy_under_pgd(Mlp(a), blobs_2d.points, blobs_2d.labels, select)
              for a in alone]
    assert best == int(np.argmax(scores))
    with pytest.raises(InvalidInput, match="first_candidates"):
        training._first_classifier(data, cfg, pgd, 0, blobs_2d, select)


def test_adversarial_training_beats_natural_under_attack():
    # nearly-touching blobs: the budget contests the whole margin, which is
    # where adversarial training pays off
    spec = ag.DistributionSpec(
        0.5, 2,
        (ag.GaussianComponent(1.0, (0.56, 0.56), (0.0025, 0.0025)),),
        (ag.GaussianComponent(1.0, (0.44, 0.44), (0.0025, 0.0025)),),
    )
    data = ag.sample_labeled(spec, 800, seed=2)
    test = ag.sample_labeled(spec, 600, seed=3)
    pgd_train = ag.PgdConfig(0.08, 0.02, 20, 1, True, 0)
    pgd_eval = ag.PgdConfig(0.08, 0.008, 50, 2, True, 0)
    cfg = quick_cfg(epochs=15)
    nat, _ = training.train_natural(data, cfg)
    adv, _ = training.train_adversarial(data, cfg, pgd_train)
    aua_nat = attacks.accuracy_under_pgd(Mlp(nat), test.points, test.labels, pgd_eval)
    aua_adv = attacks.accuracy_under_pgd(Mlp(adv), test.points, test.labels, pgd_eval)
    assert aua_adv >= aua_nat


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=5, lr_stages=((1, 0.1),))  # must start at epoch 0
    with pytest.raises(ConfigError):
        TrainConfig(epochs=5, batch_size=0)
    cfg = training.train_paper_preset()
    assert cfg.epochs == 200
    assert cfg.lr_stages == ((0, 0.1), (60, 0.02), (120, 0.004), (160, 0.0008))
    assert cfg.momentum == 0.9 and cfg.weight_decay == 2e-4
    assert cfg.lr_at(0) == 0.1 and cfg.lr_at(100) == 0.02 and cfg.lr_at(199) == 0.0008
    assert training.train_desk_preset().epochs == 50


def test_trace_csv(tmp_path, blobs_2d):
    _, trace = training.train_natural(blobs_2d, quick_cfg(epochs=3))
    path = tmp_path / "trace.csv"
    training.trace_to_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,eval_acc_under_attack"
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# BAT
# ---------------------------------------------------------------------------

_TINY = ag.EmpiricalMeasure(np.array([[0.2, 0.3], [0.7, 0.6], [0.4, 0.9]]),
                             np.array([-1, 1, 1]))


def stand_ins(mp, attack=lambda mixture, points, labels: points,
              trainer=lambda d, cfg: nets.init_mlp((2, 4, 2), seed=1)):
    """Swap bat's trainers and attack for stand-ins: no SGD and no PGD run."""
    mp.setattr(training, "_first_classifier",
               lambda data, cfg, attack_cfg, count, ref, select_attack, box:
               ([nets.init_mlp((2, 4, 2), seed=0)], 0))
    mp.setattr(training, "pgd_linf_batch",
               lambda mixture, X, Y, attack_cfg, box: (attack(mixture, X, Y), None))
    mp.setattr(training, "train_natural", lambda d, cfg, box: (trainer(d, cfg), []))


def stand_in_bat_weights(n, alpha):
    with pytest.MonkeyPatch.context() as mp:
        stand_ins(mp)
        mix = training.bat(_TINY, n=n, alpha_bat=alpha, cfg=quick_cfg(epochs=1),
                           attack_cfg=ag.PgdConfig(0.05, 0.02, 2))
    return mix.weights


def test_bat_weight_updates():
    assert stand_in_bat_weights(2, 0.2) == pytest.approx((0.8, 0.2))
    # apply the update rule twice by hand: (0.64, 0.16, 0.2)
    assert stand_in_bat_weights(3, 0.2) == pytest.approx((0.64, 0.16, 0.2))
    assert stand_in_bat_weights(2, 0.0) == pytest.approx((1.0, 0.0))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 6), alpha=st.floats(0.0, 1.0))
def test_bat_weights_always_a_distribution(n, alpha):
    w = stand_in_bat_weights(n, alpha)
    assert len(w) == n
    assert all(v >= 0 for v in w)
    assert sum(w) == pytest.approx(1.0, abs=1e-12)


def test_bat_structure_matches_two_step_algorithm(blobs_2d, monkeypatch):
    # with stand-ins, n=2 reduces exactly to: adversarially train h1,
    # build the adversarial set against h1, naturally train h2, mix (1-a, a)
    calls = {}

    def fake_attack(mixture, points, labels):
        calls["mixture_len"] = len(mixture)
        calls["weights"] = tuple(mixture.weights)
        return points + 0.01

    def fake_trainer(d, cfg):
        calls["trained_points"] = d.points.copy()
        calls["labels"] = d.labels.copy()
        return nets.init_mlp((2, 4, 2), seed=99)

    stand_ins(monkeypatch, fake_attack, fake_trainer)
    mix = training.bat(blobs_2d, n=2, alpha_bat=0.2, cfg=quick_cfg(epochs=2),
                       attack_cfg=ag.PgdConfig(0.05, 0.02, 2))
    assert calls["mixture_len"] == 1  # D-tilde is built against h1 alone
    assert calls["weights"] == (1.0,)
    assert np.array_equal(calls["trained_points"], blobs_2d.points + 0.01)
    assert np.array_equal(calls["labels"], blobs_2d.labels)  # labels preserved
    assert mix.weights == pytest.approx((0.8, 0.2))


def test_bat_n3_weights_and_running_mixture(blobs_2d, monkeypatch):
    seen = []

    def fake_attack(mixture, points, labels):
        seen.append(tuple(round(w, 6) for w in mixture.weights))
        return points

    stand_ins(monkeypatch, fake_attack)
    mix = training.bat(blobs_2d, n=3, alpha_bat=0.2, cfg=quick_cfg(epochs=1),
                       attack_cfg=ag.PgdConfig(0.05, 0.02, 2))
    assert seen == [(1.0,), (0.8, 0.2)]  # attacks target the running mixture
    assert mix.weights == pytest.approx((0.64, 0.16, 0.2))


def test_bat_alpha_zero_degenerates_to_h1(blobs_2d):
    mix = training.bat(blobs_2d, n=2, alpha_bat=0.0, cfg=quick_cfg(epochs=2),
                       attack_cfg=ag.PgdConfig(0.05, 0.02, 2))
    assert mix.weights == pytest.approx((1.0, 0.0))
    xs = blobs_2d.points[:20]
    assert np.allclose(mix.expected_errors(xs, 1),
                       (mix.hypotheses[0].predicts(xs) != 1).astype(float))


def test_bat_requires_two_classifiers(blobs_2d):
    with pytest.raises(InvalidInput):
        training.bat(blobs_2d, n=1, alpha_bat=0.2, cfg=quick_cfg(),
                     attack_cfg=ag.PgdConfig(0.05, 0.02, 2))


def _pre_merge_bat(data, n, alpha, cfg, attack_cfg, box=(0.0, 1.0)):
    """Reference: training.bat with one first candidate as its own loop wrote it
    before the boosting loop was shared. Returns (components, weights)."""
    hyps = [Mlp(training.train_adversarial(data, cfg, attack_cfg, box=box)[0])]
    weights = (1.0,)
    for i in range(2, n + 1):
        mixture = MixedClassifier(tuple(hyps), weights)
        adv, _ = attacks.pgd_linf_batch(mixture, data.points, data.labels, attack_cfg, box)
        d_tilde = ag.EmpiricalMeasure(adv, data.labels, data.seed)
        sub = TrainConfig(**{**cfg.__dict__, "seed": cfg.seed + 17 * i})
        hyps.append(Mlp(training.train_natural(d_tilde, sub, box=box)[0]))
        weights = tuple(w * (1.0 - alpha) for w in weights) + (alpha,)
    total = sum(weights)
    return hyps, tuple(w / total for w in weights)


def _pre_merge_bat_vs_at(spec, seed, n_train, n_test, train_cfg, first_candidates,
                         alpha_candidates):
    """Reference: experiments.bat_vs_at as its own loop wrote it before the boosting
    loop was shared, with every candidate trained and attacked alone."""
    data = ag.sample_labeled(spec, n_train, seed=1000 + seed)
    val = ag.sample_labeled(spec, n_test, seed=5000 + seed)
    test = ag.sample_labeled(spec, n_test, seed=9000 + seed)
    alone = [training.train_adversarial(
        data, TrainConfig(**{**train_cfg.__dict__, "seed": train_cfg.seed + 101 * k}),
        experiments.ATTACK_TRAIN)[0] for k in range(first_candidates)]
    scores = [attacks.accuracy_under_pgd(Mlp(m), val.points, val.labels, experiments.ATTACK_EVAL)
              for m in alone]
    baseline, h1 = Mlp(alone[0]), Mlp(alone[int(np.argmax(scores))])
    adv, _ = attacks.pgd_linf_batch(h1, data.points, data.labels, experiments.ATTACK_TRAIN)
    d_tilde = ag.EmpiricalMeasure(adv, data.labels, data.seed)
    cfg2 = TrainConfig(**{**train_cfg.__dict__, "seed": train_cfg.seed + 17})
    h2 = Mlp(training.train_natural(d_tilde, cfg2)[0])
    alpha, _ = training.grid_search_alpha(h1, h2, val, alpha_candidates, experiments.ATTACK_EVAL)
    mixture = (MixedClassifier((h1,), (1.0,)) if alpha == 0.0
               else MixedClassifier((h1, h2), (1.0 - alpha, alpha)))
    evaluate = experiments.ATTACK_EVAL
    return experiments.BatBenchmarkRow(
        seed=seed,
        at_clean=attacks.accuracy(baseline, test.points, test.labels),
        at_aua=attacks.accuracy_under_pgd(baseline, test.points, test.labels, evaluate),
        mixture_clean=attacks.accuracy(mixture, test.points, test.labels),
        mixture_aua=attacks.accuracy_under_pgd(mixture, test.points, test.labels, evaluate),
        alpha=float(alpha),
        weights=tuple(mixture.weights),
    )


def test_bat_matches_the_pre_merge_loop(blobs_2d):
    data, cfg, pgd = _short_run(blobs_2d)
    mix = training.bat(data, n=3, alpha_bat=0.3, cfg=cfg, attack_cfg=pgd, first_candidates=1)
    hyps, weights = _pre_merge_bat(data, 3, 0.3, cfg, pgd)
    assert len(mix) == 3
    assert all(_same_net(got.net, want.net) for got, want in zip(mix.hypotheses, hyps))
    assert mix.weights == weights


@pytest.mark.parametrize("alpha_candidates", [(0.3,), (0.0, 0.1, 0.3)])
def test_bat_vs_at_matches_the_pre_merge_loop(alpha_candidates):
    # (0.3,) forces h2 into the mixture, so the row reads h2's bits too
    spec = experiments.satellite_task()
    cfg = TrainConfig(epochs=3, batch_size=64, lr_stages=((0, 0.1), (2, 0.02)), seed=0,
                      sizes=(2, 8, 8, 2))
    kwargs = dict(n_train=200, n_test=100, train_cfg=cfg, alpha_candidates=alpha_candidates)
    got = experiments.bat_vs_at(spec, 0, first_candidates=2, **kwargs)
    assert got == _pre_merge_bat_vs_at(spec, 0, 200, 100, cfg, 2, alpha_candidates)


# ---------------------------------------------------------------------------
# Alpha grid search
# ---------------------------------------------------------------------------

def test_grid_search_trivial_candidates(blobs_2d):
    h1 = Mlp(nets.init_mlp((2, 8, 2), seed=0))
    h2 = Mlp(nets.init_mlp((2, 8, 2), seed=1))
    best, table = training.grid_search_alpha(
        h1, h2, blobs_2d, [0.0], ag.PgdConfig(0.05, 0.02, 3))
    assert best == 0.0
    assert len(table) == 1


def test_grid_search_pointwise_dominance(blobs_2d):
    # h2 classifies everything correctly, h1 nothing: alpha = 1 dominates
    good = ag.Linear((1.0, 1.0), -1.0)
    bad = ag.Linear((-1.0, -1.0), 1.0)
    best, table = training.grid_search_alpha(
        bad, good, blobs_2d, [0.0, 0.5, 1.0], ag.PgdConfig(0.01, 0.005, 3))
    assert best == 1.0


def test_grid_search_at_least_alpha_zero_entry(blobs_2d):
    h1 = Mlp(training.train_natural(blobs_2d, quick_cfg(epochs=6))[0])
    h2 = Mlp(nets.init_mlp((2, 16, 16, 2), seed=42))
    pgd = ag.PgdConfig(0.05, 0.01, 10)
    best, table = training.grid_search_alpha(
        h1, h2, blobs_2d, [0.0, 0.1, 0.2], pgd)
    chosen = dict((a, acc) for a, acc in table)[best]
    assert chosen >= dict(table)[0.0]


def test_grid_search_tie_breaks_toward_smaller_alpha(blobs_2d):
    h1 = ag.Linear((1.0, 1.0), -1.0)
    best, table = training.grid_search_alpha(
        h1, h1, blobs_2d, [0.3, 0.0, 0.2], ag.PgdConfig(0.01, 0.005, 2))
    assert best == 0.0  # identical mixtures tie; smaller alpha wins


def test_grid_search_empty_candidates(blobs_2d):
    with pytest.raises(InvalidInput):
        training.grid_search_alpha(
            ag.Linear((1.0, 0.0), 0.0), ag.Linear((0.0, 1.0), 0.0),
            blobs_2d, [], ag.PgdConfig(0.05, 0.01, 2))
