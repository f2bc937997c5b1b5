"""Training loop, optimizer, loss, determinism, and state roundtrips."""

import importlib.util
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from afm import grouping, mixing, tensor as T, training, verify
from afm.data import NoisyDataset, generate, inject_noise, one_hot
from afm.errors import AfmError, ConfigError, NumericError
from afm.grouping import GAParams, attend, sample_groups
from afm.mixing import InterpolationBatch, gather_members, interpolate
from afm.model import Model, glorot
from afm.tensor import Tensor
from afm.training import (GA_LR_SCALE, MOMENTUM, WEIGHT_DECAY, SGD,
                          TrainConfig, _attention_stats, compute_loss, load_state,
                          save_state, train)
from afm.verify import check_determinism


def tiny_dataset(seed=0, rho=0.4):
    ds = generate("blobs", 3, 40, 10, 8, 4.0, seed=seed)
    return inject_noise(ds, "symmetric", rho, seed=seed)


def tiny_config(**kw):
    base = dict(hidden=(8,), epochs=2, batch_size=32, seed=0)
    base.update(kw)
    return TrainConfig(**base)


# ----------------------------------------------------------------- optimizer

def test_sgd_step_matches_hand_computation():
    """Three steps give the bits of v = m*v + (g + wd*p), p -= (lr*scale)*v,
    with lr changed between steps as train() does each epoch, one tensor in
    the attention net's regime (ga_params: GA_LR_SCALE, no decay) and one
    parameter whose grad is never written, a zero grad."""
    rng = np.random.default_rng(0)
    shapes = {"a": (2, 3), "b": (1, 3), "c": (3, 1)}
    tensors = {n: Tensor(rng.normal(size=s), requires_grad=True) for n, s in shapes.items()}
    opt = SGD([("a", tensors["a"]), ("c", tensors["c"])], lr=0.1,
              ga_params=[("b", tensors["b"])])
    scale = {"a": 1.0, "b": GA_LR_SCALE, "c": 1.0}
    decay = {"a": WEIGHT_DECAY, "b": 0.0, "c": WEIGHT_DECAY}
    p = {n: t.values.copy() for n, t in tensors.items()}
    v = {n: np.zeros(s) for n, s in shapes.items()}
    for lr in (0.1, 0.05, 0.01):
        opt.lr = lr
        opt.zero_grad()
        g = {n: rng.normal(size=shapes[n]) for n in ("a", "b")}
        tensors["a"].grad[...], tensors["b"].grad[...] = g["a"], g["b"]
        g["c"] = np.zeros(shapes["c"])  # c.grad is never written
        opt.step()
        for n, t in tensors.items():
            v[n] = MOMENTUM * v[n] + (g[n] + decay[n] * p[n])
            p[n] = p[n] - (lr * scale[n]) * v[n]
            np.testing.assert_array_equal(t.values, p[n])


def test_sgd_step_leaves_gradients_unchanged():
    """step computes in its own scratch vector: after it, every grad still
    holds the gradient the step used, bit for bit."""
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    opt = SGD([("a", a)], lr=0.1, ga_params=[("b", b)])
    for _ in range(2):
        opt.grad[:] = rng.normal(size=opt.grad.shape)
        held = [a.grad, b.grad, opt.grad.copy()]
        opt.step()
        assert a.grad is held[0] and b.grad is held[1]
        assert opt.grad.tobytes() == held[2].tobytes()


def test_sgd_gradients_are_views_of_its_vector_after_backward():
    """Backward adds each parameter's gradient into its view of SGD.grad,
    a shared projection's once, with the values that a backward through
    the same network without an optimizer gives; zero_grad zeroes them
    all and keeps the views."""
    ds = tiny_dataset()
    config = tiny_config(k=3, projections="shared")
    x, y = T.constant(ds.features[:32]), one_hot(ds.given_labels[:32], 3)
    draws = training.draw_step(ds.given_labels[:32], config, np.random.default_rng(0))

    def network():
        source = glorot(np.random.default_rng(0))
        model = Model([8, 8], 3, source=source)
        ga = GAParams(8, 3, "sum", "shared", source=source)
        return model, ga, model.parameters() + ga.parameters()

    model, ga, free = network()
    T.backward(training.step_loss(model, ga, x, y, draws, config)[0])
    model, ga, params = network()
    opt = SGD(params, lr=0.1)
    T.backward(training.step_loss(model, ga, x, y, draws, config)[0])
    for (name, p), (_, q) in zip(params, free):
        assert np.shares_memory(p.grad, opt.grad), name
        np.testing.assert_array_equal(p.grad, q.grad, err_msg=name)
    np.testing.assert_array_equal(
        opt.grad, np.concatenate([p.grad.ravel() for _, p in opt.params]))
    views = [p.grad for _, p in params]
    opt.zero_grad()
    assert not opt.grad.any()
    assert all(p.grad is view for (_, p), view in zip(params, views))


def test_sgd_lr_scale_and_decay_override():
    """A ga_params tensor takes GA_LR_SCALE and no decay; a params tensor
    lr scale 1 and WEIGHT_DECAY."""
    p = Tensor(np.array([[2.0]]), requires_grad=True)
    q = Tensor(np.array([[2.0]]), requires_grad=True)
    opt = SGD([("q", q)], lr=0.1, ga_params=[("p", p)])
    p.grad[...], q.grad[...] = 1.0, 1.0
    opt.step()
    np.testing.assert_allclose(p.values, [[2.0 - 0.1 * GA_LR_SCALE]])
    np.testing.assert_allclose(q.values, [[2.0 - 0.1 * (1.0 + WEIGHT_DECAY * 2.0)]])


def test_sgd_shared_parameter_stepped_once():
    """A tensor listed three times, the last in ga_params, is stepped once,
    in the regime of its first listing."""
    p = Tensor(np.array([[1.0]]), requires_grad=True)
    opt = SGD([("a", p), ("b", p)], lr=0.1, ga_params=[("c", p)])
    p.grad[...] = 1.0
    opt.step()
    assert [name for name, _ in opt.params] == ["a"]
    np.testing.assert_array_equal(p.values, [[1.0 - 0.1 * (1.0 + WEIGHT_DECAY * 1.0)]])


def test_sgd_updates_parameters_in_place_through_one_vector():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    b = Tensor(np.array([[5.0]]), requires_grad=True)
    opt = SGD([("a", a)], lr=0.5, ga_params=[("b", b), ("a2", a)])
    np.testing.assert_array_equal(opt.flat, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.shares_memory(a.values, opt.flat) and np.shares_memory(b.values, opt.flat)
    held, a0 = a.values, a.values.copy()
    a.grad[...] = 1.0  # b.grad is never written: a zero gradient
    opt.step()
    assert a.values is held
    va = 1.0 + WEIGHT_DECAY * a0
    a1 = a0 - 0.5 * va
    np.testing.assert_array_equal(held, a1)
    np.testing.assert_array_equal(b.values, [[5.0]])
    b.grad[...] = 1.0
    opt.step()
    a2 = a1 - 0.5 * (MOMENTUM * va + (1.0 + WEIGHT_DECAY * a1))
    np.testing.assert_array_equal(opt.flat, [*a2.ravel(), 5.0 - 0.5 * GA_LR_SCALE])


@pytest.mark.parametrize("field", ["values", "grad"])
def test_sgd_rejects_parameter_rebound_after_construction(field):
    """A parameter whose values or grad is no longer a view of the
    optimizer's vectors would be stepped, or its gradient read, nowhere:
    step names it and steps nothing."""
    p = Tensor(np.array([[1.0]]), requires_grad=True)
    q = Tensor(np.array([[1.0]]), requires_grad=True)
    opt = SGD([("p", p), ("q", q)], lr=0.1)
    opt.grad[:] = 1.0
    setattr(q, field, np.array([[2.0]]))
    with pytest.raises(AfmError, match="^parameter 'q' was rebound after the optimizer "
                                       "was built"):
        opt.step()
    np.testing.assert_array_equal(opt.flat, [1.0, 1.0])
    np.testing.assert_array_equal(q.values, [[2.0]] if field == "values" else [[1.0]])


def test_sgd_rejects_nonfinite_gradient():
    p = Tensor(np.array([[1.0]]), requires_grad=True)
    q = Tensor(np.array([[1.0]]), requires_grad=True)
    opt = SGD([("p", p), ("q", q)], lr=0.1)
    p.grad[...], q.grad[...] = 1.0, np.nan
    with pytest.raises(NumericError, match="parameter 'q'"):
        opt.step()


# ----------------------------------------------------------------------- loss

def test_soft_cross_entropy_uniform():
    # equal logits: every class has probability 1/3
    loss = T.kl_from_logits(T.constant(np.zeros((4, 3))), np.eye(3)[[0, 1, 2, 0]])
    np.testing.assert_allclose(float(loss.values), np.log(3.0))


def test_soft_kl_divergence_defines_zero_log_zero():
    # logits log(p) give softmax p, since each row of p sums to 1
    logits = T.constant(np.log([[0.7, 0.2, 0.1], [0.2, 0.5, 0.3]]))
    targets = T.constant(np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]))
    kl = T.kl_from_logits(logits, targets)
    expected = (np.log(1 / 0.7) + 0.5 * np.log(0.5 / 0.2)) / 2
    np.testing.assert_allclose(float(kl.values), expected, rtol=1e-12)


def test_mixing_loss_gives_gate_no_gradient_when_prediction_matches():
    """With p(z) = s the mixing term is at its minimum over the gate
    weights. A cross-entropy mixing term would still push the raw weights
    towards one-hot, because H(s) falls as the weights saturate."""
    model = Model([2, 2], 2, source=glorot(np.random.default_rng(0)))
    model.head1.weight.values = np.eye(2)
    y = one_hot(np.array([0, 1, 0, 1]), 2)
    groups = np.array([[0, 1], [2, 3], [1, 2]])
    raw = T.parameter(np.array([[0.9, 0.2], [0.3, 0.6], [0.7, 0.4]]))
    interp = interpolate(gather_members(T.constant(np.zeros((4, 2))), y, groups), raw)
    # logits log(s) through an identity classifier give p(z) = s
    matched = InterpolationBatch(features=T.constant(np.log(interp.soft_labels.values)),
                                 soft_labels=interp.soft_labels, weights=interp.weights)
    loss = compute_loss(model, T.constant(np.zeros((4, 2))), y, matched,
                        tiny_config(lam=1.0, mode="afm"))
    T.backward(loss)
    np.testing.assert_allclose(raw.grad, 0.0, atol=1e-9)
    np.testing.assert_allclose(float(loss.values), 0.0, atol=1e-9)


def test_compute_loss_lambda_zero_is_org_only():
    model = Model([8, 8], 3, source=glorot(np.random.default_rng(0)))
    x = T.constant(np.random.default_rng(1).standard_normal((6, 8)))
    y = one_hot(np.array([0, 1, 2, 0, 1, 2]), 3)
    cfg = tiny_config(lam=0.0, mode="baseline")
    feats = model.extract_features(x)
    loss = compute_loss(model, feats, y, None, cfg)
    z = model.classify(feats, head=2).values
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(float(loss.values), -(y * log_p).sum(axis=1).mean(),
                               rtol=1e-12)


def test_compute_loss_finite_when_a_probability_underflows():
    # a logit gap of 1e3 gives the given label probability exp(-1e3) = 0
    # in float64; the loss is the gap itself
    model = Model([2], 2, source=glorot(np.random.default_rng(0)))
    model.head2.weight.values = np.array([[1e3, 0.0], [0.0, 0.0]])
    feats = T.constant(np.array([[1.0, 0.0]]))
    loss = compute_loss(model, feats, one_hot(np.array([1]), 2), None,
                        tiny_config(lam=0.0, mode="baseline"))
    np.testing.assert_allclose(float(loss.values), 1e3)


def test_compute_loss_convex_combination():
    model = Model([8, 8], 3, source=glorot(np.random.default_rng(0)))
    rng = np.random.default_rng(1)
    x = T.constant(rng.standard_normal((6, 8)))
    labels_int = np.array([0, 1, 2, 0, 1, 2])
    y = one_hot(labels_int, 3)
    feats = model.extract_features(x)
    groups = sample_groups(labels_int, 4, 2, rng=rng)
    ga = GAParams(8, 2, source=glorot(np.random.default_rng(2)))
    members = gather_members(feats, y, groups)
    interp = interpolate(members, attend(members.features, ga))

    losses = {}
    for lam in (0.0, 0.3, 1.0):
        cfg = tiny_config(lam=lam, mode="afm")
        losses[lam] = float(compute_loss(model, feats, y, interp, cfg).values)
    mixed = float(compute_loss(model, feats, y, interp, tiny_config(lam=0.3, mode="afm")).values)
    np.testing.assert_allclose(mixed, 0.3 * losses[1.0] + 0.7 * losses[0.0], rtol=1e-9)


def test_compute_loss_needs_interp_when_lambda_positive():
    model = Model([8, 8], 3, source=glorot(np.random.default_rng(0)))
    feats = model.extract_features(T.constant(np.zeros((2, 8))))
    y = one_hot(np.array([0, 1]), 3)
    with pytest.raises(ConfigError):
        compute_loss(model, feats, y, None, tiny_config(lam=0.5, mode="afm"))


# ------------------------------------------------------------------- training

def test_train_baseline_smoke():
    state, log = train(tiny_dataset(), tiny_config(mode="baseline", lam=0.0))
    assert len(log.rows) == 2
    assert 0.0 <= log.rows[-1]["test_acc"] <= 1.0
    assert np.isnan(log.rows[-1]["mean_attn_clean"])  # no groups in baseline


def test_train_afm_smoke_logs_attention():
    state, log = train(tiny_dataset(), tiny_config(mode="afm"))
    row = log.rows[-1]
    assert 0.0 < row["mean_attn_clean"] < 1.0
    assert 0.0 < row["mean_attn_noisy"] < 1.0
    assert state.ga is not None


@pytest.mark.parametrize("mode", ["standard-mixup", "manifold-mixup"])
def test_train_mixup_modes(mode):
    state, log = train(tiny_dataset(), tiny_config(mode=mode))
    assert len(log.rows) == 2
    assert state.ga is None


@pytest.mark.parametrize("mode,lam", [("afm", 0.75), ("baseline", 0.0)])
def test_train_rejects_nonfinite_loss(mode, lam):
    # the first update takes the weights near 1e300, so the second
    # step's forward pass overflows
    with pytest.raises(NumericError, match="non-finite loss at epoch 0, step 1"), \
            np.errstate(over="ignore", invalid="ignore"):
        train(tiny_dataset(), tiny_config(mode=mode, lam=lam, lr=1e300))


def test_train_skips_a_batch_fixed_ratio_grouping_cannot_group(monkeypatch):
    """130 training samples in batches of 128 leave a last batch of 2: one
    class has no inter-class group, two have no intra-class one. That batch
    is skipped, drawing nothing, so each of the 3 epochs takes one step."""
    ds = inject_noise(generate("blobs", 2, 65, 10, 8, 4.0, seed=0), "symmetric", 0.4, seed=0)
    sampled, sample = [], training.sample_groups

    def recorded(labels, *args, **kwargs):
        sampled.append(len(labels))
        return sample(labels, *args, **kwargs)

    monkeypatch.setattr(training, "sample_groups", recorded)
    state, log = train(ds, TrainConfig(hidden=(8,), epochs=3, batch_size=128, intra_ratio=0.5))
    assert state.step == 3 and sampled == [128, 128, 128]
    assert all(np.isfinite(row["train_loss"]) for row in log.rows)


@pytest.mark.parametrize("classes,per_class,gap", [
    (2, 40, "training split: a single class; inter groups unachievable"),
    (3, 1, "training split: no class has >= 2 members; intra groups unachievable")])
def test_train_rejects_a_split_fixed_ratio_grouping_cannot_group(monkeypatch, classes,
                                                                  per_class, gap):
    """A training split of one given class, or with no class of K rows,
    cannot hold a batch's fixed-ratio groups: train() raises before any
    network is built."""
    ds = generate("blobs", classes, per_class, 5, 8, 4.0, seed=0)
    if classes == 2:
        ds = replace(ds, given_labels=np.where(np.arange(len(ds.features)) < ds.n_train,
                                               0, ds.clean_labels))
    monkeypatch.setattr(training, "Model", None)
    with pytest.raises(ConfigError, match=f"^{gap}$"):
        train(ds, TrainConfig(hidden=(8,), batch_size=32, intra_ratio=0.5))


def test_train_rejects_nonfinite_test_logits():
    # one step on all 120 samples leaves finite weights near 1e300, whose
    # test logits overflow; the loss and gradients of that step are finite
    cfg = tiny_config(mode="baseline", lam=0.0, epochs=1, batch_size=128, lr=1e300)
    with pytest.raises(NumericError, match="test evaluation at epoch 0"), \
            np.errstate(over="ignore", invalid="ignore"):
        train(tiny_dataset(), cfg)


def test_afm_step_runs_backbone_once(monkeypatch):
    # 120 training samples in batches of 5 give 24 steps; the 25th call
    # is the end-of-epoch test evaluation
    calls = []
    forward = Model.extract_features

    def counted(self, batch):
        calls.append(batch.values.shape)
        return forward(self, batch)

    monkeypatch.setattr(Model, "extract_features", counted)
    state, _ = train(tiny_dataset(), tiny_config(mode="afm", epochs=1, batch_size=5))
    assert state.step == 24
    assert len(calls) == 25


def test_intra_ratio_alone_selects_fixed_ratio_groups(monkeypatch):
    # setting intra_ratio is enough: the first round(0.9 * m) groups of each
    # batch are intra-class and the rest inter-class
    batches = []

    def recorded(labels, m, k, *args, **kwargs):
        groups = sample_groups(labels, m, k, *args, **kwargs)
        batches.append((np.asarray(labels), m, groups))
        return groups

    monkeypatch.setattr(training, "sample_groups", recorded)
    state, _ = train(tiny_dataset(), tiny_config(mode="afm", epochs=1, intra_ratio=0.9))
    assert len(batches) == state.step > 0
    for labels, m, groups in batches:
        member_labels = labels[groups]
        intra = (member_labels == member_labels[:, :1]).all(axis=1)
        assert intra.tolist() == [True] * round(0.9 * m) + [False] * (m - round(0.9 * m))


@pytest.mark.parametrize("mode", ["afm", "standard-mixup", "manifold-mixup"])
def test_lambda_zero_runs_no_mixing(monkeypatch, mode):
    # the mixing term would have weight 0: the run is the baseline, bit for bit
    def unused(*args, **kwargs):
        raise AssertionError("lambda 0 sampled groups, attended or interpolated")

    for name in ("sample_groups", "gather_members", "attend", "interpolate"):
        monkeypatch.setattr(training, name, unused)
    state, log = train(tiny_dataset(), tiny_config(mode=mode, lam=0.0, k=4))
    assert state.ga is None
    base_state, base_log = train(tiny_dataset(), tiny_config(mode="baseline", lam=0.0))
    assert repr(log.rows) == repr(base_log.rows)
    assert np.isnan(log.final("mean_attn_clean")) and np.isnan(log.final("mean_attn_noisy"))
    for (_, p), (_, q) in zip(state.model.parameters(), base_state.model.parameters()):
        assert p.values.tobytes() == q.values.tobytes()


@pytest.mark.parametrize("mode,lam,most", [
    ("afm", 0.75, 15.13), ("baseline", 0.0, 4.13),
    ("standard-mixup", 0.75, 13.13), ("manifold-mixup", 0.75, 11.13)])
def test_tape_nodes_per_step(monkeypatch, mode, lam, most):
    """Tape nodes made per step over 2 epochs of the default benchmark data,
    end-of-epoch evaluation included: a change that adds nodes fails here."""
    ds = inject_noise(generate("blobs", 3, 1000, 250, 32, 4.0, seed=0), "symmetric", 0.4, seed=0)
    made = [0]
    make = T._make

    def counted(*args):
        made[0] += 1
        return make(*args)

    monkeypatch.setattr(T, "_make", counted)
    state, _ = train(ds, TrainConfig(mode=mode, lam=lam, k=2, epochs=2, seed=0))
    assert state.step == 48
    assert made[0] / state.step <= most


def test_train_rejects_a_run_that_can_take_no_step(monkeypatch):
    """Group size above the training rows a run uses would run no step and
    log NaN losses, and a dataset with no test rows a NaN test accuracy;
    train() raises before any network is built. At exactly K rows each
    epoch takes one step."""
    ds = inject_noise(generate("blobs", 3, 10, 5, 8, 4.0, seed=0), "symmetric", 0.4, seed=0)
    all_train = NoisyDataset(ds.features[:30], ds.given_labels[:30], ds.clean_labels[:30],
                             30, ds.n_classes)
    with monkeypatch.context() as patch:
        patch.setattr(training, "Model", None)
        with pytest.raises(ConfigError, match="group size 40 exceeds the 30 training rows"):
            train(ds, TrainConfig(k=40, batch_size=64, hidden=(8,), epochs=2))
        with pytest.raises(ConfigError, match="all 30 rows train: no test rows"):
            train(all_train, TrainConfig(k=2, batch_size=8, hidden=(8,), epochs=2))
    state, log = train(ds, TrainConfig(k=30, batch_size=64, hidden=(8,), epochs=2))
    assert state.step == 2 and np.isfinite(log.final("train_loss"))


@pytest.mark.parametrize("mode,lam,most", [("afm", 0.75, 115.8), ("baseline", 0.0, 39.8)])
def test_python_calls_per_step(mode, lam, most):
    """Calls of afm's own Python functions per step on the default benchmark
    data, counted as the difference between a 2-epoch and a 1-epoch train():
    24 steps and one end-of-epoch evaluation, without the set-up both runs
    share. A change that adds Python work to the step fails here. Only
    frames whose code lives in the afm package count, so the number does
    not depend on numpy's version."""
    ds = inject_noise(generate("blobs", 3, 1000, 250, 32, 4.0, seed=0), "symmetric", 0.4, seed=0)
    package = os.path.dirname(T.__file__) + os.sep

    def calls_and_steps(epochs):
        calls = [0]

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                calls[0] += 1

        sys.setprofile(profile)
        try:
            state, _ = train(ds, TrainConfig(mode=mode, lam=lam, epochs=epochs, seed=0))
        finally:
            sys.setprofile(None)
        return calls[0], state.step

    (calls1, steps1), (calls2, steps2) = calls_and_steps(1), calls_and_steps(2)
    assert (steps1, steps2) == (24, 48)
    assert (calls2 - calls1) / (steps2 - steps1) <= most


def test_attention_stats_matches_per_group_loop():
    rng = np.random.default_rng(3)
    batch_idx = rng.permutation(40)[:20]
    noise_mask = rng.random(40) < 0.4
    groups = sample_groups(np.zeros(20, dtype=int), 50, 3, rng=rng)
    weights = rng.random((50, 3))
    # reference: per group, skip all-clean and all-noisy groups
    expect = [0.0, 0, 0.0, 0]
    for g, w in zip(groups, weights):
        noisy = noise_mask[batch_idx[g]]
        if noisy.any() and not noisy.all():
            for is_noisy, wi in zip(noisy, w):
                expect[2 if is_noisy else 0] += wi
                expect[3 if is_noisy else 1] += 1
    assert expect[1] > 0 and expect[3] > 0
    got = _attention_stats(weights, noise_mask[batch_idx[groups]])
    assert all(type(v) is float for v in got)
    np.testing.assert_allclose(got, [expect[0] / expect[1], expect[2] / expect[3]],
                               rtol=1e-12)
    # without a group that mixes clean and noisy members, both means are NaN
    assert np.isnan(_attention_stats(weights, np.zeros((50, 3), bool))).all()


def test_afm_step_validates_gathers_and_scatters_once(monkeypatch):
    """Per afm step, the groups are validated once and the member gradient
    reaches the backbone features through one scatter, which attend and
    interpolate share."""
    calls = {"member_selectors": 0, "_scatter_rows": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(grouping, "member_selectors")
    counted(mixing, "member_selectors")
    counted(T, "_scatter_rows")
    state, _ = train(tiny_dataset(), tiny_config(mode="afm", epochs=2))
    assert state.step > 0
    assert calls == {"member_selectors": state.step, "_scatter_rows": state.step}


def config_id(config):
    heads = "shared" if config.shared_classifiers else "unshared"
    if config.mode != "afm":
        return f"{config.mode}-{heads}"
    return f"afm-k{config.k}-{config.interaction}-{config.projections}-{heads}"


def test_step_loss_reaches_every_parameter():
    """At 20 check points per configuration training can run, one backward
    of the step loss gives every parameter leaf a nonzero gradient, a shared
    projection or head being one leaf: step_loss_case redraws a point where
    all relus of a layer are off. Only baseline with unshared heads leaves
    head1, the interpolation classifier, unread: lambda 0 never uses it."""
    wrong = []
    rng = np.random.default_rng(2)  # without the redraw, meets a K=4 point with att1 all off
    for config in verify.LOSS_CONFIGS:
        unread = config.mode == "baseline" and not config.shared_classifiers
        for _ in range(20):
            names, point, loss = verify.step_loss_case(config, rng)
            leaves = [T.parameter(v) for v in point]
            T.backward(loss(leaves))
            for name, leaf in zip(names, leaves):
                reached = leaf.grad is not None and bool(leaf.grad.any())
                if reached == (unread and name.startswith("classifier.head1.")):
                    wrong.append(f"{config_id(config)}: {name}")
    assert len(verify.LOSS_CONFIGS) == 60
    assert wrong == []


@pytest.mark.parametrize("config", verify.LOSS_CONFIGS, ids=config_id)
def test_loss_check_catches_grad_sign_fault(config, monkeypatch):
    # each configuration is checked on its own, so one whose check
    # differentiates nothing cannot hide behind the others; the fault
    # negates every gradient the tape's backward computes
    backward = T.backward
    monkeypatch.setattr(T, "backward", lambda root: backward(T.smul(root, -1.0)))
    assert verify.check_step_loss([config])[0] > 1e-5


def test_train_learns_something():
    ds = tiny_dataset(rho=0.0)
    state, log = train(ds, tiny_config(mode="baseline", lam=0.0, epochs=15))
    assert log.rows[-1]["test_acc"] > 0.8  # clean separable blobs


def test_metrics_determinism():
    a = train(tiny_dataset(), tiny_config(mode="afm"))[1]
    b = train(tiny_dataset(), tiny_config(mode="afm"))[1]
    assert a.rows == b.rows


def test_determinism_check_passes_baseline_nan_columns():
    # baseline runs log NaN attention means, which never compare equal with ==
    cfg = tiny_config(mode="baseline", lam=0.0)
    log = train(tiny_dataset(), cfg)[1]
    assert np.isnan(log.rows[-1]["mean_attn_clean"])
    passed, _ = check_determinism(tiny_dataset(), cfg, log)
    assert passed


def test_seed_changes_trajectory():
    a = train(tiny_dataset(), tiny_config(mode="afm", seed=0))[1]
    b = train(tiny_dataset(), tiny_config(mode="afm", seed=1))[1]
    assert a.rows != b.rows


def test_lr_schedule_recorded():
    # lr falls by LR_DECAY = 0.1 every LR_DECAY_EVERY = 30 epochs
    cfg = tiny_config(mode="baseline", lam=0.0, epochs=31, lr=0.1)
    log = train(tiny_dataset(), cfg)[1]
    assert log.rows[29]["lr"] == pytest.approx(0.1)
    assert log.rows[30]["lr"] == pytest.approx(0.01)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lam=1.5).validate()
    with pytest.raises(ConfigError):
        TrainConfig(k=1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(mode="dropout").validate()
    with pytest.raises(ConfigError):
        TrainConfig(interaction="avg").validate()
    with pytest.raises(ConfigError, match="epochs"):
        TrainConfig(epochs=0).validate()  # a run without epochs has no result
    for intra_ratio in (1.5, -0.5, float("nan")):
        with pytest.raises(ConfigError, match="intra_ratio"):
            TrainConfig(intra_ratio=intra_ratio).validate()


def test_bit_digest_configs_validate():
    """Every run of scripts/bit_digests.py, which the suite does not run,
    is a config train() accepts, so dropping a field cannot break it unseen."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bit_digests.py")
    spec = importlib.util.spec_from_file_location("bit_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)  # defines CONFIGS; main runs only as a script
    for overrides in script.CONFIGS.values():
        TrainConfig(epochs=4, seed=0, **overrides).validate()


def test_baseline_with_positive_lambda_rejected_before_training():
    # baseline makes no interpolations, so a positive lambda could only
    # fail at the first step; validation names it instead
    with pytest.raises(ConfigError, match="baseline.*lambda = 0"):
        TrainConfig(mode="baseline").validate()
    with pytest.raises(ConfigError, match="baseline"):
        train(tiny_dataset(), tiny_config(mode="baseline", lam=0.5))
    TrainConfig(mode="baseline", lam=0.0).validate()


def test_metrics_csv(tmp_path):
    log = train(tiny_dataset(), tiny_config(mode="afm"))[1]
    p = tmp_path / "metrics.csv"
    log.to_csv(p)
    lines = p.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["epoch", "train_loss", "test_acc"]
    assert len(lines) == 3


def test_state_roundtrip_preserves_predictions(tmp_path):
    ds = tiny_dataset()
    state, _ = train(ds, tiny_config(mode="afm"))
    p = tmp_path / "state.bin"
    save_state(p, state)
    model, ga = load_state(p)
    x = ds.features[ds.n_train:]
    np.testing.assert_array_equal(model.inference_predict(x),
                                  state.model.inference_predict(x))
    assert ga is not None and ga.k == state.ga.k


@pytest.mark.parametrize("config", [
    tiny_config(epochs=1), tiny_config(epochs=1, projections="shared"),
    tiny_config(epochs=1, interaction="concat", projections="none"),
    tiny_config(epochs=1, interaction="mul", projections="shared", shared_classifiers=False),
    *(replace(config, epochs=1) for config in verify.LOSS_CONFIGS)],
    ids=["sum-distinct", "sum-shared", "concat-none", "mul-shared-unshared-heads",
         *map(config_id, verify.LOSS_CONFIGS)])
def test_checkpoint_roundtrip_restores_every_parameter(config):
    """A saved and loaded run has the architecture of the run, the same
    parameter names, the attention net's included, and bit-equal values:
    on tiny_config's backbone, then in every configuration of
    verify.LOSS_CONFIGS."""
    state, _ = train(tiny_dataset(), config)
    passed, detail = verify.check_checkpoint_roundtrip(state)
    assert passed, detail


def test_checkpoint_roundtrip_catches_a_misread_interaction(monkeypatch):
    """A loader that reads mul for a sum run fails the check, though every
    parameter keeps the name and shape it was loaded under: the check compares
    the interaction itself, not only through the ga.att1.<interaction> names."""
    state, _ = train(tiny_dataset(), tiny_config(epochs=1))
    assert state.ga.interaction == "sum"

    def misreading(path):
        model, ga = load_state(path)
        ga.interaction = "mul"
        return model, ga

    monkeypatch.setattr(verify, "load_state", misreading)
    assert not verify.check_checkpoint_roundtrip(state)[0]


def test_checkpoint_roundtrip_catches_swapped_attention_records(monkeypatch):
    """A loader that swaps two projection weights of one shape fails the
    check, though the backbone and heads load intact."""
    state, _ = train(tiny_dataset(), tiny_config(epochs=1))

    def swapping(path):
        model, ga = load_state(path)
        a, b = ga.proj[0].weight, ga.proj[1].weight
        a.values, b.values = b.values, a.values
        return model, ga

    monkeypatch.setattr(verify, "load_state", swapping)
    assert not verify.check_checkpoint_roundtrip(state)[0]


def test_inference_equivalence_catches_a_dropped_bias(monkeypatch):
    """Criterion 8 compares against a numpy forward pass of its own, so a
    fault in the tape's dense layer fails it."""
    ds = tiny_dataset()
    state, _ = train(ds, tiny_config(epochs=1))
    x = ds.features[ds.n_train:]
    assert verify.check_inference_equivalence(state.model, x)[0]
    affine = T.affine
    monkeypatch.setattr(T, "affine", lambda x, w, b, relu=False: affine(
        x, w, T.constant(np.zeros_like(b.values)), relu))
    passed, detail = verify.check_inference_equivalence(state.model, x)
    assert not passed and "logits bit-equal False" in detail
