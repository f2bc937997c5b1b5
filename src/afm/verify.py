"""Self-contained property suite backing the `verify` command.

Each property returns (name, passed, detail). The `inject_fault` hook
("grad-sign") flips the analytic gradient sign inside the gradient-check
property, for testing that failures are detected and named.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np

from . import tensor as T
from .data import generate, inject_noise, one_hot
from .errors import SubgradientWarning
from .grouping import GAParams, attend, pure_noisy_group_ratio, sample_groups
from .mixing import interpolate
from .model import Model
from .training import (MetricsLog, TrainConfig, compute_loss, save_state,
                       load_state, train)


def _small_dataset(seed=0, rho=0.4):
    ds = generate("blobs", classes=3, per_class_train=60, per_class_test=20,
                  d0=8, separation=4.0, seed=seed)
    return inject_noise(ds, "symmetric", rho, seed=seed)


def _random_ga_setup(rng, n=6, d=5, c=3, m=4, k=2, projections="distinct"):
    feats = T.constant(rng.normal(size=(n, d)))
    labels = one_hot(rng.integers(0, c, size=n), c)
    ga = GAParams(d, k, "sum", projections, rng)
    groups = sample_groups(rng.integers(0, c, size=n), m, k, rng=rng)
    return feats, labels, ga, groups


def check_gradients(inject_fault=None):
    """Finite-difference check over every primitive at random points."""
    rng = np.random.default_rng(7)
    sign = -1.0 if inject_fault == "grad-sign" else 1.0
    cases = {
        "matmul": lambda ls: T.sum_reduce(T.matmul(ls[0], ls[1])),
        "add": lambda ls: T.sum_reduce(T.add(ls[0], ls[1])),
        "scalar-multiply": lambda ls: T.sum_reduce(T.smul(ls[0], 1.7)),
        "elementwise-multiply": lambda ls: T.sum_reduce(T.mul(ls[0], ls[1])),
        "concat-last-dim": lambda ls: T.sum_reduce(
            T.mul(T.concat_last(ls),
                  T.constant(np.arange(1.0, 1.0 + 2 * ls[0].values.size)
                             .reshape(ls[0].values.shape[0], -1)))),
        "sum-reduce": lambda ls: T.sum_reduce(T.mul(ls[0], ls[0])),
        "mean": lambda ls: T.mean(T.mul(ls[0], ls[0])),
        "relu": lambda ls: T.sum_reduce(T.relu(ls[0])),
        "sigmoid": lambda ls: T.sum_reduce(T.sigmoid(ls[0])),
        "softmax": lambda ls: T.sum_reduce(
            T.mul(T.softmax(ls[0]), T.constant(np.arange(1.0, 1.0 + ls[0].values.size).reshape(ls[0].values.shape)))),
        "log": lambda ls: T.sum_reduce(T.log(ls[0])),
        "reciprocal": lambda ls: T.sum_reduce(T.reciprocal(ls[0])),
        # row 2 is taken three times and row 1 never: a sample can sit in
        # several groups, and a batch row need not be in any
        "take-rows": lambda ls: T.sum_reduce(
            T.mul(T.take_rows(ls[0], np.array([2, 0, 2, 3, 2])),
                  T.constant(np.arange(1.0, 21.0).reshape(5, 4)))),
        "scale-rows": lambda ls: T.sum_reduce(
            T.mul(T.scale_rows(ls[0], ls[1]),
                  T.constant(np.arange(1.0, 13.0).reshape(3, 4)))),
    }
    worst = 0.0
    for name, fn in cases.items():
        for _ in range(5):
            if name in ("log", "reciprocal"):
                pts = [0.5 + rng.uniform(size=(3, 4))]
            elif name in ("matmul", "add", "elementwise-multiply", "concat-last-dim"):
                pts = [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]
                if name == "matmul":
                    pts[1] = rng.normal(size=(4, 2))
            elif name == "take-rows":
                pts = [rng.normal(size=(4, 4))]
            elif name == "scale-rows":
                pts = [rng.normal(size=(3, 4)), rng.normal(size=(3, 1))]
            else:
                pts = [rng.normal(size=(3, 4))]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SubgradientWarning)
                err = _grad_check_signed(fn, pts, sign)
            worst = max(worst, err)
    return worst


def _grad_check_signed(fn, point, sign, epsilon=1e-5):
    """grad_check with an optional sign flip on the analytic gradient,
    used by the fault-injection hook."""
    if sign == 1.0:
        return T.grad_check(fn, [T.constant(p) for p in point], epsilon)
    leaves = [T.parameter(np.asarray(p, dtype=np.float64).copy()) for p in point]
    T.backward(fn(leaves))
    max_err = 0.0
    for li, leaf in enumerate(leaves):
        grad = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.values)
        for i in range(leaf.values.size):
            probe = [l.values.copy() for l in leaves]
            probe[li].flat[i] += epsilon
            f_plus = float(fn([T.constant(p) for p in probe]).values)
            probe[li].flat[i] -= 2 * epsilon
            f_minus = float(fn([T.constant(p) for p in probe]).values)
            fd = (f_plus - f_minus) / (2 * epsilon)
            ad = sign * float(grad.flat[i])
            max_err = max(max_err, abs(ad - fd) / max(1.0, abs(ad), abs(fd)))
    return max_err


def build_afm_loss_graph(leaves, labels, groups, config):
    """The afm training loss as a function of (inputs, backbone, classifier,
    projection and attention parameters): the same extract_features,
    attend, interpolate and compute_loss calls that train() makes."""
    x, *params = leaves
    d0, d = params[0].values.shape
    model = Model([d0, d], labels.shape[1], shared_classifiers=True)
    ga = GAParams(d, config.k, config.interaction, config.projections)
    layers = [*model.backbone.layers, model.classifiers.head1, *ga.proj,
              ga.att1, ga.att2]
    for layer, (w, b) in zip(layers, zip(params[::2], params[1::2])):
        layer.weight, layer.bias = w, b
    feats = model.extract_features(x)
    interp = interpolate(feats, labels, attend(feats, groups, ga),
                         config.mixup_epsilon)
    return compute_loss(model, feats, labels, interp, config)


def afm_loss_grad_check(n_points=3, seed=11):
    """Finite-difference check of the full afm loss. Half the groups are
    intra-class, so their soft labels are one-hot and the KL mixing term
    meets 0 * log 0."""
    rng = np.random.default_rng(seed)
    n, d0, d, c, m, k = 5, 3, 4, 3, 4, 2
    config = TrainConfig(k=k)
    shapes = [(d0, d), (d, c)] + [(d, d)] * k + [(d, d), (d, k)]
    worst = 0.0
    for _ in range(n_points):
        labels_int = rng.permutation([0, 0, 1, 1, 2])
        groups = sample_groups(labels_int, m, k, "fixed-ratio", 0.5, rng)
        labels = one_hot(labels_int, c)
        point = [rng.normal(size=(n, d0))]
        for shape in shapes:
            point += [rng.normal(size=shape) * 0.5,
                      rng.normal(size=(1, shape[1])) * 0.1]
        fn = lambda ls: build_afm_loss_graph(ls, labels, groups, config)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SubgradientWarning)
            worst = max(worst, T.grad_check(fn, [T.constant(p) for p in point], 1e-5))
    return worst


def run_all(inject_fault=None):
    """Run every property; returns a list of (name, passed, detail)."""
    results = []
    rng = np.random.default_rng(42)

    err = check_gradients(inject_fault)
    results.append(("grad-check-primitives", err < 1e-5, f"max rel err {err:.2e}"))

    err = afm_loss_grad_check()
    results.append(("grad-check-afm-loss", err < 1e-5, f"max rel err {err:.2e}"))

    feats, labels, ga, groups = _random_ga_setup(rng)
    att = attend(feats, groups, ga)
    w = att.weights.values
    results.append(("attention-weight-range", bool(np.all((w > 0) & (w < 1))),
                    f"range [{w.min():.3f}, {w.max():.3f}]"))

    # order swap with shared projections + sum interaction is exactly invariant
    feats2, _, ga_shared, groups2 = _random_ga_setup(rng, projections="shared")
    swapped = groups2[:, ::-1]
    wa = attend(feats2, groups2, ga_shared).weights.values
    wb = attend(feats2, swapped, ga_shared).weights.values
    results.append(("order-invariance-shared-projections",
                    bool(np.array_equal(wa, wb)),
                    f"max abs diff {np.abs(wa - wb).max():.2e}"))

    hits = 0
    for _ in range(100):
        f3, _, ga3, g3 = _random_ga_setup(rng, projections="distinct")
        d = np.abs(attend(f3, g3, ga3).weights.values
                   - attend(f3, g3[:, ::-1], ga3).weights.values).max()
        hits += d > 1e-9
    results.append(("order-sensitivity-distinct-projections", hits >= 99,
                    f"{hits}/100 trials differ"))

    exact = Fraction(200, 1000) * Fraction(199, 999)
    got = pure_noisy_group_ratio(200, 1000, 2)
    results.append(("pure-noisy-ratio-closed-form",
                    abs(got - float(exact)) < 1e-12, f"{got!r} vs {float(exact)!r}"))

    ds = _small_dataset()
    n_noisy = ds.train_noise_count()
    n_tr = ds.n_train
    p = pure_noisy_group_ratio(n_noisy, n_tr, 2)
    trials = 20000
    mask = ds.noise_mask[ds.train_idx]
    g = sample_groups(ds.given_labels[ds.train_idx], trials, 2, rng=rng)
    freq = mask[g].all(axis=1).mean()
    sigma = np.sqrt(p * (1 - p) / trials)
    results.append(("pure-noisy-ratio-monte-carlo",
                    abs(freq - p) < 3 * sigma + 1e-12,
                    f"closed {p:.5f} empirical {freq:.5f} (3 sigma {3*sigma:.5f})"))

    feats, labels, ga, groups = _random_ga_setup(rng, n=12, m=40)
    interp = interpolate(feats, labels, attend(feats, groups, ga))
    y = interp.soft_labels.values
    simplex_ok = bool(np.all(y >= -1e-12) and np.all(np.abs(y.sum(axis=1) - 1) < 1e-9))
    results.append(("soft-label-simplex", simplex_ok,
                    f"row-sum err {np.abs(y.sum(axis=1)-1).max():.2e}"))

    hull_ok = True
    for gi, (i, j) in enumerate(interp.groups):
        xi = feats.values[i]
        xj = feats.values[j]
        xp = interp.features.values[gi]
        # reconstruct the convex coefficient from the blend
        denom = xi - xj
        idx = np.argmax(np.abs(denom))
        a = (xp - xj)[idx] / denom[idx]
        hull_ok &= -1e-9 <= a <= 1 + 1e-9
        hull_ok &= np.allclose(a * xi + (1 - a) * xj, xp, atol=1e-8)
    results.append(("convex-hull-reconstruction", bool(hull_ok), "K=2 coefficients"))

    from .grouping import AttentionOutput
    raw = rng.uniform(0.1, 0.9, size=(len(groups), 2))
    a1 = interpolate(feats, labels, AttentionOutput(T.constant(raw), groups), 0.0)
    a2 = interpolate(feats, labels, AttentionOutput(T.constant(raw * 3.7), groups), 0.0)
    scale_ok = np.allclose(a1.features.values, a2.features.values, atol=1e-12)
    results.append(("weight-scale-invariance", bool(scale_ok),
                    "common positive scaling leaves interpolations unchanged"))

    cfg = TrainConfig(epochs=2, batch_size=32, hidden=(16, 8), seed=3,
                      lr=0.05, lr_decay_every=10)
    state, log = train(ds, cfg)
    x = ds.features[ds.test_idx][:100]
    pred_inference = state.model.inference_predict(x)
    probs = state.model.classify(state.model.extract_features(T.constant(x)), head=2)
    pred_graph = np.argmax(probs.values, axis=1)
    results.append(("inference-equivalence",
                    bool(np.array_equal(pred_inference, pred_graph)),
                    f"{len(x)} samples"))

    import os
    import tempfile
    with tempfile.TemporaryDirectory() as td:
        ck = os.path.join(td, "ck.bin")
        save_state(ck, state)
        model2, _ = load_state(ck)
        same = all(np.array_equal(p.values, q.values)
                   for (_, p), (_, q) in zip(state.model.parameters(),
                                             model2.parameters()))
    results.append(("checkpoint-roundtrip", same, "bit-exact parameters"))

    _, log_b = train(ds, TrainConfig(epochs=2, batch_size=32, hidden=(16, 8),
                                     seed=3, lr=0.05, lr_decay_every=10))
    det = log.rows == log_b.rows
    results.append(("metrics-determinism", det, "two runs, identical seed"))

    return results
