"""The property checks behind `afm verify` and the acceptance gate.

Each `check_*` function returns (passed, detail); `run_all` and
tests/test_acceptance.py call the same functions.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from fractions import Fraction

import numpy as np

from . import tensor as T
from .data import generate, inject_noise, one_hot
from .errors import SubgradientWarning
from .grouping import (INTERACTIONS, PROJECTION_MODES, GAParams, attend,
                       check_sampled_ratio, pure_noisy_group_ratio, sample_groups)
from .mixing import gather_members, interpolate
from .model import Model, glorot
from .training import (MODES, TrainConfig, draw_step, load_state, save_state,
                       step_loss, train)


def _ramp(rows, cols):
    """Distinct constant weights, so a misrouted gradient cannot pass."""
    return T.constant(np.arange(1.0, 1.0 + rows * cols).reshape(rows, cols))


# name -> (scalar function of the leaves, leaf shapes)
PRIMITIVE_CASES = {
    "matmul": (lambda ls: T.sum_reduce(T.matmul(*ls)), [(3, 4), (4, 2)]),
    "add": (lambda ls: T.sum_reduce(T.add(*ls)), [(3, 4), (3, 4)]),
    "scalar-multiply": (lambda ls: T.sum_reduce(T.smul(ls[0], 1.7)), [(3, 4)]),
    "elementwise-multiply": (lambda ls: T.sum_reduce(T.mul(*ls)), [(3, 4), (3, 4)]),
    "concat-last-dim": (lambda ls: T.sum_reduce(T.mul(T.concat_last(ls), _ramp(3, 8))),
                        [(3, 4), (3, 4)]),
    "sum-reduce": (lambda ls: T.sum_reduce(T.mul(ls[0], ls[0])), [(3, 4)]),
    "mean": (lambda ls: T.mean(T.mul(ls[0], ls[0])), [(3, 4)]),
    "relu": (lambda ls: T.sum_reduce(T.relu(ls[0])), [(3, 4)]),
    "sigmoid": (lambda ls: T.sum_reduce(T.sigmoid(ls[0])), [(3, 4)]),
    "softmax": (lambda ls: T.sum_reduce(T.mul(T.softmax(ls[0]), _ramp(3, 4))), [(3, 4)]),
    "log": (lambda ls: T.sum_reduce(T.log(ls[0])), [(3, 4)]),
    "reciprocal": (lambda ls: T.sum_reduce(T.reciprocal(ls[0])), [(3, 4)]),
    # row 2 is taken three times and row 1 never: a sample can sit in
    # several groups, and a batch row need not be in any
    "gather-rows": (lambda ls: T.sum_reduce(T.mul(T.gather_rows(
        ls[0], np.array([[2, 0], [2, 3], [0, 2]])), _ramp(3, 6))), [(4, 3)]),
    "slice-last": (lambda ls: T.sum_reduce(T.mul(T.slice_last(ls[0], 1, 3), _ramp(3, 2))),
                   [(3, 4)]),
    # a (3, 2*4) member block: the gradient reaches the members and the weights
    "blend-rows": (lambda ls: T.sum_reduce(T.mul(T.blend_rows(ls[0], ls[1]), _ramp(3, 4))),
                   [(3, 8), (3, 2)]),
    # a (2, 3*3) member block; one weight and one bias tensor serve
    # positions 0 and 2, so their gradients add up
    "group-affine": (lambda ls: T.sum_reduce(T.mul(T.group_affine(
        ls[0], [ls[1], ls[2], ls[1]], [ls[3], ls[4], ls[3]]), _ramp(2, 2))),
        [(2, 9), (3, 2), (3, 2), (1, 2), (1, 2)]),
    "normalize-rows": (lambda ls: T.sum_reduce(T.mul(T.normalize_rows(ls[0], 0.5),
                                                     _ramp(3, 4))), [(3, 4)]),
    # strictly positive targets: a probe below t = 0 leaves KL undefined
    "kl-from-logits": (lambda ls: T.kl_from_logits(*ls), [(3, 4), (3, 4)]),
    "kl-from-logits-scaled": (lambda ls: T.kl_from_logits(*ls, 0.75), [(3, 4), (3, 4)]),
    "affine": (lambda ls: T.sum_reduce(T.mul(T.affine(*ls), _ramp(3, 2))),
               [(3, 4), (4, 2), (1, 2)]),
    "affine-relu": (lambda ls: T.sum_reduce(T.mul(T.affine(*ls, relu=True), _ramp(3, 2))),
                    [(3, 4), (4, 2), (1, 2)]),
    # one row: the bias takes the output's gradient row as is, not a sum
    "affine-one-row": (lambda ls: T.sum_reduce(T.mul(T.affine(*ls), _ramp(1, 2))),
                       [(1, 4), (4, 2), (1, 2)]),
}
# drawn from [0.5, 1.5), off the poles and inside the domains
_POSITIVE_DOMAIN = ("log", "reciprocal", "normalize-rows", "kl-from-logits",
                    "kl-from-logits-scaled")
PRIMITIVE_POINTS = 5  # random points per primitive
LOSS_POINTS = 2  # random points per configuration of the step loss


def _grad_checks(cases):
    """(worst error, directions, directions skipped at relu kinks) of
    grad_check over (point, function) pairs."""
    worst, directions = 0.0, 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SubgradientWarning)
        for point, fn in cases:
            worst, directions = max(worst, T.grad_check(fn, point)), directions + len(point)
    for w in caught:  # count the kinks, pass every other warning on
        if w.category is not SubgradientWarning:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return worst, directions, sum(w.category is SubgradientWarning for w in caught)


def grad_check_detail(worst, directions, skipped):
    """The line `afm verify` and criterion 1 print for a gradient check."""
    return (f"max rel err {worst:.2e} over {directions} directions, "
            f"{skipped} skipped at relu kinks")


def check_gradients():
    """(worst error, directions, skipped) of the finite-difference check over
    every primitive at random points."""
    rng = np.random.default_rng(7)
    return _grad_checks(
        ([0.5 + rng.uniform(size=s) if name in _POSITIVE_DOMAIN else rng.normal(size=s)
          for s in shapes], fn)
        for name, (fn, shapes) in PRIMITIVE_CASES.items() for _ in range(PRIMITIVE_POINTS))


# every configuration training can run, on a 2-layer backbone with 12 groups
# per batch: afm at each K, interaction and projection mode with half its groups
# intra-class, then the other three modes; each with shared and unshared heads
_SMALL = dict(hidden=(4, 5), m=12)
LOSS_CONFIGS = [TrainConfig(k=k, interaction=i, projections=p, shared_classifiers=s,
                            intra_ratio=0.5, **_SMALL)
                for k in (2, 3, 4) for i in INTERACTIONS for p in PROJECTION_MODES
                for s in (True, False)]
LOSS_CONFIGS += [TrainConfig(mode=mode, lam=0.0 if mode == "baseline" else 0.75,
                             shared_classifiers=s, **_SMALL)
                 for mode in MODES[1:] for s in (True, False)]


def step_loss_case(config, rng):
    """(parameter names, random point, loss): training.step_loss of
    ``config`` on 12 random samples, 4 per class so that K=4 intra groups
    exist, on a network built from leaves looked up by name: a shared
    projection or head is one leaf pair. A point where a parameter the step
    reads gets no gradient is redrawn, up to 100 times."""
    n, d0, c = 12, 3, 3
    labels = rng.permutation(np.repeat(np.arange(c), n // c))
    x, y = T.constant(rng.normal(size=(n, d0))), one_hot(labels, c)
    draws = draw_step(labels, config, rng)

    def loss_of(source):
        model = Model([d0, *config.hidden], c, config.shared_classifiers, source=source)
        ga = (GAParams(model.feature_dim, config.k, config.interaction, config.projections,
                       source=source) if config.mode == "afm" else None)
        return step_loss(model, ga, x, y, draws, config)[0]

    def draw(name, shape):  # small weights and positive biases keep most relus active
        drawn[name] = T.parameter(rng.uniform(0.25, 0.75, size=shape) if name.endswith(".bias")
                                  else rng.normal(size=shape) * 0.5 / np.sqrt(shape[0]))
        return drawn[name]
    for _ in range(100):
        drawn = {}
        T.backward(loss_of(draw))
        if all(p.grad is None or p.grad.any() for p in drawn.values()):
            break

    def loss(leaves):
        by_name = dict(zip(drawn, leaves))
        return loss_of(lambda name, shape: by_name[name])
    return list(drawn), [p.values for p in drawn.values()], loss


def check_step_loss(configs=LOSS_CONFIGS):
    """(worst error, directions, skipped) of the step loss's check over
    ``configs``, LOSS_POINTS points each. Half the afm groups are intra-class,
    so their soft labels are one-hot and the KL mixing term meets 0 * log 0."""
    rng = np.random.default_rng(11)
    return _grad_checks(step_loss_case(config, rng)[1:]  # (point, loss)
                        for config in configs for _ in range(LOSS_POINTS))


def check_order_symmetry():
    """Criterion 2: swapping a pair's members leaves shared-projection sum
    weights bit-identical and changes distinct-projection weights."""
    rng = np.random.default_rng(0)
    invariant = sensitive = 0
    for trial in range(100):
        feats = T.constant(rng.normal(size=(8, 6)))
        labels = rng.integers(0, 3, size=8)
        groups = sample_groups(labels, 4, 2, rng=rng)
        members = gather_members(feats, one_hot(labels, 3), groups).features
        swapped = gather_members(feats, one_hot(labels, 3), groups[:, ::-1]).features
        shared = GAParams(6, 2, "sum", "shared",
                          source=glorot(np.random.default_rng(1000 + trial)))
        w1 = attend(members, shared).values
        w2 = attend(swapped, shared).values
        invariant += int(np.array_equal(w1, w2))
        distinct = GAParams(6, 2, "sum", "distinct",
                            source=glorot(np.random.default_rng(2000 + trial)))
        v1 = attend(members, distinct).values
        v2 = attend(swapped, distinct).values
        sensitive += int(np.abs(v1 - v2).max() > 1e-9)
    return (invariant == 100 and sensitive >= 99,
            f"shared bit-identical {invariant}/100, distinct differ {sensitive}/100")


def check_pure_noisy_ratio():
    """Criterion 3: the closed-form pure-noisy-group ratio is exact, matches
    100,000 sampled groups within 3 sigma, and falls from K=1 to K=2."""
    closed, freq, _, mc_ok = check_sampled_ratio(200, 1000, 2, 100_000, np.random.default_rng(3))
    exact_ok = abs(closed - float(Fraction(200, 1000) * Fraction(199, 999))) < 1e-12
    ineq_ok = closed < pure_noisy_group_ratio(200, 1000, 1)
    return (exact_ok and mc_ok and ineq_ok,
            f"closed {closed:.6g} vs exact, MC {freq:.6g} within 3sigma, "
            f"K=2 < K=1 {ineq_ok}")


def check_simplex_and_hull():
    """Criterion 4: over 10,000 K=2 interpolations the soft labels lie on the
    simplex and the weights, all in [0, 1], rebuild each interpolated feature."""
    rng = np.random.default_rng(4)
    checked = 0
    worst_sum = worst_neg = 0.0
    hull_ok = True
    while checked < 10_000:
        n = int(rng.integers(6, 40))
        m = min(200, 10_000 - checked)
        feats = T.constant(rng.normal(size=(n, 7)))
        labels_int = rng.integers(0, 3, size=n)
        groups = sample_groups(labels_int, m, 2, rng=rng)
        ga = GAParams(7, 2, source=glorot(rng))
        members = gather_members(feats, one_hot(labels_int, 3), groups)
        out = interpolate(members, attend(members.features, ga))
        s = out.soft_labels.values
        worst_sum = max(worst_sum, np.abs(s.sum(axis=1) - 1.0).max())
        worst_neg = min(worst_neg, s.min())
        w = out.weights.values
        recon = np.einsum("gk,gkd->gd", w, feats.values[groups])
        hull_ok &= bool(np.abs(recon - out.features.values).max() <= 1e-9
                        and w.min() >= -1e-9 and w.max() <= 1 + 1e-9)
        checked += m
    return (worst_sum < 1e-9 and worst_neg >= -1e-12 and hull_ok,
            f"{checked} interpolations, worst row-sum err {worst_sum:.2e}, "
            f"min coord {worst_neg:.2e}, hull reconstruction {hull_ok}")


def check_inference_equivalence(model, x):
    """Criterion 8: the tape's normal-classifier logits equal those of a plain
    numpy forward pass bit for bit, and inference_predict is their argmax."""
    h = x
    for layer in model.layers:
        h = np.maximum(h @ layer.weight.values + layer.bias.values, 0.0)
    expect = h @ model.head2.weight.values + model.head2.bias.values
    logits = model.classify(model.extract_features(T.constant(x)), head=2).values
    bit_equal = logits.tobytes() == expect.tobytes()
    same = int((model.inference_predict(x) == np.argmax(expect, axis=1)).sum())
    return (bit_equal and same == len(x),
            f"{same}/{len(x)} predictions identical, logits bit-equal {bit_equal}")


def check_determinism(dataset, config, log):
    """Criterion 9: a rerun with the same seed of the run that logged ``log``
    logs byte-identical metrics. Rows are compared through repr, so the NaN
    attention columns of baseline and mixup runs compare equal."""
    same = repr(log.rows) == repr(train(dataset, config)[1].rows)
    return same, "two identical-seed runs produce byte-identical metrics"


def check_checkpoint_roundtrip(state):
    """save_state then load_state gives back the architecture and every
    parameter of the model and of the attention net, by name, bit for bit."""
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "ck.bin")
        save_state(path, state)
        restored = load_state(path)
    saved, loaded = ([(model.widths, model.n_classes, model.shared,
                       ga and (ga.k, ga.interaction, ga.projections))]
                     + [(name, p.values.shape, p.values.tobytes())
                        for name, p in model.parameters() + (ga.parameters() if ga else [])]
                     for model, ga in ((state.model, state.ga), restored))
    return loaded == saved, f"architecture and {len(saved) - 1} named parameters bit-exact"


def run_all():
    """Run every property; returns a list of (name, passed, detail)."""
    results = [(name, check[0] < 1e-5, grad_check_detail(*check)) for name, check in (
        ("grad-check-primitives", check_gradients()), ("grad-check-afm-loss", check_step_loss()))]

    rng = np.random.default_rng(42)
    feats = T.constant(rng.normal(size=(6, 5)))
    labels_int = rng.integers(0, 3, size=6)
    groups = sample_groups(labels_int, 4, 2, rng=rng)
    members = gather_members(feats, one_hot(labels_int, 3), groups)
    w = attend(members.features, GAParams(5, 2, source=glorot(rng))).values
    results.append(("attention-weight-range", bool(np.all((w > 0) & (w < 1))),
                    f"range [{w.min():.3f}, {w.max():.3f}]"))
    results.append(("order-symmetry", *check_order_symmetry()))
    results.append(("pure-noisy-ratio", *check_pure_noisy_ratio()))
    results.append(("simplex-and-hull", *check_simplex_and_hull()))
    raw = rng.uniform(0.1, 0.9, size=(len(groups), 2))
    a1 = interpolate(members, T.constant(raw), 0.0)
    a2 = interpolate(members, T.constant(raw * 3.7), 0.0)
    scale_ok = np.allclose(a1.features.values, a2.features.values, atol=1e-12)
    results.append(("weight-scale-invariance", bool(scale_ok),
                    "common positive scaling leaves interpolations unchanged"))

    ds = inject_noise(generate("blobs", 3, 60, 20, 8, 4.0, seed=0),
                      "symmetric", 0.4, seed=0)
    cfg = TrainConfig(epochs=2, batch_size=32, hidden=(16, 8), seed=3, lr=0.05)
    state, log = train(ds, cfg)
    results.append(("inference-equivalence",
                     *check_inference_equivalence(state.model, ds.features[ds.n_train:])))

    results.append(("checkpoint-roundtrip", *check_checkpoint_roundtrip(state)))
    results.append(("metrics-determinism", *check_determinism(ds, cfg, log)))
    return results
