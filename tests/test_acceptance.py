"""Acceptance gate: one test per criterion, one printed verdict line each.

The heavy 5-seed training batches are shared across criteria through a
module-scoped fixture. Run with `-s` (or read the captured output) to see
the per-criterion lines.
"""

import time
import warnings

import numpy as np
import pytest

from afm import tensor as T
from afm.data import generate, inject_noise, one_hot
from afm.errors import SubgradientWarning
from afm.grouping import (GAParams, attend, pure_noisy_group_ratio,
                          sample_groups)
from afm.mixing import interpolate
from afm.training import TrainConfig, train
from afm.verify import afm_loss_grad_check, check_gradients

SEEDS = range(5)


def benchmark_dataset(seed):
    """The default benchmark: blobs, C=3, d0=32, 3000 train, rho=0.4 symmetric."""
    ds = generate("blobs", 3, 1000, 250, 32, 4.0, seed=seed)
    return inject_noise(ds, "symmetric", 0.4, seed=seed)


def verdict(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def bench():
    """Five-seed training batches shared by the trend criteria."""
    out = {"datasets": {}, "runs": {}}
    t0 = time.time()
    for seed in SEEDS:
        out["datasets"][seed] = benchmark_dataset(seed)

    def batch(tag, mode, lam, **kw):
        accs, attn_c, attn_n, states, logs = [], [], [], [], []
        for seed in SEEDS:
            state, log = train(out["datasets"][seed],
                               TrainConfig(mode=mode, lam=lam, seed=seed, **kw))
            row = log.rows[-1]
            accs.append(row["test_acc"])
            attn_c.append(row["mean_attn_clean"])
            attn_n.append(row["mean_attn_noisy"])
            states.append(state)
            logs.append(log)
        out["runs"][tag] = {
            "acc": np.array(accs), "attn_clean": np.array(attn_c),
            "attn_noisy": np.array(attn_n), "states": states, "logs": logs,
        }

    batch("afm", "afm", 0.75)           # lambda=0.75, K=2, sum, distinct, shared
    batch("baseline", "baseline", 0.0)
    out["core_seconds"] = time.time() - t0
    batch("manifold", "manifold-mixup", 0.75)
    batch("standard", "standard-mixup", 0.75)
    batch("afm_k3", "afm", 0.75, k=3)
    batch("afm_k4", "afm", 0.75, k=4)
    return out


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SubgradientWarning)
        err_prim = check_gradients()          # 12 primitives x 5 points
        err_graph = afm_loss_grad_check(n_points=40)  # full loss graph
    elapsed = time.time() - t0
    worst = max(err_prim, err_graph)
    verdict(1, worst < 1e-5 and elapsed < 60.0,
            f"max rel err {worst:.2e} over 100 points in {elapsed:.1f}s")


def test_criterion_2_order_symmetry():
    rng = np.random.default_rng(0)
    invariant = sensitive = 0
    for trial in range(100):
        d = 6
        feats = T.constant(rng.normal(size=(8, d)))
        labels = rng.integers(0, 3, size=8)
        groups = sample_groups(labels, 4, 2, rng=rng)
        swapped = groups[:, ::-1]
        shared = GAParams(d, 2, "sum", "shared", np.random.default_rng(1000 + trial))
        w1 = attend(feats, groups, shared).weights.values
        w2 = attend(feats, swapped, shared).weights.values
        invariant += int(np.array_equal(w1, w2))
        distinct = GAParams(d, 2, "sum", "distinct", np.random.default_rng(2000 + trial))
        v1 = attend(feats, groups, distinct).weights.values
        v2 = attend(feats, swapped, distinct).weights.values
        sensitive += int(np.abs(v1 - v2).max() > 1e-9)
    verdict(2, invariant == 100 and sensitive >= 99,
            f"shared bit-identical {invariant}/100, distinct differ {sensitive}/100")


def test_criterion_3_pure_noisy_ratio():
    from fractions import Fraction
    closed = pure_noisy_group_ratio(200, 1000, 2)
    exact = Fraction(200, 1000) * Fraction(199, 999)
    exact_ok = abs(closed - float(exact)) < 1e-12

    trials = 100_000
    noisy = np.zeros(1000, dtype=bool)
    noisy[:200] = True
    groups = sample_groups(np.zeros(1000, dtype=int), trials, 2,
                           rng=np.random.default_rng(3))
    freq = np.mean([all(noisy[i] for i in g) for g in groups])
    sigma = np.sqrt(closed * (1 - closed) / trials)
    mc_ok = abs(freq - closed) < 3 * sigma
    ineq_ok = closed < pure_noisy_group_ratio(200, 1000, 1)
    verdict(3, exact_ok and mc_ok and ineq_ok,
            f"closed {closed:.6g} vs exact, MC {freq:.6g} within 3sigma, "
            f"K=2 < K=1 {ineq_ok}")


def test_criterion_4_simplex_invariants():
    rng = np.random.default_rng(4)
    checked = 0
    worst_sum = 0.0
    worst_neg = 0.0
    hull_ok = True
    while checked < 10_000:
        n = int(rng.integers(6, 40))
        m = min(200, 10_000 - checked)
        feats = T.constant(rng.normal(size=(n, 7)))
        labels_int = rng.integers(0, 3, size=n)
        labels = one_hot(labels_int, 3)
        groups = sample_groups(labels_int, m, 2, rng=rng)
        ga = GAParams(7, 2, rng=rng)
        out = interpolate(feats, labels, attend(feats, groups, ga))
        s = out.soft_labels.values
        worst_sum = max(worst_sum, np.abs(s.sum(axis=1) - 1.0).max())
        worst_neg = min(worst_neg, s.min())
        # convex-hull membership via coefficient reconstruction (K=2)
        for gi, g in enumerate(groups):
            w = out.weights.values[gi]
            recon = (w[0] * feats.values[g[0]]
                     + w[1] * feats.values[g[1]])
            if (np.abs(recon - out.features.values[gi]).max() > 1e-9
                    or not -1e-9 <= w[0] <= 1 + 1e-9):
                hull_ok = False
        checked += m
    verdict(4, worst_sum < 1e-9 and worst_neg >= -1e-12 and hull_ok,
            f"{checked} interpolations, worst row-sum err {worst_sum:.2e}, "
            f"min coord {worst_neg:.2e}, hull reconstruction {hull_ok}")


def test_criterion_5_noise_suppression_trend(bench):
    afm = bench["runs"]["afm"]["acc"]
    base = bench["runs"]["baseline"]["acc"]
    gap = 100 * (afm.mean() - base.mean())
    wins = int((afm > base).sum())
    secs = bench["core_seconds"]
    verdict(5, gap >= 2.0 and wins >= 4 and secs < 600,
            f"afm {afm.mean():.4f} vs baseline {base.mean():.4f} "
            f"(+{gap:.2f} pts, {wins}/5 seed wins, {secs:.0f}s)")


def test_criterion_6_attention_separation(bench):
    clean = float(np.mean(bench["runs"]["afm"]["attn_clean"]))
    noisy = float(np.mean(bench["runs"]["afm"]["attn_noisy"]))
    verdict(6, clean >= 0.55 and clean > noisy,
            f"mean clean attention {clean:.4f}, noisy {noisy:.4f} "
            f"(need clean >= 0.55 and > noisy)")


def test_criterion_7_mixup_comparison(bench):
    afm = bench["runs"]["afm"]["acc"].mean()
    mm = bench["runs"]["manifold"]["acc"].mean()
    sm = bench["runs"]["standard"]["acc"].mean()
    # full ordering reported; only afm >= manifold gated
    print(f"    reported ordering: afm {afm:.4f}, manifold {mm:.4f}, "
          f"standard {sm:.4f} (gaps {100*(afm-mm):+.2f}, {100*(mm-sm):+.2f})")
    verdict(7, afm >= mm, f"afm {afm:.4f} >= manifold-mixup {mm:.4f}")


def test_criterion_8_inference_equivalence(bench):
    state = bench["runs"]["afm"]["states"][0]
    ds = bench["datasets"][0]
    x = ds.features[:1000]
    fast = state.model.inference_predict(x)
    logits = state.model.classify(
        state.model.extract_features(T.constant(x)), head=2).values
    graph = np.argmax(logits, axis=1)
    same = int((fast == graph).sum())
    verdict(8, same == 1000, f"{same}/1000 predictions identical")


def test_criterion_9_determinism(bench):
    cfg = TrainConfig(mode="afm", lam=0.75, seed=0)
    rerun_log = train(bench["datasets"][0], cfg)[1]
    first_log = bench["runs"]["afm"]["logs"][0]
    same = repr(first_log.rows) == repr(rerun_log.rows)
    verdict(9, same, "two identical-seed runs produce byte-identical metrics")


def test_criterion_10_group_size_trend(bench):
    k2 = bench["runs"]["afm"]["acc"].mean()
    k3 = bench["runs"]["afm_k3"]["acc"].mean()
    k4 = bench["runs"]["afm_k4"]["acc"].mean()
    print(f"    reported K sweep: K=2 {k2:.4f}, K=3 {k3:.4f}, K=4 {k4:.4f} "
          f"(monotone non-increasing: {k2 >= k3 >= k4})")
    verdict(10, k2 >= k4, f"K=2 {k2:.4f} >= K=4 {k4:.4f}")
