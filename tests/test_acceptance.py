"""Acceptance gate: one test per criterion, one printed verdict line each.

The heavy 5-seed training batches are shared across criteria through a
module-scoped fixture. Run with `-s` (or read the captured output) to see
the per-criterion lines.
"""

import time

import numpy as np
import pytest

from afm.data import generate, inject_noise
from afm.training import TrainConfig, train
from afm.verify import (LOSS_CONFIGS, PRIMITIVE_CASES, PRIMITIVE_POINTS,
                        check_determinism, check_gradients,
                        check_inference_equivalence, check_order_symmetry,
                        check_pure_noisy_ratio, check_simplex_and_hull,
                        check_step_loss)

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
    err_prim = check_gradients()
    err_step = check_step_loss(n_points=2)  # train()'s step loss, every configuration
    elapsed = time.time() - t0
    worst = max(err_prim, err_step)
    points = PRIMITIVE_POINTS * len(PRIMITIVE_CASES) + 2 * len(LOSS_CONFIGS)
    verdict(1, worst < 1e-5 and elapsed < 60.0,
            f"max rel err {worst:.2e} over {points} points in {elapsed:.1f}s")


def test_criterion_2_order_symmetry():
    verdict(2, *check_order_symmetry())


def test_criterion_3_pure_noisy_ratio():
    verdict(3, *check_pure_noisy_ratio())


def test_criterion_4_simplex_invariants():
    verdict(4, *check_simplex_and_hull())


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
    x = bench["datasets"][0].features[:1000]
    verdict(8, *check_inference_equivalence(state.model, x))


def test_criterion_9_determinism(bench):
    verdict(9, *check_determinism(bench["datasets"][0],
                                  TrainConfig(mode="afm", lam=0.75, seed=0),
                                  bench["runs"]["afm"]["logs"][0]))


def test_criterion_10_group_size_trend(bench):
    k2 = bench["runs"]["afm"]["acc"].mean()
    k3 = bench["runs"]["afm_k3"]["acc"].mean()
    k4 = bench["runs"]["afm_k4"]["acc"].mean()
    print(f"    reported K sweep: K=2 {k2:.4f}, K=3 {k3:.4f}, K=4 {k4:.4f} "
          f"(monotone non-increasing: {k2 >= k3 >= k4})")
    verdict(10, k2 >= k4, f"K=2 {k2:.4f} >= K=4 {k4:.4f}")
