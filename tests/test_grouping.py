"""Group sampling, the attention net, and the pure-noisy-group ratio."""

import hashlib
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afm import tensor as T
from afm.errors import ConfigError, ShapeError
from afm.grouping import (GAParams, attend, check_sampled_ratio, member_selectors,
                          pure_noisy_group_ratio, sample_groups)
from afm.model import glorot
from afm.tensor import backward


def labels_balanced(n, c=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, c, size=n)


def is_intra(labels, groups):
    """Per group: whether all its members carry the same label."""
    member_labels = np.asarray(labels)[groups]
    return (member_labels == member_labels[:, :1]).all(axis=1)


def test_sample_groups_basic_shape():
    groups = sample_groups(labels_balanced(20), 7, 3, rng=np.random.default_rng(1))
    assert groups.shape == (7, 3)
    assert groups.dtype == np.int64
    for g in groups:
        assert len(set(g)) == 3  # distinct within a group


def test_sample_groups_two_of_two():
    groups = sample_groups(np.array([0, 1]), 1, 2, rng=np.random.default_rng(0))
    assert sorted(groups[0]) == [0, 1]


def test_sample_groups_all_same_label_intra():
    labels = np.zeros(8, dtype=int)
    groups = sample_groups(labels, 5, 2, rng=np.random.default_rng(0))
    assert is_intra(labels, groups).all()


def test_sample_groups_deterministic():
    a = sample_groups(labels_balanced(30), 10, 2, rng=np.random.default_rng(9))
    b = sample_groups(labels_balanced(30), 10, 2, rng=np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_sample_groups_fixed_ratio():
    labels = np.array([0] * 10 + [1] * 10)
    groups = sample_groups(labels, 10, 2, 0.3, rng=np.random.default_rng(2))
    assert is_intra(labels, groups).tolist() == [True] * 3 + [False] * 7


@pytest.mark.parametrize("k,intra_ratio,digest", [
    (2, None, "29bdbffd85c54f34435ee49fa36341558fddbff98e630a791a3122ff7937c3e2"),
    (2, 0.5, "97900f19e92e5661411082ddeae22e2c31dc388572dbc772d7a64501b21798f6"),
    (3, None, "d107e92481dcdb80e8698057193300b987e0c18ab874b5667c51332b0da374e6"),
    (3, 0.5, "d5a659a226a92367c07f1f98ba6183c5895b6e95ad42a770b9454429a6aed191"),
    (4, None, "d2217ce1c9de62955d37044a862dc03c5d8eddafab31fd45e4695cc0ca3dd2e6"),
    (4, 0.5, "8d344fba08ed3f2294e061d365ab685db023d280d27247f4d114f999809c3c5e"),
])
def test_sample_groups_output_pinned(k, intra_ratio, digest):
    """sha256 of the groups, recorded before the draws skipped sorting one
    column: a change to the draws or to the rng stream fails here."""
    groups = sample_groups(np.arange(60) % 3, 200, k, intra_ratio,
                           rng=np.random.default_rng([k, 7]))
    assert groups.dtype == np.int64 and groups.shape == (200, k)
    assert hashlib.sha256(groups.tobytes()).hexdigest() == digest


def test_sample_groups_ordered_pair_frequencies():
    # every ordered pair of distinct members is equally likely: for n=4,
    # K=2 each of the 12 pairs lies within 3 binomial sigma of 1/12
    trials = 120_000
    groups = sample_groups(np.zeros(4, dtype=int), trials, 2,
                           rng=np.random.default_rng(21))
    counts = np.zeros((4, 4), dtype=int)
    np.add.at(counts, (groups[:, 0], groups[:, 1]), 1)
    p = 1 / 12
    sigma = np.sqrt(p * (1 - p) / trials)
    assert np.all(np.diag(counts) == 0)
    for i, j in permutations(range(4), 2):
        assert abs(counts[i, j] / trials - p) < 3 * sigma, (i, j)


@settings(max_examples=60, deadline=None)
@given(n_classes=st.integers(2, 4), n=st.integers(4, 30), k=st.integers(2, 4),
       m=st.integers(1, 40), intra_ratio=st.none() | st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_sample_groups_properties(n_classes, n, k, m, intra_ratio, seed):
    # every class gets at least k members, so both kinds of group exist
    labels = np.random.default_rng(seed).permutation(np.arange(n) % n_classes)
    if np.bincount(labels).min() < k:
        labels = np.repeat(np.arange(n_classes), k)
    groups = sample_groups(labels, m, k, intra_ratio, rng=np.random.default_rng(seed))
    assert groups.shape == (m, k) and groups.dtype == np.int64
    assert groups.min() >= 0 and groups.max() < len(labels)
    assert all(len(set(g)) == k for g in groups)
    again = sample_groups(labels, m, k, intra_ratio, rng=np.random.default_rng(seed))
    np.testing.assert_array_equal(groups, again)
    if intra_ratio is not None:
        m_intra = int(round(intra_ratio * m))
        intra = is_intra(labels, groups)
        assert intra[:m_intra].all() and not intra[m_intra:].any()


def test_sample_groups_rejects_bad_args():
    with pytest.raises(ConfigError):
        sample_groups(np.array([0]), 1, 2, rng=np.random.default_rng(0))
    for intra_ratio in (1.5, -0.5, float("nan")):
        with pytest.raises(ConfigError, match="intra_ratio"):
            sample_groups(labels_balanced(10), 3, 2, intra_ratio,
                          rng=np.random.default_rng(0))


def test_member_selectors_gather():
    groups = member_selectors([[2, 0], [1, 2]], 3)
    assert isinstance(groups, np.ndarray) and groups.tolist() == [[2, 0], [1, 2]]
    feats = np.arange(12.0).reshape(3, 4)
    np.testing.assert_array_equal(feats[groups[:, 0]], feats[[2, 1]])
    np.testing.assert_array_equal(feats[groups[:, 1]], feats[[0, 2]])


def test_member_selectors_bad_index():
    for groups in (np.array([[0, 5]]),          # past the end
                   np.array([[0, -1]]),         # numpy would wrap this to the last row
                   np.zeros((1, 0), np.int64),  # no members
                   np.array([0, 1]),            # not a 2-D array
                   np.array([[0.0, 1.0]])):     # not integer
        with pytest.raises(ShapeError):
            member_selectors(groups, 3)


@pytest.mark.parametrize("interaction", ["concat", "sum", "mul"])
@pytest.mark.parametrize("projections", ["distinct", "shared", "none"])
def test_attend_weight_shape_and_range(interaction, projections):
    rng = np.random.default_rng(0)
    params = GAParams(6, 2, interaction, projections, source=glorot(rng))
    feats = T.constant(np.random.default_rng(1).standard_normal((10, 6)))
    groups = sample_groups(labels_balanced(10), 5, 2, rng=np.random.default_rng(2))
    w = attend(T.gather_rows(feats, groups), params)
    assert w.values.shape == (5, 2)
    assert np.all(w.values > 0.0)
    assert np.all(w.values < 1.0)


def test_attend_gradients_reach_projections():
    params = GAParams(4, 2, "sum", "distinct", source=glorot(np.random.default_rng(0)))
    feats = T.constant(np.random.default_rng(1).standard_normal((6, 4)))
    groups = sample_groups(labels_balanced(6), 3, 2, rng=np.random.default_rng(2))
    backward(T.sum_reduce(attend(T.gather_rows(feats, groups), params)))
    for name, p in params.parameters():
        if name.endswith("weight"):
            assert p.grad is not None and np.abs(p.grad).sum() > 0, name


def test_order_invariance_sum_shared():
    # sum interaction with a shared projection is symmetric in member order
    params = GAParams(5, 2, "sum", "shared", source=glorot(np.random.default_rng(3)))
    feats = T.constant(np.random.default_rng(4).standard_normal((8, 5)))
    groups = sample_groups(labels_balanced(8), 6, 2, rng=np.random.default_rng(5))
    w1 = attend(T.gather_rows(feats, groups), params).values
    w2 = attend(T.gather_rows(feats, groups[:, ::-1]), params).values
    np.testing.assert_array_equal(w1, w2)  # bit-identical


def test_order_sensitivity_distinct_projections():
    params = GAParams(5, 2, "sum", "distinct", source=glorot(np.random.default_rng(3)))
    feats = T.constant(np.random.default_rng(4).standard_normal((8, 5)))
    groups = sample_groups(labels_balanced(8), 6, 2, rng=np.random.default_rng(5))
    w1 = attend(T.gather_rows(feats, groups), params).values
    w2 = attend(T.gather_rows(feats, groups[:, ::-1]), params).values
    assert np.abs(w1 - w2).max() > 1e-9


def test_attend_feature_dim_mismatch():
    # the member block's width must be K times the GA feature dim
    params = GAParams(5, 2, source=glorot(np.random.default_rng(0)))
    assert attend(T.constant(np.zeros((4, 10))), params).values.shape == (4, 2)
    for shape in ((4, 6), (4, 15), (10,)):  # width 3 members, K=3, not a matrix
        with pytest.raises(ShapeError):
            attend(T.constant(np.zeros(shape)), params)


def test_gaparams_rejects_unknown_modes():
    with pytest.raises(ConfigError):
        GAParams(4, 2, interaction="avg", source=glorot(np.random.default_rng(0)))
    with pytest.raises(ConfigError):
        GAParams(4, 2, projections="tied", source=glorot(np.random.default_rng(0)))


def exact_ratio(n_noisy, n_total, k):
    r = Fraction(1)
    for t in range(k):
        r *= Fraction(n_noisy - t, n_total - t)
    return r


@pytest.mark.parametrize("n_noisy,n_total,k", [
    (200, 1000, 2), (400, 1000, 3), (1, 10, 1), (5, 5, 5), (3, 9, 2),
])
def test_pure_noisy_ratio_matches_exact_rational(n_noisy, n_total, k):
    got = pure_noisy_group_ratio(n_noisy, n_total, k)
    assert abs(got - float(exact_ratio(n_noisy, n_total, k))) < 1e-12


def test_pure_noisy_ratio_below_noise_rate():
    # grouping strictly shrinks the all-noisy fraction for K >= 2
    assert pure_noisy_group_ratio(200, 1000, 2) < 200 / 1000
    assert pure_noisy_group_ratio(200, 1000, 3) < pure_noisy_group_ratio(200, 1000, 2)


def test_pure_noisy_ratio_edge_cases():
    assert pure_noisy_group_ratio(1, 10, 2) == 0.0  # fewer noisy than K
    assert pure_noisy_group_ratio(0, 10, 1) == 0.0
    assert pure_noisy_group_ratio(10, 10, 3) == 1.0
    with pytest.raises(ConfigError):
        pure_noisy_group_ratio(11, 10, 2)


def test_pure_noisy_ratio_monte_carlo():
    # empirical all-noisy frequency within 3 binomial sigma of closed form
    n_total, n_noisy, k, trials = 50, 20, 2, 100_000
    freq = check_sampled_ratio(n_noisy, n_total, k, trials, np.random.default_rng(12))[1]
    p = pure_noisy_group_ratio(n_noisy, n_total, k)
    sigma = np.sqrt(p * (1 - p) / trials)
    assert abs(freq - p) < 3 * sigma
    # the first n_noisy samples are the mislabeled ones
    assert check_sampled_ratio(10, 10, 3, 50, np.random.default_rng(0))[1] == 1.0
    assert check_sampled_ratio(1, 10, 2, 50, np.random.default_rng(0))[1] == 0.0


def test_check_sampled_ratio_passes_exact_degenerate_ratios():
    """sigma is 0 where the closed form is 0 or 1; an exact match passes."""
    assert check_sampled_ratio(1, 10, 2, 50, np.random.default_rng(0)) == (0.0, 0.0, 0.0, True)
    assert check_sampled_ratio(10, 10, 3, 50, np.random.default_rng(0)) == (1.0, 1.0, 0.0, True)
    closed, freq, three_sigma, within = check_sampled_ratio(
        20, 50, 2, 100_000, np.random.default_rng(12))
    assert within and three_sigma == 3 * np.sqrt(closed * (1 - closed) / 100_000)
    # the sampled ratio is that of sample_groups' groups of the first 20 samples
    groups = sample_groups(np.zeros(50, dtype=np.int64), 100_000, 2,
                           rng=np.random.default_rng(12))
    assert freq == float((groups < 20).all(axis=1).mean())
