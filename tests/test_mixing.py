"""Interpolation module: normalization, simplex invariants, differentiability."""

import numpy as np
import pytest

from afm import tensor as T
from afm.errors import ShapeError
from afm.grouping import GAParams, attend, sample_groups
from afm.mixing import DEFAULT_EPSILON, gather_members, interpolate
from afm.model import glorot
from afm.tensor import Tensor, backward


def make_batch(n=12, d=5, c=3, m=6, k=2, seed=0):
    rng = np.random.default_rng(seed)
    feats = Tensor(rng.standard_normal((n, d)), requires_grad=True)
    labels_int = rng.integers(0, c, size=n)
    labels = np.eye(c)[labels_int]
    groups = sample_groups(labels_int, m, k, rng=rng)
    params = GAParams(d, k, source=glorot(np.random.default_rng(seed + 1)))
    members = gather_members(feats, labels, groups)
    return feats, labels, groups, members, attend(members.features, params), params


def test_gather_members_blocks():
    feats, labels, groups, members, _, _ = make_batch(k=3, m=4)
    assert members.features.values.shape == (4, 15)
    for i, g in enumerate(groups):
        np.testing.assert_array_equal(members.features.values[i], feats.values[g].ravel())
        np.testing.assert_array_equal(members.labels[i], labels[g].ravel())


def test_interpolation_shapes():
    feats, labels, groups, members, raw, _ = make_batch()
    out = interpolate(members, raw)
    assert out.features.values.shape == (6, 5)
    assert out.soft_labels.values.shape == (6, 3)
    assert out.weights.values.shape == (6, 2)


def test_normalized_weights_sum_to_one():
    _, _, _, members, raw, _ = make_batch(seed=3)
    out = interpolate(members, raw)
    np.testing.assert_allclose(out.weights.values.sum(axis=1), 1.0, atol=1e-9)


def test_soft_labels_on_simplex():
    _, _, _, members, raw, _ = make_batch(seed=4)
    out = interpolate(members, raw)
    s = out.soft_labels.values
    assert s.min() >= 0.0
    np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-9)


def test_features_are_member_convex_combinations():
    # reconstruct the K=2 coefficients from the interpolation and members
    feats, _, groups, members, raw, _ = make_batch(seed=5)
    out = interpolate(members, raw)
    for gi, (i, j) in enumerate(groups):
        a = feats.values[i]
        b = feats.values[j]
        w = out.weights.values[gi]
        np.testing.assert_allclose(out.features.values[gi], w[0] * a + w[1] * b,
                                   atol=1e-9)
        assert -1e-9 <= w[0] <= 1 + 1e-9


def test_same_weights_blend_features_and_labels():
    _, labels, groups, members, raw, _ = make_batch(seed=6)
    out = interpolate(members, raw)
    for gi, (i, j) in enumerate(groups):
        w = out.weights.values[gi]
        expect = w[0] * labels[i] + w[1] * labels[j]
        np.testing.assert_allclose(out.soft_labels.values[gi], expect, atol=1e-9)


def test_intra_group_soft_label_stays_one_hot():
    feats = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
    labels = np.eye(2)[[1, 1, 0, 0]]
    out = interpolate(gather_members(feats, labels, np.array([[0, 1]])),
                      T.constant(np.array([[0.3, 0.9]])))
    np.testing.assert_allclose(out.soft_labels.values, [[0.0, 1.0]], atol=1e-9)


def test_scale_invariance_of_raw_weights():
    # multiplying both raw weights by a positive constant changes nothing
    feats = Tensor(np.random.default_rng(1).standard_normal((4, 3)))
    labels = np.eye(2)[[0, 1, 0, 1]]
    groups = np.array([[0, 1], [2, 3]])
    raw = np.array([[0.2, 0.6], [0.9, 0.1]])
    members = gather_members(feats, labels, groups)
    out1 = interpolate(members, T.constant(raw), epsilon=0.0)
    out2 = interpolate(members, T.constant(raw * 7.0), epsilon=0.0)
    np.testing.assert_allclose(out1.features.values, out2.features.values, atol=1e-12)


def test_epsilon_guard_bounds_deviation():
    # default epsilon must keep weight sums within 1e-9 of 1 even for small raws
    feats = Tensor(np.random.default_rng(2).standard_normal((2, 3)))
    labels = np.eye(2)[[0, 1]]
    groups = np.array([[0, 1]])
    raw = np.array([[1e-3, 1e-3]])
    out = interpolate(gather_members(feats, labels, groups), T.constant(raw))
    assert abs(out.weights.values.sum() - 1.0) < 1e-9
    assert DEFAULT_EPSILON <= 1e-9


def test_negative_epsilon_rejected():
    _, _, _, members, raw, _ = make_batch()
    with pytest.raises(ShapeError):
        interpolate(members, raw, epsilon=-1.0)


def test_label_shape_mismatch():
    feats, labels, groups, _, _, _ = make_batch()
    with pytest.raises(ShapeError):
        gather_members(feats, labels[:-1], groups)


def test_groups_validated_by_interpolate():
    # groups reach interpolate through gather_members, the one place a
    # group array is checked before its members are read
    feats, labels, groups, _, _, _ = make_batch()
    for bad in (groups - len(labels), groups + len(labels), groups.astype(float),
                groups.astype(bool), groups[:, :0], groups[0]):
        with pytest.raises(ShapeError):
            gather_members(feats, labels, bad)
    # unsigned indices are integers too, and gather the same members
    signed = gather_members(feats, labels, groups)
    unsigned = gather_members(feats, labels, groups.astype(np.uint32))
    np.testing.assert_array_equal(unsigned.features.values, signed.features.values)
    np.testing.assert_array_equal(unsigned.labels, signed.labels)
    np.testing.assert_array_equal(T.gather_rows(feats, groups.astype(np.uint32)).values,
                                  signed.features.values)


def test_group_size_mismatch_rejected():
    # K=1 members of width 6 against K=2 weights: blend_rows alone would
    # read them as two members of width 3
    feats, labels, groups, _, raw, _ = make_batch(d=6)
    with pytest.raises(ShapeError):
        interpolate(gather_members(feats, labels, groups[:, :1]), raw)


def test_gradients_flow_to_features_and_attention():
    feats, _, _, members, raw, params = make_batch(seed=8)
    out = interpolate(members, raw)
    backward(T.sum_reduce(T.mul(out.features, out.features)))
    assert feats.grad is not None and np.abs(feats.grad).sum() > 0
    att2_w = dict(params.parameters())["ga.att2.weight"]
    assert att2_w.grad is not None and np.abs(att2_w.grad).sum() > 0


def test_k3_interpolation():
    _, _, _, members, raw, _ = make_batch(n=15, m=4, k=3, seed=9)
    out = interpolate(members, raw)
    assert out.weights.values.shape == (4, 3)
    np.testing.assert_allclose(out.weights.values.sum(axis=1), 1.0, atol=1e-9)


def test_simplex_bulk():
    # a larger randomized sweep of the invariants
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(4, 20))
        _, _, _, members, raw, _ = make_batch(n=n, m=n, seed=100 + trial)
        out = interpolate(members, raw)
        s = out.soft_labels.values
        assert s.min() >= -1e-12
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-9)
