"""Autodiff engine tests: primitives, backward pass, grad_check."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afm import tensor as T
from afm.errors import ShapeError, SubgradientWarning
from afm.tensor import Tensor, backward, grad_check


def rnd(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def test_tensor_construction():
    t = Tensor(np.ones((2, 3)), requires_grad=True)
    assert t.values.shape == (2, 3)
    assert t.values.dtype == np.float64
    assert t.grad is None


def test_constant_does_not_require_grad():
    c = T.constant(np.zeros((1, 1)))
    assert not c.requires_grad


def test_matmul_forward():
    a = T.constant(rnd(3, 4))
    b = T.constant(rnd(4, 5, seed=1))
    out = T.matmul(a, b)
    np.testing.assert_allclose(out.values, a.values @ b.values)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        T.matmul(T.constant(rnd(3, 4)), T.constant(rnd(3, 4, seed=1)))


def test_add_bias_broadcast():
    x = T.constant(rnd(5, 3))
    b = Tensor(rnd(1, 3, seed=2), requires_grad=True)
    out = T.add(x, b)
    np.testing.assert_allclose(out.values, x.values + b.values)
    backward(T.mean(out))
    # bias grad accumulates over the batch row-wise
    assert b.grad.shape == (1, 3)


def test_mul_grad():
    a = Tensor(rnd(2, 2), requires_grad=True)
    b = Tensor(rnd(2, 2, seed=1), requires_grad=True)
    backward(T.sum_reduce(T.mul(a, b)))
    np.testing.assert_allclose(a.grad, b.values)
    np.testing.assert_allclose(b.grad, a.values)


def test_concat_last_dim():
    a = T.constant(rnd(2, 3))
    b = T.constant(rnd(2, 4, seed=1))
    out = T.concat_last([a, b])
    assert out.values.shape == (2, 7)
    np.testing.assert_allclose(out.values[:, :3], a.values)


def test_softmax_rows_sum_to_one():
    out = T.softmax(T.constant(rnd(6, 4) * 50))  # large logits: stability check
    np.testing.assert_allclose(out.values.sum(axis=1), 1.0)
    assert np.all(np.isfinite(out.values))


def test_sigmoid_extreme_inputs_finite():
    out = T.sigmoid(T.constant(np.array([[-800.0, 800.0]])))
    assert np.all(np.isfinite(out.values))
    assert out.values[0, 0] >= 0.0 and out.values[0, 1] <= 1.0


def test_relu_forward():
    x = np.array([[-1.0, 0.0, 2.0]])
    np.testing.assert_allclose(T.relu(T.constant(x)).values, [[0.0, 0.0, 2.0]])


def test_reciprocal_grad():
    x = Tensor(np.array([[2.0, 4.0]]), requires_grad=True)
    backward(T.sum_reduce(T.reciprocal(x)))
    np.testing.assert_allclose(x.grad, -1.0 / x.values ** 2)


def test_gradient_accumulation_diamond():
    # x used twice: gradients must add, not overwrite
    x = Tensor(np.array([[3.0]]), requires_grad=True)
    out = T.add(T.mul(x, x), x)  # x^2 + x -> d/dx = 2x + 1
    backward(T.sum_reduce(out))
    np.testing.assert_allclose(x.grad, [[7.0]])


def test_add_gradients_are_unaliased():
    # add's backward hands one array to both parents; each must own its grad
    a = Tensor(rnd(2, 3), requires_grad=True)
    b = Tensor(rnd(2, 3, seed=1), requires_grad=True)
    backward(T.sum_reduce(T.mul(T.add(a, b), T.constant(rnd(2, 3, seed=2)))))
    np.testing.assert_array_equal(a.grad, rnd(2, 3, seed=2))
    np.testing.assert_array_equal(b.grad, rnd(2, 3, seed=2))
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, rnd(2, 3, seed=2))

    x = Tensor(rnd(2, 3), requires_grad=True)
    doubled = T.add(x, x)
    backward(T.sum_reduce(doubled))
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))
    np.testing.assert_array_equal(doubled.grad, np.ones((2, 3)))


def test_gradient_of_wrong_shape_raises():
    x = Tensor(rnd(2, 3), requires_grad=True)
    with pytest.raises(ShapeError):
        x._accumulate(np.ones((1, 3)))  # would broadcast into a (2, 3) buffer
    x._accumulate(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        x._accumulate(np.ones(3))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), d=st.integers(1, 4), k=st.integers(0, 3),
       m=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_scatter_rows_equals_add_at_bit_for_bit(n, d, k, m, seed):
    """k == 0 gives a 1-D index as in take_rows, k >= 1 an (m, k) one as in
    blend_rows. Drawing m*k indices from n rows repeats rows and leaves
    others untaken."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(m,) if k == 0 else (m, k))
    rows = rng.standard_normal(idx.shape + (d,)) * 10.0 ** rng.integers(-8, 9, idx.shape + (d,))
    expect = np.zeros((n, d))
    np.add.at(expect, idx, rows)
    got = T._scatter_rows(idx, rows, n)
    assert got.shape == (n, d)
    assert got.tobytes() == expect.tobytes()


def test_backward_requires_scalar_root():
    x = Tensor(rnd(2, 2), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(T.relu(x))


def test_take_rows_repeated_rows_add_gradients():
    a = Tensor(rnd(3, 2), requires_grad=True)
    out = T.take_rows(a, np.array([2, 0, 2]))
    np.testing.assert_array_equal(out.values, a.values[[2, 0, 2]])
    backward(T.sum_reduce(out))
    np.testing.assert_array_equal(a.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
    with pytest.raises(ShapeError):
        T.take_rows(a, np.array([[0, 1]]))


def test_blend_rows_matches_member_sum():
    a = T.constant(rnd(4, 3))
    groups = np.array([[2, 0], [2, 3], [1, 1]])
    w = T.constant(rnd(3, 2, seed=1))
    out = T.blend_rows(a, groups, w)
    expect = np.einsum("mk,mkn->mn", w.values, a.values[groups])
    np.testing.assert_allclose(out.values, expect, rtol=1e-15)
    with pytest.raises(ShapeError):
        T.blend_rows(a, groups, T.constant(rnd(3, 3)))
    with pytest.raises(ShapeError):
        T.blend_rows(a, groups.astype(np.float64), w)


def test_kl_from_logits_one_hot_is_cross_entropy():
    z = rnd(5, 4) * 10
    y = np.eye(4)[[0, 3, 1, 1, 2]]
    loss = float(T.kl_from_logits(T.constant(z), y).values)
    log_softmax = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(loss, -(y * log_softmax).sum(axis=1).mean(), rtol=1e-12)


@pytest.mark.parametrize("fn,shapes", [
    (lambda ls: T.sum_reduce(T.matmul(ls[0], ls[1])), [(3, 4), (4, 2)]),
    (lambda ls: T.sum_reduce(T.mul(ls[0], ls[1])), [(3, 3), (3, 3)]),
    (lambda ls: T.mean(T.sigmoid(ls[0])), [(4, 5)]),
    (lambda ls: T.sum_reduce(T.mul(T.softmax(ls[0]), T.log(T.softmax(ls[0])))), [(3, 4)]),
    (lambda ls: T.sum_reduce(T.reciprocal(T.add(T.mul(ls[0], ls[0]), T.constant(np.ones((2, 2)))))), [(2, 2)]),
])
def test_grad_check_composites(fn, shapes):
    rng = np.random.default_rng(42)
    point = [rng.standard_normal(s) for s in shapes]
    err = grad_check(fn, point, epsilon=1e-5)
    assert err < 1e-6


def test_grad_check_relu_kink_warns_and_skips():
    # a coordinate sitting exactly on the kink must warn, not fail
    point = [np.array([[0.0, 1.0]])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = grad_check(lambda ls: T.sum_reduce(T.relu(ls[0])), point, epsilon=1e-5)
    assert any(issubclass(w.category, SubgradientWarning) for w in caught)
    assert err < 1e-6  # the smooth coordinate still checks


def test_grad_check_catches_wrong_gradient():
    def fn(ls):
        return T.sum_reduce(T.sigmoid(ls[0]))

    def wrong(ls):
        # f's value with a 1% wrong gradient: -0.01 f(constant copy) + 1.01 f(leaves)
        frozen = fn([T.constant(leaf.values) for leaf in ls])
        return T.add(T.smul(frozen, -0.01), T.smul(fn(ls), 1.01))

    point = [rnd(2, 2, seed=3)]
    assert grad_check(fn, point, epsilon=1e-5) < 1e-6  # sanity: the true graph passes
    assert grad_check(wrong, point, epsilon=1e-5) > 1e-5
