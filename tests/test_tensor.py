"""Autodiff engine tests: primitives, backward pass, grad_check."""

import ast
import pathlib
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afm import tensor as T, verify
from afm.errors import ShapeError
from afm.grouping import INTERACTIONS, PROJECTION_MODES
from afm.tensor import Tensor, backward, grad_check
from afm.training import TrainConfig


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


def test_add_does_not_broadcast():
    with pytest.raises(ShapeError) as exc:
        T.add(T.constant(rnd(5, 3)), T.constant(rnd(1, 3, seed=2)))
    assert str(exc.value) == "add: (5, 3) + (1, 3)"


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
    for bad in (T.constant(rnd(2)), T.constant(rnd(2, 4, 1))):
        with pytest.raises(ShapeError):
            T.concat_last([a, bad])


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


def ladder(y, levels):
    for _ in range(levels):
        y = T.add(y, y)
    return y


@pytest.mark.parametrize("graph,expect", [
    (lambda x: T.add(T.mul(x, x), x), 7.0),  # x^2 + x -> d/dx = 2x + 1
    # y = y + y, 60 times: 2**60 paths lead from the root to x, so a walk
    # that visits a node once per path would never finish
    (lambda x: ladder(x, 60), 2.0 ** 60),
], ids=["square-plus-x", "ladder-60"])
def test_gradient_accumulation_diamond(graph, expect):
    # x used more than once: gradients must add, not overwrite
    x = Tensor(np.array([[3.0]]), requires_grad=True)
    backward(T.sum_reduce(graph(x)))
    assert x.grad.tolist() == [[expect]]


def afm_loss(k=2, interaction="sum", projections="distinct", seed=11):
    """Random leaves and the afm training step's loss over them, built by
    verify.step_loss_case on a 2-layer backbone with half the groups
    intra-class. There is one leaf per distinct parameter tensor, so a
    shared projection is one leaf pair that every position reads."""
    config = TrainConfig(k=k, interaction=interaction, projections=projections,
                         intra_ratio=0.5, hidden=(4, 5))
    _, point, loss = verify.step_loss_case(config, np.random.default_rng(seed))
    leaves = [T.parameter(v) for v in point]
    return leaves, loss(leaves)


def smul_chain():
    x = T.parameter(np.array([1.0, 2.0]))
    return [x], T.sum_reduce(T.smul(x, 2.0))


def matmul_chain():
    w = T.parameter(np.array([[1.0]]))
    return [w], T.sum_reduce(T.matmul(T.matmul(w, w), w))


@pytest.mark.parametrize("graph,rtol", [(smul_chain, 0.0), (matmul_chain, 0.0),
                                        (afm_loss, 1e-12)],
                         ids=["smul-chain", "matmul-chain", "afm-loss"])
def test_repeated_backward_adds_one_gradient(graph, rtol):
    """A second backward on the same graph adds each leaf's gradient once
    more: interior nodes start from zero on every call. The chains are
    exact; in the afm loss a leaf with several contributions adds them in
    a different grouping the second time."""
    leaves, loss = graph()
    backward(loss)
    once = [leaf.grad.copy() for leaf in leaves]
    backward(loss)
    for leaf, g in zip(leaves, once):
        if rtol:
            np.testing.assert_allclose(leaf.grad, 2 * g, rtol=rtol, atol=0)
        else:
            assert leaf.grad.tolist() == (2 * g).tolist()


@pytest.mark.parametrize("projections", PROJECTION_MODES)
@pytest.mark.parametrize("interaction", INTERACTIONS)
def test_backward_runs_each_node_once_after_its_consumers(monkeypatch, interaction,
                                                          projections):
    """In every K=3 afm loss graph, backward runs each interior node's
    backward exactly once, after the backward of every node that consumes
    it."""
    leaves, loss = afm_loss(3, interaction, projections)
    interior, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if node._backward is not None and id(node) not in interior:
            interior[id(node)] = node
            stack.extend(node._parents)
    ran = []

    def recorded(fn):
        def run(out):
            ran.append(id(out))
            fn(out)
        return run

    for node in interior.values():
        node._backward = recorded(node._backward)
    contributions = {}
    accumulate = Tensor._accumulate

    def counted(self, g):
        contributions[id(self)] = contributions.get(id(self), 0) + 1
        accumulate(self, g)

    monkeypatch.setattr(Tensor, "_accumulate", counted)
    backward(loss)
    assert sorted(ran) == sorted(interior)
    order = {i: r for r, i in enumerate(ran)}
    for node in interior.values():
        for p in node._parents:
            if id(p) in interior:
                assert order[id(node)] < order[id(p)]
    if projections == "shared":
        # each position's slice goes through the one shared projection,
        # whose weight leaf comes just before the attention net's two pairs
        assert contributions[id(leaves[-6])] == 3


def node_builders():
    """The functions of afm.tensor that build tape nodes through _make."""
    tree = ast.parse(pathlib.Path(T.__file__).read_text())
    return {f.name for f in tree.body if isinstance(f, ast.FunctionDef)
            and any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "_make"
                    for c in ast.walk(f))}


def test_every_node_builder_has_a_primitive_case(monkeypatch):
    """Each function that makes tape nodes is reached by at least one
    verify.PRIMITIVE_CASES entry, so the gradient check covers it."""
    reached = set()
    make = T._make

    def recorded(*args):
        reached.add(sys._getframe(1).f_code.co_name)
        return make(*args)

    monkeypatch.setattr(T, "_make", recorded)
    rng = np.random.default_rng(0)
    for fn, shapes in verify.PRIMITIVE_CASES.values():
        fn([T.parameter(0.5 + rng.uniform(size=s)) for s in shapes])
    builders = node_builders()
    assert {"matmul", "affine", "group_affine", "kl_from_logits"} <= builders
    assert builders - reached == set()


def test_node_values_are_float64_arrays(monkeypatch):
    """Every node a primitive makes holds a float64 ndarray, the 0-d ones
    included, which numpy computes as scalars: each PRIMITIVE_CASES function
    on constants and on parameters, then the chain add(smul(frozen, 2.0),
    smul(loss, -1.0)) of the two and a 0-d mul."""
    made = []
    make = T._make

    def recorded(*args):
        made.append(make(*args))
        return made[-1]

    monkeypatch.setattr(T, "_make", recorded)
    rng = np.random.default_rng(0)
    for fn, shapes in verify.PRIMITIVE_CASES.values():
        point = [0.5 + rng.uniform(size=s) for s in shapes]
        frozen = fn(list(map(T.constant, point)))
        loss = T.add(T.smul(frozen, 2.0), T.smul(fn(list(map(T.parameter, point))), -1.0))
        T.mul(loss, loss)
    assert len(made) > 4 * len(verify.PRIMITIVE_CASES)
    assert {(type(t.values), t.values.dtype) for t in made} == {(np.ndarray, np.dtype(float))}


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


@pytest.mark.parametrize("graph,shapes", [
    (lambda ls: T.add(*ls), [(2, 3), (2, 3)]),
    (lambda ls: T.affine(*ls), [(1, 4), (4, 3), (1, 3)]),
    # positions 0 and 2 share one weight and one bias tensor
    (lambda ls: T.group_affine(ls[0], [ls[1], ls[2], ls[1]], [ls[3], ls[4], ls[3]]),
     [(2, 9), (3, 2), (3, 2), (1, 2), (1, 2)]),
    (lambda ls: T.concat_last([ls[0], ls[1], ls[0]]), [(2, 3), (2, 4)]),
], ids=["add", "one-row-affine", "group-affine", "concat-last"])
def test_gradients_are_unaliased_after_backward(graph, shapes):
    """A backward that hands one array to several tensors copies it, so
    += on one leaf's grad leaves every other grad, the intermediate
    tensors' included, unchanged."""
    leaves = [Tensor(rnd(*s, seed=i), requires_grad=True) for i, s in enumerate(shapes)]
    out = graph(leaves)
    backward(T.sum_reduce(T.mul(out, T.constant(rnd(*out.values.shape, seed=9)))))
    tensors = [*leaves, out]
    for t in tensors:
        before = [u.grad.copy() for u in tensors]
        t.grad += 1.0
        for u, g in zip(tensors, before):
            if u is not t:
                np.testing.assert_array_equal(u.grad, g)


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
    """k == 0 gives a 1-D index, k >= 1 an (m, k) one as in gather_rows.
    Drawing m*k indices from n rows repeats rows and leaves others
    untaken."""
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


def test_gather_rows_repeated_rows_add_gradients():
    # row 2 is taken three times and row 1 never
    a = Tensor(rnd(4, 2), requires_grad=True)
    groups = np.array([[2, 0], [3, 2], [2, 0]])
    out = T.gather_rows(a, groups)
    np.testing.assert_array_equal(out.values, np.hstack([a.values[groups[:, 0]],
                                                         a.values[groups[:, 1]]]))
    backward(T.sum_reduce(T.mul(out, T.constant(np.arange(12.0).reshape(3, 4)))))
    # member k of row i sits in columns [2k, 2k + 2)
    np.testing.assert_array_equal(a.grad, [[2 + 10, 3 + 11], [0, 0],
                                           [0 + 6 + 8, 1 + 7 + 9], [4, 5]])
    for bad in (np.array([0, 1]), np.array([[0.0, 1.0]]), np.array([[True, False]])):
        with pytest.raises(ShapeError):
            T.gather_rows(a, bad)
    with pytest.raises(ShapeError):
        T.gather_rows(T.constant(rnd(4)), groups)


def test_slice_last_columns_and_gradient():
    a = Tensor(rnd(2, 5), requires_grad=True)
    out = T.slice_last(a, 1, 3)
    np.testing.assert_array_equal(out.values, a.values[:, 1:3])
    backward(T.sum_reduce(out))
    np.testing.assert_array_equal(a.grad, [[0, 1, 1, 0, 0]] * 2)
    for start, stop in ((2, 2), (-1, 2), (3, 6)):
        with pytest.raises(ShapeError):
            T.slice_last(a, start, stop)


def test_blend_rows_matches_member_sum():
    a = T.constant(rnd(4, 3))
    groups = np.array([[2, 0], [2, 3], [1, 1]])
    w = T.constant(rnd(3, 2, seed=1))
    out = T.blend_rows(T.gather_rows(a, groups), w)
    expect = np.einsum("mk,mkn->mn", w.values, a.values[groups])
    np.testing.assert_allclose(out.values, expect, rtol=1e-15)
    block = T.gather_rows(a, groups)
    for bad in (rnd(3, 4), rnd(2, 2), rnd(3), rnd(3, 0)):
        with pytest.raises(ShapeError):
            T.blend_rows(block, T.constant(bad))
    with pytest.raises(ShapeError):
        T.blend_rows(T.constant(rnd(3, 7)), w)


def test_kl_from_logits_one_hot_is_cross_entropy():
    z = rnd(5, 4) * 10
    y = np.eye(4)[[0, 3, 1, 1, 2]]
    loss = float(T.kl_from_logits(T.constant(z), y).values)
    log_softmax = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(loss, -(y * log_softmax).sum(axis=1).mean(), rtol=1e-12)


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("relu", [False, True])
def test_affine_equals_numpy_bit_for_bit(relu, rows):
    """affine against x @ w + b and its relu in numpy, for values and all
    three gradients: g @ w.T, x.T @ g and g summed over the rows, with g
    the upstream gradient, masked where relu is 0. The layer is a shared
    head called on two inputs, so the gradients of w and b accumulate,
    the second call's first, as backward runs them."""
    x_rows = rnd(rows, 4)
    x_rows[0] = 0.0  # pre-activations equal to b: 0, exactly, in column 1
    xs = [x_rows, rnd(rows, 4, seed=1)]
    w_vals, b_row = rnd(4, 3, seed=2), np.array([[0.3, 0.0, -0.2]])
    upstream = [rnd(rows, 3, seed=5), rnd(rows, 3, seed=6)]
    for u in upstream:
        u[:, 0] = -0.0  # the sign of each zero in the sums must match numpy's

    x = [Tensor(v, requires_grad=True) for v in xs]
    w, b = Tensor(w_vals, requires_grad=True), Tensor(b_row, requires_grad=True)
    outs = [T.affine(xi, w, b, relu=relu) for xi in x]
    backward(T.add(*(T.sum_reduce(T.mul(o, T.constant(u))) for o, u in zip(outs, upstream))))

    pres = [v @ w_vals + b_row for v in xs]
    gs = [u * (p > 0) if relu else u for u, p in zip(upstream, pres)]
    expect = [np.maximum(p, 0.0) if relu else p for p in pres]
    expect += [g @ w_vals.T for g in gs]
    expect.append(xs[1].T @ gs[1] + xs[0].T @ gs[0])
    expect.append(np.add.reduce(gs[1], 0, keepdims=True) + np.add.reduce(gs[0], 0, keepdims=True))
    got = [o.values for o in outs] + [t.grad for t in (*x, w, b)]
    for got_array, expect_array in zip(got, expect, strict=True):
        assert got_array.tobytes() == expect_array.tobytes()


def test_affine_shape_errors():
    x, w, b = T.constant(rnd(3, 4)), T.constant(rnd(4, 2)), T.constant(rnd(1, 2))
    assert T.affine(x, w, b).values.shape == (3, 2)
    for args in ((T.constant(rnd(4)), w, b), (T.constant(rnd(3, 5)), w, b),
                 (x, T.constant(rnd(4, 2, 1)), b), (x, T.constant(rnd(3, 2)), b),
                 (x, w, T.constant(rnd(2))), (x, w, T.constant(rnd(3, 2))),
                 (x, w, T.constant(rnd(1, 3)))):
        with pytest.raises(ShapeError) as exc:
            T.affine(*args)
        assert str(exc.value) == "affine: {} @ {} + {}".format(*(a.values.shape for a in args))


@pytest.mark.parametrize("scale", [0.75, 0.25, 1.0 - 0.7, 0.0, 1.0, 1.7])
def test_kl_from_logits_scale_equals_smul_bit_for_bit(scale):
    # compute_loss weights its two losses inside kl_from_logits, not with
    # smul; 5 rows, so that dividing by the row count rounds
    targets = np.abs(rnd(5, 3, seed=1))
    targets[1, 2] = 0.0  # 0 * log 0

    def graph(fused):
        z, t = Tensor(rnd(5, 3) * 3, requires_grad=True), Tensor(targets, requires_grad=True)
        loss = T.kl_from_logits(z, t, scale) if fused else T.smul(T.kl_from_logits(z, t), scale)
        backward(loss)
        return loss.values, z.grad, t.grad

    for got, expect in zip(graph(True), graph(False)):
        assert got.tobytes() == expect.tobytes()


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
    err, skipped = grad_check(fn, point)
    assert err < 1e-6 and skipped == []


def test_grad_check_relu_kink_skips_the_leaf():
    # a leaf with a coordinate exactly on the kink is skipped, not failed
    point = [np.array([[0.0, 1.0]]), np.array([[0.3, -0.7]])]
    err, skipped = grad_check(lambda ls: T.add(T.sum_reduce(T.relu(ls[0])),
                                               T.sum_reduce(T.sigmoid(ls[1]))), point)
    assert skipped == [0]
    assert err < 1e-6  # the smooth leaf still checks


def test_grad_check_affine_relu_kink_skips_the_leaves():
    # column 0's pre-activation is 1e-6, within epsilon of the kink: the
    # probes of w (leaf 1) and b (leaf 2) along their directions land on
    # both sides of it. x's probes move column 1 only, as w's column 0 is 0.
    point = [np.array([[1.0, 2.0]]), np.array([[0.0, 1.0], [0.0, 1.0]]),
             np.array([[1e-6, 0.0]])]
    err, skipped = grad_check(lambda ls: T.sum_reduce(T.affine(*ls, relu=True)), point)
    assert skipped == [1, 2]
    assert err < 1e-6  # the skipped leaves do not count; x checks


def test_grad_check_is_deterministic_and_leaves_global_rng_alone():
    # the directions come from grad_check's own generator: numpy's global
    # state neither changes the result nor is advanced by the call
    def fn(ls):
        return T.sum_reduce(T.mul(T.sigmoid(ls[0]), ls[1]))

    point = [rnd(3, 4, seed=5), rnd(3, 4, seed=6)]
    saved = np.random.get_state()
    try:
        results = []
        for seed in (0, 1):
            np.random.seed(seed)
            before = np.random.get_state()
            results.append(grad_check(fn, point))
            after = np.random.get_state()
            assert after[1].tobytes() == before[1].tobytes() and after[2:] == before[2:]
    finally:
        np.random.set_state(saved)
    assert repr(results[0]) == repr(results[1])
    assert 0.0 < results[0][0] < 1e-6 and results[0][1] == []


def test_grad_check_catches_wrong_gradient():
    def fn(ls):
        return T.sum_reduce(T.sigmoid(ls[0]))

    def wrong(ls):
        # f's value with a 1% wrong gradient: -0.01 f(constant copy) + 1.01 f(leaves)
        frozen = fn([T.constant(leaf.values) for leaf in ls])
        return T.add(T.smul(frozen, -0.01), T.smul(fn(ls), 1.01))

    point = [rnd(2, 2, seed=3)]
    assert grad_check(fn, point)[0] < 1e-6  # sanity: the true graph passes
    assert grad_check(wrong, point)[0] > 1e-5


@pytest.mark.parametrize("shared", [False, True])
def test_group_affine_equals_per_position_sum(shared):
    """group_affine of the member block against one gather and affine per
    position, summed, for values and for every gradient."""
    groups = np.array([[2, 0, 2], [3, 2, 1], [0, 0, 3]])
    names = ("a", "w0", "w1", "w2", "b0", "b1", "b2")
    shapes = [(4, 5)] + [(5, 3)] * 3 + [(1, 3)] * 3

    def leaves():
        out = {n: Tensor(rnd(*s, seed=i), requires_grad=True)
               for i, (n, s) in enumerate(zip(names, shapes))}
        if shared:
            out["w1"] = out["w2"] = out["w0"]
            out["b1"] = out["b2"] = out["b0"]
        return out

    def graph(fused):
        ls = leaves()
        ws, bs = [ls["w0"], ls["w1"], ls["w2"]], [ls["b0"], ls["b1"], ls["b2"]]
        if fused:
            out = T.group_affine(T.gather_rows(ls["a"], groups), ws, bs)
        else:
            out = None
            for k in range(3):
                xk = T.affine(T.gather_rows(ls["a"], groups[:, k:k + 1]), ws[k], bs[k])
                out = xk if out is None else T.add(out, xk)
        backward(T.sum_reduce(T.mul(out, T.constant(rnd(3, 3, seed=9)))))
        return out.values, [ls[n].grad for n in names]

    (fused, fused_grads), (loop, loop_grads) = graph(True), graph(False)
    np.testing.assert_allclose(fused, loop, rtol=0, atol=1e-12)
    for g, h in zip(fused_grads, loop_grads):
        np.testing.assert_allclose(g, h, rtol=0, atol=1e-12)


def test_group_affine_shape_errors():
    members = T.constant(rnd(2, 6))  # two groups of two 3-wide members
    w, b = T.constant(rnd(3, 2)), T.constant(rnd(1, 2))
    assert T.group_affine(members, [w, w], [b, b]).values.shape == (2, 2)
    for args in ((members, [w], [b]), (members, [w, w], [b]),
                 (members, [w, T.constant(rnd(2, 2))], [b, b]),
                 (members, [w, w], [b, T.constant(rnd(2, 2))]),
                 (members, [], []), (T.constant(rnd(2, 5)), [w, w], [b, b]),
                 (T.constant(rnd(6)), [w, w], [b, b])):
        with pytest.raises(ShapeError):
            T.group_affine(*args)


# the kernels before their numpy fast paths, kept as byte-for-byte references
def old_relu(a):
    return np.where(a > 0, a, 0.0)


def old_sigmoid(a):
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ez = np.exp(a[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def old_log_t(t):
    return np.log(t, out=np.zeros_like(t), where=t > 0)


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1e3, -1e3, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.0]))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(FINITE, min_size=1, max_size=12), cols=st.integers(1, 4))
def test_fast_kernels_match_old_expressions_bit_for_bit(values, cols):
    a = np.array(values * cols).reshape(cols, -1)
    assert T.relu(T.constant(a)).values.tobytes() == old_relu(a).tobytes()
    assert T.sigmoid(T.constant(a)).values.tobytes() == old_sigmoid(a).tobytes()
    # log_t reaches the gradient of the targets, g * (log_t + [t > 0] - log p)
    z = np.zeros_like(a)
    t = Tensor(a, requires_grad=True)
    # targets near ±1e308 make the loss value inf - inf; its gradient stays finite
    with np.errstate(over="ignore", invalid="ignore"):
        backward(T.kl_from_logits(T.constant(z), t))
    log_p = np.full_like(a, -np.log(a.shape[1]))
    expect = (1.0 / len(a)) * (old_log_t(a) + (a > 0) - log_p)
    assert t.grad.tobytes() == expect.tobytes()


def test_fast_kernels_warn_on_nothing_and_propagate_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.sigmoid(T.constant(np.array([[-1000.0, 1000.0]]))).values
    assert out.tolist() == [[0.0, 1.0]]
    assert np.isnan(T.relu(T.constant(np.array([[np.nan, 1.0]]))).values[0, 0])
    eye = T.constant(np.eye(2))
    nan_row = T.constant(np.array([[np.nan, 1.0]]))
    assert np.isnan(T.affine(nan_row, eye, T.constant(np.zeros((1, 2))), relu=True).values[0, 0])
