"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Values are 64-bit floats stored in numpy arrays (row-major). Graph
construction is single-threaded; tensors are immutable after creation
except for their grad buffers. Broadcasting is deliberately restricted to
(matrix, bias-row) addition so every shape rule stays auditable.
Primitives hand ``_make`` the float64 ndarray numpy computes, stored as
is, and do not scan for NaN or inf: finiteness is checked where values
enter (files, configs) and where training uses them (each step's loss,
every gradient).

relu's subgradient at 0 is defined as 0, in relu and in affine's fused
relu alike; grad_check skips coordinates whose finite-difference probes
cross a relu kink.

Each tensor owns its grad array: no two tensors' grads share memory, so
``+=`` on one leaf's grad after ``backward`` changes no other grad; the
grads of an optimizer's leaves are disjoint views of its gradient vector,
which backward adds into. A backward that has just computed an array for
one parent hands it over as is, as it may hand views of disjoint parts of
one fresh array. A backward that would hand one array to more than one
tensor, or a view of its output's grad, hands each a copy instead: add,
affine's one-row bias, group_affine's bias gradient and concat_last's
slices.
"""

from __future__ import annotations

import itertools
import warnings
from operator import attrgetter

import numpy as np

from .errors import NumericError, ShapeError, SubgradientWarning

# When not None, relu and affine(relu=True) append their activation masks
# here. grad_check uses this to detect finite-difference probes that cross
# a kink.
_relu_trace: list[np.ndarray] | None = None

# numbers tape nodes in creation order: a node's parents have lower numbers
_serial = itertools.count()
_requires_grad, _backward_fn = attrgetter("requires_grad"), attrgetter("_backward")
_values, _shape = attrgetter("values"), attrgetter("values.shape")


class Tensor:
    """Dense float64 array participating in the gradient tape."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward", "_n")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._backward = None  # _parents and _n are set on tape nodes only

    def _accumulate(self, g):
        """Add ``g`` to this tensor's grad. The first gradient is stored as
        is, so the caller must not use it again."""
        if g.shape != self.values.shape:
            raise ShapeError(f"gradient {g.shape} for value {self.values.shape}")
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


def _make(values, parents, backward_fn):
    interior = tuple(filter(_backward_fn, parents))  # all that backward walks
    if not interior and not any(map(_requires_grad, parents)):
        return Tensor(values)
    out = Tensor.__new__(Tensor)
    out.values = values
    out.grad = None
    out.requires_grad = True
    out._parents = interior
    out._backward = backward_fn
    out._n = next(_serial)
    return out


def constant(values):
    return Tensor(values, requires_grad=False)


def parameter(values):
    return Tensor(values, requires_grad=True)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(f"matmul: {a.values.shape} @ {b.values.shape}")
    out_vals = a.values @ b.values

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad @ b.values.T)
        if b.requires_grad:
            b._accumulate(a.values.T @ out.grad)

    return _make(out_vals, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise addition; also allows (m,n) + (1,n) bias-row broadcast."""
    bias_row = (
        a.values.ndim == 2
        and b.values.ndim == 2
        and b.values.shape == (1, a.values.shape[1])
        and a.values.shape[0] != 1
    )
    if not bias_row and a.values.shape != b.values.shape:
        raise ShapeError(f"add: {a.values.shape} + {b.values.shape}")
    out_vals = np.asarray(a.values + b.values)  # numpy gives a 0-d sum as a scalar

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad.copy())
        if b.requires_grad:
            b._accumulate(np.add.reduce(out.grad, axis=0, keepdims=True) if bias_row
                          else out.grad.copy())

    return _make(out_vals, (a, b), backward)


def affine(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """x @ w + b with a (1, n) bias row ``b``, then relu when ``relu``: one
    tape node with the values and gradients of add(matmul(x, w), b) and of
    relu(add(matmul(x, w), b)), bit for bit. As in add, a one-row ``x``
    gives ``b`` its gradient row as is, not summed (which would turn -0.0
    into 0.0)."""
    xv, wv, bv = x.values, w.values, b.values
    if (xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]
            or bv.shape != (1, wv.shape[1])):
        raise ShapeError(f"affine: {xv.shape} @ {wv.shape} + {bv.shape}")
    out_vals = xv @ wv
    out_vals += bv
    mask = None
    if relu:
        mask = out_vals > 0  # subgradient at 0 is 0
        if _relu_trace is not None:
            _relu_trace.append(mask.copy())
        np.maximum(out_vals, 0.0, out=out_vals)  # NaN propagates, as in relu

    def backward(out):
        g = out.grad if mask is None else out.grad * mask
        if b.requires_grad:
            b._accumulate(g.copy() if len(g) == 1 else np.add.reduce(g, 0, keepdims=True))
        if x.requires_grad:
            x._accumulate(g @ w.values.T)
        if w.requires_grad:
            w._accumulate(x.values.T @ g)

    return _make(out_vals, (x, w, b), backward)


def smul(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar."""
    c = float(c)
    out_vals = np.asarray(a.values * c)

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad * c)

    return _make(out_vals, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.shape != b.values.shape:
        raise ShapeError(f"mul: {a.values.shape} * {b.values.shape}")
    out_vals = np.asarray(a.values * b.values)

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad * b.values)
        if b.requires_grad:
            b._accumulate(out.grad * a.values)

    return _make(out_vals, (a, b), backward)


def concat_last(tensors) -> Tensor:
    tensors = list(tensors)
    lead = tensors[0].values.shape[:-1]
    for t in tensors:
        if t.values.ndim == 0 or t.values.shape[:-1] != lead:
            raise ShapeError("concat-last-dim: leading dimensions differ")
    out_vals = np.concatenate([t.values for t in tensors], axis=-1)
    widths = [t.values.shape[-1] for t in tensors]

    def backward(out):
        offset = 0
        for t, w in zip(tensors, widths):
            if t.requires_grad:
                t._accumulate(out.grad[..., offset:offset + w].copy())
            offset += w

    return _make(out_vals, tensors, backward)


def sum_reduce(a: Tensor) -> Tensor:
    out_vals = np.asarray(a.values.sum())

    def backward(out):
        if a.requires_grad:
            a._accumulate(np.full_like(a.values, out.grad))

    return _make(out_vals, (a,), backward)


def mean(a: Tensor) -> Tensor:
    if a.values.size == 0:
        raise ShapeError("mean of empty tensor")
    out_vals = np.asarray(a.values.mean())
    n = a.values.size

    def backward(out):
        if a.requires_grad:
            a._accumulate(np.full_like(a.values, out.grad / n))

    return _make(out_vals, (a,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0  # subgradient at 0 is 0
    if _relu_trace is not None:
        _relu_trace.append(mask.copy())
    # the same bits as np.where(mask, a, 0.0) for every finite input, -0.0
    # included, but NaN propagates
    out_vals = np.maximum(a.values, 0.0)

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad * mask)

    return _make(out_vals, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    # 1 / (1 + e^-a) for a >= 0 and e^a / (1 + e^a) below: exp never overflows
    e = np.exp(-np.abs(a.values))
    d = 1.0 + e
    out_vals = np.where(a.values >= 0, 1.0 / d, e / d)

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad * out_vals * (1.0 - out_vals))

    return _make(out_vals, (a,), backward)


def softmax(a: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, stabilised by max subtraction."""
    if a.values.ndim == 0:
        raise ShapeError("softmax needs at least one axis")
    shifted = a.values - a.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_vals = e / e.sum(axis=-1, keepdims=True)

    def backward(out):
        if a.requires_grad:
            dot = (out.grad * out_vals).sum(axis=-1, keepdims=True)
            a._accumulate(out_vals * (out.grad - dot))

    return _make(out_vals, (a,), backward)


def log(a: Tensor) -> Tensor:
    if np.any(a.values <= 0):
        raise NumericError(f"log of non-positive value, operand shape {a.values.shape}")
    out_vals = np.log(a.values)

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad / a.values)

    return _make(out_vals, (a,), backward)


def reciprocal(a: Tensor) -> Tensor:
    if np.any(a.values == 0):
        raise NumericError(f"reciprocal of zero, operand shape {a.values.shape}")
    out_vals = 1.0 / a.values

    def backward(out):
        if a.requires_grad:
            a._accumulate(-out.grad * out_vals * out_vals)

    return _make(out_vals, (a,), backward)


def _scatter_rows(idx, rows, n):
    """An (n, d) matrix whose row r is the sum of the rows ``rows[j]`` with
    ``idx[j] == r``; ``rows`` has shape ``idx.shape + (d,)``. This is
    ``np.add.at(np.zeros((n, d)), idx, rows)`` as one bincount, which adds
    the same values in the same order, so the sums are bit-identical."""
    d = rows.shape[-1]
    bins = (idx.reshape(-1, 1).astype(np.intp, copy=False) * d + np.arange(d)).ravel()
    return np.bincount(bins, weights=rows.ravel(), minlength=n * d).reshape(n, d)


def gather_rows(a: Tensor, groups) -> Tensor:
    """The (m, K*d) member block of a (n, d) matrix: row i holds the rows
    a[groups[i, 0]], ..., a[groups[i, K-1]] side by side, so member k of
    group i sits in columns [k*d, (k+1)*d). ``groups`` is an (m, K)
    integer array. Indices may repeat, and the gradients of repeated rows
    add up in one scatter. Entries must lie in [0, n): numpy would wrap a
    negative one, so group arrays are checked once, by
    grouping.member_selectors, which returns the array it validated."""
    groups = np.asarray(groups)
    if a.values.ndim != 2 or groups.ndim != 2 or groups.dtype.kind not in "iu":
        raise ShapeError(f"gather_rows: {a.values.shape}[{groups.dtype} {groups.shape}]")
    m, (n, d) = len(groups), a.values.shape
    out_vals = a.values[groups].reshape(m, -1)

    def backward(out):
        if a.requires_grad:
            a._accumulate(_scatter_rows(groups, out.grad.reshape(m, -1, d), n))

    return _make(out_vals, (a,), backward)


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of a matrix."""
    if a.values.ndim != 2 or not 0 <= start < stop <= a.values.shape[1]:
        raise ShapeError(f"slice_last: {a.values.shape}[:, {start}:{stop}]")
    out_vals = a.values[:, start:stop]

    def backward(out):
        if a.requires_grad:
            g = np.zeros_like(a.values)
            g[:, start:stop] = out.grad
            a._accumulate(g)

    return _make(out_vals, (a,), backward)


def _member_width(members: Tensor, k: int, op: str) -> int:
    """The width d of each of the K members in an (m, K*d) member block."""
    if members.values.ndim != 2 or k < 1 or members.values.shape[1] % k:
        raise ShapeError(f"{op}: member block {members.values.shape} for K={k}")
    return members.values.shape[1] // k


def blend_rows(members: Tensor, w: Tensor) -> Tensor:
    """Row i is sum_k w[i, k] * (member k of row i): each group's members,
    blended with that group's weights. ``members`` is an (m, K*n) member
    block, as gather_rows builds, and ``w`` an (m, K) tensor. The backward
    reaches both ``members`` and ``w``."""
    if w.values.ndim != 2:
        raise ShapeError(f"blend_rows: weights {w.values.shape} are not a matrix")
    m, k = w.values.shape
    n = _member_width(members, k, "blend_rows")
    if len(members.values) != m:
        raise ShapeError(f"blend_rows: member block {members.values.shape} * {w.values.shape}")
    block = members.values.reshape(m, k, n)
    out_vals = np.einsum("mk,mkn->mn", w.values, block)

    def backward(out):
        if members.requires_grad:
            members._accumulate((w.values[:, :, None] * out.grad[:, None, :]).reshape(m, -1))
        if w.requires_grad:
            w._accumulate(np.einsum("mn,mkn->mk", out.grad, block))

    return _make(out_vals, (members, w), backward)


def group_affine(members: Tensor, weights, biases) -> Tensor:
    """Row i is sum_k (member k of row i) @ weights[k] + biases[k]: each
    group member through the affine map of its position, summed over the
    group, as one matmul of the member block with the K weights stacked by
    row. ``members`` is an (m, K*d) member block, as gather_rows builds;
    ``weights`` are K (d, h) tensors and ``biases`` K (1, h) tensors. A
    tensor that serves several positions gets the sum of their
    gradients."""
    weights, biases = list(weights), list(biases)
    if len(weights) != len(biases):
        raise ShapeError(f"group_affine: {len(weights)} weights, {len(biases)} biases")
    d = _member_width(members, len(weights), "group_affine")
    h = weights[0].values.shape[-1:]
    if set(map(_shape, weights)) != {(d, *h)} or set(map(_shape, biases)) != {(1, *h)}:
        raise ShapeError(f"group_affine: weights {list(map(_shape, weights))}, "
                         f"biases {list(map(_shape, biases))} for width {d}")
    stacked = np.concatenate(list(map(_values, weights)))  # (K*d, h)
    out_vals = members.values @ stacked + sum(map(_values, biases))

    def backward(out):
        if members.requires_grad:
            members._accumulate(out.grad @ stacked.T)
        g_stacked = members.values.T @ out.grad
        for j, w in enumerate(weights):
            if w.requires_grad:
                w._accumulate(g_stacked[j * d:(j + 1) * d])  # disjoint rows: no copy
        g_bias = np.add.reduce(out.grad, axis=0, keepdims=True)
        for b in biases:
            if b.requires_grad:
                b._accumulate(g_bias.copy())

    return _make(out_vals, (members, *weights, *biases), backward)


def normalize_rows(w: Tensor, eps: float) -> Tensor:
    """Each row of a matrix divided by its sum plus ``eps``."""
    if w.values.ndim != 2:
        raise ShapeError(f"normalize_rows: needs a matrix, got {w.values.shape}")
    denom = np.add.reduce(w.values, axis=1, keepdims=True) + eps
    out_vals = w.values / denom

    def backward(out):
        if w.requires_grad:
            dot = np.add.reduce(out.grad * out_vals, axis=1, keepdims=True)
            w._accumulate((out.grad - dot) / denom)

    return _make(out_vals, (w,), backward)


def kl_from_logits(logits: Tensor, targets, scale: float = 1.0) -> Tensor:
    """``scale`` times the mean over rows of KL(t || p) = sum_c t_c (log t_c
    - log p_c) with p = softmax(z), natural log and 0 * log 0 = 0; for
    one-hot targets, the cross-entropy. log p is z minus its log-sum-exp, so
    a probability that underflows to 0 is never logged. The targets are an
    array or a tensor; their gradient at t_c = 0 is -log p_c, that of the
    cross-entropy term. The value and gradients equal those of
    smul(kl_from_logits(z, t), scale) bit for bit, in one tape node."""
    t = targets if isinstance(targets, Tensor) else constant(targets)
    z = logits.values
    if z.ndim != 2 or z.shape[0] == 0 or t.values.shape != z.shape:
        raise ShapeError(f"kl_from_logits: logits {z.shape}, targets {t.values.shape}")
    tv = t.values
    # row maxima as a reduce over the rows of z.T: exact, and faster for few columns
    shifted = z - np.maximum.reduce(z.T.copy(), axis=0)[:, None]
    log_p = shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    carried = tv > 0
    log_t = np.log(np.where(carried, tv, 1.0))
    scale = float(scale)
    out_vals = np.asarray(np.add.reduce(tv * (log_t - log_p), axis=None) / len(z) * scale)

    def backward(out):
        g = out.grad * scale / len(z)
        if logits.requires_grad:
            mass = np.add.reduce(tv, axis=1, keepdims=True)
            logits._accumulate(g * (np.exp(log_p) * mass - tv))
        if t.requires_grad:
            t._accumulate(g * (log_t + carried - log_p))

    return _make(out_vals, (logits, t), backward)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def backward(root: Tensor):
    """Populate .grad of every requires_grad tensor reachable from root.

    One pass collects the interior nodes reachable from root and clears
    their grads, so a stale grad from an earlier call is never replayed.
    The root is seeded with 1 and each node's backward runs once, in
    decreasing creation number: a node is made after its parents, so it
    runs after every node that consumes it. Gradients add up across the
    uses of a node; leaves keep adding across calls until their grad is
    set to None or, as a view of an optimizer's gradient vector, zeroed.
    """
    if root.values.ndim != 0:
        raise ShapeError(f"backward root must be scalar, got shape {root.values.shape}")
    todo = [root] if root._backward is not None else []
    seen = set()
    for node in todo:  # visits what the loop appends, too
        if node not in seen:
            seen.add(node)
            node.grad = None
            todo += node._parents
    root._accumulate(np.array(1.0))
    for node in sorted(seen, key=attrgetter("_n"), reverse=True):
        node._backward(node)


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

def grad_check(function, point, epsilon=1e-5) -> float:
    """Compare reverse-mode gradients of a scalar function against central
    finite differences.

    ``function`` maps a list of Tensors to a scalar Tensor. Returns the max
    over coordinates of |ad - fd| / max(1, |ad|, |fd|). Coordinates whose
    perturbed evaluations land on different relu activation patterns are
    skipped with a SubgradientWarning.
    """
    global _relu_trace
    if epsilon <= 0:
        raise ShapeError("epsilon must be positive")
    leaves = [Tensor(np.asarray(p.values if isinstance(p, Tensor) else p,
                                dtype=np.float64).copy(), requires_grad=True)
              for p in point]
    out = function(leaves)
    if out.values.ndim != 0:
        raise ShapeError("grad_check function must return a scalar")
    backward(out)
    grads = [leaf.grad if leaf.grad is not None else np.zeros_like(leaf.values)
             for leaf in leaves]

    def evaluate(leaf_idx, flat_idx, delta):
        probes = [Tensor(l.values.copy()) for l in leaves]
        probes[leaf_idx].values.flat[flat_idx] += delta
        global _relu_trace
        _relu_trace = []
        try:
            val = float(function(probes).values)
            trace = _relu_trace
        finally:
            _relu_trace = None
        return val, trace

    max_err = 0.0
    for li, leaf in enumerate(leaves):
        for fi in range(leaf.values.size):
            f_plus, trace_plus = evaluate(li, fi, epsilon)
            f_minus, trace_minus = evaluate(li, fi, -epsilon)
            kink = len(trace_plus) != len(trace_minus) or any(
                tp.shape != tm.shape or not np.array_equal(tp, tm)
                for tp, tm in zip(trace_plus, trace_minus)
            )
            if kink:
                warnings.warn(
                    f"relu kink at leaf {li} coordinate {fi}; skipped",
                    SubgradientWarning,
                )
                continue
            fd = (f_plus - f_minus) / (2.0 * epsilon)
            ad = float(grads[li].flat[fi])
            err = abs(ad - fd) / max(1.0, abs(ad), abs(fd))
            max_err = max(max_err, err)
    return max_err
