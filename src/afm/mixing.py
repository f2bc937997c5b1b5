"""Weight-normalized interpolation of virtual feature-target pairs.

Each group's raw sigmoid weights are normalized by their sum (plus an
epsilon underflow guard) and the same normalized weights blend both the
member features and the member one-hot labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .grouping import AttentionOutput, member_selectors
from .tensor import Tensor

# Underflow guard on the weight-sum denominator. Sigmoid outputs are
# strictly positive so 0 would be mathematically safe; 1e-12 keeps the
# normalized weights (and soft-label sums) within 1e-9 of the simplex,
# which a larger guard would violate.
DEFAULT_EPSILON = 1e-12


@dataclass
class InterpolationBatch:
    """All m interpolations of a minibatch, kept as tensors for the tape."""

    features: Tensor      # (m, d)
    soft_labels: Tensor   # (m, C)
    weights: Tensor       # (m, K) normalized
    groups: np.ndarray    # (m, K) member indices into the batch

    def __len__(self):
        return len(self.groups)


def _blend(weight_cols, members):
    total = None
    for w_col, mat in zip(weight_cols, members):
        term = T.scale_rows(mat, w_col)
        total = term if total is None else T.add(total, term)
    return total


def interpolate(features: Tensor, labels, attention: AttentionOutput,
                epsilon: float = DEFAULT_EPSILON) -> InterpolationBatch:
    """Blend group member features and labels with normalized attention
    weights; differentiable through both the features and the weights."""
    if epsilon < 0:
        raise ShapeError("epsilon must be nonnegative")
    labels = np.asarray(labels, dtype=np.float64)
    n = features.values.shape[0]
    if labels.ndim != 2 or labels.shape[0] != n:
        raise ShapeError(f"labels shape {labels.shape} does not match {n} samples")
    groups = attention.groups
    m = len(groups)
    k = attention.weights.values.shape[1]
    if attention.weights.values.shape != (m, k):
        raise ShapeError("attention weights do not match group array")
    cols = member_selectors(groups, n, k)

    # normalized weights: alpha / (sum(alpha) + eps), shared by the
    # feature and label blends
    denom = T.matmul(attention.weights, T.constant(np.ones((k, 1))))
    if epsilon > 0:
        denom = T.add(denom, T.constant(np.full((m, 1), epsilon)))
    norm_w = T.scale_rows(attention.weights, T.reciprocal(denom))

    eye = np.eye(k)
    w_cols = [T.matmul(norm_w, T.constant(eye[:, pos:pos + 1])) for pos in range(k)]
    mixed_features = _blend(w_cols, [T.take_rows(features, col) for col in cols])
    soft_labels = _blend(w_cols, [T.constant(labels[col]) for col in cols])
    return InterpolationBatch(features=mixed_features, soft_labels=soft_labels,
                              weights=norm_w, groups=groups)
