"""Weight-normalized interpolation of virtual feature-target pairs.

Each group's raw weights are normalized by their sum (plus an epsilon
underflow guard) and the same normalized weights blend both the member
features and the member one-hot labels. The afm mode passes the attention
net's sigmoid weights; the mixup comparison modes pass constant Beta draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .grouping import member_selectors
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


def interpolate(features: Tensor, labels, groups, weights: Tensor,
                epsilon: float = DEFAULT_EPSILON) -> InterpolationBatch:
    """Blend the members of each row of the (m, K) ``groups`` array, both
    features and labels, with that row of the raw (m, K) ``weights``
    normalized; differentiable through both the features and the weights."""
    if epsilon < 0:
        raise ShapeError("epsilon must be nonnegative")
    labels = np.asarray(labels, dtype=np.float64)
    n = features.values.shape[0]
    if labels.ndim != 2 or labels.shape[0] != n:
        raise ShapeError(f"labels shape {labels.shape} does not match {n} samples")
    member_selectors(groups, n, weights.values.shape[-1])
    # blend_rows requires weights of the groups' shape
    norm_w = T.normalize_rows(weights, epsilon)
    return InterpolationBatch(features=T.blend_rows(features, groups, norm_w),
                              soft_labels=T.blend_rows(T.constant(labels), groups, norm_w),
                              weights=norm_w)
