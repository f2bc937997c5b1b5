"""Weight-normalized interpolation of virtual feature-target pairs.

gather_members validates a batch's (m, K) group array once and gathers
each group's members once, into an (m, K*d) feature block on the tape and
an (m, K*C) block of one-hot labels. The attention net reads the feature
block; interpolate normalizes each group's raw weights by their sum (plus
an epsilon underflow guard) and blends both blocks with the same
normalized weights. The afm mode passes the attention net's sigmoid
weights; the mixup comparison modes pass constant Beta draws.
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
class GroupMembers:
    """The members of m groups of K, side by side: member k of group i
    sits in columns [k*w, (k+1)*w) of row i, w being the width of what was
    gathered."""

    groups: np.ndarray    # (m, K), validated
    features: Tensor      # (m, K*d), one tensor.gather_rows node
    labels: np.ndarray    # (m, K*C)


@dataclass
class InterpolationBatch:
    """All m interpolations of a minibatch, kept as tensors for the tape."""

    features: Tensor      # (m, d)
    soft_labels: Tensor   # (m, C)
    weights: Tensor       # (m, K) normalized


def gather_members(features: Tensor, labels, groups) -> GroupMembers:
    """The members of each row of the (m, K) ``groups`` array, gathered from
    the (n, d) ``features`` and the (n, C) one-hot ``labels`` after
    grouping.member_selectors has validated the groups. Gradients reach
    ``features`` through one scatter, whatever reads the block."""
    labels = np.asarray(labels, dtype=np.float64)
    n = features.values.shape[0]
    if labels.ndim != 2 or labels.shape[0] != n:
        raise ShapeError(f"labels shape {labels.shape} does not match {n} samples")
    groups = member_selectors(groups, n)
    return GroupMembers(groups=groups, features=T.gather_rows(features, groups),
                        labels=labels[groups].reshape(len(groups), -1))


def interpolate(members: GroupMembers, weights: Tensor,
                epsilon: float = DEFAULT_EPSILON) -> InterpolationBatch:
    """Blend each group's members, both features and labels, with that
    group's row of the raw (m, K) ``weights`` normalized; differentiable
    through both the member features and the weights."""
    if epsilon < 0:
        raise ShapeError("epsilon must be nonnegative")
    if weights.values.shape != members.groups.shape:
        raise ShapeError(f"weights {weights.values.shape} for groups {members.groups.shape}")
    norm_w = T.normalize_rows(weights, epsilon)
    return InterpolationBatch(features=T.blend_rows(members.features, norm_w),
                              soft_labels=T.blend_rows(T.constant(members.labels), norm_w),
                              weights=norm_w)
