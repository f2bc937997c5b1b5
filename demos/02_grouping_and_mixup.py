"""Group construction, attention weights, and weight-normalized mixup.

Walks through the pipeline one stage at a time on a toy batch, then prints
the pure-noisy-group table that motivates grouping in the first place.
"""

import numpy as np

from afm import tensor as T
from afm.grouping import GAParams, attend, pure_noisy_group_ratio, sample_groups
from afm.mixing import gather_members, interpolate
from afm.model import glorot
from afm.data import one_hot

rng = np.random.default_rng(1)

# a toy batch of 10 samples, 6 features, 3 classes
feats = T.constant(rng.normal(size=(10, 6)))
labels_int = rng.integers(0, 3, size=10)
labels = one_hot(labels_int, 3)

# one group per row of an (m, K) array of batch indices
groups = sample_groups(labels_int, m=5, k=2, rng=rng)
for g, g_labels in zip(groups, labels_int[groups]):
    kind = "intra" if len(set(g_labels)) == 1 else "inter"
    print(f"group {g}  labels {g_labels}  kind={kind}")

# each group's members, gathered once: (m, K*d) features, (m, K*C) labels
members = gather_members(feats, labels, groups)
# every parameter comes from a source, called with its checkpoint name and
# shape; glorot(rng) draws glorot-uniform weights and zero biases
ga = GAParams(feature_dim=6, k=2, interaction="sum", projections="distinct",
              source=glorot(np.random.default_rng(2)))
raw = attend(members.features, ga)
print("\nraw sigmoid attention weights:")
print(np.round(raw.values, 3))

out = interpolate(members, raw)
print("\nnormalized weights (rows sum to 1):")
print(np.round(out.weights.values, 3))
print("\nsoft labels of the interpolations:")
print(np.round(out.soft_labels.values, 3))

# order sensitivity: distinct positional projections break the symmetry
swapped = gather_members(feats, labels, groups[:, ::-1]).features
w_swap = attend(swapped, ga).values
print("\nmax weight change under member-order swap (distinct projections):",
      f"{np.abs(raw.values - w_swap).max():.3g}")

shared = GAParams(6, 2, "sum", "shared", source=glorot(np.random.default_rng(2)))
w_a = attend(members.features, shared).values
w_b = attend(swapped, shared).values
print("same, with a shared projection (order-invariant):",
      np.abs(w_a - w_b).max())

# why group at all: the all-mislabeled fraction shrinks fast with K
print("\npure noisy group ratio, 200 noisy of 1000:")
for k in (1, 2, 3, 4):
    print(f"  K={k}: {pure_noisy_group_ratio(200, 1000, k):.6f}")
