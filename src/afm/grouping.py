"""Group construction and the self-attention weight network.

Groups of K distinct minibatch indices are sampled (with replacement
across groups) as the rows of an (m, K) index array. The attention net
reads the groups' (m, K*d) member block, which mixing.gather_members
builds once per batch: each ordered member is projected through its own
affine map, the projections are combined by an interaction (concat, sum,
or elementwise product), and a two-layer net emits K sigmoid weights per
group. The sum of distinct projections is one node, tensor.group_affine.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .model import Affine
from .tensor import Tensor

INTERACTIONS = ("concat", "sum", "mul")
PROJECTION_MODES = ("distinct", "shared", "none")


def _distinct_draws(rng: np.random.Generator, size, m: int, k: int) -> np.ndarray:
    """(m, k) positions: row i holds k distinct values drawn uniformly and
    in order from [0, size) (size is a scalar or one pool size per row).
    Draw t picks among the size - t positions not taken yet: its value is
    moved up by one past each taken position at or below it, visiting the
    taken positions in increasing order."""
    out = np.empty((m, k), dtype=np.int64)
    for t in range(k):
        r = rng.integers(0, size - t, size=m)
        # no sort for t < 2: zero or one column is already in order
        taken = out[:, :t] if t < 2 else np.sort(out[:, :t], axis=1)
        for column in taken.T:
            r += r >= column
        out[:, t] = r
    return out


def fixed_ratio_gap(labels, m: int, k: int, intra_ratio: float) -> str:
    """Why fixed-ratio grouping cannot draw m groups of K from samples with
    these labels, or "" when it can: its round(intra_ratio * m) intra-class
    groups need a class of K members, and its other groups two classes."""
    counts = np.unique(labels, return_counts=True)[1]
    m_intra = int(round(intra_ratio * m))
    if m_intra > 0 and counts.max() < k:
        return f"no class has >= {k} members; intra groups unachievable"
    if m_intra < m and len(counts) < 2:
        return "a single class; inter groups unachievable"
    return ""


def sample_groups(labels, m: int, k: int, intra_ratio: float | None = None, *,
                  rng: np.random.Generator) -> np.ndarray:
    """Sample m groups of K distinct indices from a minibatch; returns an
    (m, K) int64 array, one group per row. A group is intra-class when
    ``labels[groups]`` is constant along its row.

    With ``intra_ratio`` None, members are drawn uniformly without
    replacement within a group. Otherwise grouping is fixed-ratio: the first
    round(intra_ratio * m) groups are intra-class and the rest inter-class,
    and a batch that fixed_ratio_gap finds a gap in raises ConfigError
    before anything is drawn from ``rng``.
    """
    labels = np.asarray(labels)
    n = len(labels)
    if k < 1 or n < k:
        raise ConfigError(f"need n >= K >= 1, got n={n}, K={k}")
    if m < 1:
        raise ConfigError(f"need m >= 1, got m={m}")

    if intra_ratio is None:
        return _distinct_draws(rng, n, m, k)
    if not 0.0 <= intra_ratio <= 1.0:
        raise ConfigError(f"intra_ratio must be in [0, 1], got {intra_ratio}")

    gap = fixed_ratio_gap(labels, m, k, intra_ratio)
    if gap:
        raise ConfigError(gap)
    counts = np.unique(labels, return_counts=True)[1]
    rich = np.flatnonzero(counts >= k)
    m_intra = int(round(intra_ratio * m))
    m_inter = m - m_intra

    # intra: a class per group, then K distinct members of that class,
    # found through the batch indices sorted by label
    by_label = np.argsort(labels, kind="stable")
    starts = np.cumsum(counts) - counts
    c = rng.choice(rich, size=m_intra)
    intra = by_label[starts[c][:, None] + _distinct_draws(rng, counts[c], m_intra, k)]

    # inter: uniform groups, redrawing those whose labels all agree
    inter = _distinct_draws(rng, n, m_inter, k)
    while True:
        same = (labels[inter] == labels[inter[:, :1]]).all(axis=1)
        if not same.any():
            break
        inter[same] = _distinct_draws(rng, n, int(same.sum()), k)
    return np.concatenate([intra, inter])


class GAParams:
    """Positional projection maps plus the attention net (FC-ReLU-FC-Sigmoid),
    each parameter taken from ``source`` by its checkpoint name, as in Model."""

    def __init__(self, feature_dim: int, k: int, interaction: str = "sum",
                 projections: str = "distinct", *, source):
        if interaction not in INTERACTIONS:
            raise ConfigError(f"interaction must be one of {INTERACTIONS}")
        if projections not in PROJECTION_MODES:
            raise ConfigError(f"projections must be one of {PROJECTION_MODES}")
        self.feature_dim = feature_dim
        self.k = k
        self.interaction = interaction
        self.projections = projections
        d = feature_dim
        if projections == "distinct":
            self.proj = [Affine(f"ga.proj{i}", d, d, source) for i in range(k)]
        elif projections == "shared":
            self.proj = [Affine("ga.proj_shared", d, d, source)] * k
        else:
            self.proj = []
        self.att1 = Affine(f"ga.att1.{interaction}", k * d if interaction == "concat" else d,
                           d, source)
        self.att2 = Affine("ga.att2", d, k, source)

    def parameters(self):
        out = []
        for layer in dict.fromkeys(self.proj + [self.att1, self.att2]):  # shared once
            out += layer.parameters()
        return out


def member_selectors(groups, n: int) -> np.ndarray:
    """The (m, K) group array over n samples as an ndarray, validated.

    This is where group arrays are validated: the array must be integer
    with shape (m, K), K >= 1, and every index must lie in [0, n), because
    numpy fancy indexing would silently wrap a negative index. Whoever
    reads the members checks K against its own: attend against its
    parameters, blend_rows against its weights."""
    groups = np.asarray(groups)
    if groups.ndim != 2 or groups.shape[1] < 1 or groups.dtype.kind not in "iu":
        raise ShapeError(f"groups must be an integer (m, K) array with K >= 1, got "
                         f"{groups.dtype} {groups.shape}")
    if groups.size and (groups.min() < 0 or groups.max() >= n):
        bad = groups[(groups < 0) | (groups >= n)][0]
        raise ShapeError(f"group index {bad} out of range [0, {n})")
    return groups


def attend(members: Tensor, params: GAParams) -> Tensor:
    """Project each ordered member of the (m, K*d) member block that
    mixing.gather_members builds, combine via the interaction, and return
    the (m, K) sigmoid attention weights, every entry strictly in (0, 1).
    Differentiable end-to-end."""
    d, k = params.feature_dim, params.k
    if members.values.ndim != 2 or members.values.shape[1] != k * d:
        raise ShapeError(f"member block {members.values.shape} does not hold K={k} "
                         f"members of GA feature dim {d}")

    if params.interaction == "sum" and params.projections == "distinct":
        combined = T.group_affine(members, [p.weight for p in params.proj],
                                  [p.bias for p in params.proj])
    else:
        projected = [T.slice_last(members, pos * d, (pos + 1) * d) for pos in range(k)]
        if params.proj:
            projected = [proj(xk) for proj, xk in zip(params.proj, projected)]
        if params.interaction == "concat":
            combined = T.concat_last(projected)
        else:
            combine = T.add if params.interaction == "sum" else T.mul
            combined = projected[0]
            for xk in projected[1:]:
                combined = combine(combined, xk)

    return T.sigmoid(params.att2(params.att1(combined, relu=True)))


def pure_noisy_group_ratio(n_noisy: int, n_total: int, k: int) -> float:
    """Fraction of ordered K-groups whose members are all mislabeled:
    prod_{t<K} (n_noisy - t) / (n_total - t); 0 when n_noisy < K."""
    if not 0 <= n_noisy <= n_total:
        raise ConfigError(f"need 0 <= n_noisy <= n_total, got {n_noisy}, {n_total}")
    if not 1 <= k <= n_total:
        raise ConfigError(f"need 1 <= K <= n_total, got K={k}")
    if n_noisy < k:
        return 0.0
    ratio = 1.0
    for t in range(k):
        ratio *= (n_noisy - t) / (n_total - t)
    return ratio


def check_sampled_ratio(n_noisy: int, n_total: int, k: int, trials: int,
                        rng: np.random.Generator) -> tuple[float, float, float, bool]:
    """(closed form, sampled ratio, 3 sigma, within). The sampled ratio is the
    share of ``trials`` groups, drawn by sample_groups from n_total samples of
    which the first n_noisy are mislabeled, whose members are all mislabeled.
    It is within when at most 3 binomial sigma from pure_noisy_group_ratio,
    so an exact match passes where the closed form is 0 or 1 and sigma is 0."""
    closed = pure_noisy_group_ratio(n_noisy, n_total, k)
    noisy = np.arange(n_total) < n_noisy
    groups = sample_groups(np.zeros(n_total, dtype=np.int64), trials, k, rng=rng)
    freq = float(noisy[groups].all(axis=1).mean())
    three_sigma = 3.0 * float(np.sqrt(closed * (1 - closed) / trials))
    return closed, freq, three_sigma, abs(freq - closed) <= three_sigma
