"""End-to-end training: joint loss, SGD with momentum, the epoch loop,
comparison modes (plain baseline, standard mixup, manifold mixup), and
checkpointing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import chain, count
from operator import attrgetter, is_

import numpy as np

from . import tensor as T
from .checkpoint import read_arrays, read_record, write_arrays
from .data import NoisyDataset, one_hot
from .errors import AfmError, ConfigError, NumericError
from .grouping import (GAParams, INTERACTIONS, PROJECTION_MODES, attend,
                       fixed_ratio_gap, sample_groups)
from .mixing import InterpolationBatch, gather_members, interpolate
from .model import Model, glorot
from .tensor import Tensor, backward

MODES = ("afm", "baseline", "standard-mixup", "manifold-mixup")
_bound = attrgetter("values", "grad")
METRIC_COLUMNS = ("epoch", "train_loss", "test_acc",
                  "mean_attn_clean", "mean_attn_noisy", "lr")
# fixed settings: SGD's momentum and weight decay, lr times LR_DECAY every
# LR_DECAY_EVERY epochs, the mixup baselines' Beta(b, b) weight draw, and the
# attention net's lr multiplier (derived for K=2 in train())
MOMENTUM, WEIGHT_DECAY = 0.9, 5e-4
LR_DECAY, LR_DECAY_EVERY = 0.1, 30
BETA_PARAM = 1.0
GA_LR_SCALE = 10.0


@dataclass
class TrainConfig:
    """A run's settings; the optimiser's and the draws' fixed ones are the
    module constants above, which no config sets."""
    lam: float = 0.75
    k: int = 2
    interaction: str = "sum"
    projections: str = "distinct"
    shared_classifiers: bool = True
    hidden: tuple[int, ...] = (64, 32)
    batch_size: int = 128
    epochs: int = 40
    lr: float = 0.02
    seed: int = 0
    mode: str = "afm"
    intra_ratio: float | None = None  # None -> random groups; else fixed-ratio

    def validate(self):
        """Reject values train() cannot run; comparisons are written so
        that NaN fails them."""
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lambda must be in [0, 1], got {self.lam}")
        if self.k < 2:
            raise ConfigError(f"group size must be >= 2, got {self.k}")
        if self.batch_size < self.k:
            raise ConfigError("batch size must be >= group size")
        if self.interaction not in INTERACTIONS:
            raise ConfigError(f"interaction must be one of {INTERACTIONS}")
        if self.projections not in PROJECTION_MODES:
            raise ConfigError(f"projections must be one of {PROJECTION_MODES}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.mode == "baseline" and self.lam != 0.0:
            raise ConfigError(f"baseline mode has no interpolation loss and needs "
                              f"lambda = 0, got {self.lam}")
        if self.intra_ratio is not None and not 0.0 <= self.intra_ratio <= 1.0:
            raise ConfigError(f"intra_ratio must be in [0, 1], got {self.intra_ratio}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {self.hidden}")
        if not 0.0 < self.lr < np.inf:
            raise ConfigError("lr must be finite and positive")


@dataclass
class MetricsLog:
    rows: list[dict] = field(default_factory=list)

    def append(self, **row):
        self.rows.append(row)

    def to_csv(self, path):
        write_csv(path, METRIC_COLUMNS,
                  [[_fmt(row[c]) for c in METRIC_COLUMNS] for row in self.rows])

    def final(self, column):
        return self.rows[-1][column]


def write_csv(path, header, rows):
    """Write ``header`` and ``rows`` to ``path`` as CSV with LF line endings."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


class SGD:
    """v <- MOMENTUM*v + grad + wd*param; param <- param - lr*scale*v.

    Each tensor of ``params`` takes lr scale 1 and weight decay
    WEIGHT_DECAY; each of ``ga_params``, the attention net's, takes
    GA_LR_SCALE and no decay. The two lists of (name, Tensor) name each
    tensor once between them, as Model.parameters() and GAParams.parameters() do.

    The constructor copies each parameter into one contiguous vector,
    ``flat``, and binds its ``values`` and ``grad`` to its slices of
    ``flat`` and of a zeroed ``grad``, which backward adds into; a step is
    a few whole-vector operations in place. Rebinding either afterwards
    detaches it, and ``step`` raises for it.
    """

    def __init__(self, params, lr, ga_params=()):
        self.lr = lr
        self.params = [*params, *ga_params]
        self._tensors = [p for _, p in self.params]
        sizes = [p.values.size for p in self._tensors]
        self.flat, self.grad = rows = np.zeros((2, sum(sizes)))
        self.flat[:] = np.concatenate([p.values.ravel() for p in self._tensors])
        for p, piece in zip(self._tensors, np.split(rows, np.cumsum(sizes)[:-1], axis=1)):
            p.values, p.grad = piece.reshape(2, *p.values.shape)  # views of both rows
        self._bound = list(chain.from_iterable(map(_bound, self._tensors)))
        regimes = [(1.0, WEIGHT_DECAY)] * len(params) + [(GA_LR_SCALE, 0.0)] * len(ga_params)
        self._lr_scale, self._decay = (np.repeat(r, sizes) for r in zip(*regimes))
        self.velocity = np.zeros_like(self.flat)
        self._update = np.empty_like(self.flat)

    def zero_grad(self):
        self.grad.fill(0.0)

    def step(self):
        held = list(map(is_, chain.from_iterable(map(_bound, self._tensors)), self._bound))
        if not all(held):  # values, grad of each parameter in turn
            raise AfmError(f"parameter {self.params[held.index(False) // 2][0]!r} was rebound "
                           "after the optimizer was built; build a new optimizer")
        g, u = self.grad, self._update
        if not np.isfinite(g @ g):  # finite unless a gradient is not, or g @ g overflows
            for name, p in self.params:
                if not np.isfinite(p.grad).all():
                    raise NumericError(f"non-finite gradient for parameter {name!r}")
        # the class formula, operation for operation, in preallocated vectors
        v = self.velocity
        v *= MOMENTUM
        v += np.add(g, np.multiply(self._decay, self.flat, out=u), out=u)
        self.flat -= np.multiply(np.multiply(self.lr, self._lr_scale, out=u), v, out=u)


@dataclass
class TrainState:
    epoch: int
    step: int
    model: Model
    ga: GAParams | None
    optimizer: SGD


def compute_loss(model: Model, features: Tensor, batch_labels_onehot,
                 interpolations: InterpolationBatch | None,
                 config: TrainConfig) -> Tensor:
    """lambda * L_afm + (1 - lambda) * L_org.

    ``features`` are the backbone features of the batch, the same tensor
    the attention net and the interpolations were built from, so the
    backbone runs once per step. Both terms are kl_from_logits of a head's
    logits, each weighted inside that node. L_org is the cross-entropy (KL
    against one-hot targets) of the normal classifier on the batch's given
    labels. L_afm is KL(s || p(z)) of the interpolation classifier on the
    virtual pairs (z, s), not their cross-entropy H(s) + KL(s || p): H(s)
    depends only on the mixing weights and is smallest at one-hot weights,
    so minimising it would teach the attention net to pick a single member
    regardless of its label. For the mixup modes s is a constant, so the
    gradients equal those of cross-entropy and the loss is lower by the
    constant mean H(s)."""
    loss_org = T.kl_from_logits(model.classify(features, head=2), batch_labels_onehot,
                                1.0 - config.lam)
    if config.lam == 0.0 and interpolations is None:
        return loss_org
    if interpolations is None:
        raise ConfigError("interpolations required when lambda > 0")
    loss_afm = T.kl_from_logits(model.classify(interpolations.features, head=1),
                                interpolations.soft_labels, config.lam)
    return T.add(loss_afm, loss_org)


def draw_step(labels, config: TrainConfig, rng: np.random.Generator):
    """One step's random draws on a batch of m rows with these labels:
    (groups, Beta weights), one group per row. afm draws (m, K) groups; the
    mixup modes draw (m, 2) pairs, then a Beta(BETA_PARAM, BETA_PARAM) weight
    per pair; with lambda 0 both are None. A batch that fixed-ratio grouping
    cannot group gets None, drawing nothing."""
    if config.lam == 0.0:
        return None, None
    m = len(labels)
    if config.mode == "afm":
        if config.intra_ratio is not None and fixed_ratio_gap(labels, m, config.k,
                                                              config.intra_ratio):
            return None
        return sample_groups(labels, m, config.k, config.intra_ratio, rng=rng), None
    groups = sample_groups(labels, m, 2, rng=rng)
    return groups, rng.beta(BETA_PARAM, BETA_PARAM, size=m)


def step_loss(model: Model, ga: GAParams | None, x: Tensor, y, draws,
              config: TrainConfig) -> tuple[Tensor, InterpolationBatch | None]:
    """(loss, interpolations) of batch ``x`` with one-hot labels ``y`` and
    the step's ``draws``, drawing nothing itself. afm blends each group by
    its attention weights; manifold and standard mixup blend each pair's
    features or inputs by (w, 1 - w), standard mixup then runs the backbone."""
    groups, w = draws
    feats = model.extract_features(x)
    interp = None
    if groups is not None and config.mode == "afm":
        members = gather_members(feats, y, groups)
        interp = interpolate(members, attend(members.features, ga))
    elif groups is not None:
        pair_w = T.constant(np.column_stack([w, 1.0 - w]))
        source = feats if config.mode == "manifold-mixup" else x
        interp = interpolate(gather_members(source, y, groups), pair_w, epsilon=0.0)
        if config.mode == "standard-mixup":
            interp.features = model.extract_features(interp.features)
    return compute_loss(model, feats, y, interp, config), interp


def _attention_stats(weights, noisy):
    """The mean normalized attention weight on clean and on noisy members,
    over the groups that mix at least one clean and one noisy sample; NaN
    where there is none. ``weights`` are (G, K) and ``noisy`` flags the
    mislabeled members of the same G groups, from hidden clean labels that
    serve evaluation only."""
    mixed = noisy.any(axis=1) & ~noisy.all(axis=1)
    w, noisy = weights[mixed], noisy[mixed]
    return (float(w[~noisy].mean()) if (~noisy).any() else float("nan"),
            float(w[noisy].mean()) if noisy.any() else float("nan"))


def train(dataset: NoisyDataset, config: TrainConfig) -> tuple[TrainState, MetricsLog]:
    """Run the configured training mode; fully reproducible from the seed.

    Three independent rng streams (init, data order, grouping) keep the
    data-order randomness identical across modes. A step is draw_step on
    the grouping stream, step_loss (which afm verify differentiates),
    backward and SGD. With lambda 0 no mode samples groups or interpolates,
    so every mode trains as the baseline, no attention net is built and
    the attention columns are NaN. A batch that fixed-ratio grouping cannot
    group is skipped, with no draw and no step. Raises NumericError, naming
    the epoch and step, when a step's loss or a gradient is not finite, or
    the epoch when its test logits are not, and ConfigError, before any
    network is built, when no step could run, there are no test rows or the
    training split cannot hold a full batch's fixed-ratio groups.
    """
    config.validate()
    init_rng = np.random.default_rng([config.seed, 0])
    data_rng = np.random.default_rng([config.seed, 1])
    group_rng = np.random.default_rng([config.seed, 2])

    n_train = dataset.n_train
    if n_train < config.k:
        raise ConfigError(f"group size {config.k} exceeds the {n_train} "
                          "training rows used: no step can run")
    if n_train == len(dataset.features):
        raise ConfigError(f"all {n_train} rows train: no test rows to evaluate")
    if config.mode == "afm" and config.lam > 0.0 and config.intra_ratio is not None:
        gap = fixed_ratio_gap(dataset.given_labels[:n_train], min(config.batch_size, n_train),
                              config.k, config.intra_ratio)
        if gap:
            raise ConfigError(f"training split: {gap}")

    d0 = dataset.input_dim
    c = dataset.n_classes
    source = glorot(init_rng)
    model = Model([d0, *config.hidden], c, config.shared_classifiers, source=source)
    ga = None
    if config.mode == "afm" and config.lam > 0.0:
        ga = GAParams(model.feature_dim, config.k, config.interaction,
                      config.projections, source=source)

    # the attention net's gradient is scaled by lambda, the sigmoid slope
    # and d(normalised weight)/d(raw weight): 0.75 * 0.25 * 0.5 ~= 0.094 at
    # K=2 and initialisation, hence GA_LR_SCALE ~= 10. It takes no weight
    # decay, which only shrinks it towards a constant output.
    opt = SGD(model.parameters(), config.lr, ga.parameters() if ga else ())
    state = TrainState(epoch=0, step=0, model=model, ga=ga, optimizer=opt)

    test_x, test_y = dataset.features[n_train:], dataset.clean_labels[n_train:]
    given_onehot = one_hot(dataset.given_labels, c)
    noise_mask = dataset.noise_mask
    log = MetricsLog()

    for epoch in range(config.epochs):
        lr_e = config.lr * LR_DECAY ** (epoch // LR_DECAY_EVERY)
        opt.lr = lr_e
        order = data_rng.permutation(n_train)
        losses = []
        step_weights, step_noisy = [], []  # of each afm step, for _attention_stats
        for start in range(0, len(order) - config.k + 1, config.batch_size):
            batch_idx = order[start:start + config.batch_size]
            draws = draw_step(dataset.given_labels[batch_idx], config, group_rng)
            if draws is None:
                continue
            loss, interp = step_loss(model, ga, T.constant(dataset.features[batch_idx]),
                                     given_onehot[batch_idx], draws, config)
            if ga is not None:
                step_weights.append(interp.weights.values)
                step_noisy.append(noise_mask[batch_idx[draws[0]]])
            if not np.isfinite(loss.values):
                raise NumericError(f"non-finite loss at epoch {epoch}, step {state.step}")
            opt.zero_grad()
            backward(loss)
            try:
                opt.step()
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, step {state.step}: {exc}") from exc
            state.step += 1
            losses.append(float(loss.values))

        try:
            preds = model.inference_predict(test_x)
        except NumericError as exc:
            raise NumericError(f"test evaluation at epoch {epoch}: {exc}") from exc
        attn_clean = attn_noisy = float("nan")
        if step_weights:
            attn_clean, attn_noisy = _attention_stats(np.concatenate(step_weights),
                                                      np.concatenate(step_noisy))
        log.append(
            epoch=epoch,
            train_loss=float(np.mean(losses)) if losses else float("nan"),
            test_acc=float(np.mean(preds == test_y)),
            mean_attn_clean=attn_clean,
            mean_attn_noisy=attn_noisy,
            lr=lr_e,
        )
        state.epoch = epoch + 1
    return state, log


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

def save_state(path, state: TrainState):
    """Write the named parameters, whose names and shapes load_state reads."""
    named = state.model.parameters() + (state.ga.parameters() if state.ga else [])
    write_arrays(path, {name: p.values for name, p in named})


def load_state(path) -> tuple[Model, GAParams | None]:
    """Rebuild what save_state wrote from its records' names and shapes: widths
    are the rows of backbone.{i}.weight for i = 0, 1, ... while it exists, then
    of classifier.head1.weight, whose columns are n_classes; heads are shared
    unless classifier.head2.weight exists; ga.att2.weight gives K (its columns),
    the one ga.att1.<interaction>.weight the interaction, and ga.proj0.* or
    ga.proj_shared.* distinct or shared projections, else none.
    Each parameter is its stored record, shape-checked before the next is read."""
    arrays = read_arrays(path)

    def stored(name, shape=None):  # a parameter: a matrix, no zero dimension, of shape if given
        values = read_record(path, arrays, name)
        if values.ndim != 2 or 0 in values.shape or (shape and values.shape != shape):
            raise ConfigError(f"{path}: record {name!r} has shape {values.shape}, need "
                              f"{shape or 'a matrix with no zero dimension'}")
        return T.parameter(values)

    depth = next(i for i in count() if f"backbone.{i}.weight" not in arrays)
    widths = [stored(f"backbone.{i}.weight").values.shape[0] for i in range(depth)]
    d, n_classes = stored("classifier.head1.weight").values.shape
    model = Model(widths + [d], n_classes, "classifier.head2.weight" not in arrays,
                  source=stored)
    ga = None
    if "ga.att2.weight" in arrays:
        k = stored("ga.att2.weight").values.shape[1]
        stored("ga.att2.weight", (d, max(k, 2)))  # one column per member, K >= 2
        # with none, sum's record is named missing; with two, the second unexpected
        interaction = next((i for i in INTERACTIONS if f"ga.att1.{i}.weight" in arrays), "sum")
        ga = GAParams(d, k, interaction,
                      "distinct" if "ga.proj0.weight" in arrays else
                      "shared" if "ga.proj_shared.weight" in arrays else "none",
                      source=stored)
    params = dict(model.parameters() + (ga.parameters() if ga else []))
    for name in arrays:  # each record is a parameter
        if name not in params:
            raise ConfigError(f"{path}: unexpected record {name!r}")
    return model, ga
