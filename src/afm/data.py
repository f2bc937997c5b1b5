"""Synthetic classification datasets with controlled, recorded label noise.

Rows [0, n_train) of a dataset are its train split and the rest its test
split, which is never corrupted. Clean labels are kept alongside the
(possibly corrupted) given labels for evaluation only; a sample is
mislabeled exactly when the two differ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .checkpoint import read_arrays, read_integers, read_record, write_arrays
from .errors import MOST_ELEMENTS, ConfigError

DATASET_KINDS = ("blobs", "two-moons", "rings")
NOISE_MODELS = ("symmetric", "pairflip")


@dataclass
class NoisyDataset:
    features: np.ndarray       # (N, d0)
    given_labels: np.ndarray   # (N,) possibly corrupted on the train split
    clean_labels: np.ndarray   # (N,) hidden, evaluation only
    n_train: int               # rows [0, n_train) train, the rest test
    n_classes: int

    def __post_init__(self):
        n = len(self.features)
        if len(self.given_labels) != n or len(self.clean_labels) != n:
            raise ConfigError(f"need {n} given and {n} clean labels")
        if isinstance(self.n_train, bool) or not isinstance(self.n_train, (int, np.integer)):
            raise ConfigError(f"n_train must be an integer, got {self.n_train!r}")
        if not 0 <= self.n_train <= n:
            raise ConfigError(f"n_train must be in [0, {n}], got {self.n_train}")
        if np.any(self.noise_mask[self.n_train:]):
            raise ConfigError("test split must stay clean")

    @property
    def noise_mask(self) -> np.ndarray:
        return self.given_labels != self.clean_labels

    @property
    def input_dim(self):
        return self.features.shape[1]

    def train_noise_count(self) -> int:
        return int(self.noise_mask[:self.n_train].sum())


def generate(kind: str, classes: int, per_class_train: int, per_class_test: int,
             d0: int, separation: float, seed: int) -> NoisyDataset:
    """Deterministic noise-free dataset; train block first, then test block."""
    if kind not in DATASET_KINDS:
        raise ConfigError(f"kind must be one of {DATASET_KINDS}")
    if classes < 2 or per_class_train < 1 or per_class_test < 1 or seed < 0:
        raise ConfigError("need classes >= 2, per-class counts >= 1 and seed >= 0")
    if kind != "blobs" and d0 < 2:
        raise ConfigError(f"{kind} draws its pattern in 2 dims, needs d0 >= 2")
    if not np.isfinite(separation):
        raise ConfigError(f"separation must be finite, got {separation}")
    n = classes * (per_class_train + per_class_test)
    if n * d0 > MOST_ELEMENTS:  # every other array but the blobs basis draw is smaller
        raise ConfigError(f"dataset features of shape ({n}, {d0}) are past numpy's "
                          "array size limit")
    rng = np.random.default_rng([int(seed), 0xDA7A])

    if kind == "blobs":
        if classes > d0:
            raise ConfigError("blobs needs classes <= d0 for orthogonal centers")
        if d0 * d0 > MOST_ELEMENTS:
            raise ConfigError(f"blobs basis draw of shape ({d0}, {d0}) is past numpy's "
                              "array size limit")
        # orthonormal directions give exact pairwise center distance = separation
        q, _ = np.linalg.qr(rng.normal(size=(d0, d0)))
        centers = (separation / np.sqrt(2.0)) * q[:classes]
    else:
        centers = None

    def pattern(c, count):
        if kind == "blobs":
            return centers[c] + rng.normal(size=(count, d0))
        t = rng.uniform(0.0, np.pi, size=count)
        pts = np.zeros((count, d0))
        if kind == "two-moons":
            if classes != 2:
                raise ConfigError("two-moons supports exactly 2 classes")
            r = separation
            if c == 0:
                pts[:, 0] = r * np.cos(t)
                pts[:, 1] = r * np.sin(t)
            else:
                pts[:, 0] = r - r * np.cos(t)
                pts[:, 1] = r / 2.0 - r * np.sin(t)
        else:  # rings
            radius = separation * (c + 1)
            full = rng.uniform(0.0, 2.0 * np.pi, size=count)
            pts[:, 0] = radius * np.cos(full)
            pts[:, 1] = radius * np.sin(full)
        pts += rng.normal(scale=0.25, size=(count, d0))
        return pts

    feats, labels = [], []
    for split_count in (per_class_train, per_class_test):
        for c in range(classes):
            feats.append(pattern(c, split_count))
            labels.append(np.full(split_count, c, dtype=np.int64))
    clean = np.concatenate(labels)
    return NoisyDataset(np.concatenate(feats), clean.copy(), clean,
                        classes * per_class_train, classes)


def inject_noise(dataset: NoisyDataset, model: str, rho: float, seed: int) -> NoisyDataset:
    """Corrupt train-split given labels; features and test labels untouched.

    symmetric: with probability rho, reassign uniformly among the other
    C-1 classes (a flip always mislabels). pairflip: with probability rho,
    map class c to (c+1) mod C.
    """
    if model not in NOISE_MODELS:
        raise ConfigError(f"noise model must be one of {NOISE_MODELS}")
    if not 0.0 <= rho <= 1.0:
        raise ConfigError(f"noise rate must be in [0, 1], got {rho}")
    if seed < 0:
        raise ConfigError(f"noise seed must be >= 0, got {seed}")
    rng = np.random.default_rng([int(seed), 0x401E])
    given = dataset.clean_labels.copy()
    c = dataset.n_classes
    flip = np.flatnonzero(rng.uniform(size=dataset.n_train) < rho)
    if model == "symmetric":
        given[flip] = (given[flip] + rng.integers(1, c, size=len(flip))) % c
    else:
        given[flip] = (given[flip] + 1) % c
    return replace(dataset, given_labels=given)


def one_hot(labels, n_classes: int) -> np.ndarray:
    return np.eye(n_classes)[np.asarray(labels, dtype=np.int64)]


def save_dataset(path, dataset: NoisyDataset):
    write_arrays(path, {
        "features": dataset.features,
        "given_labels": dataset.given_labels.astype(np.float64),
        "clean_labels": dataset.clean_labels.astype(np.float64),
        "n_train": np.asarray(float(dataset.n_train)),
        "n_classes": np.asarray(float(dataset.n_classes)),
    })


def load_dataset(path) -> NoisyDataset:
    """Read a dataset file: the records features, given_labels, clean_labels,
    n_train and n_classes. Raises ConfigError unless its N samples carry
    labels in [0, n_classes) with 2 <= n_classes <= N, n_train is an
    integer in [0, N] and every test row's given label is its clean one."""
    arrays = read_arrays(path)
    features = read_record(path, arrays, "features")
    if features.ndim != 2:
        raise ConfigError(f"{path}: dataset field 'features' must be a matrix")
    n = len(features)
    n_classes = read_integers(path, arrays, "n_classes", 2, n + 1, 1).item()
    return NoisyDataset(
        features=features,
        given_labels=read_integers(path, arrays, "given_labels", 0, n_classes, n),
        clean_labels=read_integers(path, arrays, "clean_labels", 0, n_classes, n),
        n_train=read_integers(path, arrays, "n_train", 0, n + 1, 1).item(),
        n_classes=n_classes,
    )
