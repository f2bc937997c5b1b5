"""The inference network: an MLP feature extractor feeding the paired
interpolation and normal classifiers."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import MOST_ELEMENTS, ConfigError, NumericError, ShapeError
from .tensor import Tensor


def glorot(rng: np.random.Generator):
    """The source of a fresh network: glorot-uniform weights from ``rng``, zero biases."""
    def source(name, shape):
        if name.endswith(".bias"):
            return Tensor(np.zeros(shape), requires_grad=True)
        a = np.sqrt(6.0 / sum(shape))
        return Tensor(rng.uniform(-a, a, size=shape), requires_grad=True)
    return source


class Affine:
    """Dense layer y = x @ W + b, optionally followed by relu, as one tape
    node; ``source(name, shape)`` gives ``{name}.weight`` and ``{name}.bias``.
    A weight numpy could not describe raises ConfigError."""

    def __init__(self, name: str, fan_in: int, fan_out: int, source):
        if fan_in * fan_out > MOST_ELEMENTS:
            raise ConfigError(f"layer {name!r} of shape ({fan_in}, {fan_out}) is past "
                              "numpy's array size limit")
        self.name = name
        self.weight = source(f"{name}.weight", (fan_in, fan_out))
        self.bias = source(f"{name}.bias", (1, fan_out))

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return T.affine(x, self.weight, self.bias, relu)

    def parameters(self):
        return [(f"{self.name}.weight", self.weight), (f"{self.name}.bias", self.bias)]


class Model:
    """MLP backbone (relu after every layer, features post-relu) feeding the
    interpolation classifier ``head1`` and the normal classifier ``head2``;
    the piece kept at inference time.

    With shared classifiers ``head2`` is ``head1``, so an update through
    either path affects both.
    """

    def __init__(self, widths, n_classes, shared_classifiers=True, *, source):
        widths = list(widths)
        if len(widths) < 1:
            raise ShapeError("backbone needs at least an input width")
        self.widths = widths
        self.n_classes = n_classes
        self.shared = bool(shared_classifiers)
        self.layers = [Affine(f"backbone.{i}", widths[i], widths[i + 1], source)
                       for i in range(len(widths) - 1)]
        self.head1 = Affine("classifier.head1", widths[-1], n_classes, source)
        self.head2 = (self.head1 if self.shared else
                      Affine("classifier.head2", widths[-1], n_classes, source))

    @property
    def input_dim(self):
        return self.widths[0]

    @property
    def feature_dim(self):
        return self.widths[-1]

    def extract_features(self, batch: Tensor) -> Tensor:
        if batch.values.ndim != 2 or batch.values.shape[1] != self.input_dim:
            raise ShapeError(
                f"backbone expects width {self.input_dim}, got {batch.values.shape}"
            )
        h = batch
        for layer in self.layers:
            h = layer(h, relu=True)
        return h

    def classify(self, features: Tensor, head: int) -> Tensor:
        """The logits of one head; the losses take their softmax."""
        if head not in (1, 2):
            raise ShapeError(f"head must be 1 or 2, got {head}")
        if features.values.ndim != 2 or features.values.shape[1] != self.feature_dim:
            raise ShapeError(
                f"classifier expects width {self.feature_dim}, got {features.values.shape}"
            )
        return (self.head1 if head == 1 else self.head2)(features)

    def inference_predict(self, batch) -> np.ndarray:
        """argmax of the normal-classifier logits; no group/mixup computation
        occurs. Ties break toward the lowest class index. A logit that is not
        finite gives no prediction and raises NumericError."""
        x = batch if isinstance(batch, Tensor) else T.constant(batch)
        logits = self.classify(self.extract_features(x), head=2).values
        if not np.all(np.isfinite(logits)):
            raise NumericError(f"non-finite logits, shape {logits.shape}")
        return np.argmax(logits, axis=1)

    def parameters(self):
        out = []
        for layer in dict.fromkeys(self.layers + [self.head1, self.head2]):  # shared once
            out += layer.parameters()
        return out
