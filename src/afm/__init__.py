"""Noise-robust training via grouped self-attention mixup.

A minimal reverse-mode autodiff engine, an MLP backbone with paired
classifiers, group-wise attention weighting, weight-normalized feature
interpolation, synthetic noisy-label benchmarks, and a CLI for
experiments, sweeps, and verification.
"""

from .errors import AfmError, ConfigError, NumericError, ShapeError, SubgradientWarning
from .tensor import Tensor, backward, grad_check
from .model import Model, glorot
from .grouping import GAParams, attend, pure_noisy_group_ratio, sample_groups
from .mixing import GroupMembers, InterpolationBatch, gather_members, interpolate
from .data import NoisyDataset, generate, inject_noise, one_hot
from .training import (MetricsLog, SGD, TrainConfig, TrainState,
                       compute_loss, train)

__all__ = [
    "AfmError", "ConfigError", "NumericError", "ShapeError", "SubgradientWarning",
    "Tensor", "backward", "grad_check",
    "Model", "glorot",
    "GAParams", "attend",
    "pure_noisy_group_ratio", "sample_groups",
    "GroupMembers", "InterpolationBatch", "gather_members", "interpolate",
    "NoisyDataset", "generate", "inject_noise", "one_hot",
    "MetricsLog", "SGD", "TrainConfig", "TrainState",
    "compute_loss", "train",
]

__version__ = "0.1.0"
