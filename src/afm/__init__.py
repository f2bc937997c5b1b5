"""Noise-robust training via grouped self-attention mixup.

A minimal reverse-mode autodiff engine, an MLP backbone with paired
classifiers, group-wise attention weighting, weight-normalized feature
interpolation, synthetic noisy-label benchmarks, and a CLI for
experiments, sweeps, and verification. Import its modules, such as
``afm.training``; the package itself re-exports nothing.
"""
