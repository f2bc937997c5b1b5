"""Command-line surface: train, sweep, noise-ratio, dump-features, verify.

Config files are flat key=value text ('#' comments allowed); unknown keys
are rejected. CSV output uses '.' decimals and LF line endings.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import fields

import numpy as np

from . import tensor as T
from .data import (NoisyDataset, generate, inject_noise, load_dataset,
                   one_hot, save_dataset)
from .errors import MOST_ELEMENTS, ConfigError, NumericError
from .grouping import (attend, check_sampled_ratio, pure_noisy_group_ratio,
                       sample_groups)
from .mixing import gather_members, interpolate
from .training import TrainConfig, load_state, save_state, train, write_csv

DATA_KEYS = {
    "data_classes": (3, int),
    "data_per_class_train": (1000, int),
    "data_per_class_test": (250, int),
    "data_d0": (32, int),
    "data_separation": (4.0, float),
    "data_seed": (0, int),
    "noise_model": ("symmetric", str),
    "noise_rate": (0.4, float),
    "noise_seed": (0, int),
}

_BOOL = {"true": True, "false": False, "1": True, "0": False}


def _parse_value(what, raw, kind):
    """``raw`` as a ``kind``; ``what`` names the value in the ConfigError."""
    try:
        if kind is bool:
            return _BOOL[raw.strip().lower()]
        if kind is tuple:
            return tuple(int(v) for v in raw.split(",") if v.strip())
        return kind(raw)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{what}: cannot parse {raw!r}") from exc


def _parse_list(what, raw, kind):
    """The comma-separated entries of ``raw``, each parsed as a ``kind``."""
    return [_parse_value(what, v.strip(), kind) for v in raw.split(",") if v.strip()]


# TrainConfig annotation text -> the kind its config value is parsed as;
# a field with an annotation missing here fails at import
ANNOTATION_KINDS = {"bool": bool, "int": int, "float": float, "str": str,
                    "float | None": float, "tuple[int, ...]": tuple}
TRAIN_KEY_TYPES = {f.name: ANNOTATION_KINDS[f.type] for f in fields(TrainConfig)}
# second spellings of TrainConfig fields, accepted wherever a key is read:
# 'lambda', the paper's name for the trade-off weight, which no field can take
KEY_ALIASES = {"lambda": "lam"}


def parse_config(path, extra=()) -> tuple[TrainConfig, dict]:
    """The run that the config file at ``path`` describes, with the
    ``extra`` key=value lines read after the file's, as if appended to it."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    train_kwargs: dict = {}
    data_spec = {k: v for k, (v, _) in DATA_KEYS.items()}
    # undecodable bytes read as U+FFFD, which the key and value checks reject
    with open(path, encoding="utf-8", errors="replace") as f:
        for lineno, line in enumerate(itertools.chain(f, extra), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = (s.strip() for s in line.split("=", 1))
            key = KEY_ALIASES.get(key, key)
            what = f"config key {key!r}"
            if key in DATA_KEYS:
                data_spec[key] = _parse_value(what, raw, DATA_KEYS[key][1])
            elif key in TRAIN_KEY_TYPES:
                train_kwargs[key] = _parse_value(what, raw, TRAIN_KEY_TYPES[key])
            else:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
    config = TrainConfig(**train_kwargs)
    config.validate()
    return config, data_spec


def build_dataset(spec: dict) -> NoisyDataset:
    ds = generate("blobs", spec["data_classes"],
                  spec["data_per_class_train"], spec["data_per_class_test"],
                  spec["data_d0"], spec["data_separation"], spec["data_seed"])
    return inject_noise(ds, spec["noise_model"], spec["noise_rate"], spec["noise_seed"])


def _check_out(path):
    """Raise ConfigError unless ``path`` can be written as a file: its
    directory exists and it is not a directory itself."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"--out {path}: directory {parent} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"--out {path} is a directory")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    config, data_spec = parse_config(args.config)
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        raise ConfigError(f"--out {args.out} is not a directory")
    dataset = build_dataset(data_spec)
    state, log = train(dataset, config)
    os.makedirs(args.out, exist_ok=True)  # a run train() rejects leaves no directory
    log.to_csv(os.path.join(args.out, "metrics.csv"))
    save_state(os.path.join(args.out, "checkpoint.bin"), state)
    save_dataset(os.path.join(args.out, "dataset.bin"), dataset)
    return 0


def _sweep_worker(job):
    config, data_spec, run_dir = job
    _, log = train(build_dataset(data_spec), config)
    os.makedirs(run_dir, exist_ok=True)
    log.to_csv(os.path.join(run_dir, "metrics.csv"))
    return log.final("test_acc")


def cmd_sweep(args) -> int:
    from concurrent.futures import ProcessPoolExecutor  # imported by this command only
    if args.axis == "seed":
        raise ConfigError("--axis seed: a sweep's seeds are given by --seeds")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    seeds = _parse_list("--seeds", args.seeds, int)
    # each run is the config file with its axis and seed lines appended, and
    # every run's config is checked, and told apart, before the first starts
    jobs = [(v, s, (*parse_config(args.config, [f"{args.axis} = {v}", f"seed = {s}"]),
                    os.path.join(args.out, f"{args.axis}_{v}", f"seed_{s}")))
            for v in values for s in seeds]
    if not jobs or len({(repr(c), repr(d)) for _, _, (c, d, _) in jobs}) != len(jobs):
        raise ConfigError("need --values and --seeds that give at least one run, all distinct")
    os.makedirs(args.out, exist_ok=True)
    results, failures = {}, []
    # the runs start at once in worker processes: one per CPU this process
    # may use (`taskset` bounds them; every CPU where os has no affinity
    # call), at most one per run
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ProcessPoolExecutor(min(len(jobs), cpus or 1)) as pool:
        futures = [pool.submit(_sweep_worker, job) for _, _, job in jobs]
        for (v, s, _), future in zip(jobs, futures):
            try:
                results.setdefault(v, []).append(future.result())
            except Exception as exc:
                failures.append((v, s, str(exc)))

    rows = []
    for v in values:
        accs = results.get(v, [])
        if accs:
            mean = float(np.mean(accs))
            std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
            rows.append([args.axis, v, repr(mean), repr(std), len(accs)])
    write_csv(os.path.join(args.out, "summary.csv"),
              ["axis", "value", "mean_acc", "std_acc", "n_runs"], rows)
    for v, s, msg in failures:
        print(f"run failed: value={v} seed={s}: {msg}", file=sys.stderr)
    return 1 if failures else 0


def cmd_noise_ratio(args) -> int:
    ks = _parse_list("--values", args.values, int)
    if not ks:
        raise ConfigError("need at least one K value")
    for k in ks:
        pure_noisy_group_ratio(args.n_noisy, args.n_total, k)
    most = MOST_ELEMENTS // max(ks)  # numpy's size limit on (trials, K) int64s
    if not 1 <= args.trials <= most or args.seed < 0:
        raise ConfigError(f"need 1 <= --trials <= {most} for K={max(ks)} and --seed >= 0, "
                          f"got {args.trials} and {args.seed}")
    if args.out:
        _check_out(args.out)

    rng = np.random.default_rng(args.seed)
    rows = []
    print(f"{'K':>3} {'closed_form':>14} {'empirical':>14} {'abs_diff':>12} {'3sigma':>12} pass")
    for k in ks:
        closed, freq, sigma3, ok = check_sampled_ratio(args.n_noisy, args.n_total, k,
                                                       args.trials, rng)
        print(f"{k:>3} {closed:>14.8f} {freq:>14.8f} {abs(freq-closed):>12.8f} "
              f"{sigma3:>12.8f} {'yes' if ok else 'NO'}")
        rows.append([k, repr(closed), repr(freq), repr(abs(freq - closed)),
                     repr(sigma3), int(ok)])
    if args.out:
        write_csv(args.out, ["k", "closed_form", "empirical", "abs_diff",
                             "three_sigma", "within_bound"], rows)
    return 0


def cmd_dump_features(args) -> int:
    if args.interpolations < 0 or args.seed < 0:
        raise ConfigError(f"need --interpolations >= 0 and --seed >= 0, got "
                          f"{args.interpolations} and {args.seed}")
    _check_out(args.out)
    model, ga = load_state(args.checkpoint)
    if ga is not None and args.interpolations > MOST_ELEMENTS // ga.k:
        raise ConfigError(f"need --interpolations <= {MOST_ELEMENTS // ga.k} for K={ga.k}, "
                          f"got {args.interpolations}")
    dataset = load_dataset(args.dataset)
    if dataset.input_dim != model.input_dim:
        raise ConfigError(
            f"dataset width {dataset.input_dim} does not match "
            f"backbone input {model.input_dim}")
    if args.interpolations > 0 and ga is None:
        raise ConfigError("checkpoint has no attention parameters; "
                          "cannot generate interpolations")

    feats = model.extract_features(T.constant(dataset.features)).values
    d = feats.shape[1]
    header = [f"f{i}" for i in range(d)] + [
        "given_label", "clean_label", "is_noisy", "is_interpolation",
        "attention_weights"]
    interp = None
    if args.interpolations > 0:
        rng = np.random.default_rng(args.seed)
        train_labels = dataset.given_labels[:dataset.n_train]
        labels = one_hot(train_labels, dataset.n_classes)
        groups = sample_groups(train_labels, args.interpolations, ga.k, rng=rng)
        members = gather_members(T.constant(feats[:dataset.n_train]), labels, groups)
        interp = interpolate(members, attend(members.features, ga))

    # the lines csv.writer would write: no field holds a comma, quote or
    # newline, and repr of a python float is its shortest round-trip text.
    # Each line is written as it is made, so the file is never held whole.
    with open(args.out, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row, given, clean, noisy in zip(feats, dataset.given_labels.tolist(),
                                            dataset.clean_labels.tolist(),
                                            dataset.noise_mask.tolist()):
            f.write(f"{','.join(map(repr, row.tolist()))},{given},{clean},{int(noisy)},0,\n")
        if interp is not None:
            for row, w in zip(interp.features.values, interp.weights.values):
                f.write(f"{','.join(map(repr, row.tolist()))},-1,-1,0,1,"
                        f"{'|'.join(map(repr, w.tolist()))}\n")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all  # imported by this command only
    results = run_all()
    failed = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        print(f"[{'pass' if ok else 'FAIL'}] {name}: {detail}")
    print(f"{len(results) - len(failed)}/{len(results)} properties passed")
    if failed:
        print("failing properties: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afm",
        description="Noise-robust training via grouped attentive feature mixup")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="grid sweep over one config axis")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("noise-ratio",
                       help="closed-form vs Monte-Carlo pure-noisy-group ratios")
    p.add_argument("--n-noisy", type=int, required=True)
    p.add_argument("--n-total", type=int, required=True)
    p.add_argument("--values", required=True, help="comma-separated K values")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_noise_ratio)

    p = sub.add_parser("dump-features",
                       help="dump backbone features and interpolations as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--interpolations", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_dump_features)

    p = sub.add_parser("verify", help="run the property suite")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; a ConfigError, a file that cannot be opened or
    made, or an array too large to allocate exits 2, and a NumericError 3."""
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
