"""CLI: config parsing, subcommands, exit codes, sweep harness."""

import concurrent.futures
import csv
import functools
import io
import multiprocessing
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afm import tensor as T, training
from afm.checkpoint import MAGIC, read_arrays, write_arrays
from afm.cli import DATA_KEYS, KEY_ALIASES, TRAIN_KEY_TYPES, main, parse_config
from afm.data import generate, load_dataset, one_hot, save_dataset
from afm.errors import ConfigError, NumericError
from afm.grouping import attend, sample_groups
from afm.mixing import gather_members, interpolate
from afm.training import TrainConfig, load_state, train

SMALL = """
# tiny run for tests
mode = afm
lambda = 0.75
epochs = 2
hidden = 8
batch_size = 32
seed = 0
data_classes = 3
data_per_class_train = 40
data_per_class_test = 10
data_d0 = 8
noise_rate = 0.4
"""


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(SMALL)
    return str(p)


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def test_parse_config(config_file):
    cfg, data = parse_config(config_file)
    assert cfg.lam == 0.75
    assert cfg.hidden == (8,)
    assert data["data_per_class_train"] == 40
    assert data["noise_rate"] == 0.4


def test_parse_config_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("learning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        parse_config(str(p))


def test_parse_config_bad_value(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("epochs = fast\n")
    with pytest.raises(ConfigError, match="epochs"):
        parse_config(str(p))


def test_parse_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/no/such/file.cfg")


CONFIG_KEYS = sorted([*DATA_KEYS, *TRAIN_KEY_TYPES, *KEY_ALIASES])
CONFIG_VALUES = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "0.5", "1e309", "nan", "-inf", "true",
                     "afm", "baseline", "sum", "fixed-ratio", "blobs", "8,4", "8,-1", ""]),
    st.text(max_size=10))
CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES).map(
        lambda kv: f"{kv[0]} = {kv[1]}".encode("utf-8")),
    st.binary(max_size=12))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(CONFIG_LINES, max_size=8))
def test_parse_config_gives_config_or_config_error(tmp_path_factory, lines):
    p = tmp_path_factory.getbasetemp() / "property.cfg"
    p.write_bytes(b"\n".join(lines))
    try:
        parse_config(str(p))
    except ConfigError:
        pass


# a value for every TrainConfig field, none of them its default
NON_DEFAULT = dict(
    lam=0.0, k=3, interaction="concat", projections="shared",
    shared_classifiers=False, hidden=(8, 4), batch_size=64, epochs=3, lr=0.05,
    seed=5, mode="baseline", intra_ratio=0.25)


def test_every_train_key_parses_back(tmp_path):
    """Each TrainConfig field written as a `key = value` line reads back as
    the value written, so the key types derived from the annotations fit."""
    default = TrainConfig()
    assert set(NON_DEFAULT) == set(TRAIN_KEY_TYPES)
    assert all(getattr(default, k) != v for k, v in NON_DEFAULT.items())
    p = tmp_path / "all.cfg"
    p.write_text("".join(
        f"{k} = {','.join(map(str, v)) if isinstance(v, tuple) else v}\n"
        for k, v in NON_DEFAULT.items()))
    cfg, _ = parse_config(str(p))
    for k, v in NON_DEFAULT.items():
        assert getattr(cfg, k) == v and type(getattr(cfg, k)) is type(v), k


def test_train_command(config_file, tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--config", config_file, "--out", str(out)]) == 0
    rows = read_csv(out / "metrics.csv")
    assert len(rows) == 2
    assert set(rows[0]) == {"epoch", "train_loss", "test_acc",
                            "mean_attn_clean", "mean_attn_noisy", "lr"}
    assert (out / "checkpoint.bin").exists()
    assert (out / "dataset.bin").exists()


BAD_CONFIG_LINES = [
    "nope=1", "hidden=0", "hidden=8,-1",
    "intra_ratio=1.5", "intra_ratio=-0.5", "intra_ratio=nan",
    "lr=0", "lr=nan", "lr=inf", "seed=-1", "epochs=0",
    # settings that are constants, not keys: unknown at any value, their old
    # default included
    "momentum=0.9", "weight_decay=0.0005", "lr_decay=0.1", "lr_decay_every=30",
    "beta_param=1.0", "ga_lr_scale=10.0", "lr_decay_every=0",
    "momentum=1", "momentum=nan", "momentum=inf", "weight_decay=nan",
    "weight_decay=inf", "lr_decay=-1", "ga_lr_scale=nan", "ga_lr_scale=inf",
    "beta_param=nan", "beta_param=inf",
    # groups per batch are the batch's rows, not a key: unknown at any value
    "m=128", "m=4000000000000000000",
    "data_kind=blobs", "data_kind=rings;data_d0=1",
    "data_kind=two-moons;data_classes=2;data_d0=1",
    "data_separation=nan", "data_separation=inf", "data_seed=-1", "noise_seed=-1",
    "noise_rate=nan", "noise_rate=-0.5",
    # a rate of 0 flips nothing, but the noise model and seed are still checked
    "noise_rate=0;noise_model=bogus", "noise_rate=0;noise_seed=-1",
    # past numpy's array limit, so nothing is allocated
    "hidden=4000000000000000000",
    "data_per_class_train=4000000000000000000", "data_per_class_test=4000000000000000000",
    "data_d0=4000000000000000000",
]


@pytest.mark.parametrize("lines", BAD_CONFIG_LINES)
def test_train_command_bad_config_exit_2(tmp_path, capsys, lines):
    # appended to the small config, so a line the checks miss trains briefly
    p = tmp_path / "bad.cfg"
    p.write_text(SMALL + lines.replace(";", "\n") + "\n")
    assert main(["train", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_train_with_fewer_train_rows_than_k_exit_2(tmp_path, capsys):
    """A run whose group size exceeds its training rows could take no step
    and would write an untrained checkpoint; it exits 2 before training."""
    p = tmp_path / "tiny.cfg"
    p.write_text("data_per_class_train = 10\ndata_per_class_test = 5\ndata_d0 = 8\n"
                 "hidden = 8\nepochs = 2\nk = 40\nbatch_size = 64\n")
    assert main(["train", "--config", str(p), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == ("error: group size 40 exceeds the 30 training "
                                       "rows used: no step can run\n")
    assert not (tmp_path / "run").exists()


def test_train_out_is_a_file_exit_2_before_training(config_file, tmp_path, capsys,
                                                    monkeypatch):
    out = tmp_path / "run"
    out.write_text("")
    runs = []
    monkeypatch.setattr("afm.cli.train", lambda *a: runs.append(a))
    assert main(["train", "--config", config_file, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out {out} is not a directory\n"
    assert runs == []


@pytest.mark.parametrize("exc,line", [
    (MemoryError("Unable to allocate 58.2 TiB for an array with shape "
                 "(8, 1000000000000) and data type float64"),
     "error: out of memory: Unable to allocate 58.2 TiB for an array with shape "
     "(8, 1000000000000) and data type float64\n"),
    (MemoryError(), "error: out of memory\n")], ids=["numpy", "bare"])
def test_train_memory_error_exit_2(config_file, tmp_path, capsys, monkeypatch, exc, line):
    """A config whose arrays cannot be allocated, such as hidden = 10**12, exits 2
    with an error line. The error is raised by a stand-in for train(), since
    whether a huge allocation fails at once depends on the machine."""
    def exhausted(dataset, config):
        raise exc

    monkeypatch.setattr("afm.cli.train", exhausted)
    assert main(["train", "--config", config_file, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == line
    assert not (tmp_path / "run").exists()


def test_train_determinism_byte_identical(config_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["train", "--config", config_file, "--out", str(a)])
    main(["train", "--config", config_file, "--out", str(b)])
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


def test_sweep_lambda(config_file, tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", config_file, "--axis", "lambda",
               "--values", "0,0.75", "--seeds", "0,1", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "summary.csv")
    assert [r["value"] for r in rows] == ["0", "0.75"]
    assert all(r["n_runs"] == "2" for r in rows)
    for r in rows:
        assert 0.0 <= float(r["mean_acc"]) <= 1.0


def test_sweep_lambda_axis(config_file, tmp_path):
    """`lambda` is the second spelling of the config key `lam`: a sweep over
    either runs the same trainings."""
    for axis in ("lambda", "lam"):
        assert main(["sweep", "--config", config_file, "--axis", axis, "--values", "0.5,0.75",
                     "--seeds", "0", "--out", str(tmp_path / axis)]) == 0
    alias, key = (read_csv(tmp_path / axis / "summary.csv") for axis in ("lambda", "lam"))
    assert [(r["axis"], r["value"]) for r in alias] == [("lambda", "0.5"), ("lambda", "0.75")]
    assert [{**r, "axis": "lam"} for r in alias] == key
    for v in ("0.5", "0.75"):
        assert ((tmp_path / "lambda" / f"lambda_{v}" / "seed_0" / "metrics.csv").read_bytes()
                == (tmp_path / "lam" / f"lam_{v}" / "seed_0" / "metrics.csv").read_bytes())


def test_sweep_data_key_axis_trains_what_train_trains(config_file, tmp_path):
    """A sweep run is the config file with its axis and seed lines appended:
    a data key is an axis, and its run's metrics equal those of `afm train`
    on the appended file."""
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config_file, "--axis", "noise_rate",
                 "--values", "0.2,0.4", "--seeds", "1", "--out", str(out)]) == 0
    assert [(r["value"], r["n_runs"]) for r in read_csv(out / "summary.csv")] == [
        ("0.2", "1"), ("0.4", "1")]
    appended = tmp_path / "appended.cfg"
    appended.write_text(SMALL + "noise_rate = 0.2\nseed = 1\n")
    assert main(["train", "--config", str(appended), "--out", str(tmp_path / "run")]) == 0
    metrics = (out / "noise_rate_0.2" / "seed_1" / "metrics.csv").read_bytes()
    assert metrics == (tmp_path / "run" / "metrics.csv").read_bytes()
    assert metrics != (out / "noise_rate_0.4" / "seed_1" / "metrics.csv").read_bytes()


def tree_bytes(root):
    """Each file under ``root``, by its path relative to ``root``: its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_sweep_parallel_matches_serial(config_file, tmp_path, monkeypatch):
    """A sweep on one CPU and on two writes the same output tree."""
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        assert main(["sweep", "--config", config_file, "--axis", "lambda", "--values", "0.5",
                     "--seeds", "0,1", "--out", str(tmp_path / str(cpus))]) == 0
    one, two = tree_bytes(tmp_path / "1"), tree_bytes(tmp_path / "2")
    assert one == two and len(one) == 3  # summary.csv and two metrics.csv


def test_sweep_spawned_workers_match_default(config_file, tmp_path, monkeypatch):
    """A sweep's workers need nothing that fork passes on: workers started
    by spawn write the same output tree as the default start method's."""
    argv = ["sweep", "--config", config_file, "--axis", "lambda", "--values", "0.5",
            "--seeds", "0,1", "--out"]
    assert main([*argv, str(tmp_path / "default")]) == 0
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        functools.partial(concurrent.futures.ProcessPoolExecutor,
                                          mp_context=multiprocessing.get_context("spawn")))
    assert main([*argv, str(tmp_path / "spawn")]) == 0
    assert tree_bytes(tmp_path / "default") == tree_bytes(tmp_path / "spawn")


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of each ProcessPoolExecutor the test makes. The pool
    is a stand-in that runs each job in this process when it is submitted."""
    made = []

    class InProcessPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return made


@pytest.mark.parametrize("cpus,seeds,workers", [(64, "0,1", [2]), (3, "0,1,2,3", [3]),
                                               (64, "0", [1]), (1, "0,1", [1])])
def test_sweep_starts_at_most_one_process_per_run(config_file, tmp_path, monkeypatch, pools,
                                                  cpus, seeds, workers):
    """A sweep makes one pool, of one worker process per CPU this process
    may use and at most one per run."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert main(["sweep", "--config", config_file, "--axis", "lambda", "--values", "0.5",
                 "--seeds", seeds, "--out", str(tmp_path / "sweep")]) == 0
    assert pools == workers
    assert read_csv(tmp_path / "sweep" / "summary.csv")[0]["n_runs"] == str(len(seeds.split(",")))


@pytest.mark.parametrize("cpus,workers", [(3, [2]), (None, [1])])
def test_sweep_without_affinity_uses_cpu_count(config_file, tmp_path, monkeypatch, pools,
                                               cpus, workers):
    """Where os has no sched_getaffinity (macOS, Windows), a sweep sizes
    its pool from os.cpu_count(), and from one CPU when that is unknown."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert main(["sweep", "--config", config_file, "--axis", "lambda", "--values", "0.5",
                 "--seeds", "0,1", "--out", str(tmp_path / "sweep")]) == 0
    assert pools == workers


def test_sweep_unknown_axis(config_file, tmp_path, capsys):
    rc = main(["sweep", "--config", config_file, "--axis", "dropout",
               "--values", "1", "--seeds", "0", "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown config key 'dropout'" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key", ["momentum", "weight_decay", "lr_decay", "lr_decay_every",
                                 "beta_param", "ga_lr_scale"])
def test_fixed_settings_are_unknown_keys(config_file, tmp_path, capsys, key):
    """A setting that is a module constant, not a TrainConfig field, exits 2
    as an unknown key at its constant's value, in a config line or as a
    sweep axis."""
    value = getattr(training, key.upper())
    p = tmp_path / "fixed.cfg"
    p.write_text(f"{SMALL}{key} = {value}\n")
    sweep = ["--axis", key, "--values", str(value), "--seeds", "0"]
    for argv in (["train", "--config", str(p)], ["sweep", "--config", config_file, *sweep]):
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"unknown config key {key!r}" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("axis,values,message", [
    ("k", "x", "config key 'k': cannot parse 'x'"),
    ("noise_rate", "low", "config key 'noise_rate': cannot parse 'low'"),
    ("seed", "1,2", "--axis seed: a sweep's seeds are given by --seeds"),
    # the axis line is read after the config file's 13 lines
    ("m", "128", "{config}:14: unknown config key 'm'")])
def test_sweep_bad_axis_exit_2(config_file, tmp_path, capsys, axis, values, message):
    """An axis value that does not parse, the seed as an axis, or an axis
    that is no config key exits 2 before any run; the error names the key."""
    rc = main(["sweep", "--config", config_file, "--axis", axis,
               "--values", values, "--seeds", "0", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message.format(config=config_file)}\n"
    assert not (tmp_path / "x").exists()


def test_sweep_reports_rejected_data_value_as_failed_run(config_file, tmp_path, capsys):
    """A data value that only the dataset builder rejects fails its runs,
    as the same value in the config file does, and the sweep exits 1."""
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config_file, "--axis", "noise_rate",
                 "--values", "0.2,1.5", "--seeds", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("run failed: value=1.5 seed=0: noise rate must "
                                       "be in [0, 1], got 1.5\n")
    assert [r["value"] for r in read_csv(out / "summary.csv")] == ["0.2"]
    assert multiprocessing.active_children() == []  # the failed run's worker is gone too


def test_sweep_zero_epochs_exit_2(tmp_path, capsys):
    # a zero-epoch run logs no row, so it has no final accuracy to report
    p = tmp_path / "zero.cfg"
    p.write_text(SMALL + "epochs = 0\n")
    rc = main(["sweep", "--config", str(p), "--axis", "lambda",
               "--values", "0.5", "--seeds", "0", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_reports_failed_runs(config_file, tmp_path, capsys, monkeypatch, pools):
    """A run that raises is named on stderr, the sweep exits 1, and the
    summary counts only the runs that finished. The runs go through the
    in-process pool, so they see the patched `train`."""
    def failing(dataset, config):
        if config.lam == 0.5 and config.seed == 1:
            raise NumericError("forced failure")
        return train(dataset, config)

    monkeypatch.setattr("afm.cli.train", failing)
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", config_file, "--axis", "lambda",
               "--values", "0,0.5", "--seeds", "0,1", "--out", str(out)])
    assert rc == 1
    assert "run failed: value=0.5 seed=1: forced failure" in capsys.readouterr().err
    rows = read_csv(out / "summary.csv")
    assert [(r["value"], r["n_runs"], r["std_acc"]) for r in rows[1:]] == [("0.5", "1", "0.0")]
    assert rows[0]["n_runs"] == "2"
    seed0 = read_csv(out / "lambda_0.5" / "seed_0" / "metrics.csv")[-1]["test_acc"]
    assert rows[1]["mean_acc"] == seed0


def test_train_numeric_error_exit_3(tmp_path, capsys):
    """One step at lr 1e300 leaves finite weights whose test logits
    overflow: main exits 3 with a numeric error line."""
    p = tmp_path / "huge_lr.cfg"
    p.write_text("data_per_class_train = 40\ndata_per_class_test = 10\ndata_d0 = 8\n"
                 "hidden = 8\nepochs = 1\nlr = 1e300\n")
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--config", str(p), "--out", str(tmp_path / "run")])
    assert rc == 3
    assert capsys.readouterr().err == ("numeric error: test evaluation at epoch 0: "
                                       "non-finite logits, shape (30, 3)\n")


def test_train_nonfinite_gradient_exit_3(config_file, tmp_path, capsys, monkeypatch):
    """A NaN written into one gradient after the second step's backward
    stops the run there: main exits 3 naming the epoch, the step and the
    parameter."""
    made, backwards = {}, []
    glorot, backward = training.glorot, training.backward

    def recording(rng):  # the fresh network's source, keeping each parameter by name
        source = glorot(rng)

        def named(name, shape):
            made[name] = source(name, shape)
            return made[name]
        return named

    def poisoned(loss):
        backward(loss)
        backwards.append(loss)
        if len(backwards) == 2:
            made["backbone.0.weight"].grad[0, 0] = np.nan

    monkeypatch.setattr(training, "glorot", recording)
    monkeypatch.setattr(training, "backward", poisoned)
    assert main(["train", "--config", config_file, "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err == ("numeric error: epoch 0, step 1: non-finite gradient "
                                       "for parameter 'backbone.0.weight'\n")


def test_noise_ratio_table(tmp_path, capsys):
    out = tmp_path / "ratio.csv"
    rc = main(["noise-ratio", "--n-noisy", "200", "--n-total", "1000",
               "--values", "1,2,3", "--trials", "20000", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    closed = [float(r["closed_form"]) for r in rows]
    assert closed[0] == pytest.approx(0.2)
    assert closed[1] < closed[0] and closed[2] < closed[1]
    assert all(r["within_bound"] == "1" for r in rows)


@pytest.mark.parametrize("n_noisy,k,closed", [(1, 2, 0.0), (10, 3, 1.0)])
def test_noise_ratio_exact_degenerate_rows(tmp_path, capsys, n_noisy, k, closed):
    """Where the closed form is 0 or 1, sigma is 0 and every sampled group
    agrees, so the row is within its bound of 0."""
    out = tmp_path / "ratio.csv"
    assert main(["noise-ratio", "--n-noisy", str(n_noisy), "--n-total", "10",
                 "--values", str(k), "--trials", "50", "--out", str(out)]) == 0
    (row,) = read_csv(out)
    assert (float(row["closed_form"]), float(row["empirical"])) == (closed, closed)
    assert (row["three_sigma"], row["within_bound"]) == ("0.0", "1")
    assert capsys.readouterr().out.splitlines()[1].endswith(" yes")


def test_dump_features(config_file, tmp_path):
    run = tmp_path / "run"
    main(["train", "--config", config_file, "--out", str(run)])
    out = tmp_path / "features.csv"
    rc = main(["dump-features", "--checkpoint", str(run / "checkpoint.bin"),
               "--dataset", str(run / "dataset.bin"), "--out", str(out),
               "--interpolations", "5"])
    assert rc == 0
    rows = read_csv(out)
    samples = [r for r in rows if r["is_interpolation"] == "0"]
    interp = [r for r in rows if r["is_interpolation"] == "1"]
    assert len(samples) == 150  # 120 train + 30 test
    assert len(interp) == 5
    w = [float(x) for x in interp[0]["attention_weights"].split("|")]
    assert sum(w) == pytest.approx(1.0, abs=1e-9)


def test_dump_features_bytes_match_csv_writer(config_file, tmp_path):
    """dump-features formats its lines itself; they must be the bytes that
    csv.writer writes for the same rows from the same checkpoint."""
    run = tmp_path / "run"
    main(["train", "--config", config_file, "--out", str(run)])
    out = tmp_path / "features.csv"
    assert main(["dump-features", "--checkpoint", str(run / "checkpoint.bin"),
                 "--dataset", str(run / "dataset.bin"), "--out", str(out),
                 "--interpolations", "7", "--seed", "3"]) == 0

    model, ga = load_state(run / "checkpoint.bin")
    ds = load_dataset(run / "dataset.bin")
    feats = model.extract_features(T.constant(ds.features)).values
    rows = [[f"f{i}" for i in range(feats.shape[1])] + [
        "given_label", "clean_label", "is_noisy", "is_interpolation", "attention_weights"]]
    for i in range(len(feats)):
        rows.append([repr(float(v)) for v in feats[i]]
                    + [int(ds.given_labels[i]), int(ds.clean_labels[i]),
                       int(ds.noise_mask[i]), 0, ""])
    train_labels = ds.given_labels[:ds.n_train]
    groups = sample_groups(train_labels, 7, ga.k, rng=np.random.default_rng(3))
    members = gather_members(T.constant(feats[:ds.n_train]),
                             one_hot(train_labels, ds.n_classes), groups)
    interp = interpolate(members, attend(members.features, ga))
    for f, w in zip(interp.features.values, interp.weights.values):
        rows.append([repr(float(v)) for v in f]
                    + [-1, -1, 0, 1, "|".join(repr(float(v)) for v in w)])
    expect = io.StringIO()
    csv.writer(expect, lineterminator="\n").writerows(rows)
    assert out.read_bytes() == expect.getvalue().encode()


def test_dump_features_mismatched_inputs_exit_2(config_file, tmp_path, capsys):
    """A dataset of another input width, and interpolations asked of a
    checkpoint without an attention net, exit 2 with an error line. An afm
    run at lambda 0 trains as the baseline and builds no attention net."""
    run, base, lam0 = tmp_path / "run", tmp_path / "base", tmp_path / "lam0"
    main(["train", "--config", config_file, "--out", str(run)])
    for out, lines in ((base, "mode = baseline\nlambda = 0\n"), (lam0, "lambda = 0\n")):
        cfg = tmp_path / "other.cfg"
        cfg.write_text(SMALL + lines)
        main(["train", "--config", str(cfg), "--out", str(out)])
    wide = tmp_path / "wide.bin"
    save_dataset(wide, generate("blobs", 3, 10, 5, 9, 4.0, seed=0))
    capsys.readouterr()
    for checkpoint, dataset, n, message in (
            (run, wide, "0", "dataset width 9 does not match backbone input 8"),
            (base, base / "dataset.bin", "5", "no attention parameters"),
            (lam0, lam0 / "dataset.bin", "5", "no attention parameters")):
        assert main(["dump-features", "--checkpoint", str(checkpoint / "checkpoint.bin"),
                     "--dataset", str(dataset), "--out", str(tmp_path / "features.csv"),
                     "--interpolations", n]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    assert not (tmp_path / "features.csv").exists()


def test_load_state_rejects_wrong_parameter_shape(config_file, tmp_path):
    run = tmp_path / "run"
    main(["train", "--config", config_file, "--out", str(run)])
    ck = run / "checkpoint.bin"
    arrays = read_arrays(ck)
    arrays["backbone.0.bias"] = np.zeros((1, 9))
    write_arrays(ck, arrays)
    with pytest.raises(ConfigError, match="'backbone.0.bias'"):
        load_state(ck)


HEADER = len(MAGIC) + 4  # the magic, then the u32 record count


# HEADER - 2: inside the record count; HEADER + 5: before the first record's
# rank; -8: inside the last record's values
@pytest.mark.parametrize("cut", [HEADER - 2, HEADER + 5, -8])
def test_dump_features_truncated_checkpoint_exit_2(config_file, tmp_path, capsys, cut):
    run = tmp_path / "run"
    main(["train", "--config", config_file, "--out", str(run)])
    ck = run / "checkpoint.bin"
    ck.write_bytes(ck.read_bytes()[:cut])
    rc = main(["dump-features", "--checkpoint", str(ck),
               "--dataset", str(run / "dataset.bin"),
               "--out", str(tmp_path / "features.csv")])
    assert rc == 2
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("name,value", [  # records of old formats, which no loader reads now
    ("__meta__/interaction", 7.0),
    ("__meta__/interaction", -1.0),
    ("__meta__/projections", 2.5),
    ("__meta__/widths", [8.0, -8.0]),
])
def test_dump_features_forged_metadata_exit_2(config_file, tmp_path, capsys, name, value):
    run = tmp_path / "run"
    main(["train", "--config", config_file, "--out", str(run)])
    ck = run / "checkpoint.bin"
    arrays = read_arrays(ck)
    arrays[name] = np.asarray(value)
    write_arrays(ck, arrays)
    rc = main(["dump-features", "--checkpoint", str(ck),
               "--dataset", str(run / "dataset.bin"),
               "--out", str(tmp_path / "features.csv"), "--interpolations", "5"])
    assert rc == 2
    assert name in capsys.readouterr().err


def _without(name):
    return lambda arrays: {n: v for n, v in arrays.items() if n != name}


def _with(name, value):
    """Set record ``name`` to ``value(arrays)``, in its place if it exists."""
    return lambda arrays: {**arrays, name: value(arrays)}


def _renamed(old, new):
    """Rename each record whose name starts with ``old`` to start with ``new``."""
    return lambda arrays: {new + n[len(old):] if n.startswith(old) else n: v
                           for n, v in arrays.items()}


def _old_format(arrays):
    """The records as a checkpoint written before the architecture was read
    off the parameter records: six float-coded metadata records first, the
    interaction among them, and the attention net's first layer ga.att1."""
    meta = {"__meta__/widths": np.asarray([8.0, 8.0]), "__meta__/n_classes": np.asarray(3.0),
            "__meta__/shared": np.asarray(1.0), "__meta__/k": np.asarray(2.0),
            "__meta__/interaction": np.asarray(1.0), "__meta__/projections": np.asarray(0.0)}
    return {**meta, **_renamed("ga.att1.sum.", "ga.att1.")(arrays)}


# the small config's checkpoint: an 8-wide backbone layer, 3 classes, K=2,
# the sum interaction; with no ga.att1.<interaction>.weight, sum's is missing
@pytest.mark.parametrize("unshared,name,forge", [
    (False, "ga.att1.sum.weight", _without("ga.att1.sum.weight")),
    (False, "ga.att1.sum.weight", _renamed("ga.att1.sum.", "ga.att1.2.5.")),
    (False, "ga.att1.mul.weight", lambda a: {**a, **_renamed("ga.att1.sum.", "ga.att1.mul.")(a)}),
    (False, "ga.att2.weight", _with("ga.att2.weight", lambda a: a["ga.att2.weight"][:, :1])),
    (False, "classifier.head1.weight",
     _with("classifier.head1.weight", lambda a: a["classifier.head1.weight"].ravel())),
    (False, "classifier.head1.weight",
     _with("classifier.head1.weight", lambda a: np.zeros((8, 0)))),
    (True, "classifier.head2.bias", _without("classifier.head2.weight")),
    (False, "ga.att1.sum.weight", _old_format),
], ids=["interaction-missing", "interaction-2.5", "two-interactions", "att2-one-column",
        "head1-1d", "head1-no-columns", "head2-bias-without-weight", "old-format"])
def test_dump_features_forged_architecture_exit_2(tmp_path, capsys, unshared, name, forge):
    """A checkpoint whose records describe no network that save_state writes
    exits 2 and names the record at fault."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL + f"shared_classifiers = {not unshared}\n")
    run = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out", str(run)])
    ck = run / "checkpoint.bin"
    write_arrays(ck, forge(read_arrays(ck)))
    capsys.readouterr()
    rc = main(["dump-features", "--checkpoint", str(ck),
               "--dataset", str(run / "dataset.bin"),
               "--out", str(tmp_path / "features.csv"), "--interpolations", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(name) in err


# checkpoints of 1 to 2 MB whose records ask for a (40000, 40000) layer:
# every size is a dimension of a stored record, the layer is two of them
_WIDE = 40_000
FORGED_WIDE = {
    "backbone": ("backbone.0.weight", {
        "backbone.0.weight": np.zeros((_WIDE, 1)), "backbone.0.bias": np.zeros((1, _WIDE)),
        "classifier.head1.weight": np.zeros((_WIDE, 1)),
        "classifier.head1.bias": np.zeros((1, 1))}),
    "attention": ("ga.att1.sum.weight", {
        "backbone.0.weight": np.zeros((1, _WIDE)), "backbone.0.bias": np.zeros((1, _WIDE)),
        "classifier.head1.weight": np.zeros((_WIDE, 1)),
        "classifier.head1.bias": np.zeros((1, 1)),
        "ga.att1.sum.weight": np.zeros((1, 1)), "ga.att2.weight": np.zeros((_WIDE, 2))}),
}


@pytest.mark.parametrize("name,records", FORGED_WIDE.values(), ids=FORGED_WIDE)
def test_load_state_allocates_only_what_the_file_holds(tmp_path, name, records):
    """Each parameter is its stored record, checked before the next layer is
    built: a record of the wrong shape is named, and reading a forged file
    takes memory in proportion to the file, not to the layer it asks for."""
    ck = tmp_path / "checkpoint.bin"
    write_arrays(ck, records)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"record {name!r} has shape"):
            load_state(ck)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * ck.stat().st_size


@pytest.mark.parametrize("name,records", FORGED_WIDE.values(), ids=FORGED_WIDE)
def test_dump_features_forged_wide_checkpoint_exit_2(tmp_path, capsys, name, records):
    ck, data = tmp_path / "checkpoint.bin", tmp_path / "dataset.bin"
    write_arrays(ck, records)
    save_dataset(data, generate("blobs", 3, 10, 5, 8, 4.0, seed=0))
    rc = main(["dump-features", "--checkpoint", str(ck), "--dataset", str(data),
               "--out", str(tmp_path / "features.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(name) in err


@pytest.mark.parametrize("file,name,value", [("checkpoint.bin", "backbone.0.weight", np.nan),
                                             ("dataset.bin", "features", np.inf)])
def test_dump_features_nonfinite_values_exit_2(config_file, tmp_path, capsys, file,
                                               name, value):
    run = tmp_path / "run"
    main(["train", "--config", config_file, "--out", str(run)])
    arrays = read_arrays(run / file)
    arrays[name][1, 2] = value
    write_arrays(run / file, arrays)
    rc = main(["dump-features", "--checkpoint", str(run / "checkpoint.bin"),
               "--dataset", str(run / "dataset.bin"),
               "--out", str(tmp_path / "features.csv")])
    assert rc == 2
    assert f"record {name!r} holds NaN or inf" in capsys.readouterr().err


# the small config's dataset has 3 classes and 150 samples: train rows
# 0-119, test rows 120-149
@pytest.mark.parametrize("name,at,value", [
    ("n_train", None, -1.0),
    ("n_train", None, 151.0),
    ("n_train", None, 2.5),
    ("given_labels", 0, 3.0),
    ("clean_labels", 0, -1.0),
    ("n_classes", None, 2.5),
])
def test_dump_features_forged_dataset_exit_2(config_file, tmp_path, capsys, name, at,
                                             value):
    run = tmp_path / "run"
    main(["train", "--config", config_file, "--out", str(run)])
    arrays = read_arrays(run / "dataset.bin")
    field = arrays[name]
    field[field != 0 if at is None else at] = value
    write_arrays(run / "dataset.bin", arrays)
    rc = main(["dump-features", "--checkpoint", str(run / "checkpoint.bin"),
               "--dataset", str(run / "dataset.bin"),
               "--out", str(tmp_path / "features.csv"), "--interpolations", "5"])
    assert rc == 2
    assert repr(name) in capsys.readouterr().err


def test_dump_features_dataset_contract_exit_2(config_file, tmp_path, capsys):
    """A test row whose given label is not its clean one, and a file of the
    old format (split index arrays and a noise mask instead of n_train),
    exit 2 with an error line."""
    run = tmp_path / "run"
    main(["train", "--config", config_file, "--out", str(run)])
    arrays = read_arrays(run / "dataset.bin")
    noisy_test = dict(arrays, given_labels=arrays["given_labels"].copy())
    noisy_test["given_labels"][120] = (arrays["clean_labels"][120] + 1) % 3
    old = {name: values for name, values in arrays.items() if name != "n_train"}
    old.update(noise_mask=(arrays["given_labels"] != arrays["clean_labels"]) * 1.0,
               train_idx=np.arange(120.0), test_idx=np.arange(120.0, 150.0))
    capsys.readouterr()
    for fields, message in ((noisy_test, "test split must stay clean"),
                            (old, "missing record 'n_train'")):
        write_arrays(run / "dataset.bin", fields)
        assert main(["dump-features", "--checkpoint", str(run / "checkpoint.bin"),
                     "--dataset", str(run / "dataset.bin"),
                     "--out", str(tmp_path / "features.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    assert not (tmp_path / "features.csv").exists()


def test_bad_arguments_exit_2(config_file, tmp_path, capsys):
    """Values that cannot be parsed or run, wherever they are found, exit 2
    with an error line from main, never a traceback."""
    run = tmp_path / "run"
    main(["train", "--config", config_file, "--out", str(run)])
    arrays = read_arrays(run / "dataset.bin")
    arrays["n_train"] = np.asarray(1.0)  # fewer train samples than K
    arrays["given_labels"] = arrays["clean_labels"]  # so every test row is clean
    one = tmp_path / "one_train_sample.bin"
    write_arrays(one, arrays)
    sweep = ["sweep", "--config", config_file, "--out", str(tmp_path / "sweep")]
    dump = ["dump-features", "--checkpoint", str(run / "checkpoint.bin"),
            "--out", str(tmp_path / "features.csv")]
    for argv in (
            sweep + ["--axis", "lambda", "--values", "0.5", "--seeds", "a"],
            sweep + ["--axis", "k", "--values", "x", "--seeds", "0"],
            sweep + ["--axis", "lambda", "--values", "0.5", "--seeds", "-1"],
            sweep + ["--axis", "lambda", "--values", "0.5,0.5", "--seeds", "0"],
            sweep + ["--axis", "lambda", "--values", "0.5,0.50", "--seeds", "0"],
            ["noise-ratio", "--n-noisy", "2", "--n-total", "10", "--values", "x"],
            ["noise-ratio", "--n-noisy", "2", "--n-total", "10", "--values", "2",
             "--seed", "-1"],
            dump + ["--dataset", str(one), "--interpolations", "5"],
            dump + ["--dataset", str(run / "dataset.bin"), "--interpolations", "-5"],
            dump + ["--dataset", str(run / "dataset.bin"), "--interpolations", "5",
                    "--seed", "-1"]):
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err, argv
    assert not (tmp_path / "sweep").exists()
    assert not (tmp_path / "features.csv").exists()


@pytest.mark.parametrize("argv, name", [
    ("noise-ratio --n-noisy 1 --n-total 10 --values 2 --trials 4000000000000000000",
     "--trials"),
    ("noise-ratio --n-noisy 1 --n-total 4000000000000000000 --values 2 --trials 10",
     "n_total"),
    ("dump-features --checkpoint {run}/checkpoint.bin --dataset {run}/dataset.bin "
     "--out {tmp}/f.csv --interpolations 4000000000000000000", "--interpolations"),
], ids=["trials", "n-total", "interpolations"])
def test_sizes_past_numpys_limit_exit_2(config_file, tmp_path, capsys, argv, name):
    """A size past the largest array numpy can describe exits 2 with an
    error line from main that names it, before anything is allocated or
    printed, not numpy's ValueError."""
    run = tmp_path / "run"
    main(["train", "--config", config_file, "--out", str(run)])
    capsys.readouterr()
    assert main(argv.format(tmp=tmp_path, run=run).split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and name in err
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("argv", [
    "dump-features --checkpoint {tmp}/none.bin --dataset {run}/dataset.bin --out {tmp}/f.csv",
    "dump-features --checkpoint {run}/checkpoint.bin --dataset {tmp}/none.bin --out {tmp}/f.csv",
    "dump-features --checkpoint {run} --dataset {run}/dataset.bin --out {tmp}/f.csv",
    "dump-features --checkpoint {run}/checkpoint.bin --dataset {run}/dataset.bin "
    "--out {tmp}/none/f.csv",
    "noise-ratio --n-noisy 2 --n-total 10 --values 2 --trials 10 --out {tmp}/none/r.csv",
    "sweep --config {cfg} --axis lambda --values 0.5 --seeds 0 --out {run}/metrics.csv",
], ids=["missing-checkpoint", "missing-dataset", "checkpoint-is-directory",
        "dump-out-in-missing-directory", "noise-ratio-out-in-missing-directory",
        "sweep-out-is-a-file"])
def test_file_errors_exit_2(config_file, tmp_path, capsys, argv):
    """A file that cannot be read or written exits 2 with an error line from
    main, never a traceback."""
    run = tmp_path / "run"
    main(["train", "--config", config_file, "--out", str(run)])
    capsys.readouterr()
    assert main(argv.format(tmp=tmp_path, run=run, cfg=config_file).split()) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("out", ["{tmp}/none/out.csv", "{tmp}"],
                         ids=["missing-directory", "is-a-directory"])
@pytest.mark.parametrize("command", ["noise-ratio", "dump-features"])
def test_unusable_out_fails_before_work(config_file, tmp_path, capsys, monkeypatch,
                                        command, out):
    """An --out that cannot be written exits 2 before the command prints a
    table row or loads a checkpoint."""
    if command == "noise-ratio":
        argv = ["noise-ratio", "--n-noisy", "200", "--n-total", "1000", "--values", "1,2"]
    else:
        run = tmp_path / "run"
        main(["train", "--config", config_file, "--out", str(run)])
        capsys.readouterr()
        argv = ["dump-features", "--checkpoint", str(run / "checkpoint.bin"),
                "--dataset", str(run / "dataset.bin"), "--interpolations", "5"]
    loads = []
    monkeypatch.setattr("afm.cli.load_state", lambda path: loads.append(path) or load_state(path))
    assert main(argv + ["--out", out.format(tmp=tmp_path)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stderr.startswith("error: ")
    assert stdout == ""
    assert loads == []


def test_verify_command(capsys):
    assert main(["verify"]) == 0
    text = capsys.readouterr().out
    assert "[pass]" in text and "[FAIL]" not in text
    # both grad checks say how many directions they probed and skipped
    assert re.findall(r"\] (grad-check-\S+): max rel err \S+ over [1-9]\d* directions, "
                      r"\d+ skipped at relu kinks", text) == ["grad-check-primitives",
                                                            "grad-check-afm-loss"]


def test_verify_fault_injection_detected(capsys, monkeypatch):
    # a deliberately negated gradient must be caught by both grad checks:
    # the tape's backward, which grad_check calls, runs on -root; training
    # calls its own binding and is unaffected
    backward = T.backward
    monkeypatch.setattr(T, "backward", lambda root: backward(T.smul(root, -1.0)))
    assert main(["verify"]) == 1
    out, err = capsys.readouterr()
    assert "[FAIL] grad-check-primitives" in out
    assert "[FAIL] grad-check-afm-loss" in out
    assert "failing properties: grad-check-primitives, grad-check-afm-loss" in err
