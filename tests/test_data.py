"""Synthetic datasets, noise injection, and serialization."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afm.checkpoint import MAGIC, read_arrays, write_arrays
from afm.data import (NoisyDataset, generate, inject_noise, load_dataset,
                      one_hot, save_dataset)
from afm.errors import ConfigError
from afm.training import TrainConfig, load_state, save_state, train

HEADER = len(MAGIC) + 4  # the magic, then the u32 record count


def small_blobs(seed=0):
    return generate("blobs", 3, 40, 10, 8, 4.0, seed=seed)


def test_blob_counts_and_splits():
    ds = small_blobs()
    assert ds.n_train == 120
    assert len(ds.features) == 150
    assert ds.input_dim == 8
    assert ds.n_classes == 3
    # balanced classes on both splits
    for split in (ds.clean_labels[:ds.n_train], ds.clean_labels[ds.n_train:]):
        _, counts = np.unique(split, return_counts=True)
        assert len(set(counts)) == 1


def test_blob_center_separation():
    # class means sit ~separation apart (orthonormal construction)
    ds = generate("blobs", 3, 500, 10, 16, 6.0, seed=1)
    train_x, train_y = ds.features[:ds.n_train], ds.clean_labels[:ds.n_train]
    means = [train_x[train_y == c].mean(axis=0) for c in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            d = np.linalg.norm(means[i] - means[j])
            assert abs(d - 6.0) < 0.5


def test_generate_deterministic():
    a, b = small_blobs(seed=5), small_blobs(seed=5)
    np.testing.assert_array_equal(a.features, b.features)
    c = small_blobs(seed=6)
    assert not np.array_equal(a.features, c.features)


def test_generate_rejects_bad_args():
    with pytest.raises(ConfigError):
        generate("spiral", 3, 10, 5, 8, 4.0, seed=0)
    with pytest.raises(ConfigError):
        generate("blobs", 9, 10, 5, 8, 4.0, seed=0)  # classes > d0
    with pytest.raises(ConfigError):
        generate("two-moons", 3, 10, 5, 8, 4.0, seed=0)


def test_rings_and_moons_generate():
    moons = generate("two-moons", 2, 30, 10, 4, 2.0, seed=0)
    rings = generate("rings", 3, 30, 10, 4, 2.0, seed=0)
    assert moons.n_train == 60 and rings.n_train == 90


def test_symmetric_noise_rate_and_mask():
    ds = inject_noise(generate("blobs", 3, 400, 50, 8, 4.0, 0), "symmetric", 0.4, 0)
    frac = ds.train_noise_count() / ds.n_train
    assert abs(frac - 0.4) < 0.05
    # mask agrees with label disagreement, test split untouched
    np.testing.assert_array_equal(ds.noise_mask, ds.given_labels != ds.clean_labels)
    assert not ds.noise_mask[ds.n_train:].any()
    # corrupted labels are never the clean label
    flipped = ds.noise_mask
    assert np.all(ds.given_labels[flipped] != ds.clean_labels[flipped])


def test_pairflip_noise_is_successor_class():
    ds = inject_noise(generate("blobs", 3, 200, 20, 8, 4.0, 0), "pairflip", 0.3, 1)
    m = ds.noise_mask
    np.testing.assert_array_equal(ds.given_labels[m],
                                  (ds.clean_labels[m] + 1) % 3)


def test_noise_zero_rate_is_identity():
    ds = inject_noise(small_blobs(), "symmetric", 0.0, 0)
    assert ds.train_noise_count() == 0


def test_noise_rejects_bad_model_and_rate():
    ds = small_blobs()
    with pytest.raises(ConfigError):
        inject_noise(ds, "asymmetric", 0.4, 0)
    with pytest.raises(ConfigError):
        inject_noise(ds, "symmetric", 1.5, 0)


def test_noise_deterministic_in_seed():
    a = inject_noise(small_blobs(), "symmetric", 0.4, 3)
    b = inject_noise(small_blobs(), "symmetric", 0.4, 3)
    np.testing.assert_array_equal(a.given_labels, b.given_labels)


def test_noisydataset_validates_consistency():
    ds = small_blobs()
    n = len(ds.features)
    for n_train in (-1, n + 1):
        with pytest.raises(ConfigError, match=r"n_train must be in \[0, 150\]"):
            NoisyDataset(ds.features, ds.given_labels, ds.clean_labels, n_train,
                         ds.n_classes)
    for given, clean in ((ds.given_labels[:-1], ds.clean_labels),
                         (ds.given_labels, ds.clean_labels[:-1])):
        with pytest.raises(ConfigError, match="need 150 given and 150 clean labels"):
            NoisyDataset(ds.features, given, clean, ds.n_train, ds.n_classes)
    given = ds.given_labels.copy()
    given[ds.n_train] = (given[ds.n_train] + 1) % 3
    with pytest.raises(ConfigError, match="test split must stay clean"):
        NoisyDataset(ds.features, given, ds.clean_labels, ds.n_train, ds.n_classes)
    # the same label change on a train row is label noise
    given = ds.given_labels.copy()
    given[ds.n_train - 1] = (given[ds.n_train - 1] + 1) % 3
    noisy = NoisyDataset(ds.features, given, ds.clean_labels, ds.n_train, ds.n_classes)
    assert noisy.train_noise_count() == 1
    np.testing.assert_array_equal(np.flatnonzero(noisy.noise_mask), [ds.n_train - 1])


@pytest.mark.parametrize("n_train", [2.5, np.float64(3.0), True, np.True_],
                         ids=["float", "numpy-float", "bool", "numpy-bool"])
def test_noisydataset_rejects_a_non_integer_n_train(n_train):
    ds = small_blobs()
    with pytest.raises(ConfigError, match="n_train must be an integer"):
        NoisyDataset(ds.features, ds.given_labels, ds.clean_labels, n_train, ds.n_classes)
    # python and numpy integers are accepted
    for value in (3, np.int64(3)):
        assert NoisyDataset(ds.features, ds.given_labels, ds.clean_labels, value,
                            ds.n_classes).n_train == 3


def test_one_hot():
    out = one_hot(np.array([0, 2, 1]), 3)
    np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def test_dataset_roundtrip(tmp_path):
    ds = inject_noise(small_blobs(), "symmetric", 0.4, 0)
    p = tmp_path / "ds.bin"
    save_dataset(p, ds)
    back = load_dataset(p)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.given_labels, ds.given_labels)
    np.testing.assert_array_equal(back.clean_labels, ds.clean_labels)
    assert (back.n_train, back.n_classes) == (ds.n_train, ds.n_classes)
    assert list(read_arrays(p)) == ["features", "given_labels", "clean_labels",
                                    "n_train", "n_classes"]


def test_loaded_dataset_trains_like_the_original(tmp_path):
    """A dataset read back from its file gives the in-memory run's final
    parameters and metrics, bit for bit."""
    ds = inject_noise(small_blobs(), "symmetric", 0.4, 0)
    p = tmp_path / "ds.bin"
    save_dataset(p, ds)
    runs = []
    for data in (ds, load_dataset(p)):
        state, log = train(data, TrainConfig(hidden=(8,), epochs=2, batch_size=32))
        named = state.model.parameters() + state.ga.parameters()
        runs.append(([(name, v.values.tobytes()) for name, v in named], repr(log.rows)))
    assert runs[0] == runs[1]


def test_checkpoint_roundtrip_exact(tmp_path):
    arrays = {
        "w": np.random.default_rng(0).standard_normal((3, 4)),
        "b": np.array([1.5]),
    }
    p = tmp_path / "ck.bin"
    write_arrays(p, arrays)
    assert p.read_bytes()[:HEADER] == MAGIC + struct.pack("<I", 2)
    back = read_arrays(p)
    for k in arrays:
        np.testing.assert_array_equal(back[k], arrays[k])
        assert back[k].dtype == np.float64


def test_read_arrays_rejects_the_old_layout(tmp_path):
    # a file of the old layout, magic "AFM1" and 32 reserved zero bytes
    # before the record count, fails at its magic
    p = tmp_path / "ck.bin"
    write_arrays(p, {"w": np.arange(6.0).reshape(2, 3)})
    data = p.read_bytes()
    p.write_bytes(b"AFM1" + bytes(32) + data[len(MAGIC):])
    with pytest.raises(ConfigError, match="bad magic"):
        read_arrays(p)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(Exception):
        read_arrays(p)


def checkpoint_bytes(tmp_path):
    p = tmp_path / "good.bin"
    write_arrays(p, {"w": np.arange(6.0).reshape(2, 3), "b": np.array([1.5])})
    return p.read_bytes()


@pytest.mark.parametrize("cut", [HEADER - 2, HEADER + 5, -8, -1])
def test_checkpoint_truncated_raises_config_error(tmp_path, cut):
    # HEADER - 2: inside the record count; HEADER + 5: before the first
    # record's rank; -8 and -1: inside the last record's values
    data = checkpoint_bytes(tmp_path)
    p = tmp_path / "cut.bin"
    p.write_bytes(data[:cut])
    with pytest.raises(ConfigError, match="truncated"):
        read_arrays(p)


def test_checkpoint_trailing_bytes_raise_config_error(tmp_path):
    p = tmp_path / "long.bin"
    p.write_bytes(checkpoint_bytes(tmp_path) + b"\x00" * 8)
    with pytest.raises(ConfigError, match="trailing"):
        read_arrays(p)


@pytest.mark.parametrize("count,match", [(3, "truncated"), (1, "trailing"),
                                         (2**32 - 1, "truncated")])
def test_checkpoint_forged_record_count(tmp_path, count, match):
    data = bytearray(checkpoint_bytes(tmp_path))
    data[HEADER - 4:HEADER] = count.to_bytes(4, "little")
    p = tmp_path / "forged.bin"
    p.write_bytes(bytes(data))
    with pytest.raises(ConfigError, match=match):
        read_arrays(p)


def forged(at, patch, match, name=None):
    # without a name, the id is the one pytest derives from (at, patch)
    return pytest.param(at, patch, match, id=name or f"{at}-{patch.decode('latin-1')}")


# the first record starts at byte HEADER: name length (4 bytes), name "w"
# (1 byte), rank at HEADER + 5, dims from HEADER + 9, values from HEADER +
# 25; the name of the second record, "b", is at HEADER + 77
@pytest.mark.parametrize("at,patch,match", [
    forged(HEADER + 5, b"\xff" * 4, "truncated"),
    forged(HEADER + 9, b"\xff" * 8, "truncated"),
    # rank 70 > numpy's limit, with 70 dims of 1 and one value
    forged(HEADER + 5, struct.pack("<I70Qd", 70, *[1] * 70, 0.0), "unusable shape",
           "rank-70"),
    forged(HEADER + 9, struct.pack("<2Q", 0, 2**63), "unusable shape", "dims-0-2**63"),
    forged(HEADER + 77, b"w", "duplicate record 'w'", "duplicate-name"),
    forged(HEADER + 25, struct.pack("<d", np.nan), "record 'w' holds NaN or inf",
           "nan-value"),
    forged(HEADER + 65, struct.pack("<d", -np.inf), "record 'w' holds NaN or inf",
           "inf-value"),
])
def test_checkpoint_forged_rank_and_dims(tmp_path, at, patch, match):
    data = bytearray(checkpoint_bytes(tmp_path))
    data[at:at + len(patch)] = patch
    p = tmp_path / "forged.bin"
    p.write_bytes(bytes(data))
    with pytest.raises(ConfigError, match=match):
        read_arrays(p)


def file_variants(good):
    """Arbitrary bytes, a valid header before arbitrary bytes, and every
    truncation and single-byte change of a valid file."""
    return st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda tail: good[:HEADER] + tail),
        st.integers(0, len(good) - 1).map(lambda n: good[:n]),
        st.tuples(st.integers(0, len(good) - 1), st.integers(0, 255)).map(
            lambda at_byte: (good[:at_byte[0]] + bytes([at_byte[1]])
                             + good[at_byte[0] + 1:])))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_read_arrays_loads_or_raises_config_error(tmp_path_factory, data):
    base = tmp_path_factory.getbasetemp()
    p = base / "variant.bin"
    p.write_bytes(data.draw(file_variants(checkpoint_bytes(base))))
    try:
        read_arrays(p)
    except ConfigError:
        pass


def loader_file_bytes(base, loader):
    """A valid file for the loader: a noisy dataset, or the checkpoint of an
    afm run on it."""
    ds = inject_noise(small_blobs(), "symmetric", 0.4, 0)
    p = base / f"good-{loader.__name__}.bin"
    if loader is load_dataset:
        save_dataset(p, ds)
    else:
        state, _ = train(ds, TrainConfig(hidden=(4,), epochs=1, batch_size=32))
        save_state(p, state)
    return p.read_bytes()


@pytest.mark.parametrize("loader", [load_dataset, load_state])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_loaders_load_or_raise_config_error(tmp_path_factory, loader, data):
    """A forged name or size in a checkpoint's records must fail with a
    ConfigError, never a raw exception."""
    base = tmp_path_factory.getbasetemp()
    p = base / "variant.bin"
    p.write_bytes(data.draw(file_variants(loader_file_bytes(base, loader))))
    try:
        loader(p)
    except ConfigError:
        pass
