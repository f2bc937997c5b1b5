"""Binary serialization for parameter sets and datasets.

Layout: magic "AFM2", u32 record count; then per record: u32 name length,
utf-8 name, u32 rank, u64 dims, raw float64 little-endian values. Round
trips are bit-exact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ConfigError

MAGIC = b"AFM2"


def write_arrays(path, arrays: dict[str, np.ndarray]):
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr, dtype="<f8")
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<Q", d))
            f.write(arr.tobytes())


def read_arrays(path) -> dict[str, np.ndarray]:
    """Read a file written by write_arrays. Every read is bounds-checked: a
    truncated, padded or forged file, a duplicate record name, a shape
    numpy cannot make, or a NaN or inf value raises ConfigError."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:len(MAGIC)] != MAGIC:
        raise ConfigError(f"{path}: bad magic, not a checkpoint file")
    offset = len(MAGIC)

    def take(size, what):
        nonlocal offset
        if size > len(data) - offset:
            raise ConfigError(f"{path}: truncated: {what} needs {size} bytes at "
                              f"offset {offset}, {len(data) - offset} left")
        offset += size
        return data[offset - size:offset]

    (count,) = struct.unpack("<I", take(4, "record count"))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<I", take(4, "name length"))
        try:
            name = take(nlen, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: record name is not utf-8") from exc
        if name in arrays:
            raise ConfigError(f"{path}: duplicate record {name!r}")
        (rank,) = struct.unpack("<I", take(4, f"rank of {name!r}"))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank, f"dims of {name!r}"))
        if rank > 64:  # numpy's limit; below it the dims' product stays printable
            raise ConfigError(f"{path}: record {name!r} has unusable shape: rank {rank}")
        payload = take(8 * math.prod(dims), f"values of {name!r}")
        try:  # numpy limits the rank and each dim even when a dim is 0
            values = np.frombuffer(payload, dtype="<f8").reshape(dims)
        except ValueError as exc:
            raise ConfigError(f"{path}: record {name!r} has unusable shape "
                              f"{dims}: {exc}") from exc
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"{path}: record {name!r} holds NaN or inf")
        arrays[name] = values.copy()
    if offset != len(data):
        raise ConfigError(f"{path}: {len(data) - offset} trailing bytes after "
                          f"{count} records")
    return arrays


def read_record(path, arrays, name) -> np.ndarray:
    """Record ``name`` of ``arrays``, read from ``path``; ConfigError if missing."""
    if name not in arrays:
        raise ConfigError(f"{path}: missing record {name!r}")
    return arrays[name]


def read_integers(path, arrays, name, low, high, size) -> np.ndarray:
    """Record ``name`` of ``arrays``, read from ``path``, as int64 values; raises
    ConfigError, naming both, when it is missing or holds other than exactly
    ``size`` values, each an integer in [low, high)."""
    values = read_record(path, arrays, name).reshape(-1)
    if len(values) != size or not np.all(
            (values == np.floor(values)) & (values >= low) & (values < high)):
        raise ConfigError(f"{path}: record {name!r} must hold only integers in "
                          f"[{low}, {high}), {size} of them")
    return values.astype(np.int64)
