"""Model file format: a flat binary container with a versioned header.

Layout (all integers little-endian int64, all floats little-endian
float64):

    magic "MEN2"
    config block:  int64 byte length, then that many UTF-8 bytes of
                   key=value lines
    mean:          int64 length m (0 when absent), then m floats
    projection:    int64 rows, int64 cols (0 0 when absent), then
                   rows*cols floats row-major: the p_raw x d matrix that
                   project applies, present with the PCA mean
    W:             int64 p, int64 d, int64 nnz, then nnz (row, col,
                   value) float triplets in column-major order

Without PCA, the loaded projection is W itself. A file of the retired
MEN1 layout (a PCA basis in place of the projection) must be refitted.

The loader trusts nothing: every length is bounded by the bytes that
remain, the projection rows must equal the mean length and its columns
W's d, triplet indices must be integral and in range, floats must be
finite and no bytes may trail. Anything else is a DataError (stage
model).
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .config import config_from_mapping, config_to_lines, parse_kv_lines
from .errors import DataError
from .pipeline import ProjectionMatrix

__all__ = ["save_model", "load_model", "model_to_text"]

MAGIC = b"MEN2"
# doubles per chunk of an array written to the file
_CHUNK_ENTRIES = 2**15


def _pack_ints(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}q", *values)


def _pack_floats(values: np.ndarray):
    """values as little-endian float64 in row-major order, a block of rows
    at a time: views of a C-contiguous array, and copies of at most
    _CHUNK_ENTRIES doubles of any other, such as an F-order projection."""
    step = max(1, _CHUNK_ENTRIES // max(1, math.prod(values.shape[1:])))
    for start in range(0, values.shape[0], step):
        yield np.ascontiguousarray(values[start : start + step], dtype="<f8")


def _triplets(values: np.ndarray) -> np.ndarray:
    col_idx, row_idx = np.nonzero(values.T)  # ordered by column, then row
    out = np.empty((row_idx.size, 3))
    out[:, 0] = row_idx
    out[:, 1] = col_idx
    out[:, 2] = values[row_idx, col_idx]
    return out


def _chunks(model: ProjectionMatrix):
    """The MEN2 file of `model`, chunk by chunk."""
    yield MAGIC
    config_text = "\n".join(config_to_lines(model.config)) + "\n"
    config_bytes = config_text.encode("utf-8")
    yield _pack_ints(len(config_bytes))
    yield config_bytes
    if model.pca_mean is None:
        yield _pack_ints(0, 0, 0)
    else:
        yield _pack_ints(model.pca_mean.size)
        yield from _pack_floats(model.pca_mean)
        yield _pack_ints(*model.projection.shape)
        yield from _pack_floats(model.projection)
    trip = _triplets(model.values)
    yield _pack_ints(*model.values.shape, trip.shape[0])
    yield from _pack_floats(trip)


def save_model(model: ProjectionMatrix, path) -> None:
    # each chunk goes to the file as it is made: no bytes copy of an array, no joined file
    with Path(path).open("wb") as handle:
        handle.writelines(_chunks(model))


# the projection is held dense: p x d float64 entries beyond this are refused
MAX_ENTRIES = 2**27


class _Reader:
    def __init__(self, data: bytes, name: str):
        self.data = memoryview(data)  # take() slices views, not byte copies
        self.name = name
        self.offset = 0

    def fail(self, reason: str) -> DataError:
        return DataError(f"{self.name}: {reason}", stage="model")

    def take(self, count: int) -> memoryview:
        if count > len(self.data) - self.offset:
            raise self.fail("truncated model file")
        out = self.data[self.offset : self.offset + count]
        self.offset += count
        return out

    def read_count(self, what: str) -> int:
        value = struct.unpack("<q", self.take(8))[0]
        if value < 0:
            raise self.fail(f"negative {what} {value}")
        return value

    def read_floats(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        out = np.frombuffer(self.take(8 * math.prod(shape)), dtype="<f8").astype(np.float64)
        # a NaN fails the comparison; min and max make no temporary of out's size
        if not -np.inf < out.min(initial=0.0) <= out.max(initial=0.0) < np.inf:
            raise self.fail(f"nonfinite values in {what}")
        return out.reshape(shape)


def load_model(path) -> ProjectionMatrix:
    """Read a MEN2 model; a MEN1 file or any malformed content raises
    DataError (stage model), as does a path that is not str or os.PathLike."""
    try:
        path = Path(path)
    except TypeError as exc:
        raise DataError(f"model path is a {type(path).__name__}", stage="model") from exc
    reader = _Reader(path.read_bytes(), str(path))
    magic = reader.take(4)
    if magic == b"MEN1":
        raise reader.fail("MEN1 model files are no longer read; refit the model")
    if magic != MAGIC:
        raise reader.fail("not a model file (bad magic)")
    config_bytes = reader.take(reader.read_count("config length"))
    try:
        mapping = parse_kv_lines(bytes(config_bytes).decode("utf-8").splitlines())
        cfg = config_from_mapping(mapping)
    except (UnicodeDecodeError, DataError) as exc:
        raise reader.fail(f"bad config block ({exc})") from exc
    mean_len = reader.read_count("mean length")
    mean = reader.read_floats((mean_len,), "mean") if mean_len else None
    rows = reader.read_count("projection rows")
    cols = reader.read_count("projection columns")
    if rows != mean_len or (rows == 0) != (cols == 0):
        raise reader.fail(f"projection shape {rows}x{cols} does not match mean length {mean_len}")
    projection = reader.read_floats((rows, cols), "projection") if rows else None
    p = reader.read_count("W rows")
    d = reader.read_count("W columns")
    if p < 1 or d < 1 or p * d > MAX_ENTRIES or (projection is not None and d != cols):
        raise reader.fail(f"bad W shape {p}x{d} (projection columns {cols})")
    nnz = reader.read_count("nonzero count")
    trip = reader.read_floats((nnz, 3), "W triplets")
    if reader.offset != len(reader.data):
        raise reader.fail(f"{len(reader.data) - reader.offset} trailing bytes")
    index = trip[:, :2]
    if np.any(index != np.floor(index)) or np.any(index < 0) or np.any(index >= (p, d)):
        raise reader.fail("W triplet index not integral or out of range")
    values = np.zeros((p, d))
    values[index[:, 0].astype(np.int64), index[:, 1].astype(np.int64)] = trip[:, 2]
    projection = values if projection is None else projection
    return ProjectionMatrix(values=values, projection=projection, pca_mean=mean, config=cfg)


def model_to_text(model: ProjectionMatrix) -> str:
    """Config, PCA shapes and one ``row col repr(value)`` line per nonzero of W.

    The PCA mean and projection values are only in the binary model file.
    """
    lines = ["MEN2 text export", "[config]"]
    lines.extend(config_to_lines(model.config))
    if model.pca_mean is None:
        lines.append("pca absent")
    else:
        rows, cols = model.projection.shape
        lines.append(f"pca mean {model.pca_mean.size} projection {rows} {cols}")
    lines.append("[projection]")
    p, d = model.values.shape
    trip = _triplets(model.values)
    lines.append(f"W {p} {d} nnz {trip.shape[0]}")
    for row, col, value in trip:
        lines.append(f"{int(row)} {int(col)} {repr(float(value))}")
    return "\n".join(lines) + "\n"
