"""Model file format: a flat binary container with a versioned header.

Layout (all integers little-endian int64, all floats little-endian
float64):

    magic "MEN1"
    config block:  int64 byte length, then that many UTF-8 bytes of
                   key=value lines
    mean:          int64 length m (0 when absent), then m floats
    pca_basis:     int64 rows, int64 cols (0 0 when absent), then
                   rows*cols floats row-major
    W:             int64 p, int64 d, int64 nnz, then nnz (row, col,
                   value) float triplets in column-major order

The loader trusts nothing: every length is bounded by the bytes that
remain, the mean length must equal the basis rows and the basis columns
must equal p, triplet indices must be integral and in range, floats must
be finite and no bytes may trail. Anything else is a DataError (stage
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

MAGIC = b"MEN1"


def _pack_int(value: int) -> bytes:
    return struct.pack("<q", value)


def _pack_floats(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype="<f8")


def _triplets(values: np.ndarray) -> np.ndarray:
    col_idx, row_idx = np.nonzero(values.T)  # ordered by column, then row
    out = np.empty((row_idx.size, 3))
    out[:, 0] = row_idx
    out[:, 1] = col_idx
    out[:, 2] = values[row_idx, col_idx]
    return out


def save_model(model: ProjectionMatrix, path) -> None:
    chunks = [MAGIC]
    config_text = "\n".join(config_to_lines(model.config)) + "\n"
    config_bytes = config_text.encode("utf-8")
    chunks.append(_pack_int(len(config_bytes)))
    chunks.append(config_bytes)
    if model.pca_mean is None:
        chunks.append(_pack_int(0))
    else:
        chunks.append(_pack_int(model.pca_mean.size))
        chunks.append(_pack_floats(model.pca_mean))
    if model.pca_basis is None:
        chunks.append(_pack_int(0))
        chunks.append(_pack_int(0))
    else:
        rows, cols = model.pca_basis.shape
        chunks.append(_pack_int(rows))
        chunks.append(_pack_int(cols))
        chunks.append(_pack_floats(model.pca_basis))
    p, d = model.values.shape
    trip = _triplets(model.values)
    chunks.append(_pack_int(p))
    chunks.append(_pack_int(d))
    chunks.append(_pack_int(trip.shape[0]))
    chunks.append(_pack_floats(trip))
    # each chunk goes to the file as it is: no bytes copy of an array, no joined file
    with Path(path).open("wb") as handle:
        handle.writelines(chunks)


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
    """Read a MEN1 model; any malformed content raises DataError (stage model)."""
    path = Path(path)
    reader = _Reader(path.read_bytes(), str(path))
    if reader.take(4) != MAGIC:
        raise reader.fail("not a model file (bad magic)")
    config_bytes = reader.take(reader.read_count("config length"))
    try:
        mapping = parse_kv_lines(bytes(config_bytes).decode("utf-8").splitlines())
        mapping.pop("lambda1", None)  # a retired key, never read by a fit; older files carry it
        cfg = config_from_mapping(mapping)
    except (UnicodeDecodeError, DataError) as exc:
        raise reader.fail(f"bad config block ({exc})") from exc
    mean_len = reader.read_count("mean length")
    mean = reader.read_floats((mean_len,), "mean") if mean_len else None
    rows = reader.read_count("basis rows")
    cols = reader.read_count("basis columns")
    if rows != mean_len or (rows == 0) != (cols == 0):
        raise reader.fail(f"basis shape {rows}x{cols} does not match mean length {mean_len}")
    basis = reader.read_floats((rows, cols), "basis") if rows else None
    p = reader.read_count("projection rows")
    d = reader.read_count("projection columns")
    if p < 1 or d < 1 or p * d > MAX_ENTRIES or (basis is not None and p != cols):
        raise reader.fail(f"bad projection shape {p}x{d} (basis columns {cols})")
    nnz = reader.read_count("nonzero count")
    trip = reader.read_floats((nnz, 3), "projection triplets")
    if reader.offset != len(reader.data):
        raise reader.fail(f"{len(reader.data) - reader.offset} trailing bytes")
    index = trip[:, :2]
    if np.any(index != np.floor(index)) or np.any(index < 0) or np.any(index >= (p, d)):
        raise reader.fail("projection triplet index not integral or out of range")
    values = np.zeros((p, d))
    values[index[:, 0].astype(np.int64), index[:, 1].astype(np.int64)] = trip[:, 2]
    return ProjectionMatrix(values=values, pca_basis=basis, pca_mean=mean, config=cfg)


def model_to_text(model: ProjectionMatrix) -> str:
    """Config, PCA shapes and one ``row col repr(value)`` line per nonzero of W.

    The PCA mean and basis values are only in the binary model file.
    """
    lines = ["MEN1 text export", "[config]"]
    lines.extend(config_to_lines(model.config))
    if model.pca_basis is None:
        lines.append("pca absent")
    else:
        rows, cols = model.pca_basis.shape
        lines.append(f"pca mean {model.pca_mean.size} basis {rows} {cols}")
    lines.append("[projection]")
    p, d = model.values.shape
    trip = _triplets(model.values)
    lines.append(f"W {p} {d} nnz {trip.shape[0]}")
    for row, col, value in trip:
        lines.append(f"{int(row)} {int(col)} {repr(float(value))}")
    return "\n".join(lines) + "\n"
