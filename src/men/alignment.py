"""Discriminative patches and the global alignment matrix.

Each sample is grouped with its k1 nearest same-label neighbours and its
k2 nearest other-label neighbours; build_patches clamps both to what the
sample's class can supply (warning when it does) and rejects a sample
left with none. A patch pulls same-class neighbours toward the center
(edge weight 1) and pushes different-class ones away (edge weight
-kappa). Summed over patches, the part matrices are the Laplacian
L = D - S of one signed neighbour graph: S holds the edge weights,
symmetrised, and D their row sums. Both selections return that graph as
Edges arrays, and accumulate_alignment scatters them into L a block at a time.

Neighbours are found a block of rows at a time, with no per-sample loop:
a GEMM distance filter (one row-wise partition per group) and one lexsort
re-rank of the kept candidates by explicit-difference Euclidean distance,
ties broken by ascending index. SampleSet bounds every entry, so neither
distance can overflow and the filter's rounding bound always holds.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import checked_value
from .errors import DataError

__all__ = ["SampleSet", "Edges", "build_patch", "build_patches", "accumulate_alignment"]

# squared distances per block of rows in build_patches (1 MB of float64):
# its memory stays a few blocks, not n x n, even when the filter keeps every pair
BLOCK_ENTRIES = 2**17


@dataclass
class SampleSet:
    """A labelled data matrix: n samples (rows) by p features.

    Labels are compact integers 0..c-1 with every class present. Data is
    C-contiguous, so a row's distance rounds the same in any row subset.
    Every |entry| <= sqrt(max float / (4 n p)), so squared norms stay below
    max float / (4 n) and no distance, centering sum or class-center moment
    of the data overflows. Instances are treated as immutable after
    construction.
    """

    data: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        self.labels = _int64_labels(self.labels)
        if self.data.ndim != 2:
            raise DataError(f"data must be 2-D, got shape {self.data.shape}")
        n, p = self.data.shape
        if n < 2 or p < 1:
            raise DataError(f"need n >= 2 samples and p >= 1 features, got {n} x {p}")
        if self.labels.shape != (n,):
            raise DataError(
                f"labels must have length {n}, got shape {self.labels.shape}"
            )
        limit = np.sqrt(np.finfo(np.float64).max / (4.0 * n * p))
        # a NaN fails the comparison; min and max make no n x p temporary
        if not -limit <= self.data.min() <= self.data.max() <= limit:
            raise DataError(f"data has nonfinite entries or |x| > {limit:.4g}; rescale the data")
        if self.labels.min(initial=0) < 0:
            raise DataError("labels must be nonnegative")
        c = int(self.labels.max()) + 1
        present = np.unique(self.labels)
        if present.size != c:
            missing = sorted(set(range(c)) - set(present.tolist()))
            raise DataError(f"class indices must be compact; missing {missing}")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]

    @property
    def c(self) -> int:
        return int(self.labels.max()) + 1

    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.c)

    @classmethod
    def compacted(cls, data, labels) -> "SampleSet":
        """A SampleSet with integer labels renumbered 0..c-1 in ascending order."""
        _, compact = np.unique(_int64_labels(labels), return_inverse=True)
        return cls(data, compact)

    def subset(self, indices) -> "SampleSet":
        idx = np.asarray(indices, dtype=np.int64)
        return SampleSet.compacted(self.data[idx], self.labels[idx])


def _int64_labels(labels) -> np.ndarray:
    """The labels as int64; DataError unless each is an integer within int64."""
    # ragged lists, text and Python ints past int64 raise; fractions, NaN and
    # floats past int64 cast to another value
    with contextlib.suppress(TypeError, ValueError, OverflowError), np.errstate(invalid="ignore"):
        given = np.asarray(labels)
        labels = given.astype(np.int64)
        if np.array_equal(labels, given):
            return labels
    raise DataError("labels must be integers within int64")


class Edges(NamedTuple):
    """Signed neighbour-graph edges, ordered by center, same-class before
    other-class, nearest first. Indices are int64; a weight (float64) is 1
    for a same-class neighbour and -kappa for an other-class one."""

    centers: np.ndarray
    neighbours: np.ndarray
    weights: np.ndarray


def _distances(x: np.ndarray, i, rows) -> np.ndarray:
    diff = x[rows] - x[i]
    return np.sqrt((diff * diff).sum(axis=1))


def _nearest(candidates: np.ndarray, dist: np.ndarray, count: int) -> np.ndarray:
    # stable sort on distance keeps ascending-index order among ties
    return candidates[np.argsort(dist, kind="stable")][:count]


def build_patch(samples: SampleSet, i: int, k1: int, k2: int, kappa: float) -> Edges:
    """Sample i's edges to its k1 nearest same-label and k2 nearest other-label samples.

    Distances are Euclidean; ties are broken by ascending sample index.
    Raises DataError when a group has fewer candidates than requested, and
    a config DataError naming an i, k1 or k2 that is not an int, or a kappa
    that is not a finite float >= 0.
    """
    i, k1, k2 = (checked_value(*arg, "int") for arg in (("i", i), ("k1", k1), ("k2", k2)))
    kappa = checked_value("kappa", kappa, "float", (">=", 0))  # MenConfig's rule
    if not 0 <= i < samples.n:
        raise DataError(f"sample index {i} out of range [0, {samples.n})")
    if k1 < 0 or k2 < 0 or k1 + k2 < 1:
        raise DataError(f"need k1 >= 0, k2 >= 0 and k1+k2 >= 1, got k1={k1} k2={k2}")
    label = int(samples.labels[i])
    same = np.flatnonzero((samples.labels == label) & (np.arange(samples.n) != i))
    diff = np.flatnonzero(samples.labels != label)
    if same.size < k1:
        raise DataError(f"class {label} has only {same.size} other members; k1={k1} requested")
    if diff.size < k2:
        raise DataError(f"only {diff.size} samples outside class {label}; k2={k2} requested")
    dist = _distances(samples.data, i, slice(None))
    return Edges(
        np.full(k1 + k2, i, dtype=np.int64),
        np.concatenate([_nearest(same, dist[same], k1), _nearest(diff, dist[diff], k2)]),
        np.repeat([1.0, -kappa], [k1, k2]),
    )


def _ranked_neighbours(x, sq, bound, labels, counts, kappa, rows: slice) -> Edges:
    """The block's edges: per row, its same-class then its other-class neighbours."""
    n, counts = x.shape[0], counts[rows]
    centers = np.arange(n)[rows]
    local = np.arange(centers.size)
    d2 = x[rows] @ x.T
    d2 *= -2.0
    d2 += sq[rows, None]
    d2 += sq
    outside = labels[rows, None] != labels
    buf, keep, pairs = np.empty_like(d2), np.empty_like(outside), []
    for group, k in enumerate(counts.T):
        if group:
            np.logical_not(outside, out=outside)
        outside[local, centers] = True  # a sample is in neither of its groups
        np.copyto(buf, d2)
        np.copyto(buf, np.inf, where=outside)
        buf.partition(np.unique(k[k > 0]) - 1, axis=1)
        kth = buf[local, np.maximum(k - 1, 0)]
        np.less_equal(d2, np.where(k > 0, kth + bound[rows], -np.inf)[:, None], out=keep)
        np.copyto(keep, False, where=outside)
        row, col = np.divmod(np.flatnonzero(keep), n)  # far faster than a 2-D nonzero
        pairs.append((2 * row + group, col))
    del d2, buf, keep, outside
    segment, cols = (np.concatenate(part) for part in zip(*pairs))
    # n pairs at a time, so no gathered difference is larger than x
    chunks = [slice(start, start + n) for start in range(0, cols.size, n)]
    dist = np.concatenate([_distances(x, centers[segment[c] // 2], cols[c]) for c in chunks])
    order = np.lexsort((cols, dist, segment))
    segment, cols = segment[order], cols[order]  # one run per row and group, ascending
    rank = np.arange(segment.size) - np.searchsorted(segment, segment)
    segment, cols = (a[rank < counts.ravel()[segment]] for a in (segment, cols))
    return Edges(centers[segment // 2], cols, np.where(segment % 2, -float(kappa), 1.0))


def build_patches(samples: SampleSet, k1: int, k2: int, kappa: float) -> list[Edges]:
    """Every sample's edges, with k1 and k2 clamped to what its class can supply.

    One Edges per block of rows. Concatenated, they equal the edges of
    build_patch(samples, i, min(k1, size - 1), min(k2, n - size), kappa) for
    i = 0..n-1, with size that of sample i's class; a clamp warns. A block
    holds at most BLOCK_ENTRIES GEMM squared distances. Per group (same
    class, other classes), one in-place partition of a copy with the entries
    outside the group at +inf finds every row's k-th smallest, and the
    entries within a rounding bound of it are kept. One lexsort on (row,
    group, distance, index) ranks the kept pairs by explicit-difference
    distance, and each row takes its first k per group. A count that is not
    an int, or a kappa not a finite float >= 0, is a config DataError naming it.
    """
    k1, k2 = checked_value("k1", k1, "int"), checked_value("k2", k2, "int")
    kappa = checked_value("kappa", kappa, "float", (">=", 0))  # MenConfig's rule
    if k1 < 0 or k2 < 0:
        raise DataError(f"need k1 >= 0 and k2 >= 0, got k1={k1} k2={k2}")
    x, n, labels, sizes = samples.data, samples.n, samples.labels, samples.class_sizes()
    k1, k2 = min(k1, n), min(k2, n)  # past n a count clamps as n does, and fits int64
    k1s, k2s = np.minimum(k1, sizes - 1), np.minimum(k2, n - sizes)  # per class
    empty = (k1s + k2s < 1)[labels]
    if empty.any():
        i = int(np.argmax(empty))
        size = sizes[labels[i]]
        raise DataError(f"sample {i}: no usable neighbours (class size {size} of {n})")
    clamped = np.count_nonzero(((k1s != k1) | (k2s != k2))[labels])
    if clamped:
        warnings.warn(f"k1/k2 clamped for {clamped} of {n} samples (small classes)", stacklevel=2)
    counts = np.column_stack([k1s, k2s])[labels]  # per sample and group
    sq = np.einsum("ij,ij->i", x, x)
    # To first order the GEMM and the explicit squared distance each lie
    # within (p+2)*eps*(|x_i|^2 + |x_j|^2) of the true one; gradual
    # underflow adds far less than tiny. Twice that, at the largest |x_j|^2,
    # covers the k-th candidate's error, any other's, and rounding to a tie.
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    bound = 8.0 * (samples.p + 2) * (eps * (sq + sq.max()) + tiny)
    step = max(1, BLOCK_ENTRIES // n)
    rows = (slice(start, start + step) for start in range(0, n, step))
    return [_ranked_neighbours(x, sq, bound, labels, counts, kappa, block) for block in rows]


def accumulate_alignment(samples: SampleSet, edges) -> np.ndarray:
    """The n x n alignment matrix L = D - S of the signed neighbour graph.

    `edges` is any iterable of Edges, each scattered as it is yielded. L is
    the sum of S_i^T L_i S_i over the part matrices of the edges' patches.
    Anything else (not three arrays of one shape, non-integer indices,
    non-real weights, an index outside [0, n)) raises DataError (stage
    alignment).
    """
    n = samples.n
    out = np.zeros((n, n))
    for block in edges if np.iterable(edges) else [edges]:
        try:
            rows, neighbours, weights = map(np.asarray, block)
        except (TypeError, ValueError) as exc:  # not three arrays
            raise DataError(f"an Edges block must be three arrays, got {block!r:.60}",
                            stage="alignment") from exc
        if not rows.shape == neighbours.shape == weights.shape:  # np.add.at would broadcast
            raise DataError(f"an Edges block's arrays differ in shape: {rows.shape}, "
                            f"{neighbours.shape}, {weights.shape}", stage="alignment")
        if not (rows.dtype.kind in "iu" and neighbours.dtype.kind in "iu"
                and weights.dtype.kind in "iuf"):  # np.add.at rejects float indices
            raise DataError("an Edges block needs integer centers and neighbours and real "
                            f"weights, got {rows.dtype}, {neighbours.dtype}, {weights.dtype}",
                            stage="alignment")
        bad = (rows < 0) | (rows >= n) | (neighbours < 0) | (neighbours >= n)
        if bad.any():
            center = rows[np.argmax(bad)]
            raise DataError(f"patch at center {center} references sample outside [0, {n})",
                            stage="alignment")
        np.add.at(out, (rows, neighbours), -weights)
        np.add.at(out, (neighbours, rows), -weights)
    # subtracting from the untouched +0.0 diagonal keeps a zero degree +0.0
    out[np.diag_indices(n)] -= out.sum(axis=1)
    return out
