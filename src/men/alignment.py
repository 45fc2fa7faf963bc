"""Discriminative patches and the global alignment matrix.

Each sample is grouped with its k1 nearest same-label neighbours and its
k2 nearest other-label neighbours. The patch contributes a small
symmetric matrix that pulls same-class neighbours toward the center and
pushes different-class neighbours away (weight -kappa); scatter-adding
all patch matrices yields the n x n alignment matrix used by the
objective transformation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = ["SampleSet", "Patch", "build_patch", "part_matrix", "accumulate_alignment"]


@dataclass
class SampleSet:
    """A labelled data matrix: n samples (rows) by p features.

    Labels are compact integers 0..c-1 with every class present.
    Instances are treated as immutable after construction.
    """

    data: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.data.ndim != 2:
            raise DataError(f"data must be 2-D, got shape {self.data.shape}")
        n, p = self.data.shape
        if n < 2 or p < 1:
            raise DataError(f"need n >= 2 samples and p >= 1 features, got {n} x {p}")
        if self.labels.shape != (n,):
            raise DataError(
                f"labels must have length {n}, got shape {self.labels.shape}"
            )
        if not np.all(np.isfinite(self.data)):
            raise DataError("data contains nonfinite entries")
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

    def class_members(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)

    def subset(self, indices) -> "SampleSet":
        idx = np.asarray(indices, dtype=np.int64)
        sub_labels = self.labels[idx]
        # compact the label range so SampleSet invariants hold on any split
        _, compact = np.unique(sub_labels, return_inverse=True)
        return SampleSet(self.data[idx], compact)


@dataclass
class Patch:
    """One sample with its selected same-class and different-class neighbours."""

    center: int
    same_class: list[int]
    diff_class: list[int]
    kappa: float

    @property
    def indices(self) -> list[int]:
        """Index set in (center, same-class..., different-class...) order."""
        return [self.center, *self.same_class, *self.diff_class]


def _nearest(candidates: np.ndarray, dist: np.ndarray, count: int) -> list[int]:
    # stable sort on distance keeps ascending-index order among ties
    order = candidates[np.argsort(dist[candidates], kind="stable")]
    return order[:count].tolist()


def build_patch(samples: SampleSet, i: int, k1: int, k2: int, kappa: float) -> Patch:
    """Select the k1 nearest same-label and k2 nearest other-label samples.

    Distances are Euclidean; ties are broken by ascending sample index.
    Raises DataError when a group has fewer candidates than requested.
    """
    if not 0 <= i < samples.n:
        raise DataError(f"sample index {i} out of range [0, {samples.n})")
    if k1 < 0 or k2 < 0 or k1 + k2 < 1:
        raise DataError(f"need k1 >= 0, k2 >= 0 and k1+k2 >= 1, got k1={k1} k2={k2}")
    label = int(samples.labels[i])
    same = np.flatnonzero((samples.labels == label) & (np.arange(samples.n) != i))
    diff = np.flatnonzero(samples.labels != label)
    if same.size < k1:
        raise DataError(
            f"class {label} has only {same.size} other members; k1={k1} requested"
        )
    if diff.size < k2:
        raise DataError(
            f"only {diff.size} samples outside class {label}; k2={k2} requested"
        )
    diff_rows = samples.data - samples.data[i]
    dist = np.sqrt((diff_rows * diff_rows).sum(axis=1))
    return Patch(
        center=i,
        same_class=_nearest(same, dist, k1),
        diff_class=_nearest(diff, dist, k2),
        kappa=float(kappa),
    )


def part_matrix(patch: Patch) -> np.ndarray:
    """Per-patch optimization matrix of size (k1+k2+1) squared.

    Row/column 0 is the patch center; the coefficient vector holds +1 for
    same-class neighbours and -kappa for different-class ones:

        [[sum(w), -w^T],
         [-w,     diag(w)]]
    """
    k1 = len(patch.same_class)
    k2 = len(patch.diff_class)
    w = np.concatenate([np.ones(k1), -patch.kappa * np.ones(k2)])
    size = k1 + k2 + 1
    out = np.zeros((size, size))
    out[0, 0] = w.sum()
    out[0, 1:] = -w
    out[1:, 0] = -w
    out[1:, 1:][np.diag_indices(size - 1)] = w
    return out


def accumulate_alignment(samples: SampleSet, patches) -> np.ndarray:
    """Scatter-add every patch matrix into the n x n alignment matrix.

    Equivalent to summing S_i^T L_i S_i over patches, where S_i selects
    the patch rows from the global coordinate.
    """
    n = samples.n
    out = np.zeros((n, n))
    for patch in patches:
        idx = np.asarray(patch.indices, dtype=np.int64)
        if idx.min() < 0 or idx.max() >= n:
            raise DataError(
                f"patch at center {patch.center} references sample outside [0, {n})"
            )
        out[np.ix_(idx, idx)] += part_matrix(patch)
    return out
