"""Regression targets from a weighted PCA of class centers.

Every sample's target row is the projection of its class center onto the
leading eigenvectors of the weighted (by class proportion) second-moment
matrix of the centers. Samples of one class therefore share a row, and
the projected centers have maximal weighted spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import SampleSet
from .config import checked_value
from .errors import DataError, NumericalError

__all__ = ["IndicatorMatrix", "class_centers", "weighted_center_pca", "build_indicator"]

# eigenvalues below RANK_TOL * largest count as numerically zero
RANK_TOL = 1e-10


@dataclass
class IndicatorMatrix:
    """values: n x d targets, row j the projected center of sample j's class."""

    values: np.ndarray


def orient_columns(basis: np.ndarray) -> np.ndarray:
    """Negate in place each column whose largest-magnitude entry (the first,
    among ties) is negative; column by column, so no basis-sized temporary.
    Returns the signs applied, one +-1.0 per column."""
    signs = np.ones(basis.shape[1])
    for t in range(basis.shape[1]):
        j = int(np.argmax(np.abs(basis[:, t])))
        if basis[j, t] < 0:
            basis[:, t] = -basis[:, t]
            signs[t] = -1.0
    return signs


def class_centers(samples: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    """Per-class mean rows and class proportions (summing to 1)."""
    sizes = samples.class_sizes()
    centers = np.zeros((samples.c, samples.p))
    for k in range(samples.c):
        centers[k] = samples.data[samples.labels == k].mean(axis=0)
    return centers, sizes / samples.n


def weighted_center_pca(
    centers: np.ndarray,
    weights: np.ndarray,
    d: int,
    *,
    center: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-d eigenpairs of V = sum_k weights[k] * outer(centers[k], centers[k]).

    V is the uncentered second moment of the class centers; with
    center=True the weighted mean is subtracted first (conventional PCA).
    V = B^T B for the c x p rows B = diag(sqrt(weights)) centers, so it
    shares its nonzero eigenvalues with the c x c Gram B B^T = Q diag(mu) Q^T,
    and its eigenvectors are B^T Q / sqrt(mu): the p x p V is never formed.
    Returns (basis p x d, eigenvalues length d descending). Raises
    DataError when the weights are not one nonnegative weight per center
    row, d is not an int >= 1 (stage config), the Gram is not finite or d
    exceeds its numerical rank, and NumericalError when the eigensolver
    does not converge.
    """
    centers = np.asarray(centers, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if centers.ndim != 2 or weights.shape != centers.shape[:1]:
        raise DataError(f"need one weight per center row, got {weights.shape} weights "
                        f"for centers of shape {centers.shape}")
    if not np.all(weights >= 0):
        raise DataError(f"center weights must be nonnegative, got {weights}")
    d = checked_value("d", d, "int", (">=", 1))  # MenConfig's rule
    with np.errstate(over="ignore", invalid="ignore"):
        work = centers - weights @ centers if center else centers
        rows = np.sqrt(weights)[:, None] * work
        gram = rows @ rows.T
    if not np.isfinite(gram).all():
        raise DataError("the weighted center moment overflows; rescale the features")
    try:
        eigvals, eigvecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"center moment eigendecomposition failed: {exc}") from exc
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    top = eigvals[0] if eigvals.size else 0.0
    rank = int(np.sum(eigvals > RANK_TOL * max(top, 0.0))) if top > 0 else 0
    if d > rank:
        raise DataError(
            f"d={d} exceeds the numerical rank {rank} of the weighted center moment"
        )
    basis = rows.T @ (eigvecs[:, order[:d]] / np.sqrt(eigvals[:d]))
    orient_columns(basis)
    return basis, eigvals[:d].copy()


def build_indicator(samples: SampleSet, d: int, *, center: bool = False) -> IndicatorMatrix:
    """Assemble the n x d indicator matrix: row j is its class's projected
    center. A `d` that is not an int >= 1 raises DataError (stage config)."""
    centers, weights = class_centers(samples)
    basis, _ = weighted_center_pca(centers, weights, d, center=center)
    return IndicatorMatrix(values=(centers @ basis)[samples.labels])
