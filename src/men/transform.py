"""Rewriting the alignment-plus-classification objective as a lasso problem.

The latent embedding is eliminated through its stationarity condition,
Z = M X W with M = beta (alpha L + beta I)^{-1}, leaving a quadratic form
in the projection column. Its matrix A = alpha M L M + beta (M - I)^2 + I
shares the eigenvectors of the symmetric L, so one eigendecomposition
gives A = I + alpha beta L (alpha L + beta I)^{-1} = U diag(f(lambda)) U^T
with f(lambda) = 1 + alpha beta lambda / (alpha lambda + beta). The
negative eigenvalues of L (different-class pushes) can make f negative,
so A is generally indefinite. Factoring A and appending ridge rows turns
the objective into an ordinary penalized least-squares design
(xstar, ystar) that the LARS engine consumes. The design does not depend
on the target, so all d projection columns share one design and one Gram
matrix. Eigenvalues below a relative floor are clamped: the transformed
response then lives in the retained subspace only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import MenConfig
from .errors import DataError, NumericalError

__all__ = [
    "AugmentedProblem",
    "SpectralFactor",
    "build_a",
    "spectral_factor",
    "build_augmented",
]

# condition numbers of alpha L + beta I at or beyond this make A unreliable
COND_LIMIT = 1e14


@dataclass
class SpectralFactor:
    """Eigen square root of the symmetrized A restricted to retained rows.

    root:               n' x n, sqrt(D) U^T over retained eigenvalues
    response_transform: n' x n, 1/sqrt(D) U^T (adjoint-inverse of root
                        on the retained subspace; applied to responses)
    eigenvalues:        retained eigenvalues, descending
    n_dropped:          eigenvalues discarded by the relative floor
    """

    root: np.ndarray
    response_transform: np.ndarray
    eigenvalues: np.ndarray
    n_dropped: int


@dataclass
class AugmentedProblem:
    """Penalized least-squares design for one or more projection columns.

    xstar:       (n' + p) x p design; bottom p rows are the scaled ridge block
    ystar:       length n' + p response, or (n' + p) x d with one column per
                 target; bottom p rows are zero
    lam:         implicit lasso weight lambda1/(1+lambda2) when lambda1 was
                 given; informational only (sparsity is governed by K)
    n_effective: n', the number of retained spectral rows
    scale:       sqrt(1+lambda2) relating the reported column W to the
                 solved coefficients (W* = scale * W)

    The covariance form the solver works on, `gram` and `xty`, is formed
    on first use and kept.
    """

    xstar: np.ndarray
    ystar: np.ndarray
    lam: float | None
    n_effective: int
    scale: float

    @property
    def n_variables(self) -> int:
        return self.xstar.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """G = xstar^T xstar (p x p), the same for every target column."""
        return self.xstar.T @ self.xstar

    @cached_property
    def xty(self) -> np.ndarray:
        """b = xstar^T ystar: length p, or p x d for several targets."""
        return self.xstar.T @ self.ystar

    def column(self, t: int) -> "AugmentedProblem":
        """The one-column problem of target t, sharing this design and its Gram."""
        problem = AugmentedProblem(
            xstar=self.xstar,
            ystar=np.ascontiguousarray(self.ystar[:, t]),
            lam=self.lam,
            n_effective=self.n_effective,
            scale=self.scale,
        )
        problem.gram = self.gram
        problem.xty = np.ascontiguousarray(self.xty[:, t])
        return problem


def build_a(L: np.ndarray, cfg: MenConfig) -> np.ndarray:
    """A = U diag(f(lambda)) U^T over the eigenpairs (lambda, U) of L.

    Raises DataError unless L is a finite, exactly symmetric square matrix,
    and NumericalError when the condition number of alpha L + beta I,
    max|alpha lambda + beta| / min|alpha lambda + beta|, reaches 1e14.
    """
    L = np.asarray(L, dtype=np.float64)
    square = L.ndim == 2 and L.size > 0 and np.array_equal(L, L.T)
    if not (square and np.isfinite(L).all()):
        raise DataError(
            f"alignment matrix (shape {L.shape}) must be nonempty, finite, square "
            "and exactly symmetric",
            stage="transform",
        )
    if cfg.alpha == 0.0:
        return np.eye(L.shape[0])
    eigvals, eigvecs = np.linalg.eigh(L)
    shifted = cfg.alpha * eigvals + cfg.beta
    spread = np.abs(shifted)
    cond = spread.max() / spread.min() if spread.min() > 0.0 else np.inf
    if cond >= COND_LIMIT:
        raise NumericalError(
            f"alpha*L + beta*I is ill-conditioned (condition number {cond:.3e}); "
            f"increase beta or decrease alpha"
        )
    f = 1.0 + cfg.alpha * cfg.beta * eigvals / shifted
    return (eigvecs * f) @ eigvecs.T


def spectral_factor(A: np.ndarray, eig_floor: float) -> SpectralFactor:
    """Factor (A + A^T)/2 = root^T root, dropping eigenvalues below the floor.

    Eigenvalues smaller than eig_floor times the largest are discarded
    (they would make the inverse square root applied to the response
    blow up). Raises NumericalError when nothing is retained.
    """
    A = np.asarray(A, dtype=np.float64)
    sym = 0.5 * (A + A.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    top = eigvals[0]
    if top <= 0.0:
        raise NumericalError(
            "no positive eigenvalues in the symmetrized quadratic-form matrix"
        )
    keep = eigvals >= eig_floor * top
    if not keep.any():
        raise NumericalError(
            f"eig_floor={eig_floor!r} retains no eigenvalue (largest {top:.3e})",
            stage="transform",
        )
    kept = eigvals[keep]
    vecs = eigvecs[:, keep]
    sqrt_vals = np.sqrt(kept)
    return SpectralFactor(
        root=sqrt_vals[:, None] * vecs.T,
        response_transform=vecs.T / sqrt_vals[:, None],
        eigenvalues=kept.copy(),
        n_dropped=int(eigvals.size - kept.size),
    )


def build_augmented(
    X: np.ndarray,
    targets: np.ndarray,
    L: np.ndarray,
    cfg: MenConfig,
    *,
    factor: SpectralFactor | None = None,
) -> AugmentedProblem:
    """Assemble the (n' + p) x p design and its response.

    xstar = (1+lambda2)^{-1/2} [root X ; sqrt(lambda2) I]
    ystar = [response_transform y ; 0]

    `targets` is one length-n target column, or an n x d matrix whose
    columns then share the one design (see AugmentedProblem.column). A
    precomputed spectral factor may be passed in.
    """
    X = np.asarray(X, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if factor is None:
        factor = spectral_factor(build_a(L, cfg), cfg.eig_floor)
    n_eff = factor.root.shape[0]
    p = X.shape[1]
    scale = float(np.sqrt(1.0 + cfg.lambda2))
    # column-major, so reading the columns of an active set is contiguous
    xstar = np.asfortranarray(
        np.vstack([factor.root @ X, np.sqrt(cfg.lambda2) * np.eye(p)]) / scale
    )
    ystar = np.concatenate(
        [factor.response_transform @ targets, np.zeros((p,) + targets.shape[1:])]
    )
    lam = None if cfg.lambda1 is None else cfg.lambda1 / (1.0 + cfg.lambda2)
    return AugmentedProblem(
        xstar=xstar,
        ystar=ystar,
        lam=lam,
        n_effective=n_eff,
        scale=scale,
    )
