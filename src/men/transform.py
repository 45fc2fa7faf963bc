"""Rewriting the alignment-plus-classification objective as a lasso problem.

The latent embedding is eliminated through its stationarity condition,
Z = M X W with M = beta (alpha L + beta I)^{-1}, leaving a quadratic form
in the projection column. Its matrix A = alpha M L M + beta (M - I)^2 + I
shares the eigenvectors of the symmetric L, so one eigendecomposition
gives A = I + alpha beta L (alpha L + beta I)^{-1} = U diag(f(lambda)) U^T
with f(lambda) = 1 + alpha beta lambda / (alpha lambda + beta). Neither A
nor its square root is formed: build_a returns (f(lambda), U), and the
design is built in that eigenbasis from U^T X and U^T y, so one eigh(L)
does the whole stage and no n' x n array exists. fit hands L over to
build_a, which then has LAPACK write U into L's own storage, so the solve
adds no second n x n array; where numpy's in-place eigh kernel is missing,
build_a falls back to np.linalg.eigh. The negative eigenvalues
of L (different-class pushes) can make f negative, so A is generally
indefinite; eigenvalues below a relative floor are clamped, and the
transformed response then lives in the retained subspace only. The
elastic net's ridge rows (Zou & Hastie 2005, Lemma 1) stay implied, as
one scalar on the Gram diagonal of the n' x p design all d columns share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import MenConfig
from .errors import DataError, NumericalError

try:  # numpy's private gufuncs behind np.linalg, the one route to an in-place eigh
    from numpy.linalg import _umath_linalg
except ImportError:
    _umath_linalg = None

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
    """Square root of A = U diag(f) U^T on its retained eigenvalues, in U.

    root:      length n', sqrt(f) over the retained eigenvalues, descending
    retained:  their column indices into basis
    basis:     U from build_a, n x n (a reference, not a copy)
    n_dropped: eigenvalues discarded by the relative floor
    """

    root: np.ndarray
    retained: np.ndarray
    basis: np.ndarray
    n_dropped: int


@dataclass(kw_only=True)
class AugmentedProblem:
    """Elastic-net least-squares problem for one or more projection columns.

    xstar: n' x p design (F order), the top block of the augmented data
    ystar: its length-n' response, or n' x d with one column per target
    scale: sqrt(1+lambda2) relating the reported column W to the solved
           coefficients (W* = scale * W)
    ridge: lambda2/(1+lambda2); the implied ridge rows sqrt(ridge) I under
           xstar, with zero responses, add it to the Gram diagonal

    The covariance form the solver works on, `gram` and `xty`, is formed
    on first use and kept.
    """

    xstar: np.ndarray
    ystar: np.ndarray
    scale: float
    ridge: float

    @property
    def n_variables(self) -> int:
        return self.xstar.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """G = xstar^T xstar + ridge I (p x p), the same for every target column."""
        gram = self.xstar.T @ self.xstar
        gram.flat[:: gram.shape[0] + 1] += self.ridge
        return gram

    @cached_property
    def xty(self) -> np.ndarray:
        """b = xstar^T ystar: length p, or p x d for several targets."""
        return self.xstar.T @ self.ystar

    def column(self, t: int) -> "AugmentedProblem":
        """The one-column problem of target t, sharing this design and its Gram."""
        problem = AugmentedProblem(
            xstar=self.xstar,
            ystar=np.ascontiguousarray(self.ystar[:, t]),
            scale=self.scale,
            ridge=self.ridge,
        )
        problem.gram = self.gram
        problem.xty = np.ascontiguousarray(self.xty[:, t])
        return problem


def _gufunc_into(names, a: np.ndarray, out: tuple, failure: str) -> bool:
    """Run the first of numpy's linalg gufuncs `names` that exists on float64 `a`,
    writing its results into `out`, under np.linalg's own error handling.

    An output may be `a` itself, so LAPACK's result lands in a's storage.
    The gufunc reports non-convergence through the invalid flag, which
    raises LinAlgError(failure). Returns False, having written nothing,
    where numpy has none of the gufuncs or no d->d... loop with out=.
    """
    gufunc = next(filter(None, (getattr(_umath_linalg, name, None) for name in names)), None)
    if gufunc is None:
        return False

    def nonconvergence(err, flag):
        raise np.linalg.LinAlgError(failure)

    try:
        with np.errstate(call=nonconvergence, invalid="call",
                         over="ignore", divide="ignore", under="ignore"):
            gufunc(a, out=out, signature="d->" + "d" * len(out))
    except TypeError:  # no such loop, or no out= for this gufunc
        return False
    return True


def _eigh(L: np.ndarray, overwrite_l: bool) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(L), or, under overwrite_l and where L allows it, the
    same eigenpairs with U written over L by numpy's own eigh gufunc."""
    if overwrite_l and L.flags.writeable and (L.flags.c_contiguous or L.flags.f_contiguous):
        eigvals = np.empty(L.shape[0])
        if _gufunc_into(("eigh_lo",), L, (eigvals, L), "Eigenvalues did not converge"):
            return eigvals, L
    return np.linalg.eigh(L)


def build_a(
    L: np.ndarray, cfg: MenConfig, *, overwrite_l: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """A = U diag(f(lambda)) U^T as the pair (f(lambda), U); A is not formed.

    For alpha = 0 the pair is (ones, I). Raises DataError unless L is a
    finite, exactly symmetric square matrix, and NumericalError when the
    condition number of alpha L + beta I, max|alpha lambda + beta| /
    min|alpha lambda + beta|, reaches 1e14 or eigh(L) fails.

    L is left intact unless overwrite_l is set (scipy's overwrite_a). Then
    a writeable, contiguous float64 L is overwritten: the returned U is L
    itself, holding the eigenvectors, and no second n x n array is made.
    Any other L, or a numpy without the in-place eigh gufunc, goes through
    np.linalg.eigh, and L is then not written.
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
        return np.ones(L.shape[0]), np.eye(L.shape[0])
    try:
        eigvals, eigvecs = _eigh(L, overwrite_l)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"alignment matrix eigh failed: {exc}", stage="transform") from exc
    shifted = cfg.alpha * eigvals + cfg.beta
    spread = np.abs(shifted)
    cond = spread.max() / spread.min() if spread.min() > 0.0 else np.inf
    if cond >= COND_LIMIT:
        raise NumericalError(
            f"alpha*L + beta*I is ill-conditioned (condition number {cond:.3e}); "
            f"increase beta or decrease alpha",
            stage="transform",
        )
    return 1.0 + cfg.alpha * cfg.beta * eigvals / shifted, eigvecs


def spectral_factor(eig: tuple[np.ndarray, np.ndarray], eig_floor: float) -> SpectralFactor:
    """Factor A = U diag(f) U^T as R^T R, R = diag(root) U[:, retained]^T,
    from its eigenpairs (f, U); R itself is not formed.

    `eig` is the pair build_a returns. Eigenvalues smaller than eig_floor
    times the largest are discarded (they would make the inverse square
    root applied to the response blow up). Raises DataError unless f is a
    nonempty finite vector and U a finite n x n matrix, and NumericalError
    when nothing is retained.
    """
    try:
        vals, vecs = (np.asarray(part, dtype=np.float64) for part in eig)
    except (TypeError, ValueError):  # not a pair of numeric arrays
        vals = vecs = np.empty(0)
    shaped = vals.ndim == 1 and vals.size > 0 and vecs.shape == (vals.size,) * 2
    if not (shaped and np.isfinite(vals).all() and np.isfinite(vecs).all()):
        raise DataError(
            "spectral_factor takes eigenpairs (f, U): a nonempty finite length-n "
            "vector and a finite n x n matrix",
            stage="transform",
        )
    order = np.argsort(vals)[::-1]
    top = vals[order[0]]
    if top <= 0.0:
        raise NumericalError(
            "no positive eigenvalues in the quadratic-form matrix", stage="transform"
        )
    retained = order[vals[order] >= eig_floor * top]
    if retained.size == 0:
        raise NumericalError(
            f"eig_floor={eig_floor!r} retains no eigenvalue (largest {top:.3e})",
            stage="transform",
        )
    return SpectralFactor(
        root=np.sqrt(vals[retained]), retained=retained, basis=vecs,
        n_dropped=int(vals.size - retained.size),
    )


def build_augmented(
    X: np.ndarray,
    targets: np.ndarray,
    L: np.ndarray,
    cfg: MenConfig,
    *,
    factor: SpectralFactor | None = None,
) -> AugmentedProblem:
    """Assemble the n' x p design, its response and its ridge in the eigenbasis.

    xstar = (1+lambda2)^{-1/2} root * (U^T X)[retained], ridge = lambda2/(1+lambda2)
    ystar = (U^T y)[retained] / root

    These are R X, scaled, and R^{-T} y for the factor R of spectral_factor.
    `targets` is one length-n target column, or an n x d matrix whose
    columns then share the one design (see AugmentedProblem.column). A
    precomputed spectral factor may be passed in; L is then not read.
    """
    X = np.asarray(X, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if factor is None:
        factor = spectral_factor(build_a(L, cfg), cfg.eig_floor)
    rotated_x, rotated_t = ((factor.basis.T @ a)[factor.retained] for a in (X, targets))
    scale = float(np.sqrt(1.0 + cfg.lambda2))
    # column-major, so reading the columns of an active set is contiguous
    xstar = np.multiply(factor.root[:, None], rotated_x, out=np.empty(rotated_x.shape, order="F"))
    xstar /= scale
    ystar = (rotated_t.T / factor.root).T
    return AugmentedProblem(
        xstar=xstar, ystar=ystar, scale=scale, ridge=cfg.lambda2 / (1.0 + cfg.lambda2)
    )
