"""Rewriting the alignment-plus-classification objective as a lasso problem.

The latent embedding is eliminated through its stationarity condition,
Z = M X W with M = beta (alpha L + beta I)^{-1}, leaving a quadratic form
in the projection column. Its matrix A = alpha M L M + beta (M - I)^2 + I
shares the eigenvectors of the symmetric L, so one eigendecomposition
gives A = I + alpha beta L (alpha L + beta I)^{-1} = U diag(f(lambda)) U^T
with f(lambda) = 1 + alpha beta lambda / (alpha lambda + beta). Neither A
nor its square root is formed: build_a returns (f(lambda), U), and the
design is built in that eigenbasis from U^T X and U^T y, so one eigh(L)
does the whole stage and no n' x n factor is formed. fit hands L over to
build_a, which then has LAPACK write U into L's own storage, so the solve
adds no second n x n array; build_augmented then shrinks U in place to
its n' retained columns, so the design's products read an n x n' basis. The
checks on L and U read a band of rows at a time. This eigh and the PCA's
SVD run np.linalg's gufuncs, from here, into their callers' buffers. The
negative eigenvalues of L (different-class pushes) can make f negative,
so A is generally indefinite; eigenvalues below a relative floor are
clamped, and the transformed response then lives in the retained subspace
only. The elastic net's ridge rows (Zou & Hastie 2005, Lemma 1) stay
implied, as one scalar on the Gram diagonal of the n' x p design all d
columns share.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg  # the gufuncs behind np.linalg, with out=

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

# rows checked at a time, so no check makes an n x n boolean array
_BAND_ROWS = 64


@dataclass
class SpectralFactor:
    """Square root of A = U diag(f) U^T on its retained eigenvalues, in U.

    root:      length n', sqrt(f) over the retained eigenvalues, descending
    retained:  their column indices into basis
    basis:     n x k eigenvectors: U from build_a, n x n (a reference, not a
               copy), until the first build_augmented shrinks it to its
               retained columns in order (k = n', retained = arange(n'))
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


def _gufunc_into(gufunc, a: np.ndarray, out: tuple, failure: str) -> None:
    """Run numpy's linalg gufunc on float64 `a` into `out`, which may hold
    `a` itself, under np.linalg's own error handling: the invalid flag the
    gufunc raises on non-convergence becomes LinAlgError(failure)."""
    def nonconvergence(err, flag):
        raise np.linalg.LinAlgError(failure)

    with np.errstate(call=nonconvergence, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        gufunc(a, out=out, signature="d->" + "d" * len(out))


def _thin_svd_into(a: np.ndarray, out: tuple) -> None:
    """Thin a = U diag(s) V^T into out = (U, s, V^T), which may hold `a`, by
    numpy's svd_s, or before numpy 2 svd_n_s (a tall) or svd_m_s (a wide)."""
    name = "svd_s" if hasattr(_umath_linalg, "svd_s") else (
        "svd_n_s" if a.shape[0] >= a.shape[1] else "svd_m_s")
    _gufunc_into(getattr(_umath_linalg, name), a, out, "SVD did not converge")


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of `a` is finite, checked a band of rows at a time."""
    return all(np.isfinite(a[start : start + _BAND_ROWS]).all()
               for start in range(0, a.shape[0], _BAND_ROWS))


def _symmetric(a: np.ndarray) -> bool:
    """Whether square `a` is exactly symmetric, a band of rows at a time: each
    band meets its columns from its diagonal block on, so every pair of
    entries is compared once."""
    return all(np.array_equal(a[start : start + _BAND_ROWS, start:],
                              a[start:, start : start + _BAND_ROWS].T)
               for start in range(0, a.shape[0], _BAND_ROWS))


def build_a(
    L: np.ndarray, cfg: MenConfig, *, overwrite_l: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """A = U diag(f(lambda)) U^T as the pair (f(lambda), U); A is not formed.

    At alpha = 0, f = 1 exactly. Raises DataError unless L is a finite,
    exactly symmetric square matrix, and NumericalError when the condition
    number of alpha L + beta I, max|alpha lambda + beta| /
    min|alpha lambda + beta|, reaches 1e14 or eigh(L) fails.

    L is left intact unless overwrite_l is set (scipy's overwrite_a). Then
    a writeable, contiguous float64 L is overwritten: the returned U is L
    itself, holding the eigenvectors, and no second n x n array is made.
    Otherwise numpy's eigh gufunc, the one np.linalg.eigh calls, writes U
    into a fresh n x n array.
    """
    L = np.asarray(L, dtype=np.float64)
    square = L.ndim == 2 and L.size > 0 and L.shape[0] == L.shape[1]
    if not (square and _finite(L) and _symmetric(L)):
        raise DataError(
            f"alignment matrix (shape {L.shape}) must be nonempty, finite, square "
            "and exactly symmetric",
            stage="transform",
        )
    in_place = overwrite_l and L.flags.writeable and (L.flags.c_contiguous or L.flags.f_contiguous)
    eigvals = np.empty(L.shape[0])
    eigvecs = L if in_place else np.empty(L.shape)
    try:
        _gufunc_into(_umath_linalg.eigh_lo, L, (eigvals, eigvecs), "Eigenvalues did not converge")
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
    if not (shaped and np.isfinite(vals).all() and _finite(vecs)):
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


def _writable_alone(a: np.ndarray, probe: object) -> bool:
    """Whether the caller may overwrite array `a`, which one of its local
    names holds: nothing else refers to it, and it owns an aligned,
    writeable, C-contiguous buffer. `probe` is a fresh object that the
    caller holds the same way, in one local name, so the two reference
    counts are read alike on the running interpreter: CPython 3.14 borrows
    some stack references and reads counts lower than earlier versions, and
    a tracer's f_locals snapshot adds one to every local."""
    return sys.getrefcount(a) <= sys.getrefcount(probe) and a.flags.carray and a.flags.owndata


def _shrink(factor: SpectralFactor) -> None:
    """Shrink factor.basis to U's retained columns, in retained order, unless
    it is so already. A U that is _writable_alone is compacted a band of rows
    at a time into its own buffer and resized, freeing the dropped
    eigenvectors before any product; where the resize is refused (a
    profiler's pending call to basis.resize holds U), the compacted block
    is copied out. Any other U (F-order, or held by the caller or by a
    tracer's f_locals snapshot) is left as it is and copied."""
    n, k = factor.basis.shape[0], factor.retained.size
    if factor.basis.shape[1] == k and np.array_equal(factor.retained, np.arange(k)):
        return
    basis, factor.basis = factor.basis, None  # the factor's reference to U is now here
    probe = object()
    if _writable_alone(basis, probe):
        flat = basis.reshape(-1)
        for start in range(0, n, _BAND_ROWS):
            stop = min(start + _BAND_ROWS, n)  # take's block is C-order, so ravel copies nothing
            flat[start * k : stop * k] = np.take(basis[start:stop], factor.retained, axis=1).ravel()
        del flat
        try:
            basis.resize((n, k))
        except ValueError:  # refused while another reference is alive
            basis = basis.reshape(-1)[: n * k].reshape(n, k).copy()
    else:
        basis = np.take(basis, factor.retained, axis=1)  # C-order too: the products round alike
    factor.basis, factor.retained = basis, np.arange(k)


def build_augmented(
    X: np.ndarray,
    targets: np.ndarray,
    L: np.ndarray,
    cfg: MenConfig,
    *,
    factor: SpectralFactor | None = None,
) -> AugmentedProblem:
    """Assemble the n' x p design, its response and its ridge in the eigenbasis.

    xstar = (1+lambda2)^{-1/2} root * U[:, retained]^T X, ridge = lambda2/(1+lambda2)
    ystar = U[:, retained]^T y / root

    These are R X, scaled, and R^{-T} y for the factor R of spectral_factor.
    `targets` is one length-n target column, or an n x d matrix whose
    columns then share the one design (see AugmentedProblem.column). A
    precomputed spectral factor may be passed in; L is then not read. It is
    shrunk to U's retained columns first (_shrink), and stays shrunk.
    """
    X = np.asarray(X, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if factor is None:
        factor = spectral_factor(build_a(L, cfg), cfg.eig_floor)
    _shrink(factor)
    rotated_x, rotated_t = (factor.basis.T @ a for a in (X, targets))
    scale = float(np.sqrt(1.0 + cfg.lambda2))
    # column-major, so reading the columns of an active set is contiguous
    xstar = np.multiply(factor.root[:, None], rotated_x, out=np.empty(rotated_x.shape, order="F"))
    xstar /= scale
    ystar = (rotated_t.T / factor.root).T
    return AugmentedProblem(
        xstar=xstar, ystar=ystar, scale=scale, ridge=cfg.lambda2 / (1.0 + cfg.lambda2)
    )
