"""End-to-end fitting: preprocessing, alignment, targets, column solves.

Stages: optional mean-centered PCA; one discriminative patch per sample
accumulated into the alignment matrix; indicator targets from the
weighted class-center PCA; a spectral factor; one augmented design and
Gram matrix shared by all columns; then one covariance-mode LARS solve
per projection column. The columns are solved one after another in the
caller's thread; BLAS is the only parallelism. Everything is
deterministic (no RNG), so identical inputs give identical models.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# build_patch is unused here; the benchmark's tracer counts its calls under this module
from .alignment import SampleSet, accumulate_alignment, build_patch, build_patches  # noqa: F401
from .config import MenConfig
from .errors import DataError, MenError, NumericalError
from .indicator import build_indicator, orient_columns
from .lars import CoefficientPath, report_column, solve_column
from .transform import _gufunc_into, build_a, build_augmented, spectral_factor

__all__ = ["ProjectionMatrix", "FitReport", "pca_preprocess", "fit", "project"]

# rows centred at a time by project and the PCA: 64 x p_raw doubles, not a copy of the data
_PROJECT_ROWS = 64


@dataclass
class ProjectionMatrix:
    """Fitted sparse projection.

    values:    p x d matrix (p in the possibly PCA-reduced space), each
               column with at most K nonzeros
    pca_basis: p_raw x p preprocessing basis, or None
    pca_mean:  length p_raw centering vector, or None
    config:    hyperparameters used for the fit
    """

    values: np.ndarray
    pca_basis: np.ndarray | None
    pca_mean: np.ndarray | None
    config: MenConfig

    @property
    def sparsity(self) -> list[int]:
        """Per-column nonzero counts."""
        return np.count_nonzero(self.values, axis=0).tolist()

    def raw_columns(self) -> np.ndarray:
        """Columns composed back into the raw feature space."""
        if self.pca_basis is None:
            return self.values
        return self.pca_basis @ self.values


@dataclass
class FitReport:
    """Per-fit diagnostics: paths, objective traces, timings, column angles."""

    paths: list[CoefficientPath]
    timings: dict[str, float] = field(default_factory=dict)
    column_cosines: np.ndarray | None = None

    @property
    def objective_traces(self) -> list[list[float]]:
        """Per column, the transformed objective at every breakpoint."""
        return [[bp.objective for bp in path.breakpoints] for path in self.paths]

    def check_monotone(self) -> None:
        """Every column's transformed objective must decrease each loop."""
        for t, trace in enumerate(self.objective_traces):
            diffs = np.diff(trace)
            if diffs.size and diffs.max() > 1e-12:
                raise NumericalError(
                    f"objective increased by {diffs.max():.3e} in column {t}",
                    stage="solve",
                )


def pca_preprocess(
    samples: SampleSet, retain: int
) -> tuple[SampleSet, np.ndarray, np.ndarray]:
    """Mean-centered PCA keeping `retain` components.

    Returns (reduced samples, basis p x retain, mean). The basis columns
    are orthonormal right singular vectors of the centered data, each with
    its largest-magnitude entry (the first, among ties) made positive.
    They are taken as the left singular vectors U of the p x n transpose:
    when p > n that matrix is tall, and LAPACK reduces it by QR first
    (Chan's R-SVD), faster than the SVD of the wide data. numpy's SVD
    gufunc writes its input-shaped factor (U when p >= n, V^T otherwise)
    over the private centered copy, so no second n x p array is made, and
    U^T is then shrunk in place to its leading `retain` rows: the basis is
    an F-order view holding exactly p x retain doubles. Without the
    gufunc, np.linalg.svd runs and the basis is a copy of U's columns.
    The reduced data are the rows of project's centred product, so a fit's
    training coordinates are the ones project gives; they form a new
    SampleSet, so they meet its entry bound or raise DataError. Raises
    NumericalError when the SVD does not converge.
    """
    n, p = samples.n, samples.p
    limit = min(n - 1, p)
    if not 1 <= retain <= limit:
        raise DataError(f"pca_retain={retain} outside [1, {limit}] for {n} x {p} data")
    mean = samples.data.mean(axis=0)
    centered = samples.data - mean
    # U^T's rows are U's columns; when p >= n, U^T is the centred copy itself
    ut = centered if p >= n else np.empty((p, p))
    vt = np.empty((n, n)) if p >= n else centered.T
    names = ("svd_s", "svd_n_s" if p >= n else "svd_m_s")  # numpy 2, numpy 1
    try:
        if not _gufunc_into(names, centered.T, (ut.T, np.empty(min(n, p)), vt),
                            "SVD did not converge"):
            ut = np.linalg.svd(centered.T, full_matrices=False)[0].T[:retain].copy()
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"PCA SVD failed: {exc}") from exc
    del centered, vt
    ut.resize((retain, p))  # frees U's unused columns; refuses if a view remains
    basis = ut.T
    orient_columns(basis)
    reduced = _centred_product(samples.data, mean, basis)
    return SampleSet(reduced, samples.labels.copy()), basis, mean


def _centred_product(data: np.ndarray, mean: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """(data - mean) @ basis, centred a block of rows at a time, so no
    centred copy of the data exists."""
    out = np.empty((data.shape[0], basis.shape[1]))
    for start in range(0, data.shape[0], _PROJECT_ROWS):
        rows = slice(start, start + _PROJECT_ROWS)
        np.matmul(data[rows] - mean, basis, out=out[rows])
    return out


def _column_cosines(values: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(values, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    unit = values / safe
    cos = unit.T @ unit
    cos[norms == 0, :] = 0.0
    cos[:, norms == 0] = 0.0
    np.fill_diagonal(cos, 1.0)
    return cos


@contextmanager
def _stage(name: str, timings: dict[str, float]):
    """Tag an untagged MenError from the body with stage `name`; on success time it."""
    start = time.perf_counter()
    try:
        yield
    except MenError as exc:
        if exc.stage is None:
            exc.stage = name
        raise
    timings[name] = time.perf_counter() - start


def fit(
    samples: SampleSet, cfg: MenConfig, *, threads: int = 1
) -> tuple[ProjectionMatrix, FitReport]:
    """Run the full pipeline and solve the d projection columns in turn.

    With PCA, `samples` is dropped once the PCA has read it, and the
    reduced data once the shared design is built, so a caller that hands
    over its only reference (`fit(ingest(path), cfg)`) has its data freed
    mid-fit (on CPython 3.11+; 3.10 keeps call arguments alive). Raises
    DataError/NumericalError tagged with the failing stage.
    `threads` is accepted and unused: the benchmark harness still passes
    it, and ROADMAP item 1's benchmark commit deletes it.
    """
    timings: dict[str, float] = {}
    with _stage("preprocess", timings):
        retain = min(samples.n - 1, samples.p) if cfg.pca_retain is None else cfg.pca_retain
        work, basis, mean = pca_preprocess(samples, retain) if retain else (samples, None, None)
        del samples  # with PCA, the raw data are no longer read
    with _stage("alignment", timings):
        align = accumulate_alignment(work, build_patches(work, cfg.k1, cfg.k2, cfg.kappa))
    with _stage("indicator", timings):
        indicator = build_indicator(work, cfg.d, center=cfg.center_class_means)
    with _stage("transform", timings):
        eig = build_a(align, cfg, overwrite_l=True)
        del align  # L's storage now holds U: the eigh made no second n x n array
        # all d target columns share one design
        factor = spectral_factor(eig, cfg.eig_floor)
        shared = build_augmented(work.data, indicator.values, None, cfg, factor=factor)
        del eig, factor, work  # U and the data: the column solves read only the design
    if shared.n_variables > shared.xstar.shape[0] and cfg.lambda2 < 1e-6:
        warnings.warn(
            "more variables than retained spectral rows with lambda2 < 1e-6; "
            "set lambda2 >= 1e-6 to keep active-set Gram matrices well conditioned",
            stacklevel=2,
        )
    with _stage("solve", timings):
        solved = [solve_column(shared.column(t), cfg.K) for t in range(cfg.d)]
        values = np.column_stack([
            report_column(w, shared, double_shrinkage_correction=cfg.double_shrinkage_correction)
            for w, _ in solved
        ])
    paths = [path for _, path in solved]
    model = ProjectionMatrix(values=values, pca_basis=basis, pca_mean=mean, config=cfg)
    report = FitReport(
        paths=paths,
        timings=timings,
        column_cosines=_column_cosines(values),
    )
    report.check_monotone()
    return model, report


def project(model: ProjectionMatrix, samples: SampleSet) -> np.ndarray:
    """Embed samples: apply the stored centering/PCA, then the projection."""
    basis = model.pca_basis
    expected = (model.values if basis is None else basis).shape[0]
    if samples.p != expected:
        raise DataError(
            f"feature dimension {samples.p} does not match the model's dimension {expected}"
        )
    if basis is None:
        return samples.data @ model.values
    return _centred_product(samples.data, model.pca_mean, basis) @ model.values
