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
from .config import MenConfig, checked_value
from .errors import DataError, MenError, NumericalError
from .indicator import build_indicator, orient_columns
from .lars import CoefficientPath, report_column, solve_column
from .transform import _thin_svd_into, _writable_alone, build_a, build_augmented, spectral_factor

__all__ = ["ProjectionMatrix", "FitReport", "pca_preprocess", "fit", "project"]

# rows centred at a time by project: 64 x p_raw doubles, not the data
_PROJECT_ROWS = 64


@dataclass
class ProjectionMatrix:
    """Fitted sparse projection.

    values:     p x d matrix W (p in the possibly PCA-reduced space), each
                column with at most K nonzeros
    projection: p_raw x d matrix that project applies: the PCA basis
                times W, or `values` itself without PCA
    pca_mean:   length p_raw centering vector, or None without PCA
    config:     hyperparameters used for the fit

    Shapes that disagree raise DataError (stage model).
    """

    values: np.ndarray
    projection: np.ndarray
    pca_mean: np.ndarray | None
    config: MenConfig

    def __post_init__(self):
        shape = np.shape(self.values)
        if len(shape) != 2 or shape[1] < 1:
            raise DataError(f"W must be p x d with d >= 1, got shape {shape}", stage="model")
        want = (shape[0] if self.pca_mean is None else np.size(self.pca_mean), shape[1])
        if np.shape(self.projection) != want:
            raise DataError(f"projection shape {np.shape(self.projection)} is not {want}: W's "
                            "without a PCA mean, the mean's length x d with one", stage="model")

    @property
    def sparsity(self) -> list[int]:
        """Per-column nonzero counts."""
        return np.count_nonzero(self.values, axis=0).tolist()


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
    over the centred data, and U^T is then shrunk in place to its leading
    `retain` rows (copied where a tracer or a profiler holds it): the
    basis is an F-order view of exactly p x retain doubles. The reduced
    data are V[:, :retain] * s[:retain], negated column by column with the
    basis; as a new SampleSet they meet its entry bound or raise DataError.

    The data are centred in a copy, and a caller's data are never changed.
    Where the caller handed over its only reference to `samples` (as fit
    does) and the array is _writable_alone once the set is gone, they are
    centred in their own buffer, which the SVD's factor then fills (the
    basis, when p >= n), with the same bits. A `retain` that is not an
    int raises DataError (stage config) naming it, and NumericalError is
    raised when the SVD does not converge.
    """
    n, p = samples.n, samples.p
    limit = min(n - 1, p)
    retain = checked_value("retain", retain, "int")
    if not 1 <= retain <= limit:
        raise DataError(f"pca_retain={retain} outside [1, {limit}] for {n} x {p} data")
    data, labels = samples.data, samples.labels
    del samples  # a set that nothing else holds goes, leaving data this one reference
    probe = object()
    in_place = _writable_alone(data, probe)
    mean = data.mean(axis=0)
    centered = np.subtract(data, mean, out=data if in_place else None)
    del data
    # U^T's rows are U's columns; when p >= n, U^T is the centred data itself
    ut = centered if p >= n else np.empty((p, p))
    vt = np.empty((n, n)) if p >= n else centered.T
    singular = np.empty(min(n, p))
    try:
        _thin_svd_into(centered.T, (ut.T, singular, vt))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"PCA SVD failed: {exc}") from exc
    del centered
    try:
        ut.resize((retain, p))  # frees U's unused columns; refuses if a view remains
    except ValueError:  # a tracer's f_locals snapshot or a profiler's call refers to ut
        ut = ut[:retain].copy()
    basis = ut.T
    signs = orient_columns(basis)
    # the centred data times the basis, V diag(s) U^T U[:, :retain]; in C
    # order, as SampleSet keeps it, so that it makes no second copy
    reduced = np.multiply(vt[:retain].T, singular[:retain] * signs, order="C")
    return SampleSet(reduced, labels.copy()), basis, mean


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

    With PCA, fit passes its reference to `samples` on to pca_preprocess,
    so a caller that hands over its only one (`fit(ingest(path), cfg)`)
    has its data centred and solved in their own buffer: the fit makes no
    n x p copy (CPython 3.11+; 3.10 keeps call arguments
    alive). Other callers' data are centred in a copy, with the same model
    bits. The reduced data are dropped once the shared design is built.
    Raises DataError/NumericalError tagged with the failing stage.
    `threads` is accepted and unused: the benchmark harness still passes
    it, and ROADMAP item 1's benchmark commit deletes it.
    """
    timings: dict[str, float] = {}
    with _stage("preprocess", timings):
        retain = min(samples.n - 1, samples.p) if cfg.pca_retain is None else cfg.pca_retain
        held = [samples]
        del samples  # the PCA gets the set popped from `held`: no name here keeps it alive
        if retain:
            work, basis, mean = pca_preprocess(held.pop(), retain)
        else:
            work, basis, mean = held.pop(), None, None
    with _stage("alignment", timings):
        align = accumulate_alignment(work, build_patches(work, cfg.k1, cfg.k2, cfg.kappa))
    with _stage("indicator", timings):
        indicator = build_indicator(work, cfg.d, center=cfg.center_class_means)
    with _stage("transform", timings):
        eig = build_a(align, cfg, overwrite_l=True)
        del align  # L's storage now holds U: the eigh made no second n x n array
        factor = spectral_factor(eig, cfg.eig_floor)
        del eig  # factor.basis is now U's only reference, so U can shrink in place
        # all d target columns share one design
        shared = build_augmented(work.data, indicator.values, None, cfg, factor=factor)
        del factor, work  # U and the data: the column solves read only the design
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
    del shared  # the design and its Gram, before the projection is composed
    paths = [path for _, path in solved]
    projection = values if basis is None else basis @ values
    model = ProjectionMatrix(values=values, projection=projection, pca_mean=mean, config=cfg)
    report = FitReport(
        paths=paths,
        timings=timings,
        column_cosines=_column_cosines(values),
    )
    report.check_monotone()
    return model, report


def project(model: ProjectionMatrix, samples: SampleSet) -> np.ndarray:
    """Embed samples: centre them by the stored PCA mean, then apply the projection."""
    expected = model.projection.shape[0]
    if samples.p != expected:
        raise DataError(
            f"feature dimension {samples.p} does not match the model's dimension {expected}"
        )
    if model.pca_mean is None:
        return samples.data @ model.projection
    # a block of rows centred at a time, so no centred copy of the data exists
    out = np.empty((samples.n, model.projection.shape[1]))
    for start in range(0, samples.n, _PROJECT_ROWS):
        rows = slice(start, start + _PROJECT_ROWS)
        np.matmul(samples.data[rows] - model.pca_mean, model.projection, out=out[rows])
    return out
