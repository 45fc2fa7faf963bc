"""Recognition protocol: seeded splits, 1-NN rates, figure-data export.

Each repeat draws a per-class random train/test split (PCG64 generator
seeded with seed + repeat index), fits on the training half at the
largest requested dimension, and scores 1-NN recognition using prefixes
of the projection columns. Exports cover basis images (graymaps),
coefficient-path CSVs, and rate/boxplot CSVs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .alignment import BLOCK_ENTRIES, SampleSet
from .config import MenConfig, check_fields, checked_value
from .datasets import write_pgm
from .errors import DataError
from .lars import EVENTS, CoefficientPath
from .pipeline import FitReport, ProjectionMatrix, fit, project

__all__ = [
    "SplitSpec",
    "EvalResult",
    "split_indices",
    "nn_classify",
    "evaluate",
    "export_bases",
    "export_paths",
    "write_results_csv",
    "write_boxplot_csv",
]


@dataclass(frozen=True)
class SplitSpec:
    """Per-class training count, base seed and repeats: the config's evaluation keys.

    Repeat r uses numpy's PCG64 generator seeded with seed + r, so splits
    are reproducible and documented.
    """

    per_class_train: int = 5
    seed: int = 0
    repeats: int = 5

    def __post_init__(self):
        check_fields(self, {"per_class_train": (">=", 1), "seed": (">=", 0), "repeats": (">=", 1)})


@dataclass
class EvalResult:
    """Recognition rates over repeats and the dimension grid."""

    dim_grid: list[int]
    rates: np.ndarray  # repeats x len(dim_grid)
    mean_rates: np.ndarray
    best_rate: float
    best_dim: int
    boxplot: np.ndarray  # len(dim_grid) x 5: min, q1, median, q3, max


def split_indices(
    samples: SampleSet, spec: SplitSpec, repeat: int
) -> tuple[np.ndarray, np.ndarray]:
    """Random per-class split for one repeat; indices ascending."""
    smallest = int(samples.class_sizes().min())
    if spec.per_class_train >= smallest:
        raise DataError(
            f"per_class_train={spec.per_class_train} must be below the smallest "
            f"class size {smallest}",
            stage="config",
        )
    rng = np.random.default_rng(spec.seed + repeat)
    train, test = [], []
    for k in range(samples.c):
        perm = rng.permutation(np.flatnonzero(samples.labels == k))
        train.extend(perm[: spec.per_class_train].tolist())
        test.extend(perm[spec.per_class_train :].tolist())
    return np.sort(np.asarray(train)), np.sort(np.asarray(test))


def nn_classify(
    train_embed: np.ndarray, train_labels: np.ndarray, test_embed: np.ndarray
) -> np.ndarray:
    """1-nearest-neighbour labels under Euclidean distance.

    Ties resolve to the smallest training index (argmin keeps the first
    minimum). Distances are computed from explicit differences so
    identical points give exact zeros.
    """
    train_embed = np.atleast_2d(np.asarray(train_embed, dtype=np.float64))
    test_embed = np.atleast_2d(np.asarray(test_embed, dtype=np.float64))
    if train_embed.shape[0] == 0:
        raise DataError("empty training set")
    if train_embed.shape[1] != test_embed.shape[1]:
        raise DataError(
            f"embedding dimensions differ: train {train_embed.shape[1]}, "
            f"test {test_embed.shape[1]}"
        )
    labels = np.asarray(train_labels)
    if labels.shape != (train_embed.shape[0],):
        raise DataError(f"{labels.shape} train labels for {train_embed.shape[0]} training rows")
    out = np.empty(test_embed.shape[0], dtype=labels.dtype)
    # test rows per block: its difference array holds at most BLOCK_ENTRIES doubles
    step = max(1, BLOCK_ENTRIES // max(1, train_embed.size))
    for start in range(0, test_embed.shape[0], step):
        chunk = test_embed[start : start + step]
        diff = chunk[:, None, :] - train_embed[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        del diff  # or the next block's difference array is made while this one is bound
        out[start : start + chunk.shape[0]] = labels[np.argmin(d2, axis=1)]
    return out


def evaluate(
    samples: SampleSet,
    cfg: MenConfig,
    split: SplitSpec,
    dim_grid,
    *,
    threads: int = 1,
) -> EvalResult:
    """Run the repeated split/fit/score protocol over a dimension grid.

    The repeats run one after another in the caller's thread. One fit per
    repeat at d = max(dim_grid); smaller dimensions reuse the leading
    projection columns of that fit. Each fit gets the only reference to
    its training subset, so its PCA centres that copy in place; all samples
    are then projected once, the train and test rows indexed out of that
    embedding, and the model dropped before the next repeat. `threads` is
    accepted and unused: the benchmark harness still passes it, and
    ROADMAP item 1's benchmark commit deletes it.
    """
    try:
        entries = iter(dim_grid)
    except TypeError:
        raise DataError(f"dim_grid must be an iterable of ints, got {dim_grid!r}",
                        stage="config") from None
    dim_grid = [checked_value("dim_grid", d, "int", (">=", 1)) for d in entries]
    if not dim_grid:
        raise DataError("dim_grid needs entries >= 1, got []", stage="config")
    fit_cfg = replace(cfg, d=max(dim_grid))
    rows = []  # one row of rates per repeat; no repeats-sized buffer before the first fit
    for r in range(split.repeats):
        train_idx, test_idx = split_indices(samples, split, r)
        # the fit's PCA centres this training copy in its own buffer
        model, _ = fit(samples.subset(train_idx), fit_cfg)
        embed = project(model, samples)
        del model  # not held through the next repeat's fit
        train_embed, test_embed = embed[train_idx], embed[test_idx]
        row = []
        for d in dim_grid:
            predicted = nn_classify(
                train_embed[:, :d], samples.labels[train_idx], test_embed[:, :d]
            )
            row.append(float(np.mean(predicted == samples.labels[test_idx])))
        rows.append(row)
    rates = np.array(rows)  # repeats x len(dim_grid) float64, as EvalResult documents
    mean_rates = rates.mean(axis=0)
    best_gi = int(np.argmax(mean_rates))
    # min, q1, median, q3, max: the 0th and 100th percentiles are the extremes exactly
    box = np.percentile(rates, [0, 25, 50, 75, 100], axis=0).T
    return EvalResult(
        dim_grid=dim_grid,
        rates=rates,
        mean_rates=mean_rates,
        best_rate=float(mean_rates[best_gi]),
        best_dim=dim_grid[best_gi],
        boxplot=box,
    )


def column_to_gray(column: np.ndarray, image_shape) -> np.ndarray:
    """Min-max normalize one basis column to 8-bit gray, row-major reshape.

    A degenerate range maps every pixel to mid-gray 128.
    """
    height, width = image_shape
    low = float(column.min())
    high = float(column.max())
    if high - low <= 0.0:
        gray = np.full(column.size, 128, dtype=np.uint8)
    else:
        gray = np.round((column - low) / (high - low) * 255.0).astype(np.uint8)
    return gray.reshape(height, width)


def export_bases(model: ProjectionMatrix, image_shape, out_dir) -> list[Path]:
    """Write each column of the model's projection, which lives in the raw
    feature space with or without PCA, as a graymap image."""
    raw = model.projection
    height, width = image_shape
    if raw.shape[0] != height * width:
        raise DataError(
            f"raw feature dimension {raw.shape[0]} does not match shape "
            f"{height}x{width}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for t in range(raw.shape[1]):
        path = out_dir / f"basis_{t:03d}.pgm"
        write_pgm(path, column_to_gray(raw[:, t], image_shape))
        paths.append(path)
    return paths


def path_csv_lines(path: CoefficientPath) -> list[str]:
    """CSV rows for one coefficient path.

    Schema: loop, event, variable, l1_norm, C_hat, then one column per
    coefficient. Only the active values are formatted; every other
    coefficient is +0.0, written as the constant "0.0".
    """
    p = path.n_variables
    header = "loop,event,variable,l1_norm,C_hat," + ",".join(
        f"w{j}" for j in range(p)
    )
    lines = [header]
    fields = ["0.0"] * p
    values = iter(path.values.tolist())
    rows = path.rows[["loop", "event", "variable", "l1_norm", "c_hat"]].tolist()
    for (loop, event, variable, l1_norm, c_hat), active in zip(rows, path.active_sets()):
        for j in active:
            fields[j] = repr(next(values))
        lines.append(
            f"{loop},{EVENTS[event]},{variable},{repr(l1_norm)},{repr(c_hat)},{','.join(fields)}"
        )
        for j in active:
            fields[j] = "0.0"
    return lines


def export_paths(report: FitReport, out_dir) -> list[Path]:
    """Write one coefficient-path CSV per projection column."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for t, cpath in enumerate(report.paths):
        out = out_dir / f"path_col{t:03d}.csv"
        out.write_text("\n".join(path_csv_lines(cpath)) + "\n", encoding="utf-8")
        paths.append(out)
    return paths


def write_results_csv(result: EvalResult, path) -> None:
    lines = ["repeat,dimension,rate"]
    for r in range(result.rates.shape[0]):
        for gi, d in enumerate(result.dim_grid):
            lines.append(f"{r},{d},{repr(float(result.rates[r, gi]))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_boxplot_csv(result: EvalResult, path) -> None:
    lines = ["dimension,min,q1,median,q3,max"]
    for gi, d in enumerate(result.dim_grid):
        row = ",".join(map(repr, result.boxplot[gi].tolist()))
        lines.append(f"{d},{row}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
