"""The benchmark's workloads: inputs made from a seed, one round of calls
into `men`, and the checks on a round's outputs.

A round is what the closed loop repeats: its first call is the operation
the workload is about (`fit`, `evaluate`, or the CLI's `fit`), and the
rest of the round consumes that call's output. Calls are looked up on the
module at call time, so the tracer's wrappers see them. Checks run
outside the timed region and compare outputs with properties that hold
for every seed, never with stored reference values.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Lasso KKT at the final coefficients of a column, relative to the common
# active correlation plus a floor relative to the initial top correlation
# (the floor covers columns that reached least squares).
KKT_RTOL = 1e-7
KKT_ATOL = 1e-9


class RoundFailed(Exception):
    """A round's call reported failure without raising (a CLI exit code)."""


@dataclass
class Outcome:
    """calls: seconds per call, in call order, keyed by the metric name the
    benchmark prints for it; digest: hash of every output, for the
    determinism check; result: what the checks inspect."""

    calls: dict[str, float]
    digest: str
    result: object


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def leave_one_out_rate(embedding: np.ndarray, labels: np.ndarray) -> float:
    """Share of samples whose nearest other sample in the embedding has
    the same label."""
    sq = np.einsum("ij,ij->i", embedding, embedding)
    d2 = sq[:, None] + sq[None, :] - 2.0 * embedding @ embedding.T
    np.fill_diagonal(d2, np.inf)
    return float(np.mean(labels[np.argmin(d2, axis=1)] == labels))


def rebuilt_problems(men, samples, cfg):
    """Each column's augmented lasso problem, rebuilt from the public stage
    functions with the pipeline's rules (PCA retain default, k1/k2
    clamped to what each class can supply)."""
    work = samples
    retain = cfg.pca_retain if cfg.pca_retain is not None else min(samples.n - 1, samples.p)
    if retain:
        work, _, _ = men.pca_preprocess(samples, retain)
    sizes = work.class_sizes()
    patches = []
    for i in range(work.n):
        size = int(sizes[work.labels[i]])
        k1 = min(cfg.k1, size - 1)
        k2 = min(cfg.k2, work.n - size)
        patches.append(men.build_patch(work, i, k1, k2, cfg.kappa))
    align = men.accumulate_alignment(work, patches)
    targets = men.build_indicator(work, cfg.d, center=cfg.center_class_means).values
    factor = men.spectral_factor(men.build_a(align, cfg), cfg.eig_floor)
    return [
        men.build_augmented(work.data, targets[:, t], align, cfg, factor=factor)
        for t in range(cfg.d)
    ]


def column_failures(men, problem, wstar, column, K, label) -> list[str]:
    """Checks on one solved column: finite, at most K nonzeros, lasso KKT
    at W*, and the reported column equal to W*/sqrt(1+lambda2)."""
    if not (np.all(np.isfinite(wstar)) and np.all(np.isfinite(column))):
        return [f"{label}: nonfinite coefficients"]
    out = []
    active = np.flatnonzero(wstar)
    if active.size > K:
        out.append(f"{label}: {active.size} nonzeros exceed K={K}")
    if not np.array_equal(column, wstar / problem.scale):
        out.append(f"{label}: reported column is not W*/sqrt(1+lambda2)")
    corr = men.lars.correlations(problem, wstar)
    c0 = float(np.max(np.abs(men.lars.correlations(problem, np.zeros_like(wstar)))))
    if active.size == 0:
        return out
    c_hat = float(np.max(np.abs(corr[active])))
    tol = KKT_RTOL * c_hat + KKT_ATOL * c0
    tie = float(np.max(c_hat - np.abs(corr[active])))
    if tie > tol:
        out.append(f"{label}: active |correlations| differ by {tie:.3e} (tol {tol:.3e})")
    if c_hat > tol and np.any(np.sign(corr[active]) != np.sign(wstar[active])):
        out.append(f"{label}: an active coefficient's sign differs from its correlation")
    inactive = np.ones(wstar.size, dtype=bool)
    inactive[active] = False
    if inactive.any():
        excess = float(np.max(np.abs(corr[inactive]))) - c_hat
        if excess > tol:
            out.append(f"{label}: inactive correlation exceeds C_hat by {excess:.3e}")
    return out


def model_failures(men, samples, model, finals, K) -> list[str]:
    """Column checks of a fitted model against problems rebuilt from its
    inputs; `finals` holds each column's final W*."""
    problems = rebuilt_problems(men, samples, model.config)
    out = []
    for t, problem in enumerate(problems):
        out += column_failures(men, problem, finals[t], model.values[:, t], K, f"column {t}")
    return out


class FitWorkload:
    """`fit` on one seeded dataset, then `project` of the same samples."""

    threads = 1

    def __init__(self, make, cfg):
        self._make = make
        self._cfg = cfg

    def setup(self, men, seed, workdir):
        return self._make(men, seed), men.MenConfig(**self._cfg)

    def round(self, men, inputs) -> Outcome:
        samples, cfg = inputs
        start = time.perf_counter()
        model, report = men.pipeline.fit(samples, cfg, threads=self.threads)
        fitted = time.perf_counter()
        embedding = men.pipeline.project(model, samples)
        done = time.perf_counter()
        return Outcome(
            {"fit_s": fitted - start, "project_s": done - fitted},
            _digest(model.values.tobytes(), embedding.tobytes()),
            (model, report, embedding),
        )

    def check(self, men, inputs, outcome) -> list[str]:
        samples, cfg = inputs
        model, report, embedding = outcome.result
        out = []
        if embedding.shape != (samples.n, cfg.d) or not np.all(np.isfinite(embedding)):
            out.append(f"embedding has shape {embedding.shape} or nonfinite values")
        finals = [path.final_coefficients() for path in report.paths]
        return out + model_failures(men, samples, model, finals, cfg.K)

    def rate(self, men, inputs, outcome) -> float:
        return leave_one_out_rate(outcome.result[2], inputs[0].labels)


class EvaluateWorkload:
    """`evaluate` with five seeded repeats behind a two-thread pool.

    Dimensions up to 12 with K=50 keep one call near four seconds, so a
    run holds several; at d=20, K=100 one call took 8-10 s on a 2-core
    Xeon and its untimed tracemalloc pass 30-40 s.
    """

    threads = 2
    grid = [1, 2, 4, 8, 12]

    def setup(self, men, seed, workdir):
        samples = men.make_face_like(
            7, n_classes=60, within_scale=0.6, pixel_noise=0.05, seed=seed
        )
        split = men.SplitSpec(per_class_train=4, seed=seed, repeats=5)
        return samples, men.MenConfig(d=max(self.grid), K=50), split

    def round(self, men, inputs) -> Outcome:
        samples, cfg, split = inputs
        start = time.perf_counter()
        result = men.evaluation.evaluate(samples, cfg, split, self.grid, threads=self.threads)
        done = time.perf_counter()
        return Outcome(
            {"evaluate_s": done - start},
            _digest(
                result.rates.tobytes(),
                result.mean_rates.tobytes(),
                result.boxplot.tobytes(),
                repr((result.best_rate, result.best_dim)).encode(),
            ),
            result,
        )

    def check(self, men, inputs, outcome) -> list[str]:
        _, _, split = inputs
        r = outcome.result
        if r.rates.shape != (split.repeats, len(self.grid)):
            return [f"rates have shape {r.rates.shape}"]
        out = []
        if not (np.all(np.isfinite(r.rates)) and r.rates.min() >= 0 and r.rates.max() <= 1):
            out.append("rates outside [0, 1]")
        if not np.allclose(r.mean_rates, r.rates.mean(axis=0), rtol=0, atol=1e-15):
            out.append("mean rates are not the repeat means")
        best = int(np.argmax(r.mean_rates))
        if r.best_rate != r.mean_rates[best] or r.best_dim != self.grid[best]:
            out.append("best rate is not the largest mean rate")
        if np.any(np.diff(r.boxplot, axis=1) < 0):
            out.append("boxplot rows are not ordered min <= q1 <= median <= q3 <= max")
        return out

    def rate(self, men, inputs, outcome) -> float:
        return outcome.result.best_rate


class CliWorkload:
    """`men fit` then `men project` through `men.cli.main` on a CSV file.

    The data are fit-face's; d=5 instead of 20 makes CSV ingest, model
    I/O and report writing a larger share of a round and leaves room for
    more rounds in a run.
    """

    threads = 1

    def setup(self, men, seed, workdir):
        samples = men.make_face_like(4, n_classes=100, seed=seed)
        workdir.mkdir(parents=True, exist_ok=True)
        data = workdir / "data.csv"
        lines = [
            ",".join(map(repr, row)) + f",{label}"
            for row, label in zip(samples.data.tolist(), samples.labels.tolist())
        ]
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = workdir / "men.cfg"
        config.write_text("d=5\nK=100\n", encoding="utf-8")
        return samples, workdir

    def _argv(self, workdir: Path):
        fit = ["fit", "--data", str(workdir / "data.csv"), "--config", str(workdir / "men.cfg"),
               "--model", str(workdir / "model.men"), "--out", str(workdir / "report")]
        project = ["project", "--model", str(workdir / "model.men"),
                   "--data", str(workdir / "data.csv"), "--out", str(workdir / "embedding.csv")]
        return fit, project

    def round(self, men, inputs) -> Outcome:
        _, workdir = inputs
        fit_argv, project_argv = self._argv(workdir)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = men.cli.main(fit_argv)
            fitted = time.perf_counter()
            if code == 0:
                code = men.cli.main(project_argv)
            done = time.perf_counter()
        if code != 0:
            raise RoundFailed(f"exit code {code}: {err.getvalue().strip()}")
        return Outcome(
            {"cli_fit_s": fitted - start, "cli_project_s": done - fitted},
            _digest(
                (workdir / "model.men").read_bytes(), (workdir / "embedding.csv").read_bytes()
            ),
            None,
        )

    def _embedding(self, workdir: Path) -> np.ndarray:
        text = (workdir / "embedding.csv").read_text(encoding="utf-8")
        return np.array([[float(v) for v in line.split(",")] for line in text.split()])

    def check(self, men, inputs, outcome) -> list[str]:
        samples, workdir = inputs
        model = men.load_model(workdir / "model.men")
        out = []
        embedding = self._embedding(workdir)
        if not np.array_equal(embedding, men.project(model, samples)):
            out.append("CLI embedding differs from library project on the saved model")
        finals = []
        for t in range(model.values.shape[1]):
            path_csv = workdir / "report" / f"path_col{t:03d}.csv"
            last = path_csv.read_text(encoding="utf-8").rstrip("\n").rsplit("\n", 1)[-1]
            finals.append(np.array([float(v) for v in last.split(",")[5:]]))
        return out + model_failures(men, samples, model, finals, model.config.K)

    def rate(self, men, inputs, outcome) -> float:
        samples, workdir = inputs
        return leave_one_out_rate(self._embedding(workdir), samples.labels)


# Default seeds follow the probes the workloads were chosen from.
WORKLOADS = {
    "fit-face": (
        FitWorkload(
            lambda men, seed: men.make_face_like(4, n_classes=100, seed=seed),
            dict(d=20, K=100),
        ),
        0,
    ),
    "fit-large-n": (
        FitWorkload(
            lambda men, seed: men.make_informative_classes(
                120, 200, list(range(0, 40, 4)), n_classes=10, separation=1.0, seed=seed
            ),
            dict(d=9, K=50, pca_retain=0),
        ),
        3,
    ),
    "evaluate-face": (EvaluateWorkload(), 1),
    "cli-face": (CliWorkload(), 0),
}
