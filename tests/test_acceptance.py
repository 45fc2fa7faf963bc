"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines on the terminal (they also appear in captured output).
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from men.alignment import SampleSet, accumulate_alignment, build_patch
from men.cli import main
from men.config import MenConfig
from men.datasets import make_informative_classes
from men.evaluation import SplitSpec, evaluate
from men.indicator import build_indicator
from men.lars import gram_update, solve_column
from men.pipeline import fit
from men.transform import AugmentedProblem, build_augmented

from oracles import (
    cd_lasso,
    check_breakpoints,
    dense_alignment,
    dense_build_a,
    design,
    kkt_violation,
    lasso_objective,
)


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def lasso_instance(rng, n, p, lambda2):
    """Augmented problem for plain data (alpha=0, zero alignment)."""
    X = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    cfg = MenConfig(alpha=0.0, lambda2=lambda2)
    return build_augmented(X, y, np.zeros((n, n)), cfg)


def test_c01_lasso_oracle_equivalence():
    """100 random instances: every breakpoint satisfies the lasso KKT
    conditions at lambda = c_hat and matches coordinate descent."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    breakpoints = 0
    for trial in range(100):
        lambda2 = 0.0 if trial % 2 == 0 else 0.1
        problem = lasso_instance(rng, 20, 10, lambda2)
        X, y = design(problem)
        _, path = solve_column(problem, 10)
        scale = max(1.0, path.breakpoints[0].c_hat)
        for bp in path.breakpoints:
            lam = bp.c_hat
            viol = kkt_violation(X, y, bp.coefficients, lam)
            assert viol <= 1e-8 * scale, f"KKT violation {viol:.3e} (trial {trial})"
            ref = cd_lasso(X, y, lam)
            gap = abs(
                lasso_objective(X, y, bp.coefficients, lam) - lasso_objective(X, y, ref, lam)
            )
            assert gap <= 1e-6, f"objective gap {gap:.3e} (trial {trial})"
            cgap = np.abs(bp.coefficients - ref).max()
            assert cgap <= 1e-4, f"coefficient gap {cgap:.3e} (trial {trial})"
            breakpoints += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        elapsed < 30.0,
        f"{breakpoints} breakpoints on 100 instances matched the coordinate-descent "
        f"oracle (KKT tol 1e-8, obj gap 1e-6, coef gap 1e-4) in {elapsed:.1f}s",
    )


def test_c02_equicorrelation_and_dominance():
    """Active |correlations| tie within 1e-8 relative and no inactive
    correlation exceeds them, at every non-terminal breakpoint."""
    rng = np.random.default_rng(202)
    checked = 0
    for trial in range(60):
        n = int(rng.integers(12, 26))
        p = int(rng.integers(6, 13))
        lambda2 = float(rng.choice([0.0, 0.1, 1.0]))
        problem = lasso_instance(rng, n, p, lambda2)
        _, path = solve_column(problem, p)
        checked += check_breakpoints(problem, path, rel_tol=1e-8)
    # include a known drop-heavy instance
    rng0 = np.random.default_rng(0)
    X = rng0.normal(size=(12, 8))
    y = rng0.normal(size=12)
    problem = AugmentedProblem(xstar=X, ystar=y, scale=1.0, ridge=0.0)
    _, path = solve_column(problem, 13)
    assert any(bp.event == "drop" for bp in path.breakpoints)
    checked += check_breakpoints(problem, path, rel_tol=1e-8)
    report(2, checked >= 300, f"equicorrelation and dominance held at {checked} breakpoints")


def test_c03_objective_monotonicity():
    """The transformed objective strictly decreases every loop."""
    rng = np.random.default_rng(303)
    segments = 0
    worst = -np.inf
    for trial in range(40):
        n = int(rng.integers(12, 26))
        p = int(rng.integers(6, 13))
        problem = lasso_instance(rng, n, p, float(rng.choice([0.0, 0.5])))
        _, path = solve_column(problem, p)
        obj = [bp.objective for bp in path.breakpoints]
        for a, b in zip(obj, obj[1:]):
            worst = max(worst, b - a)
            segments += 1
    # pipeline fits embed the same check; run two configurations
    for seed in (1, 2):
        samples = make_informative_classes(12, 10, [0, 1, 2], n_classes=3, seed=seed)
        _, rep = fit(samples, MenConfig(d=2, K=6, pca_retain=0))
        for trace in rep.objective_traces:
            for a, b in zip(trace, trace[1:]):
                worst = max(worst, b - a)
                segments += 1
    report(
        3,
        worst <= 1e-12,
        f"objective decreased across {segments} loops (worst increase {worst:.2e})",
    )


def test_c04_transformation_identity():
    """Paired-difference identity between the eliminated quadratic form and
    the augmented residual on 100 random instances."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 16))
        p = int(rng.integers(2, 11))
        raw = rng.normal(size=(n, n))
        sym = 0.5 * (raw + raw.T)
        L = sym / np.abs(np.linalg.eigvalsh(sym)).max()
        cfg = MenConfig(
            alpha=float(rng.uniform(0.05, 0.5)),
            beta=float(rng.uniform(5.0, 10.0)),
            lambda2=float(rng.choice([0.0, 0.1, 1.0])),
        )
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        problem = build_augmented(X, y, L, cfg)
        assert problem.xstar.shape[0] == n  # clamp-free by construction
        xfull, yfull = design(problem)

        a = dense_build_a(L, cfg)

        def quad(w):
            xw = X @ w
            return float(xw @ a @ xw - 2.0 * xw @ y + cfg.lambda2 * (w @ w))

        def augmented(w):
            r = yfull - xfull @ (problem.scale * w)
            return float(r @ r)

        w1 = rng.normal(size=p)
        w2 = rng.normal(size=p)
        dq = quad(w1) - quad(w2)
        dr = augmented(w1) - augmented(w2)
        err = abs(dq - dr) / max(1.0, abs(dq), abs(dr))
        worst = max(worst, err)
    report(4, worst <= 1e-8, f"paired-difference identity held (worst {worst:.2e})")


def test_c05_schur_incremental_inverse():
    """Accuracy while growing to 50 columns; speed at active size 200."""
    rng = np.random.default_rng(505)
    X = rng.normal(size=(120, 50))
    inv = None
    worst = 0.0
    for m in range(50):
        b = X[:, :m].T @ X[:, m] if m else np.zeros(0)
        inv = gram_update(inv, b, float(X[:, m] @ X[:, m]))
        gram = X[:, : m + 1].T @ X[:, : m + 1]
        worst = max(worst, np.abs(gram @ inv - np.eye(m + 1)).max())
    assert worst <= 1e-8, f"Gram inverse drift {worst:.3e}"

    Xbig = rng.normal(size=(500, 201))
    gram_200 = Xbig[:, :200].T @ Xbig[:, :200]
    inv_200 = np.linalg.inv(gram_200)
    b = Xbig[:, :200].T @ Xbig[:, 200]
    d = float(Xbig[:, 200] @ Xbig[:, 200])
    gram_201 = Xbig[:, :201].T @ Xbig[:, :201]
    # each side's time is its fastest of 7 interleaved 30-call batches
    # (timeit's rule), so one preemption on a shared host cannot decide it
    t_update = t_direct = np.inf
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(30):
            gram_update(inv_200, b, d)
        t_update = min(t_update, time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(30):
            np.linalg.inv(gram_201)
        t_direct = min(t_direct, time.perf_counter() - start)
    speedup = t_direct / max(t_update, 1e-9)
    report(
        5,
        worst <= 1e-8 and speedup >= 5.0,
        f"inverse drift {worst:.2e} over 50 growth steps; update at size 200 is "
        f"{speedup:.1f}x faster than direct inversion",
    )


def test_c06_alignment_against_dense_oracle():
    """Accumulated alignment equals the dense selection-matrix sum."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(50):
        c = int(rng.integers(2, 5))
        n = int(rng.integers(max(6, 2 * c), 31))
        labels = np.sort(np.concatenate([np.arange(c), rng.integers(0, c, n - c)]))
        samples = SampleSet(rng.normal(size=(n, 4)), labels)
        sizes = samples.class_sizes()
        kappa = float(rng.uniform(0.0, 2.0))
        patches = []
        for i in range(n):
            size = int(sizes[samples.labels[i]])
            k1 = int(rng.integers(0, size))
            k2 = int(rng.integers(0, n - size + 1))
            if k1 + k2 == 0:
                k2 = max(1, k2)
            patches.append(build_patch(samples, i, k1, k2, kappa))
        got = accumulate_alignment(samples, patches)
        ref = dense_alignment(n, patches)
        worst = max(worst, np.abs(got - ref).max())
    report(6, worst <= 1e-12, f"50 random patch configurations matched (worst {worst:.2e})")


INFORMATIVE_DIMS = [4, 13, 22, 31, 45]
SPARSE_CFG = MenConfig(
    alpha=0.01, kappa=0.5, lambda2=1.0, d=2, K=10, pca_retain=0
)


def test_c07_sparsity_and_feature_selection():
    """n=90, p=50, 3 classes, signal on 5 known dims, sigma=0.3: >=80% of
    each column's l1 mass lands on those dims and the 1-NN rate at d=2
    over 5 repeats with 30 train/class is >=0.95."""
    start = time.perf_counter()
    samples = make_informative_classes(
        30, 50, INFORMATIVE_DIMS, n_classes=3, noise=0.3, separation=1.0, seed=0
    )
    assert samples.n == 90 and samples.p == 50
    # generator sanity: per-dim between/within separation statistic is
    # large exactly on the informative dims
    stats = np.empty(samples.p)
    for j in range(samples.p):
        centers = [samples.data[samples.labels == k, j].mean() for k in range(3)]
        within = samples.data[:, j].std()
        stats[j] = np.ptp(centers) / within
    assert set(np.argsort(stats)[-5:]) == set(INFORMATIVE_DIMS)

    model, _ = fit(samples, SPARSE_CFG)
    masses = []
    for t in range(2):
        col = np.abs(model.values[:, t])
        assert np.count_nonzero(col) <= 10
        masses.append(float(col[INFORMATIVE_DIMS].sum() / col.sum()))

    # the evaluate clause needs held-out samples: same generator, 60/class
    eval_samples = make_informative_classes(
        60, 50, INFORMATIVE_DIMS, n_classes=3, noise=0.3, separation=1.0, seed=11
    )
    result = evaluate(
        eval_samples, SPARSE_CFG, SplitSpec(per_class_train=30, seed=0, repeats=5), [1, 2]
    )
    rate = float(result.mean_rates[result.dim_grid.index(2)])
    elapsed = time.perf_counter() - start
    report(
        7,
        min(masses) >= 0.80 and rate >= 0.95 and elapsed < 60.0,
        f"informative-dim l1 masses {masses[0]:.3f}/{masses[1]:.3f}, mean 1-NN rate "
        f"{rate:.3f} at d=2, in {elapsed:.1f}s",
    )


def test_c08_least_squares_endpoint():
    """alpha=0, lambda2=0, K=p on full-rank problems reproduces least squares."""
    worst = 0.0
    checked = 0
    # solver level (frozen drop-free seeds)
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(24, 10))
        y = rng.normal(size=24)
        w, path = solve_column(AugmentedProblem(xstar=X, ystar=y, scale=1.0, ridge=0.0), 10)
        assert all(bp.event != "drop" for bp in path.breakpoints)
        worst = max(worst, np.abs(w - np.linalg.lstsq(X, y, rcond=None)[0]).max())
        checked += 1
    # pipeline level (frozen drop-free seeds)
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        labels = np.repeat(np.arange(3), 8)
        data = rng.normal(size=(24, 6))
        data[:, 0] += labels
        samples = SampleSet(data, labels)
        cfg = MenConfig(alpha=0.0, lambda2=0.0, d=2, K=6, pca_retain=0)
        model, _ = fit(samples, cfg)
        targets = build_indicator(samples, 2).values
        for t in range(2):
            ls = np.linalg.lstsq(samples.data, targets[:, t], rcond=None)[0]
            worst = max(worst, np.abs(model.values[:, t] - ls).max())
            checked += 1
    report(8, worst <= 1e-8, f"{checked} columns matched least squares (worst {worst:.2e})")


def test_c09_fit_determinism(tmp_path):
    """Two identical cmd_fit runs produce byte-identical model files."""
    samples = make_informative_classes(12, 9, [0, 1, 2], n_classes=3, seed=9)
    data = tmp_path / "data.csv"
    lines = [
        ",".join(repr(float(v)) for v in row) + f",{label}"
        for row, label in zip(samples.data, samples.labels)
    ]
    data.write_text("\n".join(lines) + "\n")
    config = tmp_path / "men.cfg"
    config.write_text("alpha=0.01\nkappa=0.5\nlambda2=1.0\nd=2\nK=4\npca_retain=0\n")
    for name in ("one", "two"):
        rc = main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp_path / f"{name}.men"),
            "--out", str(tmp_path / f"{name}.report"),
        ])
        assert rc == 0
    identical = (tmp_path / "one.men").read_bytes() == (tmp_path / "two.men").read_bytes()
    report(9, identical, "repeated cmd_fit runs are byte-identical")


def test_c10_complexity_sanity():
    """n=200, p=400, d=10, K=50 fits quickly; doubling K stays within ~10x."""
    samples = make_informative_classes(
        20, 400, list(range(0, 48, 4)), n_classes=10, separation=1.0, seed=10
    )
    assert samples.n == 200 and samples.p == 400
    cfg = MenConfig(d=10, K=50, pca_retain=0)
    fit(samples, MenConfig(d=2, K=5, pca_retain=0))  # warm-up
    start = time.perf_counter()
    model, _ = fit(samples, cfg)
    t_base = time.perf_counter() - start
    assert all(nz <= 50 for nz in model.sparsity)
    start = time.perf_counter()
    fit(samples, replace(cfg, K=100))
    t_double = time.perf_counter() - start
    ratio = t_double / max(t_base, 0.05)
    report(
        10,
        t_base < 10.0 and ratio <= 10.0,
        f"fit(n=200, p=400, d=10, K=50) took {t_base:.2f}s; K=100 took "
        f"{t_double:.2f}s ({ratio:.1f}x)",
    )
