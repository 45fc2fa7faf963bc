"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (the SVD
of the wide data matrix, dense selection matrices, a dense resolvent
solve, a dense quadratic-form matrix with its own eigendecomposition,
exhaustive scans, coordinate descent, finite differences, a CSV line
parser over nested lists of floats) and shares no code with the package
under test apart from its error types.
"""

from __future__ import annotations

import numpy as np

from men.errors import DataError, NumericalError


def dense_pca(data, retain):
    """Mean-centered PCA from the SVD of the n x p centered data itself.

    Returns (reduced n x retain, basis p x retain, mean). The basis is the
    first `retain` right singular vectors, each with its largest-magnitude
    entry (the first, among ties) made positive.
    """
    data = np.asarray(data, dtype=np.float64)
    mean = data.mean(axis=0)
    centered = data - mean
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    basis = vt[:retain].T.copy()
    for t in range(retain):
        j = int(np.argmax(np.abs(basis[:, t])))
        if basis[j, t] < 0:
            basis[:, t] = -basis[:, t]
    return centered @ basis, basis, mean


def cd_lasso(X, y, lam, *, kkt_tol=1e-11, max_sweeps=100000):
    """Cyclic coordinate-descent lasso: min 0.5||y - Xw||^2 + lam*||w||_1.

    Works on the Gram form with plain-Python floats for speed, stopping
    when the KKT residual falls below kkt_tol (scaled by the largest
    initial correlation).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = X.shape[1]
    gram = (X.T @ X).tolist()
    xty = (X.T @ y).tolist()
    col_sq = [gram[j][j] for j in range(p)]
    w = [0.0] * p
    scale = max(abs(v) for v in xty) if p else 0.0
    stop = kkt_tol * max(scale, 1.0)
    for _ in range(max_sweeps):
        for j in range(p):
            if col_sq[j] <= 0.0:
                continue
            gj = gram[j]
            rho = xty[j] - sum(gj[k] * w[k] for k in range(p)) + col_sq[j] * w[j]
            if rho > lam:
                w[j] = (rho - lam) / col_sq[j]
            elif rho < -lam:
                w[j] = (rho + lam) / col_sq[j]
            else:
                w[j] = 0.0
        # KKT residual: |grad_j| <= lam off-support, grad_j = -lam*sign(w_j) on it
        worst = 0.0
        for j in range(p):
            gj = gram[j]
            grad = xty[j] - sum(gj[k] * w[k] for k in range(p))
            if w[j] > 0.0:
                worst = max(worst, abs(grad - lam))
            elif w[j] < 0.0:
                worst = max(worst, abs(grad + lam))
            else:
                worst = max(worst, max(abs(grad) - lam, 0.0))
        if worst <= stop:
            break
    return np.asarray(w)


def lasso_objective(X, y, w, lam):
    r = y - X @ w
    return 0.5 * float(r @ r) + lam * float(np.abs(w).sum())


def dense_alignment(n, edges):
    """Sum of S_i^T L_i S_i built with explicit dense selection matrices,
    one patch per center of each Edges: that center's neighbours, with
    their weights w (1 same-class, -kappa other-class)."""
    total = np.zeros((n, n))
    for block in edges:
        for center in np.unique(block.centers):
            mine = block.centers == center
            idx = [center, *block.neighbours[mine]]
            w = block.weights[mine]
            size = len(idx)
            li = np.zeros((size, size))
            li[0, 0] = w.sum()
            li[0, 1:] = -w
            li[1:, 0] = -w
            li[1:, 1:] = np.diag(w)
            s = np.zeros((size, n))
            for row, col in enumerate(idx):
                s[row, col] = 1.0
            total += s.T @ li @ s
    return total


def eliminate_z(L, cfg):
    """Resolvent M = beta * (alpha L + beta I)^{-1} by a dense solve.

    The optimal embedding for a fixed projection is M X W, from setting
    the objective's gradient in the embedding to zero. Raises
    NumericalError when the system's SVD condition estimate reaches 1e14.
    """
    L = np.asarray(L, dtype=np.float64)
    n = L.shape[0]
    if cfg.alpha == 0.0:
        return np.eye(n)
    system = cfg.alpha * L + cfg.beta * np.eye(n)
    cond = np.linalg.cond(system)
    if not np.isfinite(cond) or cond >= 1e14:
        raise NumericalError(
            f"alpha*L + beta*I is ill-conditioned (condition estimate {cond:.3e})"
        )
    return np.linalg.solve(system, cfg.beta * np.eye(n))


def dense_build_a(L, cfg):
    """A = alpha M^T L M + beta (M - I)^T (M - I) + I with M = eliminate_z(L)."""
    L = np.asarray(L, dtype=np.float64)
    n = L.shape[0]
    m = eliminate_z(L, cfg)
    shift = m - np.eye(n)
    return cfg.alpha * (m.T @ L @ m) + cfg.beta * (shift.T @ shift) + np.eye(n)


def dense_spectral_factor(A, eig_floor):
    """Square root of a dense A by a second eigendecomposition.

    Symmetrizes A, takes its eigenpairs in descending order and keeps the
    eigenvalues at or above eig_floor times the largest. Returns
    (root, response_transform, n_dropped) with root = sqrt(D) V^T and
    response_transform = V^T / sqrt(D) over the kept pairs (D, V).
    """
    A = np.asarray(A, dtype=np.float64)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (A + A.T))
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    if eigvals[0] <= 0.0:
        raise NumericalError("no positive eigenvalues")
    keep = eigvals >= eig_floor * eigvals[0]
    sqrt_vals = np.sqrt(eigvals[keep])[:, None]
    vecs_t = eigvecs[:, keep].T
    return sqrt_vals * vecs_t, vecs_t / sqrt_vals, int(np.sum(~keep))


def exhaustive_nn(train, train_labels, test):
    """1-NN by scanning every pair, ties to the smallest training index."""
    out = []
    for t in range(test.shape[0]):
        best_d = np.inf
        best_i = -1
        for i in range(train.shape[0]):
            d = float(np.sum((test[t] - train[i]) ** 2))
            if d < best_d:
                best_d = d
                best_i = i
        out.append(train_labels[best_i])
    return np.asarray(out)


def fixed_block_nn(train, train_labels, test, rows=256):
    """1-NN over explicit differences, 256 test rows at a time, argmin ties
    to the smallest training index: the blocked loop before its blocks were
    sized by bytes."""
    labels = np.asarray(train_labels)
    out = np.empty(test.shape[0], dtype=labels.dtype)
    for start in range(0, test.shape[0], rows):
        chunk = test[start : start + rows]
        diff = chunk[:, None, :] - train[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        out[start : start + chunk.shape[0]] = labels[np.argmin(d2, axis=1)]
    return out


def fd_gradient(f, x, step=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for j in range(x.size):
        plus = x.copy()
        minus = x.copy()
        plus[j] += step
        minus[j] -= step
        grad[j] = (f(plus) - f(minus)) / (2.0 * step)
    return grad


def kkt_violation(X, y, w, lam):
    """Largest lasso KKT violation of (w, lam) for 0.5||y-Xw||^2 + lam||w||_1."""
    grad = X.T @ (y - X @ w)
    worst = 0.0
    for j in range(w.size):
        if w[j] > 0.0:
            worst = max(worst, abs(grad[j] - lam))
        elif w[j] < 0.0:
            worst = max(worst, abs(grad[j] + lam))
        else:
            worst = max(worst, max(abs(grad[j]) - lam, 0.0))
    return worst


def design(problem):
    """The elastic net's augmented data of a built problem, written out
    densely (Zou & Hastie 2005, Lemma 1): the design with sqrt(ridge) I
    stacked under it, and the response with p zero rows under it."""
    p = problem.xstar.shape[1]
    X = np.vstack([problem.xstar, np.sqrt(problem.ridge) * np.eye(p)])
    y = np.concatenate([problem.ystar, np.zeros((p,) + problem.ystar.shape[1:])])
    return X, y


def check_breakpoints(problem, path, *, rel_tol=1e-8, terminal_rel=1e-12):
    """Assert equicorrelation and dominance at every non-terminal breakpoint,
    on the problem's design() written out.

    Terminal breakpoints (c_hat below terminal_rel of the initial c_hat,
    i.e. the least-squares stopping region) are skipped: there the
    correlations are pure rounding noise. Returns the number checked.
    """
    X, y = design(problem)
    c0 = path.breakpoints[0].c_hat
    checked = 0
    for bp in path.breakpoints:
        corr = X.T @ (y - X @ bp.coefficients)
        if bp.c_hat <= terminal_rel * c0:
            continue
        if bp.active.size:
            active = np.abs(corr[bp.active])
            spread = active.max() - active.min()
            assert spread <= rel_tol * bp.c_hat, (
                f"equicorrelation spread {spread:.3e} at loop {bp.loop} "
                f"(c_hat {bp.c_hat:.3e})"
            )
        inactive = np.ones(corr.size, dtype=bool)
        inactive[bp.active] = False
        if inactive.any() and bp.active.size:
            excess = np.abs(corr[inactive]).max() - bp.c_hat
            assert excess <= rel_tol * bp.c_hat, (
                f"inactive correlation exceeds c_hat by {excess:.3e} at loop {bp.loop}"
            )
        checked += 1
    return checked


def replay_path(path):
    """Walk the recorded segments linearly and return the final coefficients."""
    coeffs = path.breakpoints[0].coefficients.copy()
    for prev, cur in zip(path.breakpoints, path.breakpoints[1:]):
        coeffs = coeffs + (cur.coefficients - prev.coefficients)
    return coeffs


def dense_path_csv_lines(path):
    """Path CSV rows formatted from each breakpoint's dense coefficient
    vector, one repr per coefficient."""
    p = path.n_variables
    header = "loop,event,variable,l1_norm,C_hat," + ",".join(f"w{j}" for j in range(p))
    lines = [header]
    for bp in path.breakpoints:
        coeffs = ",".join(map(repr, bp.coefficients.tolist()))
        lines.append(
            f"{bp.loop},{bp.event},{bp.variable},{repr(bp.l1_norm)},"
            f"{repr(bp.c_hat)},{coeffs}"
        )
    return lines


def line_parser_csv(path):
    """A CSV matrix read line by line into nested lists of Python floats.

    Returns the n x p float64 data and the list of int labels, before any
    label compaction or range check on the data. Malformed lines raise
    DataError naming `path:line`, with the package reader's messages.
    """
    rows, labels = [], []
    width = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
                if width < 2:
                    raise DataError(f"{path}:{lineno}: need features plus a label column")
            elif len(parts) != width:
                raise DataError(
                    f"{path}:{lineno}: ragged row ({len(parts)} fields, expected {width})"
                )
            try:
                rows.append([float(v) for v in parts[:-1]])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad feature value ({exc})") from exc
            try:
                label = int(parts[-1])
            except ValueError:
                label = None
            if label is None or not -(2**63) <= label < 2**63:
                raise DataError(f"{path}:{lineno}: bad label {parts[-1].strip()!r}")
            labels.append(label)
    if not rows:
        raise DataError(f"{path}: no samples")
    return np.asarray(rows, dtype=np.float64), labels
