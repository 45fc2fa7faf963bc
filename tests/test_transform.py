"""Embedding elimination, the quadratic-form matrix, and the augmentation.

The dense resolvent (eliminate_z), the dense A and its two-eigh square
root are oracles in tests/oracles.py; build_a and spectral_factor, which
keep A in spectral form, are checked against them. The factor is never
formed, so it is checked through what the solver reads of the augmented
problem built from it: xstar^T xstar and xstar^T ystar.
"""

import re
import tracemalloc

import numpy as np
import pytest
from numpy.linalg import _umath_linalg
from numpy.testing import assert_allclose

from men.alignment import accumulate_alignment, build_patch
from men.config import MenConfig
from men.datasets import make_informative_classes
from men.errors import DataError, NumericalError
from men.transform import build_a, build_augmented, spectral_factor

from oracles import dense_build_a, dense_spectral_factor, design, eliminate_z


def random_symmetric(rng, n, scale=1.0):
    m = rng.normal(size=(n, n))
    sym = 0.5 * (m + m.T)
    return scale * sym / np.abs(np.linalg.eigvalsh(sym)).max()


def dense_a(L, cfg):
    """A rebuilt from the eigenpairs build_a returns."""
    f, u = build_a(L, cfg)
    return (u * f) @ u.T


def alignment_matrix():
    samples = make_informative_classes(
        12, 6, [0, 2, 4], n_classes=4, separation=1.0, seed=12
    )
    patches = [build_patch(samples, i, 3, 3, 1.0) for i in range(samples.n)]
    return accumulate_alignment(samples, patches)


def max_rel(actual, expected):
    return np.abs(actual - expected).max() / np.abs(expected).max()


def quadratic_objective(X, y, L, cfg, w):
    """Eliminated-form objective W^T X^T A X W - 2 W^T X^T y + lambda2 ||W||^2."""
    a = dense_a(L, cfg)
    xw = X @ w
    return float(xw @ a @ xw - 2.0 * xw @ y + cfg.lambda2 * (w @ w))


def solver_view(X, y, cfg, factor):
    """xstar^T xstar and xstar^T ystar of the problem built from `factor`."""
    problem = build_augmented(X, y, None, cfg, factor=factor)
    return problem.gram, problem.xty


def oracle_view(X, y, cfg, A):
    """The same two products from the dense two-eigh square root of A,
    with the dropped-eigenvalue count."""
    root, response, n_dropped = dense_spectral_factor(A, cfg.eig_floor)
    p = X.shape[1]
    xstar = np.vstack([root @ X, np.sqrt(cfg.lambda2) * np.eye(p)]) / np.sqrt(1.0 + cfg.lambda2)
    ystar = np.concatenate([response @ y, np.zeros((p,) + y.shape[1:])])
    return xstar.T @ xstar, xstar.T @ ystar, n_dropped


def assert_solver_view(X, y, cfg, factor, A, tol):
    gram, xty, n_dropped = oracle_view(X, y, cfg, A)
    assert factor.n_dropped == n_dropped
    actual = solver_view(X, y, cfg, factor)
    assert max_rel(actual[0], gram) <= tol
    assert max_rel(actual[1], xty) <= tol


def augmented_objective(problem, w):
    xfull, yfull = design(problem)
    r = yfull - xfull @ (problem.scale * w)
    return float(r @ r)


class TestEliminateZ:
    def test_alpha_zero_identity(self):
        cfg = MenConfig(alpha=0.0)
        assert np.array_equal(eliminate_z(np.ones((3, 3)), cfg), np.eye(3))

    def test_scalar_resolvent(self):
        cfg = MenConfig(alpha=1.0, beta=1.0)
        assert_allclose(eliminate_z(np.eye(4), cfg), 0.5 * np.eye(4), atol=1e-14)

    def test_resolvent_and_stationarity(self):
        rng = np.random.default_rng(0)
        L = random_symmetric(rng, 8, scale=3.0)
        cfg = MenConfig(alpha=0.7, beta=2.0)
        m = eliminate_z(L, cfg)
        assert_allclose(
            (cfg.alpha * L + cfg.beta * np.eye(8)) @ m,
            cfg.beta * np.eye(8),
            atol=1e-10,
        )
        # gradient of the embedding objective vanishes at Z = M X W
        X = rng.normal(size=(8, 5))
        w = rng.normal(size=5)
        z = m @ X @ w
        residual = cfg.alpha * (L + L.T) @ z + 2.0 * cfg.beta * (z - X @ w)
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(X @ w)

    def test_ill_conditioned_error(self):
        # alpha*L + beta*I singular when L has eigenvalue -beta/alpha
        L = np.diag([-1.0, 1.0])
        cfg = MenConfig(alpha=1.0, beta=1.0)
        with pytest.raises(NumericalError, match="condition estimate"):
            eliminate_z(L, cfg)


class TestBuildA:
    def test_alpha_zero(self):
        # 0 * beta * lambda / beta is +-0, so f is exactly 1; U is eigh(L)'s
        # eigenvectors
        cfg = MenConfig(alpha=0.0)
        L = np.ones((4, 4))
        f, u = build_a(L, cfg)
        assert f.tobytes() == np.ones(4).tobytes()
        assert u.tobytes() == np.linalg.eigh(L)[1].tobytes()
        assert np.array_equal(L, np.ones((4, 4)))

    @pytest.mark.parametrize("beta", [1e-3, 1.0, 7.0, 1e6])
    def test_alpha_zero_f_is_exactly_one(self, beta):
        # indefinite L, one with an eigenvalue at -beta (singular for any
        # alpha > 0), and a zero L, whose U is I exactly
        rng = np.random.default_rng(17)
        for L in (random_symmetric(rng, 9, scale=50.0), np.diag([-beta, 1.0]), np.zeros((5, 5))):
            f, u = build_a(L, MenConfig(alpha=0.0, beta=beta))
            assert f.tobytes() == np.ones(L.shape[0]).tobytes()
            assert u.tobytes() == np.linalg.eigh(L)[1].tobytes()
        assert np.array_equal(u, np.eye(5))

    def test_zero_alignment(self):
        cfg = MenConfig(alpha=1.3, beta=2.0)
        assert_allclose(dense_a(np.zeros((4, 4)), cfg), np.eye(4), atol=1e-14)

    def test_reproduces_eliminated_objective(self):
        # substituting the optimal embedding into the three-term objective
        # gives the quadratic form in W plus the constant ||y||^2
        rng = np.random.default_rng(1)
        n, p = 7, 4
        L = random_symmetric(rng, n, scale=1.0)
        cfg = MenConfig(alpha=0.4, beta=5.0, lambda2=0.0)
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        m = eliminate_z(L, cfg)
        a = dense_a(L, cfg)
        for _ in range(5):
            w = rng.normal(size=p)
            xw = X @ w
            z = m @ xw
            full = (
                float((y - xw) @ (y - xw))
                + cfg.alpha * float(z @ L @ z)
                + cfg.beta * float((z - xw) @ (z - xw))
            )
            quad = float(xw @ a @ xw - 2.0 * xw @ y) + float(y @ y)
            assert abs(full - quad) <= 1e-8 * max(1.0, abs(full))

    def test_matches_dense_oracle_random(self):
        # random symmetric L is indefinite, as alignment matrices are
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            L = random_symmetric(rng, n, scale=float(rng.uniform(0.5, 50.0)))
            assert np.linalg.eigvalsh(L).min() < 0.0
            cfg = MenConfig(
                alpha=float(rng.uniform(0.01, 2.0)), beta=float(rng.uniform(60.0, 200.0))
            )
            assert max_rel(dense_a(L, cfg), dense_build_a(L, cfg)) <= 1e-12

    def test_matches_dense_oracle_alignment(self):
        L = alignment_matrix()
        assert np.array_equal(L, L.T)
        # indefinite at the default settings, not only at large alpha*kappa
        assert build_a(L, MenConfig())[0].min() < 0.0
        for cfg in (MenConfig(), MenConfig(alpha=0.3, beta=7.0)):
            assert max_rel(dense_a(L, cfg), dense_build_a(L, cfg)) <= 1e-12

    def test_one_eigendecomposition(self, monkeypatch):
        # the whole transform stage, build_a, spectral_factor and
        # build_augmented, takes one eigh of L and never forms the dense A
        rng = np.random.default_rng(13)
        L = random_symmetric(rng, 6)
        X = rng.normal(size=(6, 3))
        y = rng.normal(size=6)
        cfg = MenConfig()
        gram, xty, n_dropped = oracle_view(X, y, cfg, dense_build_a(L, cfg))
        calls = []
        eigh_lo = _umath_linalg.eigh_lo

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh_lo(a, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("dense route used")

        # build_a runs numpy's eigh gufunc itself, the one np.linalg.eigh calls
        monkeypatch.setattr(_umath_linalg, "eigh_lo", counting_eigh)
        monkeypatch.setattr(np.linalg, "solve", forbidden)
        monkeypatch.setattr(np.linalg, "cond", forbidden)
        monkeypatch.setattr(np.linalg, "svd", forbidden)
        problem = build_augmented(X, y, L, cfg)
        assert calls == [(6, 6)]
        assert problem.xstar.shape[0] == 6 - n_dropped
        assert max_rel(problem.gram, gram) <= 1e-12
        assert max_rel(problem.xty, xty) <= 1e-12

    def test_condition_limit(self):
        cfg = MenConfig(alpha=1.0, beta=1.0)
        # condition number of alpha*L + beta*I is 2 / 2**-50, about 2.3e15
        with pytest.raises(NumericalError, match="condition number") as info:
            build_a(np.diag([-1.0 + 2.0**-50, 1.0]), cfg)
        assert info.value.stage == "transform"
        # a zero eigenvalue of alpha*L + beta*I counts as infinite
        with pytest.raises(NumericalError, match="condition number"):
            build_a(np.diag([-1.0, 1.0]), cfg)
        # about 2e12: below the limit
        assert np.all(np.isfinite(build_a(np.diag([-1.0 + 1e-12, 1.0]), cfg)[0]))

    @pytest.mark.parametrize(
        "L",
        [
            np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]]),
            np.zeros((2, 3)),
            np.zeros(4),
            np.zeros((0, 0)),
            np.array([[0.0, np.nan], [np.nan, 0.0]]),
        ],
        ids=["asymmetric", "nonsquare", "vector", "empty", "nonfinite"],
    )
    def test_rejects_bad_alignment(self, L):
        with pytest.raises(DataError) as info:
            build_a(L, MenConfig())
        assert info.value.stage == "transform"


class TestInPlaceEigh:
    """build_a(L, cfg, overwrite_l=True) writes U over a writeable,
    contiguous L through numpy's eigh gufunc; otherwise the same gufunc
    writes U into a fresh array and L is not written."""

    @staticmethod
    def symmetric():
        return random_symmetric(np.random.default_rng(31), 40)

    @pytest.mark.parametrize("source", ["random", "alignment"])
    def test_bit_identical_to_a_copy(self, source):
        L = self.symmetric() if source == "random" else alignment_matrix()
        expected = build_a(L.copy(), MenConfig())
        f, u = build_a(L, MenConfig(), overwrite_l=True)
        assert u is L
        assert f.tobytes() == expected[0].tobytes()
        assert u.tobytes() == expected[1].tobytes()

    def test_alpha_zero_writes_eigenvectors_over_l(self):
        # alpha = 0 takes the one route: L's eigenvectors in L's own storage
        L = self.symmetric()
        expected = np.linalg.eigh(L)[1]
        f, u = build_a(L, MenConfig(alpha=0.0), overwrite_l=True)
        assert u is L
        assert f.tobytes() == np.ones(40).tobytes()
        assert u.tobytes() == expected.tobytes()

    def test_default_leaves_l_intact(self):
        L = self.symmetric()
        before = L.tobytes()
        f, u = build_a(L, MenConfig())
        assert L.tobytes() == before
        assert not np.shares_memory(u, L)

    def test_default_is_np_linalg_eigh(self):
        # the fresh-array route runs the gufunc np.linalg.eigh runs
        L, cfg = self.symmetric(), MenConfig()
        eigvals, eigvecs = np.linalg.eigh(L)
        f, u = build_a(L, cfg)
        assert u.tobytes() == eigvecs.tobytes()
        shifted = cfg.alpha * eigvals + cfg.beta
        assert f.tobytes() == (1.0 + cfg.alpha * cfg.beta * eigvals / shifted).tobytes()

    def test_read_only_l_is_not_written(self):
        L = self.symmetric()
        before = L.tobytes()
        L.flags.writeable = False
        build_a(L, MenConfig(), overwrite_l=True)
        assert L.tobytes() == before

    @pytest.mark.parametrize("overwrite_l", [True, False], ids=["in-place", "np.linalg.eigh"])
    def test_nonconvergence_is_numerical(self, monkeypatch, overwrite_l):
        # the gufunc reports non-convergence by raising the invalid flag under
        # its caller's errstate
        def nonconverging(a, *args, **kwargs):
            np.sqrt(np.array(-1.0))
            raise AssertionError("the invalid flag did not stop the solve")

        monkeypatch.setattr(_umath_linalg, "eigh_lo", nonconverging)
        with pytest.raises(NumericalError, match="did not converge") as info:
            build_a(self.symmetric(), MenConfig(), overwrite_l=overwrite_l)
        assert info.value.stage == "transform"

    def test_peak_memory_above_l(self):
        # no second n x n array: what remains is one band's temporaries from
        # the symmetry check (0.06 n^2 doubles at n = 600) and length-n
        # vectors; the whole-matrix checks made an n x n boolean (0.147)
        n = 600
        L = random_symmetric(np.random.default_rng(32), n)
        tracemalloc.start()
        try:
            build_a(L, MenConfig(), overwrite_l=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * n**2 * 8


class TestBandedChecks:
    """build_a and spectral_factor check a band of rows at a time. At n = 150
    the bands are rows 0-63, 64-127 and 128-149; each defect below sits
    where only one band sees it, so skipping that band lets it through."""

    N = 150
    ALIGNMENT = re.escape(f"alignment matrix (shape {(N, N)}) must be nonempty, finite, "
                          "square and exactly symmetric")
    EIGENPAIRS = re.escape("spectral_factor takes eigenpairs (f, U)")

    def symmetric(self):
        return random_symmetric(np.random.default_rng(34), self.N)

    @pytest.mark.parametrize(
        "i, j", [(140, 145), (145, 140), (10, 100), (70, 75)],
        ids=["last-partial-band", "last-band-lower", "off-diagonal-block", "diagonal-block"],
    )
    def test_build_a_rejects_one_asymmetric_pair(self, i, j):
        L = self.symmetric()
        L[i, j] = np.nextafter(L[i, j], np.inf)
        with pytest.raises(DataError, match=self.ALIGNMENT) as info:
            build_a(L, MenConfig())
        assert info.value.stage == "transform"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_build_a_rejects_nonfinite_in_the_last_band(self, value):
        L = self.symmetric()
        L[-1, -1] = value  # on the diagonal, so the symmetry check alone passes an inf
        with pytest.raises(DataError, match=self.ALIGNMENT) as info:
            build_a(L, MenConfig())
        assert info.value.stage == "transform"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_spectral_factor_rejects_one_nonfinite_vector_entry(self, value):
        f, u = build_a(self.symmetric(), MenConfig())
        u[-1, 3] = value
        with pytest.raises(DataError, match=self.EIGENPAIRS) as info:
            spectral_factor((f, u), 1e-10)
        assert info.value.stage == "transform"


class TestSpectralFactor:
    def test_identity(self):
        rng = np.random.default_rng(9)
        X, y = rng.normal(size=(3, 2)), rng.normal(size=3)
        fac = spectral_factor(np.linalg.eigh(np.eye(3)), 1e-10)
        assert fac.n_dropped == 0
        gram, xty = solver_view(X, y, MenConfig(lambda2=0.0), fac)
        assert_allclose(gram, X.T @ X, atol=1e-12)
        assert_allclose(xty, X.T @ y, atol=1e-12)
        assert_solver_view(X, y, MenConfig(), fac, np.eye(3), 1e-12)

    def test_diagonal(self):
        rng = np.random.default_rng(10)
        X, y = rng.normal(size=(2, 2)), rng.normal(size=2)
        a = np.diag([4.0, 1.0])
        fac = spectral_factor(np.linalg.eigh(a), 1e-10)
        assert_allclose(fac.root, [2.0, 1.0], atol=1e-12)
        assert_allclose(fac.root**2, [4.0, 1.0])
        gram, xty = solver_view(X, y, MenConfig(lambda2=0.0), fac)
        assert_allclose(gram, X.T @ a @ X, atol=1e-12)
        assert_allclose(xty, X.T @ y, atol=1e-12)
        assert_solver_view(X, y, MenConfig(), fac, a, 1e-12)

    def test_negative_eigenvalues_dropped(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(6, 6))  # asymmetric, symmetrized part indefinite
        sym = 0.5 * (m + m.T)
        eigvals = np.linalg.eigvalsh(sym)
        assert eigvals.min() < 0 < eigvals.max()
        fac = spectral_factor(np.linalg.eigh(sym), 1e-10)
        assert fac.n_dropped == np.sum(eigvals < 1e-10 * eigvals.max())
        # the design sees A clamped to its retained eigenpairs, and the
        # response its projection onto their span
        X, y = rng.normal(size=(6, 4)), rng.normal(size=6)
        vecs = fac.basis[:, fac.retained]
        gram, xty = solver_view(X, y, MenConfig(lambda2=0.0), fac)
        assert_allclose(gram, X.T @ (vecs * fac.root**2) @ vecs.T @ X, atol=1e-10)
        assert_allclose(xty, X.T @ vecs @ vecs.T @ y, atol=1e-10)
        assert_solver_view(X, y, MenConfig(), fac, sym, 1e-10)

    def test_psd_keeps_everything(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(5, 5))
        a = m @ m.T + 0.5 * np.eye(5)
        a = 0.5 * (a + a.T)
        fac = spectral_factor(np.linalg.eigh(a), 1e-10)
        assert fac.n_dropped == 0
        X, y = rng.normal(size=(5, 3)), rng.normal(size=5)
        gram, xty = solver_view(X, y, MenConfig(lambda2=0.0), fac)
        assert_allclose(gram, X.T @ a @ X, atol=1e-10)
        assert_allclose(xty, X.T @ y, atol=1e-10)
        assert_solver_view(X, y, MenConfig(), fac, a, 1e-10)

    def test_all_negative_error(self):
        with pytest.raises(NumericalError, match="no positive") as info:
            spectral_factor(np.linalg.eigh(-np.eye(3)), 1e-10)
        assert info.value.stage == "transform"

    @pytest.mark.parametrize("floor", [2.0, float("nan")])
    def test_empty_spectrum_error(self, floor):
        with pytest.raises(NumericalError, match="retains no eigenvalue") as info:
            spectral_factor(np.linalg.eigh(np.diag([3.0, 2.0, 1.0])), floor)
        assert info.value.stage == "transform"

    @pytest.mark.parametrize(
        "cfg", [MenConfig(), MenConfig(alpha=0.3, beta=7.0), MenConfig(alpha=0.0)]
    )
    def test_matches_two_eigh_oracle(self, cfg):
        # the design and response built from build_a's eigenpairs against
        # a second eigh of the dense A: same clamp, same A on the retained
        # subspace, same projector onto it, for one target and for several
        L = alignment_matrix()
        X = make_informative_classes(12, 6, [0, 2, 4], n_classes=4, separation=1.0, seed=12).data
        fac = spectral_factor(build_a(L, cfg), cfg.eig_floor)
        if cfg.alpha == 0.0:  # A = I: every eigenvector of L is kept, at root 1
            assert fac.n_dropped == 0 and np.array_equal(fac.root, np.ones(L.shape[0]))
            assert fac.basis.tobytes() == np.linalg.eigh(L)[1].tobytes()
        targets = np.random.default_rng(14).normal(size=(L.shape[0], 3))
        for y in (targets[:, 0], targets):
            assert_solver_view(X, y, cfg, fac, dense_build_a(L, cfg), 1e-12)

    @pytest.mark.parametrize(
        "eig",
        [
            np.diag([4.0, 1.0]),
            np.diag([3.0, 2.0, 1.0]),
            (np.ones(3), np.eye(2)),
            (np.ones((2, 2)), np.eye(2)),
            (np.array([1.0, np.nan]), np.eye(2)),
            (np.ones(2), np.array([[1.0, 0.0], [np.inf, 1.0]])),
            (np.empty(0), np.empty((0, 0))),
            3.0,
        ],
        ids=[
            "dense2x2", "dense3x3", "mismatched", "matrix-values", "nonfinite-values",
            "nonfinite-vectors", "empty", "scalar",
        ],
    )
    def test_rejects_non_eigenpairs(self, eig):
        with pytest.raises(DataError) as info:
            spectral_factor(eig, 1e-10)
        assert info.value.stage == "transform"


class TestBuildAugmented:
    def test_ridge_block_shape(self):
        # the ridge rows stay implied: `ridge` is the square of their
        # entry, and the Gram matrix is that of the rows written out
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, 4))
        y = rng.normal(size=6)
        cfg = MenConfig(alpha=0.2, beta=5.0, lambda2=0.3)
        prob = build_augmented(X, y, random_symmetric(rng, 6), cfg)
        entry = np.sqrt(cfg.lambda2) / np.sqrt(1.0 + cfg.lambda2)
        assert prob.ridge == pytest.approx(entry**2, rel=1e-15)
        xfull, yfull = design(prob)
        assert_allclose(prob.gram, xfull.T @ xfull, rtol=1e-13, atol=1e-14)
        assert_allclose(prob.xty, xfull.T @ yfull, rtol=1e-13, atol=1e-14)
        assert prob.scale == pytest.approx(np.sqrt(1.3))

    def test_lambda2_zero_rows_are_zero(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        cfg = MenConfig(alpha=0.0, lambda2=0.0)
        prob = build_augmented(X, y, np.zeros((5, 5)), cfg)
        assert prob.ridge == 0.0
        assert np.array_equal(prob.gram, prob.xstar.T @ prob.xstar)

    @pytest.mark.parametrize("d", [None, 3], ids=["one-target", "three-targets"])
    def test_design_holds_retained_rows_only(self, d):
        # n' x p in column-major order and n' response rows, on a spectrum
        # that the floor clamps
        samples = make_informative_classes(
            12, 6, [0, 2, 4], n_classes=4, separation=1.0, seed=12
        )
        cfg = MenConfig()
        factor = spectral_factor(build_a(alignment_matrix(), cfg), cfg.eig_floor)
        assert factor.n_dropped > 0
        n_kept = samples.n - factor.n_dropped
        targets = np.random.default_rng(14).normal(size=(samples.n, d or 1))
        prob = build_augmented(
            samples.data, targets if d else targets[:, 0], None, cfg, factor=factor
        )
        assert prob.xstar.shape == (n_kept, samples.p)
        assert prob.xstar.flags.f_contiguous
        assert prob.ystar.shape == ((n_kept, d) if d else (n_kept,))
        if d:
            assert all(prob.column(t).ystar.shape == (n_kept,) for t in range(d))

    def test_all_penalties_off_gives_least_squares(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(10, 4))
        y = rng.normal(size=10)
        cfg = MenConfig(alpha=0.0, lambda2=0.0)
        prob = build_augmented(X, y, np.zeros((10, 10)), cfg)
        w, *_ = np.linalg.lstsq(*design(prob), rcond=None)
        assert_allclose(w, np.linalg.lstsq(X, y, rcond=None)[0], atol=1e-10)

    def test_paired_difference_identity(self):
        # the augmented residual and the eliminated quadratic form differ
        # by a constant, so differences across coefficient pairs agree;
        # requires a clamp-free spectrum (see decisions on eig_floor)
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(5, 16))
            p = int(rng.integers(2, 11))
            L = random_symmetric(rng, n, scale=1.0)
            cfg = MenConfig(
                alpha=float(rng.uniform(0.05, 0.5)),
                beta=float(rng.uniform(5.0, 10.0)),
                lambda2=float(rng.choice([0.0, 0.1, 1.0])),
            )
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            prob = build_augmented(X, y, L, cfg)
            assert prob.xstar.shape[0] == n  # nothing clamped by construction
            w1 = rng.normal(size=p)
            w2 = rng.normal(size=p)
            dq = quadratic_objective(X, y, L, cfg, w1) - quadratic_objective(
                X, y, L, cfg, w2
            )
            dr = augmented_objective(prob, w1) - augmented_objective(prob, w2)
            assert abs(dq - dr) <= 1e-8 * max(1.0, abs(dq), abs(dr))
