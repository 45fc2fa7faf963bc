"""Class centers, weighted center PCA, and the indicator matrix."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from men.alignment import SampleSet
from men.datasets import make_face_like, make_informative_classes
from men.errors import DataError
from men.indicator import build_indicator, class_centers, orient_columns, weighted_center_pca


def test_class_centers_two_classes():
    data = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0], [0.0, 6.0]])
    s = SampleSet(data, np.array([0, 0, 1, 1]))
    centers, weights = class_centers(s)
    assert_allclose(centers, [[1.0, 0.0], [0.0, 5.0]])
    assert_allclose(weights, [0.5, 0.5])


def test_class_centers_single_class():
    data = np.array([[1.0, 2.0], [3.0, 4.0]])
    centers, weights = class_centers(SampleSet(data, np.array([0, 0])))
    assert_allclose(centers, data.mean(axis=0, keepdims=True))
    assert_allclose(weights, [1.0])


def test_class_centers_match_groupwise_means():
    rng = np.random.default_rng(0)
    labels = np.sort(np.concatenate([np.arange(5), rng.integers(0, 5, 20)]))
    s = SampleSet(rng.normal(size=(25, 4)), labels)
    centers, weights = class_centers(s)
    for k in range(5):
        rows = s.data[s.labels == k]
        assert_allclose(centers[k], rows.sum(axis=0) / len(rows), atol=1e-14)
        assert weights[k] == len(rows) / 25
    assert weights.sum() == pytest.approx(1.0)


class TestWeightedCenterPca:
    def test_rank_one(self):
        eta, eigvals = weighted_center_pca(np.array([[1.0, 0.0]]), np.array([1.0]), 1)
        assert_allclose(np.abs(eta[:, 0]), [1.0, 0.0], atol=1e-12)
        assert_allclose(eigvals, [1.0])

    def test_symmetric_pair(self):
        centers = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, eigvals = weighted_center_pca(centers, np.array([0.5, 0.5]), 2)
        assert_allclose(eigvals, [0.5, 0.5])

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(1)
        centers = rng.normal(size=(5, 6))
        weights = rng.dirichlet(np.ones(5))
        eta, eigvals = weighted_center_pca(centers, weights, 2)
        v = sum(w * np.outer(c, c) for w, c in zip(weights, centers))
        ref_vals, ref_vecs = np.linalg.eigh(v)
        assert_allclose(eigvals, ref_vals[::-1][:2], atol=1e-10)
        for t in range(2):
            ref = ref_vecs[:, ::-1][:, t]
            assert_allclose(np.abs(eta[:, t] @ ref), 1.0, atol=1e-10)

    def test_rank_error_reports_rank(self):
        centers = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(DataError, match="rank 1"):
            weighted_center_pca(centers, np.array([0.5, 0.5]), 2)

    def test_d_below_one_is_not_a_rank_error(self):
        centers = np.eye(3)
        for d in (0, -2):
            with pytest.raises(DataError, match=f"d must be >= 1, got {d}"):
                weighted_center_pca(centers, np.full(3, 1 / 3), d)
        with pytest.raises(DataError, match="d=4 exceeds the numerical rank 3"):
            weighted_center_pca(centers, np.full(3, 1 / 3), 4)

    @pytest.mark.parametrize("weights", [np.ones(2), np.ones(4), np.ones((3, 1)), np.float64(1.0)],
                             ids=["short", "long", "column", "scalar"])
    def test_one_weight_per_center_row(self, weights):
        with pytest.raises(DataError, match=r"one weight per center row, got \(.*\) weights "
                           r"for centers of shape \(3, 4\)"):
            weighted_center_pca(np.ones((3, 4)), weights, 1)

    @pytest.mark.parametrize("d", [1.5, "a", True], ids=["fraction", "text", "bool"])
    def test_d_must_be_an_int(self, d):
        # a DataError naming d, not a TypeError from the slice or the comparison
        with pytest.raises(DataError, match="d must be int") as info:
            weighted_center_pca(np.eye(3), np.full(3, 1 / 3), d)
        assert info.value.stage == "config"

    def test_negative_weight_is_named(self):
        with pytest.raises(DataError, match="weights must be nonnegative"):
            weighted_center_pca(np.eye(3), np.array([0.5, 0.75, -0.25]), 1)

    def test_more_centers_than_features(self):
        # c = 8 centers in p = 3 dimensions: the c x c Gram has rank 3, so
        # d = 3 is solved, with V's eigenpairs, and d = 4 is a rank error
        rng = np.random.default_rng(8)
        centers = rng.normal(size=(8, 3))
        weights = rng.dirichlet(np.ones(8))
        eta, eigvals = weighted_center_pca(centers, weights, 3)
        ref_vals, ref_vecs = np.linalg.eigh((centers.T * weights) @ centers)
        assert_allclose(eigvals, ref_vals[::-1], rtol=1e-12)
        assert_allclose(np.abs(eta.T @ ref_vecs[:, ::-1]), np.eye(3), atol=1e-12)
        with pytest.raises(DataError, match="d=4 exceeds the numerical rank 3"):
            weighted_center_pca(centers, weights, 4)

    def test_sign_convention(self):
        centers = np.array([[-3.0, 0.0]])
        eta, _ = weighted_center_pca(centers, np.array([1.0]), 1)
        assert eta[0, 0] > 0  # largest-magnitude entry made positive

    def test_orient_columns_breaks_ties_by_first_index(self):
        basis = np.array([[-1.0, 1.0, 0.5], [1.0, -1.0, -2.0]])
        orient_columns(basis)
        assert np.array_equal(basis, [[1.0, 1.0, -0.5], [-1.0, -1.0, 2.0]])


class TestBuildIndicator:
    def test_single_class_identical_rows(self):
        rng = np.random.default_rng(2)
        s = SampleSet(rng.normal(size=(6, 3)) + 5.0, np.zeros(6, dtype=int))
        ind = build_indicator(s, 1)
        assert np.ptp(ind.values, axis=0) == pytest.approx(0.0)

    def test_symmetric_two_classes(self):
        data = np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, -1.0], [-1.0, -1.0]])
        ind = build_indicator(SampleSet(data, np.array([0, 0, 1, 1])), 1)
        col = ind.values[:, 0]
        assert_allclose(col[:2], -col[2:], atol=1e-12)
        assert abs(col[0]) > 0

    def test_rows_match_projected_centers(self):
        rng = np.random.default_rng(3)
        labels = np.repeat(np.arange(3), 5)
        s = SampleSet(rng.normal(size=(15, 6)) + labels[:, None], labels)
        ind = build_indicator(s, 2)
        centers, weights = class_centers(s)
        eta, _ = weighted_center_pca(centers, weights, 2)
        for j in range(s.n):
            assert_allclose(ind.values[j], centers[s.labels[j]] @ eta, atol=1e-12)
            # exact copy of the class's projected center
            assert np.array_equal(ind.values[j], (centers @ eta)[s.labels[j]])

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(4)
        labels = np.repeat(np.arange(4), 4)
        s = SampleSet(rng.normal(size=(16, 8)) + 2.0 * labels[:, None], labels)
        basis, _ = weighted_center_pca(*class_centers(s), 3)
        assert_allclose(basis.T @ basis, np.eye(3), atol=1e-10)

    def test_projected_variance_is_maximal(self):
        rng = np.random.default_rng(5)
        centers = rng.normal(size=(6, 7))
        weights = rng.dirichlet(np.ones(6))
        eta, _ = weighted_center_pca(centers, weights, 2)
        achieved = sum(
            w * float(np.sum((c @ eta) ** 2)) for w, c in zip(weights, centers)
        )
        for _ in range(25):
            q, _ = np.linalg.qr(rng.normal(size=(7, 2)))
            other = sum(
                w * float(np.sum((c @ q) ** 2)) for w, c in zip(weights, centers)
            )
            assert achieved >= other - 1e-10

    def test_peak_memory_is_the_centers_not_p_by_p(self):
        # 60 class centers of 1600 pixels: the moment is solved on its 60 x 60
        # Gram, not as a 1600 x 1600 matrix with 1600 x 1600 eigenvectors
        # (41.9 MB); the centers, their weighted rows and the targets remain
        samples = make_face_like(4, n_classes=60, within_scale=0.6, pixel_noise=0.05, seed=1)
        for center in (False, True):
            tracemalloc.start()
            try:
                build_indicator(samples, 20, center=center)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3e6

    def test_d_beyond_class_count_minus_one(self):
        # the uncentered second moment of c class centers can have rank c,
        # so d = c is allowed when the spectrum supports it
        rng = np.random.default_rng(6)
        labels = np.repeat(np.arange(3), 4)
        s = SampleSet(rng.normal(size=(12, 5)) + 3.0 * labels[:, None], labels)
        ind = build_indicator(s, 3)
        assert ind.values.shape == (12, 3)

    @pytest.mark.parametrize("d", [1.5, "a", True], ids=["fraction", "text", "bool"])
    def test_d_must_be_an_int(self, d):
        s = SampleSet(np.arange(12.0).reshape(6, 2), np.repeat([0, 1, 2], 2))
        with pytest.raises(DataError, match="d must be int") as info:
            build_indicator(s, d)
        assert info.value.stage == "config"

    @pytest.mark.parametrize("d", [0, -1])
    def test_d_below_one_is_a_config_error(self, d):
        # MenConfig's rule, not the rank message of weighted_center_pca
        s = make_informative_classes(4, 5, [0, 1, 2], n_classes=3)
        with pytest.raises(DataError, match=f"d must be >= 1, got {d}") as info:
            build_indicator(s, d)
        assert info.value.stage == "config"

    def test_cancelling_overflow_raises_data_error(self):
        # raw centers, which no SampleSet bounds: the weighted mean cancels
        # to 0, but each center's square overflows the moment
        centers = np.array([[1.7e308], [-1.7e308]])
        for center in (False, True):
            with pytest.raises(DataError, match="overflows"):
                weighted_center_pca(centers, np.array([0.5, 0.5]), 1, center=center)

    def test_centered_variant(self):
        rng = np.random.default_rng(7)
        labels = np.repeat(np.arange(3), 4)
        s = SampleSet(rng.normal(size=(12, 5)) + 9.0 + labels[:, None], labels)
        plain = build_indicator(s, 2)
        centered = build_indicator(s, 2, center=True)
        assert not np.allclose(plain.values, centered.values)
        # centered variant matches PCA of mean-subtracted centers
        centers, weights = class_centers(s)
        mu = weights @ centers
        shifted = centers - mu
        v = (shifted.T * weights) @ shifted
        ref_vals = np.linalg.eigvalsh(v)[::-1][:2]
        _, eigvals = weighted_center_pca(centers, weights, 2, center=True)
        assert_allclose(eigvals, ref_vals, atol=1e-10)
