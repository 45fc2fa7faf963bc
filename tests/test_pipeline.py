"""PCA preprocessing, the end-to-end fit, projection, and persistence."""

import struct
import tempfile
import tracemalloc
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.linalg import _umath_linalg
from numpy.testing import assert_allclose

from men.alignment import SampleSet, accumulate_alignment, build_patches
from men.config import MenConfig, config_from_mapping, config_to_lines, parse_kv_lines
from men.datasets import make_face_like, make_informative_classes
from men.errors import DataError, NumericalError
from men.evaluation import SplitSpec, split_indices
from men.indicator import build_indicator
from men.model_io import load_model, model_to_text, save_model
from men.pipeline import ProjectionMatrix, fit, pca_preprocess, project
from men import pipeline, transform
from men.transform import build_a, build_augmented, spectral_factor

from oracles import check_breakpoints, dense_pca
from test_config import field_reprs, men_configs


# numpy's thin-SVD gufunc for p >= n data: svd_s, or svd_n_s before numpy 2
IN_PLACE_SVD = hasattr(_umath_linalg, "svd_s") or hasattr(_umath_linalg, "svd_n_s")


def labelled_gaussians(rng, n_per_class=8, p=6, c=3, shift=1.0):
    labels = np.repeat(np.arange(c), n_per_class)
    data = rng.normal(size=(n_per_class * c, p))
    data[:, 0] += shift * labels
    return SampleSet(data, labels)


def evaluate_face_train():
    """The first training split of the evaluate-face benchmark input: 240 x 1600."""
    samples = make_face_like(7, n_classes=60, within_scale=0.6, pixel_noise=0.05, seed=1)
    train, _ = split_indices(samples, SplitSpec(per_class_train=4, seed=1, repeats=5), 0)
    return samples.subset(train)


def assert_matches_dense_pca(samples, retain):
    reduced, basis, mean = pca_preprocess(samples, retain)
    ref_reduced, ref_basis, ref_mean = dense_pca(samples.data, retain)
    assert mean.tobytes() == ref_mean.tobytes()
    assert basis.shape == (samples.p, retain)
    # the basis pins no memory beyond its own p x retain doubles: U's other
    # columns and the centred data it was solved in are freed
    owner = basis if basis.base is None else basis.base
    assert owner.base is None and owner.nbytes == basis.nbytes == samples.p * retain * 8
    # singular values are the column norms of the reduced data
    ref_values = np.linalg.norm(ref_reduced, axis=0)
    assert_allclose(np.linalg.norm(reduced.data, axis=0), ref_values, rtol=1e-13, atol=0)
    scale = np.abs(samples.data - ref_mean).max()
    gap = np.abs(reduced.data @ basis.T - ref_reduced @ ref_basis.T).max()
    assert gap <= 1e-12 * scale
    assert np.abs(basis.T @ basis - np.eye(retain)).max() <= 1e-13
    # sign rule: the largest-magnitude entry of each column, the first among ties, is positive
    lead = np.argmax(np.abs(basis), axis=0)
    assert np.all(basis[lead, np.arange(retain)] > 0)


@st.composite
def planted_spectra(draw):
    """Data whose centered matrix has singular values rank, rank-1, ..., 1 (scaled)."""
    n = draw(st.integers(3, 12))
    p = draw(st.integers(1, 16))
    rank = min(n - 1, p)
    retain = draw(st.integers(1, rank))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # left singular vectors orthogonal to the ones vector, so centering keeps them
    left = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, rank))]))[0][:, 1:]
    right = np.linalg.qr(rng.normal(size=(p, rank)))[0]
    spectrum = draw(st.sampled_from([1e-3, 1.0, 1e3])) * np.arange(rank, 0, -1.0)
    data = (left * spectrum) @ right.T + 10.0 * rng.normal(size=p)
    return SampleSet(data, np.arange(n) % 2), retain


class TestPcaPreprocess:
    def test_matches_dense_pca_on_fit_face(self):
        samples = make_face_like(4, n_classes=100, seed=0)  # 400 x 1600
        assert_matches_dense_pca(samples, samples.n - 1)

    def test_matches_dense_pca_on_evaluate_face_split(self):
        samples = evaluate_face_train()
        assert_matches_dense_pca(samples, samples.n - 1)

    @settings(max_examples=60, deadline=None)
    @given(planted_spectra())
    def test_matches_dense_pca_property(self, problem):
        assert_matches_dense_pca(*problem)

    @pytest.mark.skipif(not IN_PLACE_SVD, reason="numpy has no SVD gufunc to write U in place")
    def test_peak_memory_bounded(self):
        # the in-place path: the SVD gufunc writes U over the centred copy, and
        # U^T shrinks to the basis. The peak, 1.44 x the data on these 240 x
        # 1600 data, is the basis (1.0) with the reduced data (0.15) and one
        # 64-row centred block (0.27); during the SVD the centred copy and
        # the n x n V^T are 1.15. The whole-array route took 2.25.
        samples = evaluate_face_train()
        tracemalloc.start()
        try:
            pca_preprocess(samples, samples.n - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * samples.data.nbytes

    @pytest.mark.parametrize("shape", [(30, 50), (50, 20)], ids=["p>=n", "p<n"])
    @pytest.mark.parametrize("missing", ["module", "gufunc", "loop"])
    def test_fallback_gives_the_same_pca(self, monkeypatch, missing, shape):
        samples = labelled_gaussians(np.random.default_rng(7), n_per_class=shape[0] // 2,
                                     p=shape[1], c=2)
        retain = min(shape) - 2
        expected = pca_preprocess(samples, retain)
        if missing == "module":
            monkeypatch.setattr(transform, "_umath_linalg", None)
        elif missing == "gufunc":
            monkeypatch.setattr(transform, "_umath_linalg", types.SimpleNamespace())
        else:
            # before numpy 2 the thin SVD's gufunc is named by the transpose's shape
            older = "svd_n_s" if shape[1] >= shape[0] else "svd_m_s"
            name = "svd_s" if hasattr(_umath_linalg, "svd_s") else older
            real = getattr(_umath_linalg, name)

            def no_in_place_loop(a, *args, out=None, **kwargs):
                # np.linalg.svd's own call passes no out= and still works
                if out is not None:
                    raise TypeError("no loop matching the specified signature")
                return real(a, *args, **kwargs)

            monkeypatch.setattr(_umath_linalg, name, no_in_place_loop)
        reduced, basis, mean = pca_preprocess(samples, retain)
        assert basis.tobytes() == expected[1].tobytes()
        assert reduced.data.tobytes() == expected[0].data.tobytes()
        assert mean.tobytes() == expected[2].tobytes()
        owner = basis.base if basis.base is not None else basis
        assert owner.nbytes == basis.nbytes

    def test_overflowing_centering_raises_before_svd(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("SVD ran on nonfinite centered data")

        monkeypatch.setattr(np.linalg, "svd", never)
        data = np.random.default_rng(4).normal(size=(6, 10))
        data[1:3, 0] = 1.7e308
        with pytest.raises(DataError, match="nonfinite entries or"):
            pca_preprocess(SampleSet(data, np.repeat([0, 1], 3)), 1)

    def test_lossless_at_full_rank(self):
        rng = np.random.default_rng(0)
        s = SampleSet(rng.normal(size=(6, 10)), np.array([0, 0, 0, 1, 1, 1]))
        reduced, basis, mean = pca_preprocess(s, min(s.n - 1, s.p))
        recon = reduced.data @ basis.T + mean
        assert_allclose(recon, s.data, atol=1e-8)

    def test_exact_on_planted_subspace(self):
        rng = np.random.default_rng(1)
        coords = rng.normal(size=(12, 2))
        frame = np.linalg.qr(rng.normal(size=(7, 2)))[0]
        s = SampleSet(coords @ frame.T + 3.0, np.repeat([0, 1], 6))
        reduced, basis, mean = pca_preprocess(s, 2)
        recon = reduced.data @ basis.T + mean
        assert_allclose(recon, s.data, atol=1e-10)

    def test_captured_variance_matches_eigensolver(self):
        rng = np.random.default_rng(2)
        s = SampleSet(rng.normal(size=(30, 9)) * rng.uniform(0.5, 3.0, 9), np.repeat([0, 1], 15))
        reduced, _, _ = pca_preprocess(s, 5)
        captured = reduced.data.var(axis=0, ddof=1).sum()
        top = np.linalg.eigvalsh(np.cov(s.data.T))[::-1][:5].sum()
        assert captured == pytest.approx(top, rel=1e-10)

    def test_retain_out_of_range(self):
        rng = np.random.default_rng(3)
        s = SampleSet(rng.normal(size=(5, 8)), np.array([0, 0, 1, 1, 1]))
        with pytest.raises(DataError, match="pca_retain"):
            pca_preprocess(s, 7)  # limit is n-1 = 4
        with pytest.raises(DataError):
            pca_preprocess(s, 0)


class TestFit:
    def test_signal_dims_selected(self):
        # class signal only in dims 0 and 1; the single K=2 column must
        # put both nonzeros there (per-dim class separation verifies the
        # construction)
        rng = np.random.default_rng(4)
        labels = np.repeat([0, 1], 20)
        data = rng.normal(scale=0.2, size=(40, 10))
        data[:, 0] += labels * 2.0
        data[:, 1] += (1 - labels) * 2.0
        s = SampleSet(data, labels)
        between = np.array(
            [
                abs(data[labels == 0, j].mean() - data[labels == 1, j].mean())
                / data[:, j].std()
                for j in range(10)
            ]
        )
        assert set(np.argsort(between)[-2:]) == {0, 1}
        cfg = MenConfig(alpha=0.01, kappa=0.5, lambda2=0.5, d=1, K=2, pca_retain=0)
        model, _ = fit(s, cfg)
        assert set(np.flatnonzero(model.values[:, 0])) <= {0, 1}
        assert model.sparsity[0] == 2

    def test_unpenalized_column_is_least_squares(self):
        rng = np.random.default_rng(5)
        s = labelled_gaussians(rng, n_per_class=10, p=5)
        cfg = MenConfig(alpha=0.0, lambda2=0.0, d=1, K=5, pca_retain=0)
        model, _ = fit(s, cfg)
        target = build_indicator(s, 1).values[:, 0]
        expected = np.linalg.lstsq(s.data, target, rcond=None)[0]
        assert_allclose(model.values[:, 0], expected, atol=1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        s = labelled_gaussians(rng)
        cfg = MenConfig(d=2, K=4, pca_retain=0)
        m1, _ = fit(s, cfg)
        m2, _ = fit(s, cfg)
        assert np.array_equal(m1.values, m2.values)

    def test_threads_match_serial(self):
        rng = np.random.default_rng(7)
        s = labelled_gaussians(rng, n_per_class=10)
        cfg = MenConfig(d=3, K=4, pca_retain=0)
        serial, _ = fit(s, cfg, threads=1)
        parallel, _ = fit(s, cfg, threads=3)
        assert np.array_equal(serial.values, parallel.values)

    def test_objective_traces_monotone(self):
        rng = np.random.default_rng(8)
        s = labelled_gaussians(rng)
        _, report = fit(s, MenConfig(d=2, K=5, pca_retain=0))
        for trace in report.objective_traces:
            assert all(a - b > -1e-12 for a, b in zip(trace, trace[1:]))

    def test_check_monotone_rejects_an_increase(self):
        s = labelled_gaussians(np.random.default_rng(8))
        _, report = fit(s, MenConfig(d=2, K=5, pca_retain=0))
        report.check_monotone()
        last = report.paths[1].breakpoints[-1]
        last.objective = report.paths[1].breakpoints[0].objective + 1.0
        with pytest.raises(NumericalError, match="objective increased by .* in column 1") as info:
            report.check_monotone()
        assert info.value.stage == "solve"

    def test_sparsity_bound_and_report(self):
        rng = np.random.default_rng(9)
        s = labelled_gaussians(rng, n_per_class=12, p=9)
        cfg = MenConfig(d=2, K=3, pca_retain=0)
        model, report = fit(s, cfg)
        assert all(nz <= 3 for nz in model.sparsity)
        assert report.column_cosines.shape == (2, 2)
        assert set(report.timings) >= {"preprocess", "alignment", "indicator", "transform", "solve"}

    def test_clamps_small_classes_with_warning(self):
        rng = np.random.default_rng(10)
        labels = np.array([0, 0, 1, 1, 1, 1, 1, 1])
        s = SampleSet(rng.normal(size=(8, 4)), labels)
        cfg = MenConfig(d=1, K=2, k1=3, k2=3, pca_retain=0)
        with pytest.warns(UserWarning, match="clamped"):
            model, _ = fit(s, cfg)
        assert model.values.shape == (4, 1)

    def test_double_shrinkage_correction_rescales(self):
        rng = np.random.default_rng(21)
        s = labelled_gaussians(rng)
        cfg = MenConfig(d=1, K=3, lambda2=0.5, pca_retain=0)
        plain, _ = fit(s, cfg)
        corrected, _ = fit(s, replace(cfg, double_shrinkage_correction=True))
        # same solved coefficients, reported on the two scale conventions
        assert_allclose(corrected.values, plain.values * 1.5, atol=1e-12)

    def test_pca_auto_default(self):
        rng = np.random.default_rng(11)
        s = labelled_gaussians(rng, n_per_class=4, p=20)
        model, _ = fit(s, MenConfig(d=1, K=2))  # pca_retain=None -> n-1
        assert model.pca_basis is not None
        assert model.pca_basis.shape == (20, s.n - 1)

    def test_warns_when_underdetermined_without_ridge(self):
        rng = np.random.default_rng(22)
        labels = np.repeat([0, 1], 4)
        s = SampleSet(rng.normal(size=(8, 12)), labels)
        cfg = MenConfig(alpha=0.0, lambda2=0.0, d=1, K=2, pca_retain=0)
        with pytest.warns(UserWarning, match="lambda2"):
            fit(s, cfg)

    def test_stage_tagging(self):
        rng = np.random.default_rng(12)
        s = labelled_gaussians(rng)
        try:
            fit(s, MenConfig(d=50, K=2, pca_retain=0))  # d beyond indicator rank
        except DataError as exc:
            assert exc.stage == "indicator"
        else:
            pytest.fail("expected DataError")

    def test_overflowing_sums_fail_with_stage(self):
        data = np.random.default_rng(24).normal(size=(6, 10))
        data[:, 0] = 1.7e308  # every sum overflows, every difference is exact
        with pytest.raises(DataError, match="nonfinite entries or") as info:
            SampleSet(data, np.repeat([0, 1], 3))
        assert info.value.stage is None  # the CLI reports it as stage=input

    def test_data_at_the_bound(self):
        # entries of +-sqrt(max / (4 n p)) pass SampleSet and every stage
        # without PCA, warning-free; one beyond fails. PCA packs the energy
        # of 10 equal columns into one, past the reduced data's bound
        n, p = 6, 10
        limit = np.sqrt(np.finfo(np.float64).max / (4 * n * p))
        data = np.array([1.0, -1.0] * 3)[:, None] * np.full((n, p), limit)
        labels = np.repeat([0, 1], 3)
        with pytest.raises(DataError, match="nonfinite entries or"):
            SampleSet(np.nextafter(data, 2 * data), labels)
        s = SampleSet(data, labels)
        model, _ = fit(s, MenConfig(d=1, K=2, k1=1, k2=1, pca_retain=0))
        assert np.isfinite(model.values).all() and np.count_nonzero(model.values) >= 1
        with pytest.raises(DataError, match="nonfinite entries or") as info:
            fit(s, MenConfig(d=1, K=2, k1=1, k2=1))
        assert info.value.stage == "preprocess"

    @pytest.mark.parametrize(
        "routine, stage", [("svd", "preprocess"), ("eigh", "indicator"), ("eigh", "transform")]
    )
    def test_decomposition_failure_is_numerical(self, monkeypatch, routine, stage):
        s = labelled_gaussians(np.random.default_rng(25))
        # fit solves the PCA's SVD and the alignment matrix's eigh in place
        # with numpy's own gufuncs, which np.linalg.svd and np.linalg.eigh
        # also call, so those cases fail the gufuncs (for these 24 x 6 data
        # the SVD's is svd_m_s before numpy 2)
        module, name = {
            "preprocess": (_umath_linalg, "svd_s" if hasattr(_umath_linalg, "svd_s") else "svd_m_s"),
            "indicator": (np.linalg, routine),
            "transform": (_umath_linalg, "eigh_lo"),
        }[stage]
        real = getattr(module, name)

        def failing(a, *args, **kwargs):
            # the indicator stage's eigh runs first; the transform case fails
            # only the eigh of the n x n alignment matrix
            if stage == "transform" and np.shape(a) != (s.n, s.n):
                return real(a, *args, **kwargs)
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(module, name, failing)
        with pytest.raises(NumericalError, match="did not converge") as info:
            fit(s, MenConfig(d=1, K=2))
        assert info.value.stage == stage

    def test_peak_memory_bounded(self):
        # build_a writes U over L, so no two n x n arrays are alive at once;
        # a fit without PCA peaks in build_augmented (1.34 n^2 doubles), where
        # U meets U^T X and the design, and no n' x n factor of A is formed
        s = make_informative_classes(60, 100, range(0, 40, 4), n_classes=10, separation=1.0, seed=3)
        cfg = MenConfig(pca_retain=0, d=9, K=50)
        tracemalloc.start()
        try:
            fit(s, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * s.n**2 * 8

    def test_empty_spectrum_raises(self):
        rng = np.random.default_rng(23)
        s = labelled_gaussians(rng)
        with pytest.raises(NumericalError, match="retains no eigenvalue") as info:
            fit(s, MenConfig(d=1, K=2, pca_retain=0, eig_floor=2.0))
        assert info.value.stage == "transform"


class TestProject:
    def test_zero_matrix(self):
        rng = np.random.default_rng(13)
        s = labelled_gaussians(rng)
        model, _ = fit(s, MenConfig(d=1, K=2, pca_retain=0))
        model.values[:] = 0.0
        assert np.array_equal(project(model, s), np.zeros((s.n, 1)))

    def test_single_nonzero_scales_feature(self):
        rng = np.random.default_rng(14)
        s = labelled_gaussians(rng)
        model, _ = fit(s, MenConfig(d=1, K=2, pca_retain=0))
        model.values[:] = 0.0
        model.values[3, 0] = 2.0
        assert_allclose(project(model, s)[:, 0], 2.0 * s.data[:, 3])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(15)
        s = labelled_gaussians(rng, n_per_class=5, p=4)
        model, _ = fit(s, MenConfig(d=2, K=3, pca_retain=0))
        embedded = project(model, s)
        expected = np.zeros_like(embedded)
        for i in range(s.n):
            for t in range(2):
                for j in range(s.p):
                    expected[i, t] += s.data[i, j] * model.values[j, t]
        assert_allclose(embedded, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(16)
        s = labelled_gaussians(rng)
        model, _ = fit(s, MenConfig(d=1, K=2, pca_retain=0))
        wrong = SampleSet(rng.normal(size=(4, s.p + 1)), np.array([0, 0, 1, 1]))
        with pytest.raises(DataError, match="dimension"):
            project(model, wrong)

    def test_pca_model_takes_raw_width(self):
        rng = np.random.default_rng(16)
        s = labelled_gaussians(rng, n_per_class=4, p=30)
        model, _ = fit(s, MenConfig(d=1, K=2))  # auto PCA keeps n - 1 = 11 components
        assert model.values.shape[0] == 11
        reduced_width = SampleSet(rng.normal(size=(4, 11)), np.array([0, 0, 1, 1]))
        message = "feature dimension 11 does not match the model's dimension 30"
        with pytest.raises(DataError, match=message):
            project(model, reduced_width)
        assert project(model, s).shape == (s.n, 1)

    def test_pca_centering_applied(self):
        rng = np.random.default_rng(17)
        s = labelled_gaussians(rng, n_per_class=6, p=12)
        model, _ = fit(s, MenConfig(d=1, K=2))  # auto PCA
        embedded = project(model, s)
        manual = (s.data - model.pca_mean) @ model.pca_basis @ model.values
        assert_allclose(embedded, manual, atol=1e-12)

    def test_fit_coordinates_are_projects_bit_for_bit(self, monkeypatch):
        # the PCA reduces the training data with project's own row blocks,
        # so the fit's coordinates times W are project's embedding, to the byte
        s = make_face_like(6, n_classes=25, seed=4)  # 150 x 1600: three row blocks
        seen = []

        def recorded(*args):
            seen.append(pca_preprocess(*args))
            return seen[-1]

        monkeypatch.setattr(pipeline, "pca_preprocess", recorded)
        model, _ = fit(s, MenConfig(d=3, K=20))
        (reduced, basis, _), = seen
        assert basis is model.pca_basis
        assert (reduced.data @ model.values).tobytes() == project(model, s).tobytes()
        # through W = I (exact), project's coordinates are the fit's own
        coordinates = project(replace(model, values=np.eye(basis.shape[1])), s)
        assert coordinates.tobytes() == reduced.data.tobytes()

    def test_blocked_centering_at_face_scale(self):
        # project centres a block of rows at a time into one n x p' array:
        # the same embedding as the whole-matrix formula, without the
        # n x p_raw centred copy that formula makes
        rng = np.random.default_rng(18)
        n, p_raw, p = 400, 1600, 399
        data = rng.normal(size=(n, p_raw))
        basis = np.linalg.qr(rng.normal(size=(p_raw, p)))[0]
        values = rng.normal(size=(p, 20)) * (rng.random((p, 20)) < 0.25)
        model = ProjectionMatrix(
            values=values, pca_basis=basis, pca_mean=data.mean(axis=0), config=MenConfig()
        )
        samples = SampleSet(data, np.repeat(np.arange(100), 4))
        expected = (data - model.pca_mean) @ basis @ values
        tracemalloc.start()
        try:
            embedded = project(model, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.abs(embedded - expected).max() <= 1e-12
        # the n x p' reduced data (0.25) and one 64-row block (0.04), with
        # the n x d output; the centred copy alone was 1.0
        assert peak <= 0.5 * data.nbytes


def assert_consistent(model):
    """A loaded model is finite and its shapes fit together."""
    p, d = model.values.shape
    assert p >= 1 and d >= 1
    assert np.all(np.isfinite(model.values))
    assert (model.pca_mean is None) == (model.pca_basis is None)
    if model.pca_basis is not None:
        assert model.pca_basis.shape == (model.pca_mean.size, p)
        assert np.all(np.isfinite(model.pca_basis))
        assert np.all(np.isfinite(model.pca_mean))


def _column_major_nonzeros(values):
    return [(row, col, float(values[row, col]))
            for col in range(values.shape[1]) for row in range(values.shape[0])
            if values[row, col] != 0]


def men1_reference_bytes(model):
    """The MEN1 layout of the model_io docstring, field by field, joined once."""

    def ints(*counts):
        return struct.pack(f"<{len(counts)}q", *counts)

    def floats(values):
        flat = np.asarray(values, dtype=np.float64).ravel().tolist()
        return struct.pack(f"<{len(flat)}d", *flat)

    config = "".join(f"{line}\n" for line in config_to_lines(model.config)).encode("utf-8")
    chunks = [b"MEN1", ints(len(config)), config]
    if model.pca_basis is None:
        chunks.append(ints(0, 0, 0))
    else:
        chunks += [ints(model.pca_mean.size), floats(model.pca_mean),
                   ints(*model.pca_basis.shape), floats(model.pca_basis)]
    trip = _column_major_nonzeros(model.values)
    chunks += [ints(*model.values.shape, len(trip)), floats(trip)]
    return b"".join(chunks)


def men1_reference_text(model):
    """model_to_text's export: config, PCA shapes, one line per nonzero of W."""
    lines = ["MEN1 text export", "[config]", *config_to_lines(model.config)]
    if model.pca_basis is None:
        lines.append("pca absent")
    else:
        rows, cols = model.pca_basis.shape
        lines.append(f"pca mean {model.pca_mean.size} basis {rows} {cols}")
    p, d = model.values.shape
    trip = _column_major_nonzeros(model.values)
    lines += ["[projection]", f"W {p} {d} nnz {len(trip)}"]
    lines += [f"{row} {col} {value!r}" for row, col, value in trip]
    return "\n".join(lines) + "\n"


def face_scale_model():
    """A projection with fit-face's PCA shapes: a 1600 x 399 basis and 399 x 20 W."""
    rng = np.random.default_rng(18)
    basis = np.linalg.qr(rng.normal(size=(1600, 399)))[0]
    values = np.where(rng.random((399, 20)) < 0.25, rng.normal(size=(399, 20)), 0.0)
    return ProjectionMatrix(
        values=values, pca_basis=basis, pca_mean=rng.normal(size=1600), config=MenConfig()
    )


class TestModelIo:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(18)
        s = labelled_gaussians(rng, n_per_class=6, p=12)
        cfg = MenConfig(d=2, K=3, lambda2=0.25)
        model, _ = fit(s, cfg)
        path = tmp_path / "model.men"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.values, model.values)
        assert np.array_equal(loaded.pca_basis, model.pca_basis)
        assert np.array_equal(loaded.pca_mean, model.pca_mean)
        assert loaded.config == cfg
        assert loaded.sparsity == model.sparsity

    def test_roundtrip_without_pca(self, tmp_path):
        rng = np.random.default_rng(19)
        s = labelled_gaussians(rng)
        model, _ = fit(s, MenConfig(d=1, K=2, pca_retain=0))
        path = tmp_path / "model.men"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.pca_basis is None
        assert loaded.pca_mean is None
        assert np.array_equal(loaded.values, model.values)

    def test_text_export_lossless_values(self):
        rng = np.random.default_rng(20)
        s = labelled_gaussians(rng, p=12)
        for pca_retain in (0, None):
            model, _ = fit(s, MenConfig(d=2, K=3, pca_retain=pca_retain))
            self.check_text_export(model)

    @staticmethod
    def check_text_export(model):
        lines = model_to_text(model).splitlines()
        config_end = lines.index("[projection]") - 1
        assert lines[1] == "[config]"
        assert config_from_mapping(parse_kv_lines(lines[2:config_end])) == model.config
        if model.pca_basis is None:
            assert lines[config_end] == "pca absent"
        else:
            rows, cols = model.pca_basis.shape
            assert lines[config_end] == f"pca mean {model.pca_mean.size} basis {rows} {cols}"
        p, d = model.values.shape
        nnz = np.count_nonzero(model.values)
        assert lines[config_end + 2] == f"W {p} {d} nnz {nnz}"
        values = np.zeros((p, d))
        for line in lines[config_end + 3 :]:
            row, col, value = line.split()
            values[int(row), int(col)] = float(value)
        assert np.array_equal(values, model.values)
        # the mean and basis values live only in the binary model
        assert len(lines) <= nnz + (config_end - 2) + 5
        if model.pca_basis is not None:
            tokens = set(" ".join(lines).replace("=", " ").split())
            dense = np.concatenate([model.pca_mean, model.pca_basis.ravel()])
            assert not tokens & {repr(float(v)) for v in dense}

    @pytest.mark.parametrize("case", ["pca", "no-pca", "no-nonzeros"])
    def test_file_bytes_follow_the_documented_layout(self, tmp_path, case):
        rng = np.random.default_rng(26)
        values = rng.normal(size=(5, 3)) * (rng.random((5, 3)) < 0.5)
        mean = basis = None
        if case == "pca":
            mean, basis = rng.normal(size=7), rng.normal(size=(7, 5))
        if case == "no-nonzeros":
            values = np.zeros((5, 3))
        model = ProjectionMatrix(
            values=values, pca_basis=basis, pca_mean=mean, config=MenConfig(d=3, lambda2=0.3)
        )
        save_model(model, tmp_path / "m.men")
        assert (tmp_path / "m.men").read_bytes() == men1_reference_bytes(model)
        assert model_to_text(model) == men1_reference_text(model)

    def test_save_adds_little_above_the_model(self, tmp_path):
        # the arrays go to the file as they are: only the nonzero triplets are
        # made; a bytes copy of each array and a joined file took 2.0x the basis
        model = face_scale_model()
        tracemalloc.start()
        try:
            save_model(model, tmp_path / "m.men")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "m.men").read_bytes() == men1_reference_bytes(model)
        assert peak <= 0.1 * model.pca_basis.nbytes

    def test_f_order_basis_round_trip(self, tmp_path):
        # a fit's basis is the F-order view pca_preprocess leaves; it is
        # written a block of rows at a time, in the same row-major bytes as
        # its C-order twin, with no whole copy
        model = face_scale_model()
        twin = replace(model, pca_basis=np.asfortranarray(model.pca_basis))
        assert not twin.pca_basis.flags.c_contiguous
        save_model(model, tmp_path / "c.men")
        tracemalloc.start()
        try:
            save_model(twin, tmp_path / "f.men")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "f.men").read_bytes() == (tmp_path / "c.men").read_bytes()
        assert (tmp_path / "f.men").read_bytes() == men1_reference_bytes(twin)
        assert peak <= 0.1 * model.pca_basis.nbytes
        loaded = load_model(tmp_path / "f.men")
        for name in ("values", "pca_basis", "pca_mean"):
            assert np.array_equal(getattr(loaded, name), getattr(twin, name)), name

    def test_load_peak_memory_bounded(self, tmp_path):
        # the file bytes, viewed in place, and the arrays copied out of them;
        # slicing byte copies before each copy took 3.0x the file
        model = face_scale_model()
        save_model(model, tmp_path / "m.men")
        size = (tmp_path / "m.men").stat().st_size
        tracemalloc.start()
        try:
            loaded = load_model(tmp_path / "m.men")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for name in ("values", "pca_basis", "pca_mean"):
            assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes(), name
        assert peak <= 2.3 * size

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.men"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
            load_model(path)

    def test_informative_fit_survives_roundtrip(self, tmp_path):
        s = make_informative_classes(10, 12, [0, 1, 2], n_classes=3, separation=1.0, seed=0)
        model, _ = fit(s, MenConfig(alpha=0.01, kappa=0.5, lambda2=1.0, d=2, K=4, pca_retain=0))
        save_model(model, tmp_path / "m.men")
        loaded = load_model(tmp_path / "m.men")
        assert np.array_equal(loaded.values, model.values)

    @staticmethod
    def field_offsets(data):
        """Offsets of every 8-byte field of a MEN1 file, walking its layout."""

        def count(at):
            return int(np.frombuffer(data[at : at + 8], dtype="<i8")[0])

        offsets = [4]
        at = 12 + count(4)
        offsets += range(at, at + 8 * (1 + count(at)), 8)  # mean length, mean
        at = offsets[-1] + 8
        offsets += range(at, at + 8 * (2 + count(at) * count(at + 8)), 8)  # basis
        at = offsets[-1] + 8
        offsets += range(at, at + 8 * (3 + 3 * count(at + 16)), 8)  # p, d, nnz, triplets
        assert offsets[-1] + 8 == len(data)
        return offsets

    @pytest.mark.parametrize("pca_retain", [None, 0])
    def test_corrupt_fields_rejected_or_consistent(self, tmp_path, pca_retain):
        rng = np.random.default_rng(21)
        model, _ = fit(labelled_gaussians(rng), MenConfig(d=2, K=3, pca_retain=pca_retain))
        save_model(model, tmp_path / "good.men")
        data = (tmp_path / "good.men").read_bytes()
        config_end = 12 + int(np.frombuffer(data[4:12], dtype="<i8")[0])
        # every layout field, and the config text in 8-byte windows
        offsets = self.field_offsets(data) + list(range(12, config_end, 8))
        patterns = [
            lambda b: b"\x00" * len(b),
            lambda b: b"\xff" * len(b),
            lambda b: b"\x7f" * len(b),
            lambda b: bytes([b[0] ^ 0x01]) + b[1:],
            lambda b: b[:-1] + bytes([b[-1] ^ 0x80]),
        ]
        path = tmp_path / "bad.men"
        rejected = 0
        for at in offsets:
            for corrupt in patterns:
                window = data[at : at + 8]
                path.write_bytes(data[:at] + corrupt(window) + data[at + len(window) :])
                try:
                    loaded = load_model(path)
                except DataError as exc:
                    assert exc.stage == "model"
                    rejected += 1
                    continue
                assert_consistent(loaded)
        assert 0 < rejected < len(offsets) * len(patterns)

    def test_truncated_or_padded_rejected(self, tmp_path):
        rng = np.random.default_rng(22)
        model, _ = fit(labelled_gaussians(rng), MenConfig(d=1, K=2, pca_retain=0))
        save_model(model, tmp_path / "good.men")
        data = (tmp_path / "good.men").read_bytes()
        path = tmp_path / "bad.men"
        for content in [data[:cut] for cut in range(len(data))] + [data + b"\x00"]:
            path.write_bytes(content)
            with pytest.raises(DataError):
                load_model(path)


    @pytest.mark.parametrize("lambda1", ["none", "0.5"])
    def test_loads_files_with_a_lambda1_line(self, tmp_path, lambda1):
        # files written while MenConfig had a lambda1 field carry it after
        # lambda2; it never reached a fit, so the loader drops it
        cfg = MenConfig(alpha=0.5, kappa=0.75, lambda2=0.25, d=2, K=3)
        model, _ = fit(labelled_gaussians(np.random.default_rng(24), p=12), cfg)
        save_model(model, tmp_path / "new.men")
        data = (tmp_path / "new.men").read_bytes()
        end = 12 + int(np.frombuffer(data[4:12], dtype="<i8")[0])
        lines = data[12:end].decode().splitlines(keepends=True)
        assert [line.split("=")[0] for line in lines[3:5]] == ["lambda2", "k1"]
        block = "".join([*lines[:4], f"lambda1={lambda1}\n", *lines[4:]]).encode()
        old = data[:4] + np.array([len(block)], dtype="<i8").tobytes() + block + data[end:]
        (tmp_path / "old.men").write_bytes(old)
        loaded = load_model(tmp_path / "old.men")
        assert np.array_equal(loaded.values, model.values)
        assert np.array_equal(loaded.pca_basis, model.pca_basis)
        assert np.array_equal(loaded.pca_mean, model.pca_mean)
        assert field_reprs(loaded.config) == field_reprs(cfg) and len(field_reprs(cfg)) == 12


def _saved_pca_model() -> bytes:
    model, _ = fit(labelled_gaussians(np.random.default_rng(23)), MenConfig(d=2, K=3))
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, Path(tmp) / "m.men")
        return (Path(tmp) / "m.men").read_bytes()


# saved once at import: a function-scoped fixture would be shared by every @given example
PCA_MODEL_BYTES = _saved_pca_model()


def _flip_bytes(flips) -> bytes:
    data = bytearray(PCA_MODEL_BYTES)
    for at, mask in flips:
        data[at] ^= mask
    return bytes(data)


_offsets = st.integers(0, len(PCA_MODEL_BYTES) - 1)
_corrupted_models = st.one_of(
    st.lists(st.tuples(_offsets, st.integers(1, 255)), min_size=1, max_size=4).map(_flip_bytes),
    _offsets.map(lambda cut: PCA_MODEL_BYTES[:cut]),
    st.binary(min_size=1, max_size=32).map(lambda tail: PCA_MODEL_BYTES + tail),
)


@settings(max_examples=200, deadline=None)
@given(_corrupted_models)
def test_load_model_fuzz_rejects_or_consistent(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.men"
        path.write_bytes(content)
        try:
            loaded = load_model(path)
        except DataError as exc:
            assert exc.stage == "model"
            return
    assert_consistent(loaded)


# finite floats, with both zeros and subnormals among them
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def random_models(draw):
    """A projection of random shape, with or without PCA, under any valid config."""
    p = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    # the file keeps the nonzeros of W, so W's zeros are +0.0, as fits leave them
    values = draw(arrays(np.float64, (p, d), elements=_finite.filter(bool) | st.just(0.0)))
    mean = basis = None
    if draw(st.booleans()):
        raw = draw(st.integers(1, 6))
        mean = draw(arrays(np.float64, raw, elements=_finite))
        basis = draw(arrays(np.float64, (raw, p), elements=_finite))
    return ProjectionMatrix(values=values, pca_basis=basis, pca_mean=mean, config=draw(men_configs))


def _array_bytes(a):
    return None if a is None else (a.shape, a.tobytes())


@settings(max_examples=100, deadline=None)
@given(random_models())
@example(ProjectionMatrix(values=np.zeros((2, 3)), pca_basis=None, pca_mean=None,
                          config=MenConfig()))  # an empty (0, 3) triplet array
def test_save_load_round_trip(model):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.men", Path(tmp) / "second.men"
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        assert second.read_bytes() == first.read_bytes()
    for name in ("values", "pca_mean", "pca_basis"):
        assert _array_bytes(getattr(loaded, name)) == _array_bytes(getattr(model, name)), name
    assert loaded.config == model.config
    assert field_reprs(loaded.config) == field_reprs(model.config)


@st.composite
def small_labelled_fits(draw):
    """A random small labelled problem and a config that clamps no k1/k2."""
    classes = draw(st.integers(2, 4))
    per_class = draw(st.integers(4, 6))
    p = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = labelled_gaussians(rng, per_class, p, classes, shift=draw(st.sampled_from([0.5, 2.0])))
    cfg = MenConfig(
        d=draw(st.integers(1, min(classes, p))),
        K=draw(st.integers(1, p + 2)),
        kappa=draw(st.sampled_from([0.37, 1.0])),
        lambda2=draw(st.sampled_from([0.01, 1.0])),
        pca_retain=0,
    )
    return samples, cfg


def _breakpoint_bytes(report):
    return [
        [(bp.loop, bp.event, bp.variable, bp.coefficients.tobytes(), bp.active.tobytes(),
          bp.values.tobytes(), bp.c_hat, bp.l1_norm, bp.objective) for bp in path.breakpoints]
        for path in report.paths
    ]


@settings(max_examples=20, deadline=None)
@given(small_labelled_fits())
def test_fit_invariants(problem):
    # each column's path against the residual form of that column alone,
    # rebuilt from the stage functions
    samples, cfg = problem
    model, report = fit(samples, cfg)
    assert max(model.sparsity) <= cfg.K
    report.check_monotone()
    align = accumulate_alignment(samples, build_patches(samples, cfg.k1, cfg.k2, cfg.kappa))
    targets = build_indicator(samples, cfg.d).values
    factor = spectral_factor(build_a(align, cfg), cfg.eig_floor)
    for t, path in enumerate(report.paths):
        single = build_augmented(samples.data, targets[:, t], align, cfg, factor=factor)
        assert check_breakpoints(single, path, rel_tol=1e-8) >= 1
    again, again_report = fit(samples, cfg)
    assert again.values.tobytes() == model.values.tobytes()
    assert _breakpoint_bytes(again_report) == _breakpoint_bytes(report)
