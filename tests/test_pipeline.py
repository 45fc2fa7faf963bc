"""PCA preprocessing, the end-to-end fit, projection, and persistence."""

import cProfile
import functools
import re
import struct
import sys
import tempfile
import tracemalloc
import types
import warnings
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
from men.indicator import build_indicator, orient_columns
from men.model_io import load_model, model_to_text, save_model
from men.pipeline import ProjectionMatrix, fit, pca_preprocess, project
from men import pipeline, transform
from men.transform import build_a, build_augmented, spectral_factor

from oracles import check_breakpoints, dense_pca
from test_config import field_reprs, men_configs


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

    def test_peak_memory_bounded(self):
        # the copy route (the caller holds the samples): the SVD gufunc writes
        # U over the centred copy, and U^T shrinks to the basis. The peak,
        # 1.35 x the data on these 240 x 1600 data, is the basis (1.0), the
        # n x n V^T (0.15) and the reduced data V s (0.15), made in C order
        # so SampleSet keeps them uncopied. Reducing by the centred product
        # with the basis, 64 rows at a time, peaked at 1.44; the
        # whole-array route took 2.25.
        samples = evaluate_face_train()
        tracemalloc.start()
        try:
            pca_preprocess(samples, samples.n - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * samples.data.nbytes

    @pytest.mark.parametrize("shape", [(30, 50), (50, 20)], ids=["p>=n", "p<n"])
    def test_numpy_1_gufunc_names_give_the_same_pca(self, monkeypatch, shape):
        # before numpy 2 the thin SVD's gufunc is named by the orientation of
        # the p x n transpose: svd_n_s when it is tall (p >= n), svd_m_s else
        samples = labelled_gaussians(np.random.default_rng(7), n_per_class=shape[0] // 2,
                                     p=shape[1], c=2)
        retain = min(shape) - 2
        expected = pca_preprocess(samples, retain)
        calls = []

        def numpy_1(name):
            real = getattr(_umath_linalg, "svd_s", None) or getattr(_umath_linalg, name)

            def gufunc(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return gufunc

        older = types.SimpleNamespace(svd_n_s=numpy_1("svd_n_s"), svd_m_s=numpy_1("svd_m_s"))
        monkeypatch.setattr(transform, "_umath_linalg", older)
        reduced, basis, mean = pca_preprocess(samples, retain)
        assert calls == ["svd_n_s" if shape[1] >= shape[0] else "svd_m_s"]
        assert basis.tobytes() == expected[1].tobytes()
        assert reduced.data.tobytes() == expected[0].data.tobytes()
        assert mean.tobytes() == expected[2].tobytes()

    def test_traced_call_gives_the_same_pca(self):
        # a tracer that reads f_locals, as pdb stepping and snoop do, makes
        # CPython < 3.13 keep a snapshot of the frame's locals, whose extra
        # reference makes ndarray.resize refuse to shrink U^T in place
        samples = make_face_like(4, n_classes=10)  # 40 x 1600
        expected = pca_preprocess(samples, 39)

        def tracer(frame, event, arg):
            frame.f_locals
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            reduced, basis, mean = pca_preprocess(samples, 39)
        finally:
            sys.settrace(previous)
        assert basis.tobytes() == expected[1].tobytes()
        assert reduced.data.tobytes() == expected[0].data.tobytes()
        assert mean.tobytes() == expected[2].tobytes()
        owner = basis.base if basis.base is not None else basis
        assert owner.nbytes == samples.p * 39 * 8

    def test_overflowing_centering_raises_before_svd(self):
        # SampleSet's entry bound is what stops data whose centring would
        # overflow, so such data never reach the PCA; entries at the bound
        # centre and reduce to finite values with warnings as errors
        n, p = 6, 10
        limit = np.sqrt(np.finfo(np.float64).max / (4 * n * p))
        labels = np.repeat([0, 1], 3)
        data = np.random.default_rng(4).normal(size=(n, p))
        data[1:3, 0] = 1.7e308
        bound = re.escape(f"nonfinite entries or |x| > {limit:.4g}")
        with pytest.raises(DataError, match=bound) as info:
            SampleSet(data, labels)
        assert info.value.stage is None  # the CLI reports it as stage=input
        data[:, 0] = np.array([1.0, -1.0] * 3) * limit
        with pytest.raises(DataError, match=bound):
            SampleSet(np.nextafter(data, 2 * data), labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reduced, basis, mean = pca_preprocess(SampleSet(data, labels), n - 1)
        assert np.isfinite(reduced.data).all() and np.isfinite(basis).all()
        assert np.isfinite(mean).all()

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

    @pytest.mark.parametrize("retain", [1.5, "2", True], ids=["fraction", "text", "bool"])
    def test_retain_must_be_an_int(self, retain):
        s = SampleSet(np.random.default_rng(3).normal(size=(5, 8)), np.array([0, 0, 1, 1, 1]))
        with pytest.raises(DataError, match="retain must be int") as info:
            pca_preprocess(s, retain)
        assert info.value.stage == "config"
        reduced, basis, _ = pca_preprocess(s, np.int64(2))  # numpy ints are taken as ints
        assert basis.shape == (8, 2)


class TestRetainedFactor:
    """build_augmented shrinks a factor's U to its retained columns, in order,
    before the design's products."""

    @staticmethod
    def problem():
        s = make_informative_classes(12, 6, [0, 2, 4], n_classes=4, separation=1.0, seed=12)
        return s, build_indicator(s, 3).values, MenConfig()

    def factor(self, order):
        s, _, cfg = self.problem()
        f, u = build_a(accumulate_alignment(s, build_patches(s, 3, 3, 1.0)), cfg, overwrite_l=True)
        return spectral_factor((f, np.asarray(u, order=order)), cfg.eig_floor)

    @pytest.mark.parametrize("order", ["C", "F"], ids=["in-place", "copied"])
    def test_basis_is_the_retained_columns(self, order):
        s, targets, cfg = self.problem()
        factor = self.factor(order)
        assert factor.n_dropped > 0
        n, k = factor.basis.shape[0], factor.retained.size
        columns, root, u_id = factor.basis[:, factor.retained], factor.root, id(factor.basis)
        build_augmented(s.data, targets, None, cfg, factor=factor)
        assert factor.basis.shape == (n, k)
        assert factor.basis.tobytes() == np.ascontiguousarray(columns).tobytes()
        assert np.array_equal(factor.retained, np.arange(k))
        assert factor.root is root and factor.n_dropped == n - k
        assert (id(factor.basis) == u_id) == (order == "C")  # U itself, resized
        # resized in place or copied, a C-order array of exactly n x n' doubles
        assert factor.basis.flags.c_contiguous and factor.basis.flags.owndata
        assert factor.basis.nbytes == n * k * 8  # the dropped columns are freed

    def test_design_matches_the_full_basis(self):
        # the n x n' products against the full n x n ones, gathered
        s, targets, cfg = self.problem()
        factor = self.factor("C")
        root = factor.root[:, None]
        full_x, full_t = ((factor.basis.T @ a)[factor.retained] for a in (s.data, targets))
        problem = build_augmented(s.data, targets, None, cfg, factor=factor)
        assert_allclose(problem.xstar * problem.scale, root * full_x, rtol=1e-12, atol=1e-14)
        assert_allclose(problem.ystar, full_t / root, rtol=1e-12, atol=1e-14)

    def test_a_held_basis_is_copied_and_left_intact(self):
        s, targets, cfg = self.problem()
        factor = self.factor("C")
        held, before = factor.basis, factor.basis.tobytes()
        problem = build_augmented(s.data, targets, None, cfg, factor=factor)
        assert held.tobytes() == before and factor.basis is not held
        expected = build_augmented(s.data, targets, None, cfg, factor=self.factor("C"))
        assert problem.xstar.tobytes() == expected.xstar.tobytes()
        assert problem.ystar.tobytes() == expected.ystar.tobytes()

    def test_traced_shrink_gives_the_same_design(self):
        # a tracer that reads f_locals makes CPython < 3.13 keep a snapshot
        # of the frame's locals, whose reference to U rules out the in-place
        # shrink; the retained columns are then copied
        s, targets, cfg = self.problem()
        expected = build_augmented(s.data, targets, None, cfg, factor=self.factor("C"))

        def tracer(frame, event, arg):
            frame.f_locals
            return tracer

        factor = self.factor("C")
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            problem = build_augmented(s.data, targets, None, cfg, factor=factor)
        finally:
            sys.settrace(previous)
        assert problem.xstar.tobytes() == expected.xstar.tobytes()
        assert problem.ystar.tobytes() == expected.ystar.tobytes()

    def test_second_call_reuses_the_shrunk_basis(self):
        s, targets, cfg = self.problem()
        factor = self.factor("C")
        first = build_augmented(s.data, targets, None, cfg, factor=factor)
        basis, retained = factor.basis, factor.retained
        second = build_augmented(s.data, targets, None, cfg, factor=factor)
        assert factor.basis is basis and factor.retained is retained
        assert second.xstar.tobytes() == first.xstar.tobytes()
        assert second.ystar.tobytes() == first.ystar.tobytes()


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
        assert model.values.shape == (s.n - 1, 1)
        assert model.projection.shape == (20, 1)
        assert model.pca_mean.shape == (20,)

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

    def test_peak_memory_bounded(self, alpha=1.0, bound=1.15):
        # build_a writes U over L, so no two n x n arrays are alive at once,
        # and U shrinks in place to its retained columns before the design's
        # products; L is scattered one Edges block at a time. A fit without
        # PCA peaks at 1.11 n^2 doubles in build_augmented: the shrunk U, in
        # L's storage, beside U^T X and the design. Concatenating every edge
        # before the scatter made accumulate_alignment the peak (1.13)
        s = make_informative_classes(60, 100, range(0, 40, 4), n_classes=10, separation=1.0, seed=3)
        cfg = MenConfig(pca_retain=0, d=9, K=50, alpha=alpha)
        tracemalloc.start()
        try:
            fit(s, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * s.n**2 * 8

    def test_alpha_zero_peak_memory_bounded(self):
        # build_a writes L's eigenvectors over L too; f = 1 then retains every
        # eigenvalue, so the n x n U meets U^T X and an n x p design (1.41
        # n^2 doubles); a fresh np.eye(n) beside L made 2.02
        self.test_peak_memory_bounded(alpha=0.0, bound=1.5)

    def test_traced_fit_gives_the_same_model(self):
        # a tracer that reads f_locals makes CPython < 3.13 keep a snapshot
        # of the frame's locals, whose reference to U rules out shrinking it
        # in place; build_augmented then copies the retained columns
        s = make_informative_classes(30, 20, [0, 4, 8], n_classes=4, separation=1.0, seed=5)
        cfg = MenConfig(pca_retain=0, d=3, K=8)
        expected, _ = fit(s, cfg)

        def tracer(frame, event, arg):
            frame.f_locals
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            model, _ = fit(s, cfg)
        finally:
            sys.settrace(previous)
        assert model.values.tobytes() == expected.values.tobytes()

    def test_empty_spectrum_raises(self):
        rng = np.random.default_rng(23)
        s = labelled_gaussians(rng)
        with pytest.raises(NumericalError, match="retains no eigenvalue") as info:
            fit(s, MenConfig(d=1, K=2, pca_retain=0, eig_floor=2.0))
        assert info.value.stage == "transform"


def record_in_place(monkeypatch):
    """The ownership decisions of pca_preprocess, in call order: True where
    it centres and solves the samples' own array."""
    decisions = []

    def recorded(a, probe):
        decisions.append(transform._writable_alone(a, probe))
        return decisions[-1]

    monkeypatch.setattr(pipeline, "_writable_alone", recorded)
    return decisions


# CPython 3.10 keeps call arguments alive on the caller's stack, so no set
# handed to fit is ever its last reference there
HANDED_OVER = sys.version_info >= (3, 11)


class TestHandOver:
    """fit centres a handed-over set's own array; every other caller's data
    are centred in a copy and left as they were."""

    @pytest.mark.parametrize("wide", [True, False], ids=["p>=n", "p<n"])
    def test_both_routes_give_the_same_model(self, monkeypatch, wide):
        if wide:
            s, cfg = make_face_like(4, n_classes=20, seed=3), MenConfig(d=3, K=10)  # 80 x 1600
        else:  # 60 x 12: the SVD writes V^T, not U, over the centred data
            s = make_informative_classes(20, 12, [0, 3, 6], n_classes=3, seed=3)
            cfg = MenConfig(d=2, K=6, pca_retain=8)
        decisions = record_in_place(monkeypatch)
        held, _ = fit(s, cfg)
        handed, _ = fit(s.subset(np.arange(s.n)), cfg)
        assert decisions == [False, HANDED_OVER]
        assert handed.values.tobytes() == held.values.tobytes()
        assert handed.projection.tobytes() == held.projection.tobytes()
        assert handed.pca_mean.tobytes() == held.pca_mean.tobytes()

    def test_callers_data_are_never_changed(self, monkeypatch):
        face = make_face_like(4, n_classes=10, seed=2)  # 40 x 1600
        cfg = MenConfig(d=2, K=5)
        decisions = record_in_place(monkeypatch)
        expected, _ = fit(face.subset(np.arange(face.n)), cfg)
        data, labels = face.data.copy(), face.labels
        big = np.vstack([data, data[:5] + 1.0])
        frozen = data.copy()
        frozen.flags.writeable = False
        # each set but the first is made in the call, so it is handed over
        # and the decision rests on its array
        callers = {
            "held set": (lambda: face, face.data),
            "held array": (lambda: SampleSet(data, labels), data),
            "view": (lambda: SampleSet(big[: face.n], labels), big),
            "read-only array": (lambda: SampleSet(frozen, labels), frozen),
        }
        for name, (make, owner) in callers.items():
            before = owner.copy()
            model, _ = fit(make(), cfg)
            assert owner.tobytes() == before.tobytes(), name
            assert model.values.tobytes() == expected.values.tobytes(), name
        assert decisions == [HANDED_OVER] + [False] * len(callers)

    def test_views_and_read_only_arrays_are_copied_when_handed_over(self, monkeypatch):
        # no other reference, but the array does not own a writeable buffer
        face = make_face_like(4, n_classes=10, seed=2)
        cfg = MenConfig(d=2, K=5)
        expected, _ = fit(face, cfg)
        decisions = record_in_place(monkeypatch)
        fit(SampleSet(np.vstack([face.data, face.data])[: face.n], face.labels), cfg)
        frozen = face.data.copy()
        frozen.flags.writeable = False
        held = [SampleSet(frozen, face.labels)]
        del frozen
        model, _ = fit(held.pop(), cfg)
        assert decisions == [False, False]
        assert model.values.tobytes() == expected.values.tobytes()

    @pytest.mark.skipif(not HANDED_OVER, reason="CPython 3.10 keeps call arguments alive")
    def test_handed_over_fit_peak_memory(self):
        # evaluate's first fit of the evaluate-face benchmark, on its config:
        # the 240 x 1600 training subset is centred and solved in its own
        # buffer, which becomes the basis; the reduced data, the n x n
        # alignment and the design (0.15 each) and the paths come to 1.53 x
        # the data. A centred copy beside the subset peaked at 2.44
        samples = make_face_like(7, n_classes=60, within_scale=0.6, pixel_noise=0.05, seed=1)
        train, _ = split_indices(samples, SplitSpec(per_class_train=4, seed=1, repeats=5), 0)
        tracemalloc.start()
        try:
            fit(samples.subset(train), MenConfig(d=12, K=50))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * train.size * samples.p * 8

    def test_profiled_fit_gives_the_plain_bytes(self):
        # a profiler's call event holds the bound method basis.resize, so
        # ndarray.resize refuses to shrink in place: the PCA and _shrink then
        # copy out the kept block, with the same bits
        cfg = MenConfig(d=2, K=5)
        plain, _ = fit(make_face_like(4, n_classes=10, seed=0), cfg)
        profiled, _ = cProfile.Profile().runcall(fit, make_face_like(4, n_classes=10, seed=0), cfg)
        previous = sys.getprofile()
        sys.setprofile(lambda frame, event, arg: None)
        try:
            hooked, _ = fit(make_face_like(4, n_classes=10, seed=0), cfg)
        finally:
            sys.setprofile(previous)
        for model in (profiled, hooked):
            assert model.values.tobytes() == plain.values.tobytes()
            assert model.projection.tobytes() == plain.projection.tobytes()


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

    @pytest.mark.parametrize(
        "values, projection, mean, message",
        [
            ((3, 2), (5, 2), 4, r"projection shape \(5, 2\) is not \(4, 2\)"),
            ((3, 2), (5, 2), None, r"projection shape \(5, 2\) is not \(3, 2\)"),
            ((3, 2), (4, 3), 4, r"projection shape \(4, 3\) is not \(4, 2\)"),
            ((3,), (3,), None, "W must be p x d"),
            ((3, 0), (3, 0), None, "W must be p x d with d >= 1"),
        ],
        ids=["rows-not-mean", "not-w-without-mean", "columns-not-d", "1-d-w", "no-columns"],
    )
    def test_shapes_that_disagree_are_model_errors(self, values, projection, mean, message):
        # project and save_model would otherwise fail unstaged or write a
        # file that loads back as another model
        with pytest.raises(DataError, match=message) as info:
            ProjectionMatrix(values=np.zeros(values), projection=np.zeros(projection),
                             pca_mean=None if mean is None else np.zeros(mean),
                             config=MenConfig())
        assert info.value.stage == "model"

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
        _, basis, mean = pca_preprocess(s, min(s.n - 1, s.p))
        assert mean.tobytes() == model.pca_mean.tobytes()
        embedded = project(model, s)
        manual = (s.data - mean) @ basis @ model.values
        assert np.abs(embedded - manual).max() <= 1e-12 * np.abs(manual).max()

    def test_without_pca_is_the_data_times_w(self):
        s = labelled_gaussians(np.random.default_rng(17), n_per_class=6, p=12)
        model, _ = fit(s, MenConfig(d=2, K=2, pca_retain=0))
        assert model.projection is model.values and model.pca_mean is None
        assert project(model, s).tobytes() == (s.data @ model.values).tobytes()

    def test_fit_coordinates_are_the_svds_v_times_s(self, monkeypatch):
        # the PCA's reduced data are V[:, :r] diag(s[:r]) of the centred
        # data's own SVD, each column negated with the basis's: to the byte,
        # and no centred product is formed; the model's projection is basis @ W
        s = make_face_like(6, n_classes=25, seed=4)  # 150 x 1600
        seen = []

        def recorded(*args):
            seen.append(pca_preprocess(*args))
            return seen[-1]

        monkeypatch.setattr(pipeline, "pca_preprocess", recorded)
        model, _ = fit(s, MenConfig(d=3, K=20))
        (reduced, basis, mean), = seen
        assert mean is model.pca_mean
        assert model.projection.tobytes() == (basis @ model.values).tobytes()
        u, singular, vt = np.linalg.svd((s.data - mean).T, full_matrices=False)
        retain = basis.shape[1]
        oriented = u[:, :retain].copy()
        signs = orient_columns(oriented)
        assert oriented.tobytes() == basis.tobytes()
        coordinates = vt[:retain].T * (singular[:retain] * signs)
        assert coordinates.tobytes() == reduced.data.tobytes()
        embedded, through_w = project(model, s), reduced.data @ model.values
        assert np.abs(embedded - through_w).max() <= 1e-12 * np.abs(through_w).max()

    def test_blocked_centering_at_face_scale(self):
        # project centres a block of rows at a time straight into the n x d
        # embedding: the same embedding as the whole-matrix formula, without
        # the n x p_raw centred copy that formula makes
        rng = np.random.default_rng(18)
        n, p_raw, p = 400, 1600, 399
        data = rng.normal(size=(n, p_raw))
        basis = np.linalg.qr(rng.normal(size=(p_raw, p)))[0]
        values = rng.normal(size=(p, 20)) * (rng.random((p, 20)) < 0.25)
        model = ProjectionMatrix(values=values, projection=basis @ values,
                                 pca_mean=data.mean(axis=0), config=MenConfig())
        samples = SampleSet(data, np.repeat(np.arange(100), 4))
        expected = (data - model.pca_mean) @ basis @ values
        tracemalloc.start()
        try:
            embedded = project(model, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.abs(embedded - expected).max() <= 1e-12 * np.abs(expected).max()
        # one 64-row block (0.16) and the n x d output (0.0125); the n x p'
        # reduced data of a stored basis added 0.25, the centred copy 1.0
        assert peak <= 0.2 * data.nbytes


def assert_consistent(model):
    """A loaded model is finite and its shapes fit together."""
    p, d = model.values.shape
    assert p >= 1 and d >= 1
    assert np.all(np.isfinite(model.values))
    assert (model.pca_mean is None) == (model.projection is model.values)
    if model.pca_mean is not None:
        assert model.projection.shape == (model.pca_mean.size, d)
        assert np.all(np.isfinite(model.projection))
        assert np.all(np.isfinite(model.pca_mean))


def _column_major_nonzeros(values):
    return [(row, col, float(values[row, col]))
            for col in range(values.shape[1]) for row in range(values.shape[0])
            if values[row, col] != 0]


def men2_reference_bytes(model):
    """The MEN2 layout of the model_io docstring, field by field, joined once."""

    def ints(*counts):
        return struct.pack(f"<{len(counts)}q", *counts)

    def floats(values):
        flat = np.asarray(values, dtype=np.float64).ravel().tolist()
        return struct.pack(f"<{len(flat)}d", *flat)

    config = "".join(f"{line}\n" for line in config_to_lines(model.config)).encode("utf-8")
    chunks = [b"MEN2", ints(len(config)), config]
    if model.pca_mean is None:
        chunks.append(ints(0, 0, 0))
    else:
        chunks += [ints(model.pca_mean.size), floats(model.pca_mean),
                   ints(*model.projection.shape), floats(model.projection)]
    trip = _column_major_nonzeros(model.values)
    chunks += [ints(*model.values.shape, len(trip)), floats(trip)]
    return b"".join(chunks)


def men2_reference_text(model):
    """model_to_text's export: config, PCA shapes, one line per nonzero of W."""
    lines = ["MEN2 text export", "[config]", *config_to_lines(model.config)]
    if model.pca_mean is None:
        lines.append("pca absent")
    else:
        rows, cols = model.projection.shape
        lines.append(f"pca mean {model.pca_mean.size} projection {rows} {cols}")
    p, d = model.values.shape
    trip = _column_major_nonzeros(model.values)
    lines += ["[projection]", f"W {p} {d} nnz {len(trip)}"]
    lines += [f"{row} {col} {value!r}" for row, col, value in trip]
    return "\n".join(lines) + "\n"


@functools.cache
def cli_face_fit():
    """The cli-face benchmark's data (fit-face's, 400 x 1600) and its d=5, K=100 fit."""
    samples = make_face_like(4, n_classes=100, seed=0)
    model, _ = fit(samples, MenConfig(d=5, K=100))
    return samples, model


def face_scale_model():
    """A model with fit-face's PCA shapes: a 399 x 20 W, composed through a
    1600 x 399 basis into a 1600 x 20 projection."""
    rng = np.random.default_rng(18)
    basis = np.linalg.qr(rng.normal(size=(1600, 399)))[0]
    values = np.where(rng.random((399, 20)) < 0.25, rng.normal(size=(399, 20)), 0.0)
    return ProjectionMatrix(values=values, projection=basis @ values,
                            pca_mean=rng.normal(size=1600), config=MenConfig())


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
        assert np.array_equal(loaded.projection, model.projection)
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
        assert loaded.projection is loaded.values
        assert loaded.pca_mean is None
        assert np.array_equal(loaded.values, model.values)

    def test_numpy_scalar_config_round_trip(self, tmp_path):
        # a config from a numpy sweep is kept, saved and loaded as plain values
        s = labelled_gaussians(np.random.default_rng(20), n_per_class=6, p=12)
        model, _ = fit(s, MenConfig(alpha=np.float64(0.01), d=np.int64(1)))
        save_model(model, tmp_path / "m.men")
        loaded = load_model(tmp_path / "m.men")
        assert loaded.config == model.config
        assert field_reprs(loaded.config) == field_reprs(model.config)
        refit, _ = fit(s, loaded.config)
        assert refit.values.tobytes() == model.values.tobytes()

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
        if model.pca_mean is None:
            assert lines[config_end] == "pca absent"
        else:
            rows, cols = model.projection.shape
            assert lines[config_end] == f"pca mean {model.pca_mean.size} projection {rows} {cols}"
        p, d = model.values.shape
        nnz = np.count_nonzero(model.values)
        assert lines[config_end + 2] == f"W {p} {d} nnz {nnz}"
        values = np.zeros((p, d))
        for line in lines[config_end + 3 :]:
            row, col, value = line.split()
            values[int(row), int(col)] = float(value)
        assert np.array_equal(values, model.values)
        # the mean and projection values live only in the binary model
        assert len(lines) <= nnz + (config_end - 2) + 5
        if model.pca_mean is not None:
            tokens = set(" ".join(lines).replace("=", " ").split())
            dense = np.concatenate([model.pca_mean, model.projection.ravel()])
            assert not tokens & {repr(float(v)) for v in dense}

    @pytest.mark.parametrize("case", ["pca", "no-pca", "no-nonzeros"])
    def test_file_bytes_follow_the_documented_layout(self, tmp_path, case):
        rng = np.random.default_rng(26)
        values = rng.normal(size=(5, 3)) * (rng.random((5, 3)) < 0.5)
        mean, projection = None, values
        if case == "pca":
            mean, projection = rng.normal(size=7), rng.normal(size=(7, 3))
        if case == "no-nonzeros":
            values = projection = np.zeros((5, 3))
        model = ProjectionMatrix(values=values, projection=projection, pca_mean=mean,
                                 config=MenConfig(d=3, lambda2=0.3))
        save_model(model, tmp_path / "m.men")
        assert (tmp_path / "m.men").read_bytes() == men2_reference_bytes(model)
        assert model_to_text(model) == men2_reference_text(model)

    def test_save_adds_little_above_the_model(self, tmp_path):
        # the arrays go to the file as they are: only the nonzero triplets
        # (0.33 of the file here) are made; a bytes copy of each array and a
        # joined file took 2.0x the file
        model = face_scale_model()
        tracemalloc.start()
        try:
            save_model(model, tmp_path / "m.men")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "m.men").read_bytes() == men2_reference_bytes(model)
        assert peak <= 0.5 * (tmp_path / "m.men").stat().st_size

    def test_f_order_projection_round_trip(self, tmp_path):
        # an F-order projection (here 10,000 pixels by d = 20, beyond one
        # write chunk) is written a block of rows at a time, in the same
        # row-major bytes as its C-order twin, with no whole copy
        rng = np.random.default_rng(27)
        values = np.where(rng.random((399, 20)) < 0.25, rng.normal(size=(399, 20)), 0.0)
        model = ProjectionMatrix(values=values, projection=rng.normal(size=(10_000, 20)),
                                 pca_mean=rng.normal(size=10_000), config=MenConfig())
        twin = replace(model, projection=np.asfortranarray(model.projection))
        assert not twin.projection.flags.c_contiguous
        save_model(model, tmp_path / "c.men")
        tracemalloc.start()
        try:
            save_model(twin, tmp_path / "f.men")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "f.men").read_bytes() == (tmp_path / "c.men").read_bytes()
        assert (tmp_path / "f.men").read_bytes() == men2_reference_bytes(twin)
        assert peak <= 0.25 * model.projection.nbytes
        loaded = load_model(tmp_path / "f.men")
        for name in ("values", "projection", "pca_mean"):
            assert np.array_equal(getattr(loaded, name), getattr(twin, name)), name

    def test_load_peak_memory_bounded(self, tmp_path):
        # the file bytes, viewed in place, and the arrays copied out of them,
        # with dense W and its triplet indices; slicing byte copies before
        # each copy took 3.0x the file
        model = face_scale_model()
        save_model(model, tmp_path / "m.men")
        size = (tmp_path / "m.men").stat().st_size
        tracemalloc.start()
        try:
            loaded = load_model(tmp_path / "m.men")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for name in ("values", "projection", "pca_mean"):
            assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes(), name
        assert peak <= 2.1 * size + 2 * model.values.nbytes

    def test_cli_face_model_file_is_small(self, tmp_path):
        # the p_raw x d projection, the mean and the triplets of W; the PCA
        # basis this file once held was 1600 x 399 doubles (5.1 MB)
        _, model = cli_face_fit()
        save_model(model, tmp_path / "m.men")
        p_raw, d = model.projection.shape
        nnz = np.count_nonzero(model.values)
        assert (p_raw, d) == (1600, 5) and 0 < nnz <= 5 * 100
        assert (tmp_path / "m.men").stat().st_size <= 8 * p_raw * (d + 1) + 24 * nnz + 1024

    def test_load_and_project_hold_no_basis(self, tmp_path):
        # the loaded model and one 64-row block beside the caller's data;
        # a stored basis took 8.0x that bound between its file and its copy
        samples, model = cli_face_fit()
        save_model(model, tmp_path / "m.men")
        tracemalloc.start()
        try:
            embedded = project(load_model(tmp_path / "m.men"), samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert embedded.tobytes() == project(model, samples).tobytes()
        assert peak <= 0.25 * samples.data.nbytes

    @pytest.mark.parametrize("pca_retain", [None, 0])
    def test_men1_files_are_refused(self, tmp_path, pca_retain):
        # MEN1 held the PCA basis where MEN2 holds the projection; without
        # PCA the two layouts differ in their magic alone
        model, _ = fit(labelled_gaussians(np.random.default_rng(25)),
                       MenConfig(d=2, K=3, pca_retain=pca_retain))
        save_model(model, tmp_path / "m.men")
        (tmp_path / "old.men").write_bytes(b"MEN1" + (tmp_path / "m.men").read_bytes()[4:])
        with pytest.raises(DataError, match="MEN1 model files are no longer read") as info:
            load_model(tmp_path / "old.men")
        assert info.value.stage == "model"

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
        """Offsets of every 8-byte field of a MEN2 file, walking its layout."""

        def count(at):
            return int(np.frombuffer(data[at : at + 8], dtype="<i8")[0])

        offsets = [4]
        at = 12 + count(4)
        offsets += range(at, at + 8 * (1 + count(at)), 8)  # mean length, mean
        at = offsets[-1] + 8
        offsets += range(at, at + 8 * (2 + count(at) * count(at + 8)), 8)  # projection
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


    def test_a_lambda1_line_is_an_unknown_key(self, tmp_path):
        # MenConfig lost lambda1 while models were MEN1 files, so no MEN2
        # file carries it
        model, _ = fit(labelled_gaussians(np.random.default_rng(24), p=12), MenConfig(d=2, K=3))
        save_model(model, tmp_path / "new.men")
        data = (tmp_path / "new.men").read_bytes()
        end = 12 + int(np.frombuffer(data[4:12], dtype="<i8")[0])
        block = data[12:end] + b"lambda1=0.5\n"
        bad = data[:4] + np.array([len(block)], dtype="<i8").tobytes() + block + data[end:]
        (tmp_path / "bad.men").write_bytes(bad)
        with pytest.raises(DataError, match="unknown config key: lambda1") as info:
            load_model(tmp_path / "bad.men")
        assert info.value.stage == "model"


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
@example(b"MEN1" + PCA_MODEL_BYTES[4:])  # the retired layout's magic
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
    mean, projection = None, values
    if draw(st.booleans()):
        raw = draw(st.integers(1, 6))
        mean = draw(arrays(np.float64, raw, elements=_finite))
        projection = draw(arrays(np.float64, (raw, d), elements=_finite))
    return ProjectionMatrix(values=values, projection=projection, pca_mean=mean,
                            config=draw(men_configs))


_NO_NONZEROS = np.zeros((2, 3))


def _array_bytes(a):
    return None if a is None else (a.shape, a.tobytes())


@settings(max_examples=100, deadline=None)
@given(random_models())
@example(ProjectionMatrix(values=_NO_NONZEROS, projection=_NO_NONZEROS, pca_mean=None,
                          config=MenConfig()))  # an empty (0, 3) triplet array
def test_save_load_round_trip(model):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.men", Path(tmp) / "second.men"
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        assert second.read_bytes() == first.read_bytes()
    for name in ("values", "pca_mean", "projection"):
        assert _array_bytes(getattr(loaded, name)) == _array_bytes(getattr(model, name)), name
    assert (loaded.projection is loaded.values) == (model.pca_mean is None)
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
