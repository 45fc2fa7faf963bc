"""Synthetic generators: planted structure and determinism."""

import warnings

import numpy as np
import pytest

from men.datasets import make_face_like, make_informative_classes
from men.errors import DataError


class TestInformativeClasses:
    def test_shapes_and_labels(self):
        s = make_informative_classes(10, 20, [1, 5, 9], n_classes=3, seed=0)
        assert s.data.shape == (30, 20)
        assert np.array_equal(np.bincount(s.labels), [10, 10, 10])

    def test_signal_confined_to_informative_dims(self):
        dims = [2, 7, 11, 15, 19]
        s = make_informative_classes(
            40, 24, dims, n_classes=3, separation=2.0, noise=0.3, seed=1
        )
        gaps = np.empty(24)
        for j in range(24):
            centers = [s.data[s.labels == k, j].mean() for k in range(3)]
            gaps[j] = np.ptp(centers)
        informative = np.zeros(24, dtype=bool)
        informative[dims] = True
        # class-mean gaps are large on the planted dims, noise-level off them
        assert gaps[informative].min() > 5 * gaps[~informative].max()

    def test_deterministic(self):
        a = make_informative_classes(5, 8, [0, 3], n_classes=2, seed=42)
        b = make_informative_classes(5, 8, [0, 3], n_classes=2, seed=42)
        assert np.array_equal(a.data, b.data)

    def test_dimension_guards(self):
        with pytest.raises(DataError):
            make_informative_classes(5, 4, [9], n_classes=2)
        with pytest.raises(DataError):
            make_informative_classes(5, 8, [0], n_classes=4)


class TestFaceLike:
    def test_shape_range_and_labels(self):
        s = make_face_like(3, n_classes=4, side=16, seed=2)
        assert s.data.shape == (12, 256)
        assert s.data.min() >= 0.0 and s.data.max() <= 1.0
        assert np.array_equal(np.bincount(s.labels), [3, 3, 3, 3])

    def test_within_class_closer_than_between(self):
        s = make_face_like(6, n_classes=3, side=12, seed=3)
        within, between = [], []
        for i in range(s.n):
            for j in range(i + 1, s.n):
                d = float(np.linalg.norm(s.data[i] - s.data[j]))
                (within if s.labels[i] == s.labels[j] else between).append(d)
        assert np.mean(within) < np.mean(between)

    @pytest.mark.parametrize("n_per_class, n_classes", [(0, 2), (0, 1), (1, 1)])
    def test_too_few_samples_is_the_sample_set_error(self, n_per_class, n_classes):
        # SampleSet's error, as make_informative_classes gives, not a
        # ValueError from the scaling's min()
        with pytest.raises(DataError, match="need n >= 2 samples"):
            make_face_like(n_per_class, n_classes=n_classes, side=8)

    def test_constant_images_are_named_before_the_scaling(self):
        # no modes and no noise leave every pixel 0: the scaling's range is
        # zero, and the error says so, with no divide warning and without
        # SampleSet's nonfinite-entry error blaming the data
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="every pixel of every image is 0.0"):
                make_face_like(2, n_classes=2, modes=0, pixel_noise=0.0, side=4)

    def test_deterministic(self):
        a = make_face_like(2, n_classes=2, side=10, seed=7)
        b = make_face_like(2, n_classes=2, side=10, seed=7)
        assert np.array_equal(a.data, b.data)
