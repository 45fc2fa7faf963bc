"""Patch construction and the alignment matrix of the signed neighbour graph."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from men import alignment
from men.alignment import Edges, SampleSet, accumulate_alignment, build_patch, build_patches
from men.datasets import make_informative_classes
from men.errors import DataError

from oracles import dense_alignment
from test_pipeline import evaluate_face_train

KINDS = ["random", "duplicates", "near-ties", "offset", "large", "tiny"]


def line_samples():
    data = np.arange(6.0).reshape(-1, 1)
    return SampleSet(data, np.array([0, 0, 0, 1, 1, 1]))


def random_samples(rng, n, p, c):
    labels = np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)])
    return SampleSet(rng.normal(size=(n, p)), np.sort(labels))


def random_patches(rng, samples, kappa=1.0):
    patches = []
    sizes = samples.class_sizes()
    for i in range(samples.n):
        size = int(sizes[samples.labels[i]])
        k1 = int(rng.integers(0, size))  # up to size-1
        k2 = int(rng.integers(0, samples.n - size + 1))
        if k1 + k2 == 0:
            k2 = 1
        patches.append(build_patch(samples, i, k1, k2, kappa))
    return patches


def oracle_patches(samples, k1, k2, kappa):
    """build_patch per sample at the per-class clamp of k1 and k2."""
    sizes = samples.class_sizes()[samples.labels]
    counts = zip(np.minimum(k1, sizes - 1), np.minimum(k2, samples.n - sizes))
    return [build_patch(samples, i, int(a), int(b), kappa) for i, (a, b) in enumerate(counts)]


def patches_and_oracle(samples, k1, k2, kappa):
    """build_patches and oracle_patches; build_patches warns exactly when it clamps."""
    sizes = samples.class_sizes()
    clamps = bool(((k1 > sizes - 1) | (k2 > samples.n - sizes)).any())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = build_patches(samples, k1, k2, kappa)
    want = oracle_patches(samples, k1, k2, kappa)
    assert len(caught) == clamps and all("k1/k2 clamped" in str(w.message) for w in caught)
    return got, want


def concatenated(edges):
    """The given Edges as one, in order."""
    return Edges(*map(np.concatenate, zip(*edges)))


def concatenated_scatter(n, edges):
    """L from one np.add.at over every edge at once, both directions."""
    rows, neighbours, weights = concatenated(edges)
    out = np.zeros((n, n))
    index = (np.concatenate([rows, neighbours]), np.concatenate([neighbours, rows]))
    np.add.at(out, index, np.tile(-weights, 2))
    out[np.diag_indices(n)] -= out.sum(axis=1)
    return out


def assert_edges_equal(got, want):
    """Equal edges, with int64 indices and float64 weights, once each list
    is concatenated: block boundaries may differ."""
    got, want = concatenated(got), concatenated(want)
    assert [field.dtype for field in got] == [np.int64, np.int64, np.float64]
    for g, w in zip(got, want):
        assert_array_equal(g, w, strict=True)


def assert_edges(edges, centers, neighbours, weights):
    want = Edges(np.array(centers, np.int64), np.array(neighbours, np.int64), np.array(weights))
    assert_edges_equal([edges], [want])


def assert_matches_oracle(samples, k1, k2, kappa=0.5):
    got, want = patches_and_oracle(samples, k1, k2, kappa)
    assert_edges_equal(got, want)
    return got


def shuffled(samples, seed):
    """The same samples in a random row order, so labels are unsorted."""
    perm = np.random.default_rng(seed).permutation(samples.n)
    return SampleSet(samples.data[perm], samples.labels[perm])


def selector_problem(kind, seed, n, p, c, fortran, kmax=None):
    """A small labelled problem whose distances stress the GEMM filter, with
    random counts k1, k2 that leave every sample a neighbour. By default they
    range up to the largest group, so smaller classes clamp and larger ones
    select only part of a group; `kmax` caps both."""
    rng = np.random.default_rng(seed)
    labels = np.sort(np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)]))
    data = rng.normal(size=(n, p))
    if kind != "random":
        data = data[rng.integers(0, max(2, n // 3), size=n)]  # duplicated rows: exact ties
    if kind == "near-ties":
        nudge = rng.random(data.shape) < 0.3
        data[nudge] = np.nextafter(data[nudge], np.where(rng.random(nudge.sum()) < 0.5, -1, 1))
    elif kind == "offset":
        data += 1e6  # |x_i|^2 + |x_j|^2 - 2 x_i.x_j cancels to rounding noise
    elif kind == "large":
        data[rng.random(n) < 0.5] *= 1e150  # squared norms near 1e302, within SampleSet's bound
    elif kind == "huge":
        data[rng.random(n) < 0.5] *= 1e160  # squared norms would overflow
    elif kind == "tiny":
        data *= 3e-162  # squared entries underflow to a few subnormal units or to 0
    samples = SampleSet(np.asfortranarray(data) if fortran else data, labels)
    sizes = samples.class_sizes()
    top = (sizes.max(), n - sizes.min()) if kmax is None else (kmax, kmax)
    k1, k2 = (int(rng.integers(0, k + 1)) for k in top)
    if (np.minimum(k1, sizes - 1) + np.minimum(k2, n - sizes) < 1).any():
        k1, k2 = (k1, 1) if c > 1 else (1, k2)  # a class would have no neighbours
    return samples, k1, k2


class TestSampleSet:
    def test_rejects_missing_class(self):
        with pytest.raises(DataError, match="missing"):
            SampleSet(np.zeros((3, 2)), np.array([0, 0, 2]))

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError, match="nonfinite"):
            SampleSet(np.array([[0.0, np.nan], [1.0, 2.0]]), np.array([0, 0]))

    def test_rejects_tiny(self):
        with pytest.raises(DataError):
            SampleSet(np.zeros((1, 2)), np.array([0]))

    @pytest.mark.parametrize(
        "data, labels, message",
        [
            (np.zeros(4), np.zeros(4), "data must be 2-D, got shape (4,)"),
            (np.zeros((3, 2)), np.zeros(2), "labels must have length 3, got shape (2,)"),
            (np.zeros((3, 2)), np.array([0, -1, 0]), "labels must be nonnegative"),
            (np.full((3, 2), 1e160), np.zeros(3), "data has nonfinite entries or |x| > "),
            (np.zeros((4, 2)), [0.2, 0.7, 1.0, 1.9], "labels must be integers within int64"),
            (np.zeros((2, 2)), [0, np.nan], "labels must be integers within int64"),
            (np.zeros((2, 2)), [0, 1e30], "labels must be integers within int64"),
            (np.zeros((2, 2)), [0, 2**63], "labels must be integers within int64"),
            (np.zeros((2, 2)), [0, 10**20], "labels must be integers within int64"),
            (np.zeros((2, 2)), ["0", "1"], "labels must be integers within int64"),
            (np.zeros((2, 2)), [[0], [1, 1]], "labels must be integers within int64"),
        ],
        ids=[
            "1-d", "label-length", "negative-label", "beyond-bound", "fractional-labels",
            "nan-label", "huge-float-label", "label-past-int64", "label-past-uint64",
            "text-labels", "ragged-labels",
        ],
    )
    def test_rejects_malformed(self, data, labels, message):
        # no label is truncated or wrapped, and no cast warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape(message)):
                SampleSet(data, labels)

    def test_compacted_rejects_fractional_labels(self):
        with pytest.raises(DataError, match="labels must be integers within int64"):
            SampleSet.compacted(np.zeros((4, 2)), [0.5, 0.6, 1.5, 2.5])

    def test_accepts_integral_labels_of_any_type(self):
        for labels in ([0.0, 1.0, 1.0], np.array([0, 1, 1], dtype=object), [False, True, True]):
            assert SampleSet(np.zeros((3, 2)), labels).labels.tolist() == [0, 1, 1]

    def test_compacted_and_subset_renumber_labels(self):
        s = SampleSet.compacted(np.arange(6.0).reshape(3, 2), [5, 9, 5])
        assert np.array_equal(s.labels, [0, 1, 0])
        sub = SampleSet(np.arange(8.0).reshape(4, 2), np.array([0, 1, 2, 1])).subset([1, 2, 3])
        assert np.array_equal(sub.labels, [0, 1, 0])
        assert np.array_equal(sub.data, [[2.0, 3.0], [4.0, 5.0], [6.0, 7.0]])


class TestBuildPatch:
    def test_single_candidates(self):
        s = SampleSet(np.array([[0.0], [1.0], [2.0]]), np.array([0, 0, 1]))
        assert_edges(build_patch(s, 0, k1=1, k2=1, kappa=0.5), [0, 0], [1, 2], [1.0, -0.5])

    def test_forced_membership(self):
        s = SampleSet(np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 1]))
        assert_edges(build_patch(s, 0, k1=0, k2=2, kappa=1.0), [0, 0], [1, 2], [-1.0, -1.0])

    def test_line_nearest_neighbours(self):
        # brute-force oracle: sort candidates by (distance, index)
        s = line_samples()
        patch = build_patch(s, 2, k1=2, k2=1, kappa=1.0)
        same = sorted([0, 1], key=lambda j: (abs(j - 2), j))
        diff = sorted([3, 4, 5], key=lambda j: (abs(j - 2), j))
        assert same + diff[:1] == [1, 0, 3]
        assert_edges(patch, [2, 2, 2], same + diff[:1], [1.0, 1.0, -1.0])

    def test_tie_breaks_ascending_index(self):
        data = np.array([[0.0], [1.0], [-1.0], [5.0]])
        s = SampleSet(data, np.array([0, 0, 0, 1]))
        patch = build_patch(s, 0, k1=1, k2=1, kappa=1.0)
        assert_edges(patch, [0, 0], [1, 3], [1.0, -1.0])  # indices 1 and 2 tie at distance 1

    @pytest.mark.parametrize(
        "i, k1, k2, message",
        [
            (6, 1, 1, "sample index 6 out of range [0, 6)"),
            (-1, 1, 1, "sample index -1 out of range [0, 6)"),
            (0, 0, 0, "need k1 >= 0, k2 >= 0 and k1+k2 >= 1, got k1=0 k2=0"),
        ],
        ids=["index-past-end", "negative-index", "no-neighbours"],
    )
    def test_rejects_bad_arguments(self, i, k1, k2, message):
        with pytest.raises(DataError, match=re.escape(message)):
            build_patch(line_samples(), i, k1, k2, kappa=1.0)

    @pytest.mark.parametrize(
        "i, k1, k2, kappa, message",
        [
            (1.5, 1, 1, 1.0, "i must be int"),
            (0, 1.5, 1, 1.0, "k1 must be int"),
            (0, 1, "a", 1.0, "k2 must be int"),
            (0, 1, 1, -1.0, "kappa must be >= 0"),
            (0, 1, 1, np.nan, "kappa must be finite"),
        ],
        ids=["fraction-index", "fraction-k1", "text-k2", "negative-kappa", "nan-kappa"],
    )
    def test_arguments_are_checked_as_build_patches_checks_them(self, i, k1, k2, kappa, message):
        with pytest.raises(DataError, match=message) as info:
            build_patch(line_samples(), i, k1, k2, kappa)
        assert info.value.stage == "config"
        edges = build_patch(line_samples(), np.int64(0), np.int64(1), 1, np.float32(0.5))
        assert_edges(edges, [0, 0], [1, 3], [1.0, -0.5])

    def test_insufficient_same_class(self):
        s = SampleSet(np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 1]))
        with pytest.raises(DataError, match="class 0"):
            build_patch(s, 0, k1=1, k2=1, kappa=1.0)

    def test_insufficient_diff_class(self):
        s = SampleSet(np.zeros((4, 1)), np.array([0, 0, 1, 1]))
        with pytest.raises(DataError, match="k2=3"):
            build_patch(s, 0, k1=1, k2=3, kappa=1.0)

    def test_metric_names(self):
        # Euclidean is the only metric: sample 1 is nearer than sample 2 in
        # Euclidean distance (1.25 against 1.5) but farther in Manhattan
        # (1.75 against 1.5), and no metric can be chosen by name
        data = np.array([[0.0, 0.0], [1.0, 0.75], [1.5, 0.0], [9.0, 9.0]])
        s = SampleSet(data, np.array([0, 0, 0, 1]))
        assert_edges(build_patch(s, 0, k1=1, k2=1, kappa=1.0), [0, 0], [1, 3], [1.0, -1.0])
        with pytest.raises(TypeError):
            build_patch(s, 0, 1, 1, 1.0, metric="manhattan")


class TestBuildPatches:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 24),
        p=st.integers(1, 12),
        c=st.integers(1, 4),
        fortran=st.booleans(),
        shuffle=st.booleans(),
    )
    def test_matches_per_sample_oracle(self, kind, seed, n, p, c, fortran, shuffle):
        samples, k1, k2 = selector_problem(kind, seed, n, p, min(c, n), fortran)
        assert_matches_oracle(shuffled(samples, seed) if shuffle else samples, k1, k2)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 40),
        p=st.integers(1, 12),
        c=st.integers(2, 20),
    )
    def test_matches_oracle_with_many_small_classes(self, kind, seed, n, p, c):
        # up to n/2 classes of unequal sizes: per-sample counts differ, and
        # the smaller classes clamp k1 (a class of one to zero)
        samples, k1, k2 = selector_problem(kind, seed, n, p, min(c, n // 2), False)
        assert_matches_oracle(shuffled(samples, seed), k1, k2)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        p=st.integers(1, 12),
        c=st.integers(2, 6),
    )
    def test_matches_oracle_without_same_class_neighbours(self, kind, seed, n, p, c):
        samples, _, k2 = selector_problem(kind, seed, n, p, min(c, n), False)
        assert_matches_oracle(shuffled(samples, seed), 0, max(k2, 1))

    @pytest.mark.parametrize("rows_per_block", [1, 7])
    @pytest.mark.parametrize("kind", KINDS)
    def test_row_blocks_match_oracle(self, monkeypatch, kind, rows_per_block):
        # blocks of a few rows, as data with n^2 > BLOCK_ENTRIES get, select
        # as one block does
        samples, k1, k2 = selector_problem(kind, 12, 60, 9, 4, False, kmax=9)
        monkeypatch.setattr(alignment, "BLOCK_ENTRIES", rows_per_block * samples.n)
        got = assert_matches_oracle(shuffled(samples, 12), k1, k2)
        assert len(got) == -(-samples.n // rows_per_block)  # one Edges per block

    @pytest.mark.parametrize("n_per_class, offset", [(120, 0.0), (60, 1e6)], ids=["plain", "offset"])
    def test_peak_memory_bounded(self, n_per_class, offset):
        # one block of rows is alive at a time, so the peak is a few blocks
        # (16 MB), not n x n (11.5 MB at n = 1200); the offset cancels every
        # GEMM distance to rounding noise, so the filter keeps nearly all pairs
        samples = make_informative_classes(
            n_per_class, 200, list(range(0, 40, 4)), n_classes=10, separation=1.0, seed=3
        )
        samples = SampleSet(samples.data + offset, samples.labels)
        tracemalloc.start()
        try:
            build_patches(samples, 3, 3, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * alignment.BLOCK_ENTRIES * 8

    @pytest.mark.parametrize("kind", ["duplicates", "near-ties", "offset", "large", "huge", "tiny"])
    def test_stress_kinds_at_size(self, kind):
        # more rows than the Hypothesis problems and at most 9 neighbours per
        # group, so the filter drops most candidates; p > 8 takes numpy's
        # pairwise summation path
        if kind == "huge":  # SampleSet rejects data whose distances could overflow
            with pytest.raises(DataError, match="nonfinite entries or"):
                selector_problem(kind, 11, 90, 17, 3, False, kmax=9)
            return
        samples, k1, k2 = selector_problem(kind, 11, 90, 17, 3, False, kmax=9)
        got, want = patches_and_oracle(samples, k1, k2, 1.0)
        assert_edges_equal(got, want)

    @pytest.mark.parametrize("huge", [2**63, 10**20])
    @pytest.mark.parametrize("which", ["k1", "k2"])
    def test_counts_past_int64_clamp_like_n(self, which, huge):
        # a count no int64 holds clamps to the class, as any count past n does
        samples = random_samples(np.random.default_rng(4), 15, 3, 3)
        counts = {"k1": 2, "k2": 2}
        with pytest.warns(UserWarning, match="k1/k2 clamped for 15 of 15 samples"):
            got = build_patches(samples, **{**counts, which: huge}, kappa=0.5)
        with pytest.warns(UserWarning, match="k1/k2 clamped for 15 of 15 samples"):
            want = build_patches(samples, **{**counts, which: samples.n}, kappa=0.5)
        assert_edges_equal(got, want)

    @pytest.mark.parametrize("k1, k2", [(-1, 1), (1, -1)])
    def test_rejects_negative_counts(self, k1, k2):
        s = SampleSet(np.arange(5.0)[:, None], np.array([0, 0, 1, 1, 1]))
        with pytest.raises(DataError, match=f"need k1 >= 0 and k2 >= 0, got k1={k1} k2={k2}"):
            build_patches(s, k1, k2, 1.0)

    @pytest.mark.parametrize(
        "k1, k2, name",
        [(1.5, 1, "k1"), ("a", 1, "k1"), (1, 1.5, "k2"), (1, True, "k2"), (1, None, "k2")],
        ids=["fraction-k1", "text-k1", "fraction-k2", "bool-k2", "none-k2"],
    )
    def test_counts_must_be_ints(self, k1, k2, name):
        s = SampleSet(np.arange(5.0)[:, None], np.array([0, 0, 1, 1, 1]))
        with pytest.raises(DataError, match=f"{name} must be int") as info:
            build_patches(s, k1, k2, 1.0)
        assert info.value.stage == "config"

    @pytest.mark.parametrize(
        "kappa, message",
        [(np.nan, "kappa must be finite"), (-1.0, "kappa must be >= 0"),
         ("a", "kappa must be float")],
        ids=["nan", "negative", "text"],
    )
    def test_kappa_is_checked_as_the_config_checks_it(self, kappa, message):
        s = SampleSet(np.arange(5.0)[:, None], np.array([0, 0, 1, 1, 1]))
        with pytest.raises(DataError, match=message) as info:
            build_patches(s, 1, 1, kappa)
        assert info.value.stage == "config"

    def test_numpy_int_counts_are_ints(self):
        s = random_samples(np.random.default_rng(5), 12, 3, 3)
        assert_edges_equal(build_patches(s, np.int64(2), np.uint8(1), 0.5),
                           build_patches(s, 2, 1, 0.5))

    @pytest.mark.parametrize(
        "labels, k1, k2, message",
        [
            ([0, 0, 1, 1, 2], 3, 0, "sample 4: no usable neighbours (class size 1 of 5)"),
            ([0, 0, 1, 1, 1], 0, 0, "sample 0: no usable neighbours (class size 2 of 5)"),
        ],
        ids=["singleton-class", "zero-counts"],
    )
    def test_rejects_samples_without_neighbours(self, labels, k1, k2, message):
        # sample 4 is a class of one: k1 clamps to 0, and k2=0 leaves it nothing
        s = SampleSet(np.arange(5.0)[:, None], np.array(labels))
        with pytest.raises(DataError, match=re.escape(message)):
            build_patches(s, k1, k2, 1.0)


def patch_block(samples, patch):
    """The patch's own part matrix, read back from a one-patch alignment."""
    idx = [patch.centers[0], *patch.neighbours]
    return accumulate_alignment(samples, [patch])[np.ix_(idx, idx)]


class TestPartMatrix:
    def test_mixed_patch(self):
        s = SampleSet(np.arange(4.0).reshape(-1, 1), np.array([0, 0, 0, 1]))
        patch = build_patch(s, 0, k1=2, k2=1, kappa=0.5)
        expected = np.array(
            [
                [1.5, -1.0, -1.0, 0.5],
                [-1.0, 1.0, 0.0, 0.0],
                [-1.0, 0.0, 1.0, 0.0],
                [0.5, 0.0, 0.0, -0.5],
            ]
        )
        assert_array_equal(patch_block(s, patch), expected)

    def test_laplacian_edge(self):
        s = SampleSet(np.array([[0.0], [1.0]]), np.array([0, 0]))
        patch = build_patch(s, 0, k1=1, k2=0, kappa=7.3)
        assert_array_equal(patch_block(s, patch), np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_zero_sum_case(self):
        s = SampleSet(np.array([[0.0], [1.0], [2.0]]), np.array([0, 0, 1]))
        patch = build_patch(s, 0, k1=1, k2=1, kappa=1.0)
        expected = np.array([[0.0, -1.0, 1.0], [-1.0, 1.0, 0.0], [1.0, 0.0, -1.0]])
        assert_array_equal(patch_block(s, patch), expected)

    def test_symmetric_zero_row_sums(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = random_samples(rng, 12, 3, 3)
            i = int(rng.integers(0, 12))
            size = int(s.class_sizes()[s.labels[i]])
            patch = build_patch(
                s, i, min(2, size - 1), 3, float(rng.uniform(0, 2))
            )
            li = patch_block(s, patch)
            assert_array_equal(li, li.T)
            sums = li.sum(axis=1)
            # rows >= 1 cancel pairwise and are exact; row 0 re-accumulates
            # the kappa-weighted sum, so it is exact only to rounding
            assert_array_equal(sums[1:], np.zeros(li.shape[0] - 1))
            assert abs(sums[0]) <= 8 * np.finfo(float).eps * np.abs(li[0]).sum()


class TestAccumulateAlignment:
    def test_one_patch_scatter(self):
        s = SampleSet(np.array([[0.0], [1.0]]), np.array([0, 0]))
        patch = build_patch(s, 0, k1=1, k2=0, kappa=1.0)
        assert_array_equal(
            accumulate_alignment(s, [patch]), np.array([[1.0, -1.0], [-1.0, 1.0]])
        )

    def test_disjoint_patches_block_diagonal(self):
        s = SampleSet(np.array([[0.0], [1.0], [10.0], [11.0]]), np.array([0, 0, 1, 1]))
        patches = [
            build_patch(s, 0, k1=1, k2=0, kappa=1.0),
            build_patch(s, 2, k1=1, k2=0, kappa=1.0),
        ]
        block = np.array([[1.0, -1.0], [-1.0, 1.0]])
        expected = np.zeros((4, 4))
        expected[:2, :2] = block
        expected[2:, 2:] = block
        assert_array_equal(accumulate_alignment(s, patches), expected)

    def test_matches_dense_selection_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = random_samples(rng, 10, 4, 3)
            patches = random_patches(rng, s, kappa=float(rng.uniform(0, 2)))
            assert_allclose(
                accumulate_alignment(s, patches),
                dense_alignment(s.n, patches),
                atol=1e-12,
            )

    def test_out_of_range_patch(self):
        s = SampleSet(np.zeros((3, 1)) + np.arange(3)[:, None], np.array([0, 0, 1]))
        patch = build_patch(s, 0, 1, 1, 1.0)
        patch.neighbours[0] = 7
        with pytest.raises(DataError, match="outside"):
            accumulate_alignment(s, [patch])

    def test_out_of_range_center(self):
        s = SampleSet(np.arange(3.0)[:, None], np.array([0, 0, 1]))
        edges = Edges(np.array([0, 3]), np.array([1, 2]), np.array([1.0, -1.0]))
        with pytest.raises(DataError, match=r"center 3 references sample outside \[0, 3\)"):
            accumulate_alignment(s, [edges])

    def test_out_of_range_neighbour(self):
        s = SampleSet(np.arange(3.0)[:, None], np.array([0, 0, 1]))
        edges = Edges(np.array([0, 1]), np.array([1, 3]), np.array([1.0, -1.0]))
        with pytest.raises(DataError, match=r"center 1 references sample outside \[0, 3\)"):
            accumulate_alignment(s, [edges])

    @pytest.mark.parametrize("lengths", [(1, 2, 1), (2, 2, 1), (2, 1, 2)])
    def test_arrays_of_one_block_must_match(self, lengths):
        # np.add.at broadcasts its indices and values, so a short array
        # would be stretched over the others instead of refused
        s = SampleSet(np.arange(3.0)[:, None], np.array([0, 0, 1]))
        edges = Edges(*(np.zeros(k, dtype) for k, dtype in zip(lengths, (int, int, float))))
        with pytest.raises(DataError, match="an Edges block's arrays differ in shape"):
            accumulate_alignment(s, [edges])

    @pytest.mark.parametrize("edges, reason", [
        ([Edges(np.array([0.5]), np.array([1]), np.array([1.0]))], "integer centers"),
        ([Edges(np.array([0]), np.array([1.0]), np.array([1.0]))], "integer centers"),
        ([Edges(np.array([0]), np.array([1]), np.array(["a"]))], "real weights"),
        ([1, 2], "must be three arrays, got 1"),
        ([(np.array([0]), np.array([1]))], "must be three arrays"),
        (5, "must be three arrays, got 5"),
    ])
    def test_other_blocks_are_alignment_errors(self, edges, reason):
        # a float index raised np.add.at's IndexError, an int block and a
        # non-iterable edges a TypeError
        s = SampleSet(np.arange(3.0)[:, None], np.array([0, 0, 1]))
        with pytest.raises(DataError, match=reason) as info:
            accumulate_alignment(s, edges)
        assert info.value.stage == "alignment"

    def test_no_edges_give_zeros(self):
        s = SampleSet(np.arange(3.0)[:, None], np.array([0, 0, 1]))
        assert accumulate_alignment(s, []).tobytes() == np.zeros((3, 3)).tobytes()

    def test_negative_index_names_first_bad_center(self):
        s = SampleSet(np.arange(4.0)[:, None], np.array([0, 0, 1, 1]))
        patches = [build_patch(s, i, 1, 1, 1.0) for i in range(4)]
        patches[2].neighbours[1] = -1
        patches[3].neighbours[0] = 9
        with pytest.raises(DataError, match=r"center 2 references sample outside \[0, 4\)"):
            accumulate_alignment(s, patches)

    def test_pipeline_patches_match_dense_oracle_exactly(self):
        # kappa = 1 makes every entry a small integer, so the scatter and the
        # dense selection-matrix sum must agree bit for bit; class 0 is too
        # small for k1, so the pipeline's clamp rule shapes its patches
        rng = np.random.default_rng(5)
        labels = np.repeat(np.arange(4), [2, 6, 8, 8])
        for k1, k2 in [(3, 3), (5, 2), (2, 20)]:
            s = SampleSet(rng.normal(size=(labels.size, 4)), labels)
            with pytest.warns(UserWarning, match="clamped"):
                patches = build_patches(s, k1, k2, 1.0)
            assert_array_equal(accumulate_alignment(s, patches), dense_alignment(s.n, patches))

    def test_evaluate_face_alignment_bytes(self):
        # 60 classes of 4: k1 = 3 takes each sample's whole class
        s = evaluate_face_train()
        got = accumulate_alignment(s, build_patches(s, 3, 3, 1.0))
        assert got.tobytes() == accumulate_alignment(s, oracle_patches(s, 3, 3, 1.0)).tobytes()

    @pytest.mark.parametrize("kappa", [1.0, 0.37])
    def test_pipeline_patches_give_the_oracles_alignment_bytes(self, kappa):
        s = make_informative_classes(25, 30, [0, 3, 7], n_classes=4, separation=1.0, seed=8)
        # four classes of 25 leave k1=4 and k2=6 unclamped
        got = accumulate_alignment(s, build_patches(s, 4, 6, kappa))
        assert got.tobytes() == accumulate_alignment(s, oracle_patches(s, 4, 6, kappa)).tobytes()

    @pytest.mark.parametrize("rows_per_block", [1, 7, 64, None], ids=["1", "7", "64", "one-block"])
    def test_block_scatter_gives_the_concatenated_scatters_bytes(self, monkeypatch, rows_per_block):
        # a selection edge meets an off-diagonal entry of L at most twice,
        # once from each end, so the order of the blocks cannot round it
        s = make_informative_classes(25, 30, [0, 3, 7], n_classes=4, separation=1.0, seed=8)
        if rows_per_block:
            monkeypatch.setattr(alignment, "BLOCK_ENTRIES", rows_per_block * s.n)
        blocks = build_patches(s, 4, 6, 0.37)
        expected = concatenated_scatter(s.n, blocks).tobytes()
        assert accumulate_alignment(s, blocks).tobytes() == expected
        assert accumulate_alignment(s, oracle_patches(s, 4, 6, 0.37)).tobytes() == expected

    def test_scatters_each_block_as_it_is_yielded(self):
        # a bad block raises before the next one is asked for
        s = SampleSet(np.arange(6.0)[:, None], np.repeat([0, 1], 3))
        asked = []

        def patches():
            for i in range(s.n):
                asked.append(i)
                patch = build_patch(s, i, 1, 1, 1.0)
                if i == 2:
                    patch.neighbours[1] = s.n
                yield patch

        with pytest.raises(DataError, match=r"center 2 references sample outside \[0, 6\)"):
            accumulate_alignment(s, patches())
        assert asked == [0, 1, 2]

    @pytest.mark.parametrize("edges", ["blocks", "per-sample"])
    def test_peak_memory_is_l(self, edges):
        # one block's index and weight temporaries beside L, not copies of
        # every edge (1.10 n^2 doubles at n = 600 when they were concatenated)
        s = make_informative_classes(60, 200, range(0, 40, 4), n_classes=10, separation=1.0, seed=3)
        patches = build_patches(s, 3, 3, 1.0) if edges == "blocks" else oracle_patches(s, 3, 3, 1.0)
        tracemalloc.start()
        try:
            accumulate_alignment(s, patches)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.02 * s.n**2 * 8

    def test_patch_order_irrelevant(self):
        # any order of the edges, so of the patches too, scatters the same L
        rng = np.random.default_rng(6)
        s = SampleSet(rng.normal(size=(30, 3)), np.repeat(np.arange(3), 10))
        edges = concatenated(build_patches(s, 3, 3, 0.37))
        base = accumulate_alignment(s, [edges])
        for _ in range(3):
            order = rng.permutation(edges.centers.size)
            assert_array_equal(accumulate_alignment(s, [Edges(*(f[order] for f in edges))]), base)


class TestAlignmentProperties:
    def test_pull_only_is_positive_semidefinite(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            s = random_samples(rng, 14, 3, 2)
            sizes = s.class_sizes()
            patches = [
                build_patch(s, i, min(3, int(sizes[s.labels[i]]) - 1), 0, 0.0)
                for i in range(s.n)
            ]
            eigvals = np.linalg.eigvalsh(accumulate_alignment(s, patches))
            assert eigvals.min() >= -1e-10

    def test_diff_class_order_irrelevant(self):
        rng = np.random.default_rng(3)
        s = random_samples(rng, 12, 3, 3)
        patches = random_patches(rng, s)
        base = accumulate_alignment(s, patches)
        for patch in patches:
            other = patch.weights < 0  # kappa = 1: the other-class edges
            patch.neighbours[other] = patch.neighbours[other][::-1]
        assert_array_equal(accumulate_alignment(s, patches), base)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        s = random_samples(rng, 15, 4, 3)
        align = accumulate_alignment(s, random_patches(rng, s))
        assert np.abs(align - align.T).max() <= 1e-12
