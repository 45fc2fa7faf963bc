"""Ingestion, splits, 1-NN scoring, the protocol, and the exporters."""

import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from men.alignment import SampleSet
from men.config import MenConfig
from men.datasets import (
    ingest,
    make_face_like,
    make_informative_classes,
    read_pgm,
    write_pgm,
)
from men.errors import DataError
from men.evaluation import (
    SplitSpec,
    evaluate,
    export_bases,
    export_paths,
    nn_classify,
    path_csv_lines,
    split_indices,
)
from men.lars import solve_column
from men.pipeline import fit, project

from oracles import (
    dense_path_csv_lines,
    exhaustive_nn,
    fixed_block_nn,
    line_parser_csv,
    replay_path,
)
from test_cli import csv_edits, edited_csv
from test_lars import lasso_drop_problem, plain_problem, random_problem


FIT_CFG = MenConfig(alpha=0.01, kappa=0.5, lambda2=1.0, d=2, K=6, pca_retain=0)


class TestIngestCsv:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,0\n3,4,1\n")
        s = ingest(path)
        assert_allclose(s.data, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(s.labels, [0, 1])

    def test_ragged_row_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,0\n3,4\n")
        with pytest.raises(DataError, match="d.csv:2"):
            ingest(path)

    def test_bad_label_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,0\n3,4,x\n")
        with pytest.raises(DataError, match="d.csv:2"):
            ingest(path)

    @pytest.mark.parametrize(
        "content, message",
        [
            ("1\n2\n", "d.csv:1: need features plus a label column$"),
            ("1,2,0\nx,4,1\n", "d.csv:2: bad feature value"),
            ("\n  \n\n", "d.csv: no samples$"),
            ("1,2,0\n3,4,99999999999999999999999\n",
             "d.csv:2: bad label '99999999999999999999999'$"),
            ("1,2,0\n3,4,-9223372036854775809\n", "d.csv:2: bad label '-9223372036854775809'$"),
        ],
        ids=["label-only", "text-feature", "blank-lines", "label-past-int64", "label-below-int64"],
    )
    def test_malformed_csv_names_line(self, tmp_path, content, message):
        path = tmp_path / "d.csv"
        path.write_text(content)
        with pytest.raises(DataError, match=message):
            ingest(path)

    def test_int64_label_extremes(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,9223372036854775807\n3,4,-9223372036854775808\n")
        assert np.array_equal(ingest(path).labels, [1, 0])

    def test_noncompact_labels_remapped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,5\n3,4,9\n5,6,5\n")
        s = ingest(path)
        assert np.array_equal(s.labels, [0, 1, 0])

    def test_peak_memory_at_face_scale(self, tmp_path):
        # rows are parsed one at a time into float64 and land in one n x p
        # array that np.fromiter grows by about half at a time (1.26x here);
        # stacking a list of parsed rows took 2.06x, nested lists of floats 5.2x
        rng = np.random.default_rng(25)
        data = rng.random((400, 1600))
        path = tmp_path / "d.csv"
        path.write_text("".join(
            ",".join(map(repr, row)) + f",{i % 100}\n" for i, row in enumerate(data.tolist())
        ))
        tracemalloc.start()
        try:
            s = ingest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.data.tobytes() == data.tobytes()
        assert peak <= 1.6 * data.nbytes


    @pytest.mark.parametrize("name", ["images", "d.csv", "D.CSV", "list.txt"])
    def test_format_follows_path(self, tmp_path, name):
        for label, value in ((0, 7), (1, 9)):
            image = np.full((2, 2), value, dtype=np.uint8)
            write_pgm(tmp_path / f"img{label}.pgm", image)
            (tmp_path / "images" / f"c{label}").mkdir(parents=True)
            write_pgm(tmp_path / "images" / f"c{label}" / "a.pgm", image)
        (tmp_path / "d.csv").write_text("1,2,3\n4,5,8\n")
        (tmp_path / "D.CSV").write_text("1,2,3\n4,5,8\n")
        (tmp_path / "list.txt").write_text("img0.pgm,3\nimg1.pgm,8\n")
        s = ingest(tmp_path / name)
        assert np.array_equal(s.labels, [0, 1])
        assert s.p == (2 if name.lower() == "d.csv" else 4)

    def test_csv_without_csv_suffix_is_a_manifest(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("f0,f1,label\n1,2,0\n3,4,1\n")
        with pytest.raises(DataError, match="data.txt:1: bad label 'label'$"):
            ingest(path)


def _ingest_outcome(read, path):
    """The data and label bytes `read` makes of `path`, or its DataError message."""
    try:
        s = read(path)
    except DataError as exc:
        return str(exc)
    return s.data.shape, s.data.tobytes(), s.labels.tobytes()


@st.composite
def csv_texts(draw):
    """A small well-formed CSV of 2-4 fields a row, edited by `csv_edits`
    (edge fields, ragged rows, blank lines), under LF or CRLF line ends."""
    width = draw(st.integers(2, 4))
    rows = draw(st.lists(
        st.tuples(st.lists(st.floats(-1e3, 1e3).map(repr), min_size=width - 1,
                           max_size=width - 1), st.integers(0, 2).map(str)),
        min_size=1, max_size=8,
    ))
    text = "".join(",".join([*features, label]) + "\n" for features, label in rows)
    return edited_csv(text, draw(csv_edits)).replace("\n", draw(st.sampled_from(["\n", "\r\n"])))


@settings(max_examples=300, deadline=None)
@given(csv_texts())
@example("1,0\r\n\r\n  \r\n2,1\r\n")
@example(" 1.5 ,1_0,0\n2,3,1\n")
@example("0x10,0\n1,1\n")
@example("1,,0\n1,2,1\n")
@example("nan,0\n1,1\n")
@example("1e400,0\n1,1\n")
@example("1e308,0\n-1e308,1\n")
@example("1,9223372036854775808\n2,0\n")
@example("1,1.0\n2,0\n")
@example("1,2,0\n3,1\n")
@example("\n  \n")
@example("1\n2\n")
@example("1,0\n2,1")
def test_ingest_csv_matches_line_parser(text):
    # the row-at-a-time float64 reader against lists of Python floats: the
    # same data and label bytes, or the same DataError message
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _ingest_outcome(lambda f: SampleSet.compacted(*line_parser_csv(f)), path)
        assert _ingest_outcome(ingest, path) == expected


class TestGraymaps:
    def test_roundtrip(self, tmp_path):
        image = np.arange(12, dtype=np.uint8).reshape(3, 4)
        write_pgm(tmp_path / "i.pgm", image)
        assert np.array_equal(read_pgm(tmp_path / "i.pgm"), image)

    def test_flatten_and_scale(self, tmp_path):
        image = np.array([[0, 255], [255, 0]], dtype=np.uint8)
        class_dir = tmp_path / "c0"
        class_dir.mkdir()
        write_pgm(class_dir / "a.pgm", image)
        write_pgm(class_dir / "b.pgm", image)
        (tmp_path / "c1").mkdir()
        write_pgm(tmp_path / "c1" / "a.pgm", 255 - image)
        s = ingest(tmp_path)
        assert_allclose(s.data[0], [0.0, 1.0, 1.0, 0.0])
        assert np.array_equal(s.labels, [0, 0, 1])

    def test_forty_by_forty_dimension(self, tmp_path):
        rng = np.random.default_rng(0)
        for k in range(2):
            d = tmp_path / f"class{k}"
            d.mkdir()
            for i in range(2):
                write_pgm(
                    d / f"{i}.pgm",
                    rng.integers(0, 256, size=(40, 40)).astype(np.uint8),
                )
        s = ingest(tmp_path)
        assert s.p == 1600

    def test_manifest(self, tmp_path):
        image = np.full((2, 2), 7, dtype=np.uint8)
        write_pgm(tmp_path / "img0.pgm", image)
        write_pgm(tmp_path / "img1.pgm", image + 1)
        manifest = tmp_path / "list.txt"
        manifest.write_text("img0.pgm,3\nimg1.pgm,8\n")
        s = ingest(manifest)
        assert np.array_equal(s.labels, [0, 1])

    def test_manifest_bad_label(self, tmp_path):
        write_pgm(tmp_path / "img0.pgm", np.zeros((2, 2), dtype=np.uint8))
        manifest = tmp_path / "list.txt"
        manifest.write_text("img0.pgm,notanint\n")
        with pytest.raises(DataError, match="list.txt:1"):
            ingest(manifest)

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"P5\n2 2\n255", "truncated pixel data"),
            (b"P5\n-2 -2\n255\n\x00\x00\x00\x00", "bad graymap size -2x-2"),
            (b"P5\n100000 100000\n255\n\x00\x00\x00\x00", "truncated pixel data"),
            (b"P6\n2 2\n255\n\x00\x00\x00\x00", "not a binary graymap"),
            (b"P5\n2 2", "truncated graymap header"),
            (b"P5\nwide 2\n255\n\x00\x00\x00\x00", "bad graymap header"),
            (b"P5\n2 2\n65535\n" + bytes(8), r"only 8-bit graymaps supported \(maxval 65535\)"),
        ],
        ids=[
            "ends-after-maxval", "negative-size", "short-pixel-block", "no-magic",
            "ends-in-header", "text-size", "16-bit",
        ],
    )
    def test_malformed_graymap_names_path(self, tmp_path, content, reason):
        (tmp_path / "bad.pgm").write_bytes(content)
        with pytest.raises(DataError, match=f"bad.pgm: {reason}"):
            read_pgm(tmp_path / "bad.pgm")

    def test_header_comment_is_skipped(self, tmp_path):
        (tmp_path / "c.pgm").write_bytes(b"P5\n# made by hand\n2 1 # width, height\n255\n\x07\x09")
        assert np.array_equal(read_pgm(tmp_path / "c.pgm"), [[7, 9]])

    def test_write_rejects_non_2d(self, tmp_path):
        with pytest.raises(DataError, match=r"graymap image must be 2-D, got shape \(4,\)"):
            write_pgm(tmp_path / "v.pgm", np.zeros(4, dtype=np.uint8))

    @pytest.mark.parametrize(
        "name, message",
        [
            ("flat", "flat: no class subdirectories$"),
            ("classes", "c1: empty class directory$"),
            ("nocomma.txt", "nocomma.txt:2: expected image-path,label$"),
            ("comments.txt", "comments.txt: no entries$"),
            ("big.txt", "big.txt:1: bad label '99999999999999999999999'$"),
        ],
        ids=["no-class-dirs", "empty-class-dir", "manifest-without-comma",
             "manifest-of-comments", "manifest-label-past-int64"],
    )
    def test_malformed_image_inputs_named(self, tmp_path, name, message):
        write_pgm(tmp_path / "img.pgm", np.zeros((2, 2), dtype=np.uint8))
        (tmp_path / "flat").mkdir()
        write_pgm(tmp_path / "flat" / "img.pgm", np.zeros((2, 2), dtype=np.uint8))
        (tmp_path / "classes" / "c0").mkdir(parents=True)
        (tmp_path / "classes" / "c1").mkdir()
        write_pgm(tmp_path / "classes" / "c0" / "a.pgm", np.zeros((2, 2), dtype=np.uint8))
        (tmp_path / "nocomma.txt").write_text("img.pgm,0\nimg.pgm 1\n")
        (tmp_path / "comments.txt").write_text("# no images yet\n\n# still none\n")
        (tmp_path / "big.txt").write_text("img.pgm,99999999999999999999999\nimg.pgm,0\n")
        with pytest.raises(DataError, match=message):
            ingest(tmp_path / name)

    def test_mismatched_shapes(self, tmp_path):
        d = tmp_path / "c0"
        d.mkdir()
        write_pgm(d / "a.pgm", np.zeros((2, 2), dtype=np.uint8))
        write_pgm(d / "b.pgm", np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(DataError, match="shape"):
            ingest(tmp_path)


class TestSplits:
    def test_sizes_and_reproducibility(self):
        s = make_informative_classes(10, 6, [0, 1, 2], n_classes=3, seed=1)
        spec = SplitSpec(per_class_train=6, seed=42, repeats=2)
        tr1, te1 = split_indices(s, spec, 0)
        tr2, te2 = split_indices(s, spec, 0)
        assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)
        assert len(tr1) == 18 and len(te1) == 12
        assert np.array_equal(np.sort(np.concatenate([tr1, te1])), np.arange(30))
        tr3, _ = split_indices(s, spec, 1)
        assert not np.array_equal(tr1, tr3)

    def test_train_too_large(self):
        s = make_informative_classes(5, 6, [0, 1, 2], n_classes=3, seed=2)
        with pytest.raises(DataError, match="per_class_train") as info:
            split_indices(s, SplitSpec(per_class_train=5), 0)
        assert info.value.stage == "config"


class TestNnClassify:
    def test_exact_match_wins(self):
        train = np.array([[0.0, 0.0], [5.0, 5.0]])
        labels = np.array([0, 1])
        assert nn_classify(train, labels, np.array([[5.0, 5.0]]))[0] == 1

    def test_self_test_is_perfect(self):
        rng = np.random.default_rng(3)
        embed = rng.normal(size=(20, 3))
        labels = rng.integers(0, 4, 20)
        assert np.array_equal(nn_classify(embed, labels, embed), labels)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(4)
        train = rng.normal(size=(30, 4))
        labels = rng.integers(0, 3, 30)
        test = rng.normal(size=(25, 4))
        assert np.array_equal(
            nn_classify(train, labels, test), exhaustive_nn(train, labels, test)
        )

    @pytest.mark.parametrize("n_train, d", [(200, 30), (7, 1), (3000, 50)])
    def test_matches_fixed_block_loop(self, n_train, d):
        # blocks sized by bytes give the labels of the fixed 256-row loop,
        # ties included: a row's distances do not depend on its block
        rng = np.random.default_rng(n_train)
        train = rng.integers(-3, 4, size=(n_train, d)).astype(np.float64)
        labels = rng.integers(0, 9, n_train)
        test = np.vstack([rng.integers(-3, 4, size=(600, d)), train[:50]]).astype(np.float64)
        expected = fixed_block_nn(train, labels, test)
        assert np.array_equal(nn_classify(train, labels, test), expected)

    def test_peak_memory_bounded(self):
        # a block's difference array holds at most 2^17 doubles (1 MB) or one
        # test row, here 0.8 MB, and is dropped before the next block's is
        # made (0.84 MiB in all; 1.60 MiB with two blocks alive). 256-row
        # blocks took 205 MB here
        rng = np.random.default_rng(12)
        train = rng.normal(size=(1000, 100))
        test = rng.normal(size=(300, 100))
        labels = rng.integers(0, 10, 1000)
        tracemalloc.start()
        try:
            nn_classify(train, labels, test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2**20

    def test_tie_smallest_index(self):
        train = np.array([[1.0], [1.0]])
        labels = np.array([1, 0])
        assert nn_classify(train, labels, np.array([[1.0]]))[0] == 1

    def test_width_mismatch_error(self):
        with pytest.raises(DataError, match="embedding dimensions differ: train 2, test 3"):
            nn_classify(np.zeros((2, 2)), np.zeros(2, dtype=int), np.zeros((1, 3)))

    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 0, 1], [[0, 1, 0]]],
                             ids=["fewer", "more", "2-d"])
    def test_label_count_must_match_training_rows(self, labels):
        with pytest.raises(DataError, match=re.escape(f"{np.shape(labels)} train labels for 3")):
            # the test rows sit on the last training row, past the shorter list's end
            nn_classify(np.arange(6.0).reshape(3, 2), np.array(labels), np.full((5, 2), [4.0, 5.0]))

    def test_empty_training_error(self):
        with pytest.raises(DataError, match="empty"):
            nn_classify(np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros((1, 2)))


class TestEvaluate:
    def test_matches_manual_composition(self):
        s = make_informative_classes(12, 8, [0, 1, 2], n_classes=3, separation=1.0, seed=5)
        spec = SplitSpec(per_class_train=8, seed=7, repeats=1)
        result = evaluate(s, FIT_CFG, spec, [2])
        train_idx, test_idx = split_indices(s, spec, 0)
        train = s.subset(train_idx)
        model, _ = fit(train, replace(FIT_CFG, d=2))
        pred = nn_classify(
            project(model, train),
            s.labels[train_idx],
            project(model, s.subset(test_idx)),
        )
        manual = float(np.mean(pred == s.labels[test_idx]))
        assert result.rates[0, 0] == pytest.approx(manual)

    def test_separable_dataset_rate(self):
        s = make_informative_classes(20, 12, [0, 2, 4], n_classes=3, separation=1.5, seed=6)
        result = evaluate(s, FIT_CFG, SplitSpec(per_class_train=10, seed=0, repeats=3), [1, 2])
        assert result.mean_rates[-1] >= 0.95
        assert result.best_dim in (1, 2)

    def test_reproducible(self):
        s = make_informative_classes(10, 8, [0, 1, 2], n_classes=3, seed=8)
        spec = SplitSpec(per_class_train=6, seed=3, repeats=2)
        r1 = evaluate(s, FIT_CFG, spec, [1, 2])
        r2 = evaluate(s, FIT_CFG, spec, np.array([1, 2]))  # numpy ints are taken as ints
        assert np.array_equal(r1.rates, r2.rates)
        assert [type(d) for d in r2.dim_grid] == [int, int]

    def test_empty_grid(self):
        s = make_informative_classes(6, 6, [0, 1], n_classes=2, seed=9)
        with pytest.raises(DataError, match="dim_grid"):
            evaluate(s, FIT_CFG, SplitSpec(per_class_train=3), [])

    @pytest.mark.parametrize(
        "entry", [1.5, np.float64(2.7), True, "a"], ids=["fraction", "numpy-float", "bool", "text"]
    )
    def test_grid_entries_must_be_ints(self, entry):
        s = make_informative_classes(6, 6, [0, 1], n_classes=2, seed=9)
        with pytest.raises(DataError, match="dim_grid must be int") as info:
            evaluate(s, FIT_CFG, SplitSpec(per_class_train=3), [1, entry])
        assert info.value.stage == "config"

    @pytest.mark.parametrize("grid", [5, np.int64(5), np.array(5)], ids=["int", "numpy-int", "0-d"])
    def test_grid_must_be_iterable(self, grid):
        s = make_informative_classes(6, 6, [0, 1], n_classes=2, seed=9)
        with pytest.raises(DataError, match="dim_grid must be an iterable of ints") as info:
            evaluate(s, FIT_CFG, SplitSpec(per_class_train=3), grid)
        assert info.value.stage == "config"

    def test_huge_repeats_reach_the_first_fit(self):
        # no repeats x len(dim_grid) buffer: the first fit's indicator error is what surfaces
        s = make_informative_classes(6, 6, [0, 1], n_classes=2, seed=9)
        spec = SplitSpec(per_class_train=3, repeats=10**20)
        with pytest.raises(DataError, match="d=3 exceeds the numerical rank 2") as info:
            evaluate(s, replace(FIT_CFG, k1=2, k2=2), spec, [1, 3])
        assert info.value.stage == "indicator"

    def test_boxplot_five_numbers(self):
        s = make_informative_classes(10, 8, [0, 1, 2], n_classes=3, seed=10)
        result = evaluate(s, FIT_CFG, SplitSpec(per_class_train=6, seed=1, repeats=4), [1, 2])
        assert result.boxplot.shape == (2, 5)
        for gi in range(2):
            column = result.rates[:, gi]
            assert result.boxplot[gi, 0] == column.min()
            assert result.boxplot[gi, 4] == column.max()
            assert result.boxplot[gi, 2] == np.percentile(column, 50)


class TestExportBases:
    def _model(self, tmp_path, **overrides):
        s = make_informative_classes(8, 16, [0, 1, 2], n_classes=3, seed=11)
        model, report = fit(s, replace(FIT_CFG, **overrides))
        return model, report

    def test_constant_column_mid_gray(self, tmp_path):
        model, _ = self._model(tmp_path)
        model.values[:, 0] = 3.7
        paths = export_bases(model, (4, 4), tmp_path / "bases")
        image = read_pgm(paths[0])
        assert np.all(image == 128)

    def test_one_hot_column(self, tmp_path):
        model, _ = self._model(tmp_path)
        model.values[:, 0] = 0.0
        model.values[5, 0] = 1.0
        image = read_pgm(export_bases(model, (4, 4), tmp_path / "b")[0])
        flat = image.reshape(-1)
        assert flat[5] == 255
        assert np.all(np.delete(flat, 5) == 0)

    def test_support_coincides(self, tmp_path):
        model, _ = self._model(tmp_path)
        image = read_pgm(export_bases(model, (4, 4), tmp_path / "b")[0]).reshape(-1)
        column = model.values[:, 0]
        zero_level = np.round((0.0 - column.min()) / (column.max() - column.min()) * 255)
        nonzero_pixels = set(np.flatnonzero(image != zero_level))
        assert nonzero_pixels <= set(np.flatnonzero(column != 0))
        assert nonzero_pixels  # something is visible

    def test_quantization_roundtrip(self, tmp_path):
        model, _ = self._model(tmp_path)
        column = model.values[:, 1].copy()
        image = read_pgm(export_bases(model, (4, 4), tmp_path / "b")[1]).reshape(-1)
        low, high = column.min(), column.max()
        recovered = image / 255.0 * (high - low) + low
        assert np.abs(recovered - column).max() <= (high - low) / 255.0 * 0.5 + 1e-12

    def test_shape_mismatch(self, tmp_path):
        model, _ = self._model(tmp_path)
        with pytest.raises(DataError, match="shape"):
            export_bases(model, (5, 5), tmp_path / "b")

    def test_raw_space_with_pca(self, tmp_path):
        s = make_face_like(4, n_classes=3, side=8, seed=12)
        model, _ = fit(s, MenConfig(alpha=0.01, kappa=0.5, lambda2=1.0, d=2, K=4))
        paths = export_bases(model, (8, 8), tmp_path / "b")
        assert len(paths) == 2
        assert read_pgm(paths[0]).shape == (8, 8)


class TestExportPaths:
    def test_k_one_two_rows(self, tmp_path):
        s = make_informative_classes(8, 10, [0, 1, 2], n_classes=3, seed=13)
        _, report = fit(s, replace(FIT_CFG, d=1, K=1))
        out = export_paths(report, tmp_path)
        lines = out[0].read_text().strip().splitlines()
        assert len(lines) == 3  # header, init row, one enter row
        assert lines[1].split(",")[1] == "init"
        assert lines[2].split(",")[1] == "enter"

    def test_l1_column_consistent(self, tmp_path):
        s = make_informative_classes(8, 10, [0, 1, 2], n_classes=3, seed=14)
        _, report = fit(s, replace(FIT_CFG, d=2, K=5))
        for cpath in report.paths:
            for line in path_csv_lines(cpath)[1:]:
                fields = line.split(",")
                l1 = float(fields[3])
                coeffs = np.array([float(v) for v in fields[5:]])
                assert abs(np.abs(coeffs).sum() - l1) <= 1e-12

    def test_replay_reproduces_final(self, tmp_path):
        s = make_informative_classes(8, 10, [0, 1, 2], n_classes=3, seed=15)
        model, report = fit(s, replace(FIT_CFG, d=1, K=6))
        cpath = report.paths[0]
        final = replay_path(cpath)
        assert_allclose(final, cpath.final_coefficients(), atol=1e-10)

    @pytest.mark.parametrize("kind", ["drops", "budget", "init-only"])
    def test_lines_match_dense_formatter(self, kind):
        if kind == "drops":
            _, path = solve_column(lasso_drop_problem(), 13)
            assert any(bp.event == "drop" for bp in path.breakpoints)
        elif kind == "budget":
            _, path = solve_column(random_problem(np.random.default_rng(5), 20, 12), 4)
            assert [bp.event for bp in path.breakpoints] == ["init"] + ["enter"] * 4
        else:
            _, path = solve_column(plain_problem(np.eye(3), np.zeros(3)), 3)
            assert len(path.breakpoints) == 1
        assert path_csv_lines(path) == dense_path_csv_lines(path)

    def test_coefficients_zero_before_enter(self, tmp_path):
        s = make_informative_classes(8, 10, [0, 1, 2], n_classes=3, seed=16)
        _, report = fit(s, replace(FIT_CFG, d=1, K=6))
        rows = path_csv_lines(report.paths[0])[1:]
        seen = set()
        for line in rows:
            fields = line.split(",")
            event, variable = fields[1], int(fields[2])
            coeffs = [float(v) for v in fields[5:]]
            for j in range(len(coeffs)):
                if j not in seen and not (event == "enter" and variable == j):
                    assert coeffs[j] == 0.0
            if event == "enter":
                seen.add(variable)
