"""Command-line behaviour: exit codes, outputs, determinism."""

import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from men.cli import main
from men.config import MenConfig
from men.datasets import make_informative_classes
from men.errors import NumericalError
from men.evaluation import SplitSpec, nn_classify
from men.model_io import load_model, save_model
from men.pipeline import project

from test_pipeline import cli_face_fit


CONFIG = """# test configuration
alpha=0.01
kappa=0.5
lambda2=1.0
d=2
K=4
pca_retain=0
per_class_train=6
repeats=2
seed=0
dim_grid=1,2
"""


def write_dataset(path, seed=3, n_per_class=10, p=8):
    s = make_informative_classes(n_per_class, p, [0, 1, 2], n_classes=3, separation=1.0, seed=seed)
    lines = [
        ",".join(repr(float(v)) for v in row) + f",{label}"
        for row, label in zip(s.data, s.labels)
    ]
    path.write_text("\n".join(lines) + "\n")
    return s


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "data.csv"
    config = tmp_path / "men.cfg"
    write_dataset(data)
    config.write_text(CONFIG)
    return tmp_path, data, config


class TestFitCommand:
    def test_writes_model_and_report(self, workspace, capsys):
        tmp, data, config = workspace
        rc = main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp / "model.men"), "--out", str(tmp / "report"),
        ])
        assert rc == 0
        model = load_model(tmp / "model.men")
        assert model.values.shape[1] == 2
        assert all(nz <= 4 for nz in model.sparsity)
        report = tmp / "report"
        assert (report / "path_col000.csv").is_file()
        assert (report / "path_col001.csv").is_file()
        assert (report / "objective_trace.csv").is_file()
        assert (report / "column_angles.csv").is_file()
        assert (report / "model.txt").is_file()
        assert "model=" in capsys.readouterr().out

    def test_unknown_config_key(self, workspace, capsys):
        tmp, data, config = workspace
        config.write_text(CONFIG + "bogus_key=1\n")
        rc = main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp / "m.men"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage=")
        assert "bogus_key" in err
        assert "\n" not in err.strip()

    @pytest.mark.parametrize(
        "line, named",
        [
            (b"bogus_key=1", "bogus_key"),
            (b"alpha=abc", "alpha"),
            (b"alpha 2", "key=value"),
            (b"alpha=\xff", "UTF-8"),
            (b"kappa=-1", "kappa must be >= 0"),
            (b"lambda1=none", "unknown config key: lambda1"),
        ],
        ids=[
            "unknown-key", "bad-value", "missing-equals", "not-utf8", "negative-kappa",
            "retired-lambda1",
        ],
    )
    def test_config_errors_exit_one(self, workspace, capsys, line, named):
        tmp, data, config = workspace
        config.write_bytes(CONFIG.encode() + line + b"\n")
        rc = main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp / "m.men"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage=config ")
        assert named in err
        assert "\n" not in err.strip()
        assert not (tmp / "m.men").exists()

    @pytest.mark.parametrize("key", ["k1", "k2"])
    def test_counts_past_int64_clamp(self, workspace, key):
        # 10**20 clamps as a count of n = 30 does: with a warning, to the same model
        tmp, data, config = workspace
        for name, value in (("huge", 10**20), ("n", 30)):
            config.write_text(CONFIG + f"{key}={value}\n")
            with pytest.warns(UserWarning, match="k1/k2 clamped"):
                rc = main([
                    "fit", "--data", str(data), "--config", str(config),
                    "--model", str(tmp / f"{name}.men"), "--out", str(tmp / f"{name}.report"),
                ])
            assert rc == 0
        assert np.array_equal(load_model(tmp / "huge.men").values, load_model(tmp / "n.men").values)

    def test_byte_identical_reruns(self, workspace):
        tmp, data, config = workspace
        for name in ("a", "b"):
            rc = main([
                "fit", "--data", str(data), "--config", str(config),
                "--model", str(tmp / f"{name}.men"), "--out", str(tmp / f"{name}.report"),
            ])
            assert rc == 0
        assert (tmp / "a.men").read_bytes() == (tmp / "b.men").read_bytes()
        for f in sorted((tmp / "a.report").iterdir()):
            assert f.read_bytes() == (tmp / "b.report" / f.name).read_bytes()

    def test_override_flags(self, workspace):
        tmp, data, config = workspace
        rc = main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp / "m.men"), "--d", "1", "--K", "2",
        ])
        assert rc == 0
        model = load_model(tmp / "m.men")
        assert model.values.shape[1] == 1
        assert model.sparsity[0] <= 2

    def test_missing_data_file(self, workspace, capsys):
        tmp, _, config = workspace
        rc = main([
            "fit", "--data", str(tmp / "absent.csv"), "--config", str(config),
            "--model", str(tmp / "m.men"),
        ])
        assert rc == 1
        assert "no such file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, config, error",
        [
            ("big.csv", "men.cfg", "stage=input reason={tmp}/big.csv:2: bad label '{big}'"),
            ("big.txt", "men.cfg", "stage=input reason={tmp}/big.txt:1: bad label '{big}'"),
            ("data.csv", "missing.cfg",
             "stage=config reason=config file not found: {tmp}/missing.cfg"),
        ],
        ids=["csv-label-past-int64", "manifest-label-past-int64", "missing-config"],
    )
    def test_input_errors_name_their_place(self, workspace, capsys, data, config, error):
        tmp, _, _ = workspace
        big = "99999999999999999999999"
        (tmp / "big.csv").write_text(f"1,2,0\n3,4,{big}\n")
        (tmp / "big.txt").write_text(f"a.pgm,{big}\nb.pgm,0\n")
        rc = main([
            "fit", "--data", str(tmp / data), "--config", str(tmp / config),
            "--model", str(tmp / "out" / "m.men"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {error.format(tmp=tmp, big=big)}\n"
        assert not (tmp / "out").exists()

    def test_numerical_failure_exits_two(self, workspace, capsys, monkeypatch):
        import men.cli as cli_module
        from men.errors import NumericalError

        def explode(*args, **kwargs):
            raise NumericalError("synthetic breakdown", stage="solve")

        monkeypatch.setattr(cli_module, "fit", explode)
        tmp, data, config = workspace
        rc = main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp / "m.men"),
        ])
        assert rc == 2
        assert "stage=solve" in capsys.readouterr().err


    def test_empty_spectrum_exits_two(self, workspace, capsys):
        tmp, data, config = workspace
        config.write_text(CONFIG + "eig_floor=2.0\n")
        rc = main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp / "m.men"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: stage=transform ")
        assert not (tmp / "m.men").exists()

    def test_nonfinite_config_exits_one(self, workspace, capsys):
        tmp, data, config = workspace
        config.write_text(CONFIG + "alpha=nan\n")
        rc = main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp / "m.men"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage=config ")
        assert "alpha must be finite" in err


class TestProjectCommand:
    def test_matches_library(self, workspace):
        tmp, data, config = workspace
        samples = write_dataset(data)  # rewrite to get the SampleSet back
        main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp / "m.men"),
        ])
        rc = main([
            "project", "--model", str(tmp / "m.men"), "--data", str(data),
            "--out", str(tmp / "embed.csv"),
        ])
        assert rc == 0
        rows = [
            [float(v) for v in line.split(",")]
            for line in (tmp / "embed.csv").read_text().strip().splitlines()
        ]
        expected = project(load_model(tmp / "m.men"), samples)
        assert_allclose(np.asarray(rows), expected, atol=0)

    def test_self_projection_nn_is_perfect(self, workspace):
        tmp, data, config = workspace
        samples = write_dataset(data)
        main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp / "m.men"),
        ])
        main([
            "project", "--model", str(tmp / "m.men"), "--data", str(data),
            "--out", str(tmp / "e.csv"),
        ])
        embed = np.asarray([
            [float(v) for v in line.split(",")]
            for line in (tmp / "e.csv").read_text().strip().splitlines()
        ])
        predicted = nn_classify(embed, samples.labels, embed)
        assert np.array_equal(predicted, samples.labels)

    def test_feature_mismatch_exit_one(self, workspace, capsys):
        tmp, data, config = workspace
        main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp / "m.men"),
        ])
        other = tmp / "wider.csv"
        write_dataset(other, p=9)
        rc = main([
            "project", "--model", str(tmp / "m.men"), "--data", str(other),
            "--out", str(tmp / "e.csv"),
        ])
        assert rc == 1
        assert "dimension" in capsys.readouterr().err


    def test_corrupt_model_exits_one(self, workspace, capsys):
        tmp, data, config = workspace
        main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp / "m.men"),
        ])
        raw = bytearray((tmp / "m.men").read_bytes())
        raw[12:20] = b"\xff" * 8  # invalid UTF-8 inside the config block
        (tmp / "m.men").write_bytes(bytes(raw))
        rc = main([
            "project", "--model", str(tmp / "m.men"), "--data", str(data),
            "--out", str(tmp / "e.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage=model ")
        assert "\n" not in err.strip()

    def test_men1_model_exits_one(self, workspace, capsys):
        tmp, data, config = workspace
        main(["fit", "--data", str(data), "--config", str(config), "--model", str(tmp / "m.men")])
        (tmp / "old.men").write_bytes(b"MEN1" + (tmp / "m.men").read_bytes()[4:])
        rc = main([
            "project", "--model", str(tmp / "old.men"), "--data", str(data),
            "--out", str(tmp / "e.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage=model ") and "MEN1" in err
        assert len(err.splitlines()) == 1
        assert not (tmp / "e.csv").exists()

    def test_peak_memory_at_cli_face_scale(self, tmp_path, capsys):
        # the model holds the 1600 x 5 projection, so the CSV read (1.2x the
        # 5.1 MB data) is the peak; beside a stored basis it was 12.6 MB
        samples, model = cli_face_fit()
        save_model(model, tmp_path / "m.men")
        rows = zip(samples.data.tolist(), samples.labels.tolist())
        (tmp_path / "data.csv").write_text(
            "".join(",".join(map(repr, row)) + f",{label}\n" for row, label in rows)
        )
        argv = ["project", "--model", str(tmp_path / "m.men"),
                "--data", str(tmp_path / "data.csv"), "--out", str(tmp_path / "e.csv")]
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0, capsys.readouterr().err
        assert peak <= 7e6


class TestFileSystemFaults:
    @pytest.mark.parametrize(
        "argv",
        [
            ["project", "--model", "{tmp}/nope.men", "--data", "{data}", "--out", "{tmp}/e.csv"],
            ["export-bases", "--model", "{tmp}/nope.men", "--out", "{tmp}/b"],
            ["project", "--model", "{tmp}/adir", "--data", "{data}", "--out", "{tmp}/e.csv"],
            ["fit", "--data", "{data}", "--config", "{config}", "--model", "{tmp}/adir"],
            ["project", "--model", "{tmp}/m.men", "--data", "{data}", "--out", "{tmp}/adir"],
            ["fit", "--data", "{tmp}/latin1.csv", "--model", "{tmp}/x.men"],
            ["fit", "--data", "{tmp}/manifest.txt", "--model", "{tmp}/x.men"],
            ["fit", "--data", "{tmp}/images", "--model", "{tmp}/x.men"],
        ],
        ids=[
            "project-missing-model", "export-bases-missing-model", "project-model-dir",
            "fit-model-dir", "project-out-dir", "non-utf8-csv", "manifest-missing-image",
            "malformed-graymap",
        ],
    )
    def test_exits_one_with_one_error_line(self, workspace, capsys, argv):
        tmp, data, config = workspace
        main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp / "m.men"),
        ])
        (tmp / "adir").mkdir()
        (tmp / "latin1.csv").write_bytes(b"0.5,1.0,0\n\xe9t\xe9,2.0,1\n")
        (tmp / "manifest.txt").write_text("absent.pgm,0\nabsent2.pgm,1\n")
        for label in ("c0", "c1"):
            (tmp / "images" / label).mkdir(parents=True)
            (tmp / "images" / label / "a.pgm").write_bytes(b"P5\n2 2\n255")
        capsys.readouterr()
        rc = main([a.format(tmp=tmp, data=data, config=config) for a in argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage=") and " reason=" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "outputs",
        [
            ["--model", "{tmp}/adir"],
            ["--model", "{tmp}/m.men", "--out", "{tmp}/afile"],
            ["--model", "{tmp}/afile/m.men"],
            ["--model", "{tmp}/m.men", "--out", "{tmp}/afile/report"],
        ],
        ids=["fit-model-dir", "fit-out-file", "model-parent-is-file", "report-parent-is-file"],
    )
    def test_fit_refuses_unwritable_outputs_before_fitting(
        self, workspace, capsys, monkeypatch, outputs
    ):
        import men.cli as cli_module

        def never(*args, **kwargs):
            raise AssertionError("fit ran although its outputs cannot be written")

        monkeypatch.setattr(cli_module, "fit", never)
        tmp, data, config = workspace
        (tmp / "adir").mkdir()
        (tmp / "afile").write_text("")
        argv = ["fit", "--data", str(data), "--config", str(config)] + outputs
        rc = main([a.format(tmp=tmp) for a in argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage=io reason=")
        assert err.count("\n") == 1
        assert not (tmp / "m.men").exists()

    def test_project_refuses_unwritable_output_before_reading(self, workspace, capsys, monkeypatch):
        import men.cli as cli_module

        def never(*args, **kwargs):
            raise AssertionError("input read although the output cannot be written")

        monkeypatch.setattr(cli_module, "load_model", never)
        monkeypatch.setattr(cli_module, "ingest", never)
        tmp, data, _ = workspace
        (tmp / "afile").write_text("")
        rc = main([
            "project", "--model", str(tmp / "m.men"), "--data", str(data),
            "--out", str(tmp / "afile" / "e.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage=io reason=")
        assert err.count("\n") == 1

    def test_failed_ingest_leaves_no_directories(self, tmp_path, capsys):
        rc = main([
            "fit", "--data", str(tmp_path / "missing.csv"),
            "--model", str(tmp_path / "out" / "deep" / "m.men"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: stage=input reason=")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--data", "{tmp}/missing.csv", "--out", "{tmp}/afile/sub"],
            ["evaluate", "--data", "{data}", "--config", "{config}", "--out", "{tmp}/afile/sub"],
            ["export-paths", "--data", "{tmp}/missing.csv", "--out", "{tmp}/afile/sub"],
            ["export-bases", "--model", "{tmp}/missing.men", "--out", "{tmp}/afile/sub"],
        ],
        ids=["evaluate-missing-data", "evaluate", "export-paths", "export-bases"],
    )
    def test_refuses_unwritable_out_before_reading(self, workspace, capsys, monkeypatch, argv):
        import men.cli as cli_module

        def never(*args, **kwargs):
            raise AssertionError("input read although the output cannot be written")

        monkeypatch.setattr(cli_module, "load_model", never)
        monkeypatch.setattr(cli_module, "ingest", never)
        tmp, data, config = workspace
        (tmp / "afile").write_text("")
        rc = main([a.format(tmp=tmp, data=data, config=config) for a in argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage=io reason=")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, stage",
        [
            (["evaluate", "--data", "{tmp}/missing.csv", "--out", "{tmp}/out/deep"], "input"),
            (["evaluate", "--data", "{tmp}/missing.csv", "--config", "{tmp}/bad.cfg",
              "--out", "{tmp}/out/deep"], "config"),
            (["export-paths", "--data", "{tmp}/missing.csv", "--out", "{tmp}/out/deep"], "input"),
            (["export-bases", "--model", "{tmp}/missing.men", "--out", "{tmp}/out/deep"], "io"),
        ],
        ids=["evaluate", "evaluate-bad-repeats", "export-paths", "export-bases"],
    )
    def test_failed_command_leaves_no_directories(self, tmp_path, capsys, argv, stage):
        (tmp_path / "bad.cfg").write_text("repeats=0\n")
        rc = main([a.format(tmp=tmp_path) for a in argv])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: stage={stage} reason=")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

    def test_failed_fit_keeps_existing_directories(self, workspace, capsys, monkeypatch):
        import men.cli as cli_module

        def failing(*args, **kwargs):
            raise NumericalError("injected", stage="solve")

        monkeypatch.setattr(cli_module, "fit", failing)
        tmp, data, config = workspace
        (tmp / "report").mkdir()
        (tmp / "kept").mkdir()
        rc = main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp / "kept" / "new" / "m.men"), "--out", str(tmp / "report"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: stage=solve reason=injected")
        assert (tmp / "report").is_dir() and list((tmp / "report").iterdir()) == []
        assert list((tmp / "kept").iterdir()) == []

    def test_failed_project_leaves_no_directories(self, tmp_path, capsys):
        rc = main([
            "project", "--model", str(tmp_path / "missing.men"),
            "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "newdir" / "e.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: stage=io reason=")
        assert list(tmp_path.iterdir()) == []

    def test_failed_project_keeps_existing_out_parent(self, workspace, capsys):
        tmp, data, _ = workspace
        (tmp / "kept").mkdir()
        rc = main([
            "project", "--model", str(tmp / "missing.men"), "--data", str(data),
            "--out", str(tmp / "kept" / "e.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: stage=io reason=")
        assert (tmp / "kept").is_dir()

    def test_overflowing_column_sums_exit_one(self, tmp_path, capsys):
        # finite entries whose column sum overflows: ingest rejects them
        rows = np.random.default_rng(5).normal(size=(6, 10))
        rows[1:3, 0] = 1.7e308
        labels = [0, 0, 0, 1, 1, 1]
        data = tmp_path / "huge.csv"
        data.write_text("".join(
            ",".join(map(repr, row)) + f",{label}\n" for row, label in zip(rows.tolist(), labels)
        ))
        config = tmp_path / "men.cfg"
        config.write_text("d=1\nK=2\nk1=1\nk2=1\n")
        rc = main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp_path / "out" / "m.men"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage=input reason=data has nonfinite entries or")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--model", "m.men"],  # missing --data
            ["fit", "--data", "d.csv", "--model", "m.men", "--bogus"],
            ["fit", "--data", "d.csv", "--model", "m.men", "--K", "ten"],
            ["transmogrify"],
            [],
        ],
        ids=["missing-flag", "unknown-flag", "non-integer", "unknown-command", "no-command"],
    )
    def test_usage_error_one_line_exit_one(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: stage=usage reason=")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["project", "--model", "m.men", "--data", "d.csv", "--out", "e.csv", "--threads", "2"],
            ["project", "--model", "m.men", "--data", "d.csv", "--out", "e.csv", "--seed", "1"],
            ["export-bases", "--model", "m.men", "--out", "b", "--d", "1"],
            ["export-bases", "--model", "m.men", "--out", "b", "--K", "2"],
            ["fit", "--data", "d.csv", "--model", "m.men", "--seed", "1"],
            ["export-paths", "--data", "d.csv", "--out", "p", "--seed", "1"],
            ["fit", "--data", "d.csv", "--model", "m.men", "--threads", "2"],
            ["evaluate", "--data", "d.csv", "--out", "r", "--threads", "2"],
            ["export-paths", "--data", "d.csv", "--out", "p", "--threads", "2"],
        ],
        ids=[
            "project-threads", "project-seed", "bases-d", "bases-K", "fit-seed", "paths-seed",
            "fit-threads", "evaluate-threads", "paths-threads",
        ],
    )
    def test_flags_only_where_read(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage=usage reason=unrecognized arguments: ")

    @pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"], ["evaluate", "-h"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestProcess:
    @staticmethod
    def run(*argv):
        """`python -m men.cli` with warnings as errors."""
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
            PYTHONWARNINGS="error",
        )
        return subprocess.run(
            [sys.executable, "-m", "men.cli", *argv],
            env=env, capture_output=True, text=True, timeout=300,
        )

    def test_module_exit_codes_and_error_line(self, workspace):
        tmp, data, config = workspace
        run = self.run
        assert run("--help").returncode == 0
        fitted = run("fit", "--data", str(data), "--config", str(config),
                     "--model", str(tmp / "m.men"))
        assert fitted.returncode == 0, fitted.stderr
        assert load_model(tmp / "m.men").values.shape[1] == 2
        missing = run("fit", "--config", str(config), "--model", str(tmp / "n.men"))
        assert missing.returncode == 1
        assert len(missing.stderr.splitlines()) == 1
        assert missing.stderr.startswith("error: stage=")
        # entries near the float64 limit: rejected at ingest, with no warning
        # from a later stage's overflow
        huge = tmp / "huge.csv"
        huge.write_text("".join(f"{1.7e308 * (-1) ** i!r},{i % 3},{i % 2}\n" for i in range(8)))
        config.write_text(CONFIG.replace("pca_retain=0", "pca_retain=0\nk1=1\nk2=1"))
        overflow = run("fit", "--data", str(huge), "--config", str(config),
                       "--model", str(tmp / "h.men"))
        assert overflow.returncode == 1, overflow.stderr
        assert len(overflow.stderr.splitlines()) == 1
        assert overflow.stderr.startswith("error: stage=input reason=data has nonfinite entries")
        # classes of 5 and 2 clamp k1/k2; the warning, raised as an error,
        # is one error line too, and the report directory is not left behind
        small = tmp / "small.csv"
        small.write_text("".join(f"{i}.5,{i % 3}.25,{int(i >= 5)}\n" for i in range(7)))
        config.write_text(CONFIG.replace("d=2\nK=4", "d=1\nK=2"))
        clamped = run("fit", "--data", str(small), "--config", str(config),
                      "--model", str(tmp / "s.men"), "--out", str(tmp / "report"))
        assert clamped.returncode == 1, clamped.stderr
        assert clamped.stderr.splitlines() == [
            "error: stage=warning reason=k1/k2 clamped for 7 of 7 samples (small classes)"
        ]
        assert not (tmp / "report").exists() and not (tmp / "s.men").exists()

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                        reason="the child reads its address space from /proc")
    def test_out_of_memory_is_one_error_line(self, tmp_path):
        # the child caps its address space at 120 MiB past its imports, less
        # than L (72 MB at n = 3,000) and the eigh's copy and workspace need;
        # the MemoryError printed a traceback
        rng = np.random.default_rng(0)
        data = tmp_path / "data.csv"
        data.write_text("".join(",".join(map(repr, row)) + f",{i % 10}\n"
                                for i, row in enumerate(rng.normal(size=(3000, 6)).tolist())))
        config = tmp_path / "men.cfg"
        config.write_text("pca_retain=0\nd=3\nK=3\n")
        child = "\n".join([
            "import resource, sys",
            "import men.cli",
            "with open('/proc/self/status') as status:",
            "    size = next(int(f.split()[1]) for f in status if f.startswith('VmSize:'))",
            "limit = size * 1024 + 120 * 2**20",
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))",
            "sys.exit(men.cli.main(sys.argv[1:]))",
        ])
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
                   PYTHONWARNINGS="error")
        out = subprocess.run(
            [sys.executable, "-c", child, "fit", "--data", str(data), "--config", str(config),
             "--model", str(tmp_path / "m.men")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 1, out.stderr
        assert re.fullmatch(r"error: stage=\S+ reason=out of memory .*\n", out.stderr), out.stderr
        assert not (tmp_path / "m.men").exists()

    def test_crlf_csv_with_blank_lines_fits_like_its_lf_twin(self, workspace):
        tmp, data, config = workspace
        lines = data.read_text().splitlines()
        crlf = tmp / "crlf.csv"
        crlf.write_bytes("\r\n".join(["", *lines[:5], "  ", "", *lines[5:], ""]).encode())
        for name, source in (("lf.men", data), ("crlf.men", crlf)):
            fitted = self.run("fit", "--data", str(source), "--config", str(config),
                              "--model", str(tmp / name))
            assert fitted.returncode == 0, fitted.stderr
        assert (tmp / "crlf.men").read_bytes() == (tmp / "lf.men").read_bytes()


class TestEvaluateCommand:
    def test_summary_format_and_outputs(self, workspace, capsys):
        tmp, data, config = workspace
        rc = main([
            "evaluate", "--data", str(data), "--config", str(config),
            "--out", str(tmp / "eval"),
        ])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert out.startswith("best=0.") or out.startswith("best=1.")
        rate, dim = out.split("@")
        assert len(rate.split("=")[1].split(".")[1]) == 4  # four decimals
        assert dim.startswith("dim=")
        results = (tmp / "eval" / "results.csv").read_text().splitlines()
        assert results[0] == "repeat,dimension,rate"
        assert len(results) == 1 + 2 * 2  # repeats x dims
        box = (tmp / "eval" / "boxplot.csv").read_text().splitlines()
        assert box[0] == "dimension,min,q1,median,q3,max"

    def test_separable_rate(self, workspace, capsys):
        tmp, data, config = workspace
        rc = main([
            "evaluate", "--data", str(data), "--config", str(config),
            "--out", str(tmp / "eval"),
        ])
        assert rc == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        best = float(summary.split("@")[0].split("=")[1])
        assert best >= 0.95

    def test_empty_dim_grid(self, workspace, capsys):
        tmp, data, config = workspace
        config.write_text(CONFIG.replace("dim_grid=1,2", "dim_grid="))
        rc = main([
            "evaluate", "--data", str(data), "--config", str(config),
            "--out", str(tmp / "eval"),
        ])
        assert rc == 1
        assert "dim_grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "repeats=0", "dim_grid=0,1", "per_class_train=10",
            "repeats=abc", "dim_grid=1,x", "seed=-1",
        ],
    )
    def test_bad_evaluation_value_is_config_stage(self, workspace, capsys, line):
        tmp, data, config = workspace
        config.write_text(CONFIG + line + "\n")
        rc = main([
            "evaluate", "--data", str(data), "--config", str(config),
            "--out", str(tmp / "eval"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage=config reason=")
        assert line.split("=")[0] in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key", ["k1", "k2"])
    def test_counts_past_int64_clamp(self, workspace, key):
        tmp, data, config = workspace
        for name, value in (("huge", 10**20), ("n", 30)):
            config.write_text(CONFIG + f"{key}={value}\n")
            with pytest.warns(UserWarning, match="k1/k2 clamped"):
                rc = main([
                    "evaluate", "--data", str(data), "--config", str(config),
                    "--out", str(tmp / name),
                ])
            assert rc == 0
        huge, n = ((tmp / name / "results.csv").read_text() for name in ("huge", "n"))
        assert huge == n

    def test_huge_repeats_fail_at_the_first_fit(self, workspace, capsys):
        # nothing is sized by repeats before the first fit, which fails
        # because 3 class centres have rank 3 < d = 4
        tmp, data, config = workspace
        config.write_text(
            CONFIG.replace("repeats=2", "repeats=100000000000000000000")
            .replace("dim_grid=1,2", "dim_grid=1,4")
        )
        rc = main([
            "evaluate", "--data", str(data), "--config", str(config),
            "--out", str(tmp / "eval"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage=indicator reason=d=4 exceeds the numerical rank 3")
        assert err.count("\n") == 1
        assert not (tmp / "eval").exists()

    def test_seed_override_changes_split(self, workspace):
        tmp, data, config = workspace
        outs = []
        for seed in ("0", "9"):
            main([
                "evaluate", "--data", str(data), "--config", str(config),
                "--out", str(tmp / f"eval{seed}"), "--seed", seed,
            ])
            outs.append((tmp / f"eval{seed}" / "results.csv").read_text())
        assert outs[0] != outs[1]

    def test_idempotent(self, workspace):
        tmp, data, config = workspace
        for name in ("e1", "e2"):
            main([
                "evaluate", "--data", str(data), "--config", str(config),
                "--out", str(tmp / name),
            ])
        for f in sorted((tmp / "e1").iterdir()):
            assert f.read_bytes() == (tmp / "e2" / f.name).read_bytes()


class TestExportCommands:
    def test_export_bases_square_inference(self, workspace):
        tmp, data, config = workspace
        other = tmp / "sq.csv"
        write_dataset(other, p=9)  # 3x3 images
        main([
            "fit", "--data", str(other), "--config", str(config),
            "--model", str(tmp / "m.men"),
        ])
        rc = main([
            "export-bases", "--model", str(tmp / "m.men"), "--out", str(tmp / "bases"),
        ])
        assert rc == 0
        assert sorted(p.name for p in (tmp / "bases").iterdir()) == [
            "basis_000.pgm",
            "basis_001.pgm",
        ]

    def test_export_bases_explicit_shape(self, workspace):
        tmp, data, config = workspace
        main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp / "m.men"),
        ])
        rc = main([
            "export-bases", "--model", str(tmp / "m.men"),
            "--out", str(tmp / "bases"), "--shape", "2x4",
        ])
        assert rc == 0

    def test_export_bases_nonsquare_needs_shape(self, workspace, capsys):
        tmp, data, config = workspace
        main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp / "m.men"),
        ])
        rc = main([
            "export-bases", "--model", str(tmp / "m.men"), "--out", str(tmp / "b"),
        ])
        assert rc == 1
        assert "--shape" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", ["-2x-4", "-8x-1", "0x8", "2x4x1", "ax4"])
    def test_export_bases_bad_shape_exits_one(self, workspace, capsys, shape):
        # p = 8; negative pairs pass the size check (-2 * -4 == 8)
        tmp, data, config = workspace
        main([
            "fit", "--data", str(data), "--config", str(config),
            "--model", str(tmp / "m.men"),
        ])
        capsys.readouterr()
        rc = main([
            "export-bases", "--model", str(tmp / "m.men"), "--out", str(tmp / "b"),
            f"--shape={shape}",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--shape" in err
        assert "\n" not in err.strip()

    def test_export_paths(self, workspace):
        tmp, data, config = workspace
        rc = main([
            "export-paths", "--data", str(data), "--config", str(config),
            "--out", str(tmp / "paths"),
        ])
        assert rc == 0
        files = sorted(p.name for p in (tmp / "paths").iterdir())
        assert files == ["path_col000.csv", "path_col001.csv"]
        header = (tmp / "paths" / "path_col000.csv").read_text().splitlines()[0]
        assert header.startswith("loop,event,variable,l1_norm,C_hat,w0")


# the config keys, the retired lambda1 and an unknown key, with values at and past
# every parser's edge: beyond int64 either way, negative, nonfinite, overflowing,
# not a number, empty, and auto
CONTRACT_KEYS = [f.name for f in fields(MenConfig) + fields(SplitSpec)] + [
    "dim_grid", "lambda1", "mystery",
]
CONTRACT_VALUES = [
    "100000000000000000000", "-100000000000000000000", "9223372036854775808", "-1",
    "-0.5", "inf", "-inf", "nan", "1e400", "1e-300", "abc", "", "auto", "0", "1", "2",
    "0.5", "true",
]
# a valid repeats value runs that many fits, so repeats stays small
REPEATS_VALUES = [v for v in CONTRACT_VALUES if not v.isdigit() or int(v) <= 2]
config_lines = st.lists(
    st.tuples(st.sampled_from([k for k in CONTRACT_KEYS if k != "repeats"]),
              st.sampled_from(CONTRACT_VALUES))
    | st.tuples(st.just("repeats"), st.sampled_from(REPEATS_VALUES)),
    max_size=4,
).map(lambda pairs: "".join(f"{key}={value}\n" for key, value in pairs))


def assert_cli_contract(command, tmp, data_text, config_text):
    """`command` on the given CSV and config text, with warnings as errors, exits
    0, 1 or 2 without a traceback; a failure is one error line."""
    (tmp / "data.csv").write_text(data_text)
    (tmp / "men.cfg").write_text(config_text)
    argv = [command, "--data", str(tmp / "data.csv"), "--config", str(tmp / "men.cfg")]
    argv += ["--model", str(tmp / "m.men")] if command == "fit" else ["--out", str(tmp / "out")]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")  # a warning is an error line, as under -W error
        rc = main(argv)
    assert rc in (0, 1, 2)
    if rc:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        assert err.getvalue().startswith("error: stage="), err.getvalue()
    else:
        assert err.getvalue() == ""


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["fit", "evaluate", "export-paths"]), extra=config_lines)
def test_cli_contract_over_generated_config(command, extra):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_dataset(tmp / "data.csv", n_per_class=8, p=5)
        assert_cli_contract(command, tmp, (tmp / "data.csv").read_text(), CONFIG + extra)


# CSV fields at and past the parsers' edges: text, empty, padded, digit
# separators, hex, the float limit and past it, nonfinite, labels past int64
# either way, negative and "1.0"-style
CSV_VALUES = [
    "abc", "", " ", " 1.5 ", "1_0", "0x10", "1e308", "-1e308", "1e400", "-1e400", "nan", "inf",
    "-inf", "0", "1", "2",
    "-1", "1.0", "2.5", "9223372036854775807", "9223372036854775808",
    "-9223372036854775809", "100000000000000000000",
]
# edits of a valid 24-row, 5-feature file (6 fields a row, the label last):
# set a field, drop one (a ragged row), add one, or insert a blank line
csv_edits = st.lists(
    st.tuples(
        st.sampled_from(["set", "drop", "add", "blank"]),
        st.integers(0, 23),
        st.integers(0, 5),
        st.sampled_from(CSV_VALUES),
    ),
    max_size=4,
)


def edited_csv(text, edits):
    rows = [line.split(",") for line in text.splitlines()]
    for op, r, c, value in edits:
        row = rows[r % len(rows)]
        if op == "set" and row:
            row[c % len(row)] = value
        elif op == "drop" and row:
            del row[c % len(row)]
        elif op == "add":
            row.insert(c % (len(row) + 1), value)
        elif op == "blank":
            rows.insert(r % (len(rows) + 1), [])
    return "".join(",".join(row) + "\n" for row in rows)


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["fit", "evaluate", "export-paths"]), edits=csv_edits)
def test_cli_contract_over_generated_csv(command, edits):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_dataset(tmp / "data.csv", n_per_class=8, p=5)
        text = edited_csv((tmp / "data.csv").read_text(), edits)
        assert_cli_contract(command, tmp, text, CONFIG)
