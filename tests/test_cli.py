"""Command-line behaviour: exit codes, outputs, determinism."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from men.cli import main
from men.datasets import make_informative_classes
from men.evaluation import nn_classify
from men.model_io import load_model
from men.pipeline import project


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
        ],
        ids=["unknown-key", "bad-value", "missing-equals", "not-utf8"],
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
        ],
        ids=["project-threads", "project-seed", "bases-d", "bases-K", "fit-seed", "paths-seed"],
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

    @pytest.mark.parametrize("line", ["repeats=0", "dim_grid=0,1", "per_class_train=10"])
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
        assert err.count("\n") == 1

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
