"""Command-line front end: fit, project, evaluate, export-bases, export-paths.

A key=value config file ('#' comments) carries the hyperparameters; a
few override flags support sweeps: --d and --K on the subcommands that
fit (fit, evaluate, export-paths), --seed on evaluate. Fits and
evaluation repeats run serially; BLAS is the only parallelism.
Exit codes: 0 success, 1 user/data/usage, file-system or out-of-memory error, 2
internal numerical failure. Errors are a single machine-parsable line on stderr:
``error: stage=... reason=...``.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .config import MenConfig, config_from_mapping, parse_kv_lines, parse_value
from .datasets import ingest
from .errors import DataError, NumericalError
from .evaluation import (
    SplitSpec,
    evaluate,
    export_bases,
    export_paths,
    write_boxplot_csv,
    write_results_csv,
)
from .model_io import load_model, model_to_text, save_model
from .pipeline import fit, project

__all__ = ["main", "main_entry"]

# evaluation keys of the config file; every other key belongs to MenConfig
_EVAL_KEYS = {f.name for f in fields(SplitSpec)} | {"dim_grid"}


def _load_config_file(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    config_path = Path(path)
    if not config_path.is_file():
        raise DataError(f"config file not found: {config_path}", stage="config")
    try:
        text = config_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"config file is not UTF-8 text: {exc}", stage="config") from exc
    return parse_kv_lines(text.splitlines())


def _split_config(mapping: dict[str, str], args) -> tuple[MenConfig, dict[str, str]]:
    eval_map = {k: v for k, v in mapping.items() if k in _EVAL_KEYS}
    cfg = config_from_mapping({k: v for k, v in mapping.items() if k not in _EVAL_KEYS})
    if args.d is not None:
        cfg = replace(cfg, d=args.d)
    if args.K is not None:
        cfg = replace(cfg, K=args.K)
    return cfg, eval_map


def _write_report(report, model, out_dir: Path) -> None:
    export_paths(report, out_dir)
    trace_lines = ["column,loop,objective"]
    for t, trace in enumerate(report.objective_traces):
        for loop, value in enumerate(trace):
            trace_lines.append(f"{t},{loop},{repr(float(value))}")
    (out_dir / "objective_trace.csv").write_text(
        "\n".join(trace_lines) + "\n", encoding="utf-8"
    )
    cos = report.column_cosines
    angle_lines = ["col_i,col_j,cosine,angle_degrees"]
    for i in range(cos.shape[0]):
        for j in range(i + 1, cos.shape[1]):
            c = float(np.clip(abs(cos[i, j]), 0.0, 1.0))
            angle_lines.append(
                f"{i},{j},{repr(float(cos[i, j]))},{repr(float(np.degrees(np.arccos(c))))}"
            )
    (out_dir / "column_angles.csv").write_text(
        "\n".join(angle_lines) + "\n", encoding="utf-8"
    )
    (out_dir / "model.txt").write_text(model_to_text(model), encoding="utf-8")


@contextlib.contextmanager
def _output_directories(*directories: Path):
    """Make `directories` and their missing parents (mkdir raises for a file
    on the way); if the body fails, remove the empty ones made here, deepest first."""
    created = sorted(
        {d for top in directories for d in (top, *top.parents) if not d.exists()},
        key=lambda d: len(d.parts), reverse=True,
    )
    try:
        for directory in directories:
            directory.mkdir(parents=True, exist_ok=True)
        yield
    except BaseException:
        for directory in created:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def _cmd_fit(args) -> int:
    cfg, _ = _split_config(_load_config_file(args.config), args)
    # refuse unwritable outputs before the fit, with the errors the writes would raise
    model_path = Path(args.model)
    if model_path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(model_path))
    report_dir = Path(args.out) if args.out else model_path.with_suffix(
        model_path.suffix + ".report"
    )
    with _output_directories(model_path.parent, report_dir):
        model, report = fit(ingest(args.data), cfg)  # no name holds the data: the PCA reuses them
        save_model(model, model_path)
        _write_report(report, model, report_dir)
    print(f"model={model_path} columns={model.values.shape[1]} "
          f"nonzeros={','.join(str(s) for s in model.sparsity)}")
    return 0


def _cmd_project(args) -> int:
    out_path = Path(args.out)
    with _output_directories(out_path.parent):  # before any input is read
        model = load_model(args.model)
        samples = ingest(args.data)
        embedding = project(model, samples)
        lines = [",".join(map(repr, row)) for row in embedding.tolist()]
        out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"embedding={out_path} shape={embedding.shape[0]}x{embedding.shape[1]}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg, eval_map = _split_config(_load_config_file(args.config), args)
    dim_grid = parse_value(
        "dim_grid", eval_map.pop("dim_grid", "1,2"),
        lambda text: [int(v) for v in text.split(",") if v.strip() != ""],
    )
    split = config_from_mapping(eval_map, SplitSpec)
    if args.seed is not None:
        split = replace(split, seed=args.seed)
    out_dir = Path(args.out)
    with _output_directories(out_dir):
        result = evaluate(ingest(args.data), cfg, split, dim_grid)
        write_results_csv(result, out_dir / "results.csv")
        write_boxplot_csv(result, out_dir / "boxplot.csv")
        summary = f"best={result.best_rate:.4f}@dim={result.best_dim}"
        (out_dir / "summary.txt").write_text(summary + "\n", encoding="utf-8")
    print(summary)
    return 0


def _parse_shape(text: str | None, p: int) -> tuple[int, int]:
    if text:
        try:
            shape = tuple(int(part) for part in text.lower().split("x"))
        except ValueError:
            shape = ()
        if len(shape) != 2 or min(shape) < 1:
            raise DataError(f"--shape must be ROWSxCOLS with sizes >= 1, got {text!r}")
        return shape
    side = int(round(np.sqrt(p)))
    if side * side != p:
        raise DataError(
            f"raw dimension {p} is not square; pass --shape ROWSxCOLS explicitly"
        )
    return side, side


def _cmd_export_bases(args) -> int:
    with _output_directories(Path(args.out)):
        model = load_model(args.model)
        shape = _parse_shape(args.shape, model.projection.shape[0])
        paths = export_bases(model, shape, args.out)
    print(f"bases={len(paths)} dir={args.out}")
    return 0


def _cmd_export_paths(args) -> int:
    cfg, _ = _split_config(_load_config_file(args.config), args)
    with _output_directories(Path(args.out)):
        _, report = fit(ingest(args.data), cfg)
        paths = export_paths(report, args.out)
    print(f"paths={len(paths)} dir={args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as a one-line DataError (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise DataError(" ".join(message.splitlines()), stage="usage")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="men",
        description="Sparse discriminative dimensionality reduction "
        "(fit / project / evaluate / export-bases / export-paths)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, config=False, data=False, model=False, out=False, out_required=False):
        if config:  # only the subcommands that fit read a config, so only they override it
            p.add_argument("--config", help="key=value config file")
            p.add_argument("--d", type=int, help="override projection dimension d")
            p.add_argument("--K", type=int, help="override per-column entry budget K")
        if data:
            p.add_argument("--data", required=True, help="dataset path (csv, image dir, or manifest)")
        if model:
            p.add_argument("--model", required=True, help="model file path")
        if out:
            p.add_argument("--out", required=out_required, help="output path or directory")

    p_fit = sub.add_parser("fit", help="fit a model and write it with a report directory")
    common(p_fit, config=True, data=True, model=True, out=True)
    p_fit.set_defaults(func=_cmd_fit)

    p_project = sub.add_parser("project", help="embed a dataset with a fitted model")
    common(p_project, data=True, model=True, out=True, out_required=True)
    p_project.set_defaults(func=_cmd_project)

    p_eval = sub.add_parser("evaluate", help="run the repeated split/fit/score protocol")
    common(p_eval, config=True, data=True, out=True, out_required=True)
    p_eval.add_argument("--seed", type=int, help="override evaluation seed")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_bases = sub.add_parser("export-bases", help="write projection columns as graymap images")
    common(p_bases, model=True, out=True, out_required=True)
    p_bases.add_argument("--shape", help="image shape ROWSxCOLS (default: square)")
    p_bases.set_defaults(func=_cmd_export_bases)

    p_paths = sub.add_parser("export-paths", help="write coefficient-path CSVs for a fit")
    common(p_paths, config=True, data=True, out=True, out_required=True)
    p_paths.set_defaults(func=_cmd_export_paths)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except DataError as exc:
        print(f"error: stage={exc.stage or 'input'} reason={exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a path that is missing, a directory, or unreadable
        print(f"error: stage=io reason={exc}", file=sys.stderr)
        return 1
    except Warning as exc:  # raised, not printed, under -W error / PYTHONWARNINGS=error
        print(f"error: stage=warning reason={exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # outside fit's stages, which name their own
        print(f"error: stage=memory reason=out of memory ({str(exc) or 'MemoryError'})",
              file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: stage={exc.stage or 'numerical'} reason={exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
