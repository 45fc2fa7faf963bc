"""What the benchmark uses of the package must exist and accept its calls.

`perfbench/spans.py` replaces "module:attribute" functions with timing
wrappers; a refactor that drops or renames one of them would make every
traced benchmark run fail with an AttributeError. `perfbench/workloads.py`
calls the package as `men.<name>(...)`; a refactor that drops a parameter
one of those calls passes would make every benchmark round fail with a
TypeError. Its correctness check rebuilds each column's lasso problem from
the public stage functions; a change to what those functions take or
return would fail every round's check.
"""

import ast
import importlib
import inspect
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import men
import men.cli  # the cli-face workload calls men.cli.main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str):
    """perfbench/<name>.py, imported without writing bytecode into perfbench/."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


WRAPPED = dict(perfbench_module("spans").WRAPPED)


def test_tracer_wraps_something():
    assert WRAPPED


@pytest.mark.parametrize("key", sorted(WRAPPED))
def test_wrapped_name_resolves(key):
    module_name, attr = key.split(":")
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{key} is not a callable of {module_name}"


def workload_calls() -> list[ast.Call]:
    """Every `men.<dotted name>(...)` call in perfbench/workloads.py, in line order."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).startswith("men.")
    ]
    return sorted(calls, key=lambda node: (node.lineno, node.col_offset))


CALLS = workload_calls()


def test_calls_cover_the_timed_entry_points():
    names = {ast.unparse(call.func) for call in CALLS}
    assert {"men.pipeline.fit", "men.evaluation.evaluate", "men.build_augmented"} <= names


@pytest.mark.parametrize("call", CALLS, ids=[ast.unparse(call.func) for call in CALLS])
def test_workload_call_binds(call):
    target = men
    for attr in ast.unparse(call.func).split(".")[1:]:
        target = getattr(target, attr)
    positional = [None] * sum(not isinstance(a, ast.Starred) for a in call.args)
    keywords = dict.fromkeys(k.arg for k in call.keywords if k.arg is not None)
    unpacks = len(positional) < len(call.args) or len(keywords) < len(call.keywords)
    signature = inspect.signature(target)
    # a call that unpacks * or ** can only be checked for the arguments it names
    (signature.bind_partial if unpacks else signature.bind)(*positional, **keywords)


@pytest.mark.parametrize("pca_retain", [None, 0], ids=["pca", "no-pca"])
def test_rebuilt_problems_match_the_fit(monkeypatch, pca_retain):
    # the check's independent rebuild (per-sample build_patch) and the fit's
    # own stages give every column the same design, ridge and scale bit for
    # bit, and the same response to rounding: the fit rotates its d targets
    # in one matrix product, the rebuild one target in a matrix-vector product
    samples = men.make_informative_classes(8, 12, [0, 1, 2], n_classes=3, seed=5)
    cfg = men.MenConfig(d=2, K=4, pca_retain=pca_retain)
    shared = []
    build_augmented = men.pipeline.build_augmented

    def recorded(*args, **kwargs):
        shared.append(build_augmented(*args, **kwargs))
        return shared[-1]

    monkeypatch.setattr(men.pipeline, "build_augmented", recorded)
    men.fit(samples, cfg)
    problems = perfbench_module("workloads").rebuilt_problems(men, samples, cfg)
    assert len(shared) == 1 and len(problems) == cfg.d
    for t, problem in enumerate(problems):
        column = shared[0].column(t)
        assert problem.xstar.shape == column.xstar.shape
        assert problem.xstar.tobytes() == column.xstar.tobytes()
        assert (problem.ridge, problem.scale) == (column.ridge, column.scale)
        assert problem.ystar.shape == column.ystar.shape
        np.testing.assert_allclose(problem.ystar, column.ystar, rtol=1e-13, atol=1e-13)


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="CPython 3.10 keeps call arguments alive on the caller's stack, so fit "
    "cannot free the training copy evaluate and men fit hand it",
)
@pytest.mark.parametrize(
    "name, bound_mb",
    [("fit-face", 9.7), ("evaluate-face", 5.3), ("cli-face", 10.0), ("fit-large-n", 12.5)],
)
def test_round_peak_memory(tmp_path, name, bound_mb):
    # the benchmark's untimed round under tracemalloc, as perfbench/run.py
    # makes it for peak_mem_mb. fit-face reads 9.38 MB: its solve beside the
    # 5.11 MB PCA basis, with each path stored column-wise (10.95 MB as one
    # Breakpoint object per breakpoint) and build_augmented scaling the
    # design in the product's own buffer (an n' x p copy beside it before).
    # evaluate-face and cli-face read 4.92 and 9.28 MB (9.22 for cli-face
    # there) with the handed-over data centred in their own buffer; 8.09
    # and 12.46 MB with one centred copy beside the data, 13.35 and 17.01 MB
    # with two. fit-large-n's 12.10 MB is L's n x n storage (L, then U
    # written over it) beside the design in build_augmented;
    # build_indicator, which solves the class-center PCA on its c x c Gram,
    # peaks at 11.74 MB. U shrinks to its retained columns before the
    # design's products, and L is scattered one Edges block at a time
    # (12.29 MB with every edge copied)
    workload, seed = perfbench_module("workloads").WORKLOADS[name]
    inputs = workload.setup(men, seed, tmp_path / name)
    tracemalloc.start()
    try:
        workload.round(men, inputs)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb <= bound_mb
