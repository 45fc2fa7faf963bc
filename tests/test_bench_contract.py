"""What the benchmark uses of the package must exist and accept its calls.

`perfbench/spans.py` replaces "module:attribute" functions with timing
wrappers; a refactor that drops or renames one of them would make every
traced benchmark run fail with an AttributeError. `perfbench/workloads.py`
calls the package as `men.<name>(...)`; a refactor that drops a parameter
one of those calls passes would make every benchmark round fail with a
TypeError.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import men

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def wrapped_names() -> dict[str, str]:
    """spans.WRAPPED, imported without writing bytecode into perfbench/."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        return dict(importlib.import_module("spans").WRAPPED)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


WRAPPED = wrapped_names()


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
