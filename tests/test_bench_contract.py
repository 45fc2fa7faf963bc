"""Names the benchmark's span tracer wraps must exist in the package.

`perfbench/spans.py` replaces "module:attribute" functions with timing
wrappers; a refactor that drops or renames one of them would make every
traced benchmark run fail with an AttributeError.
"""

import importlib
import sys
from pathlib import Path

import pytest

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
