"""Settings shared by every test.

Hypothesis's pytest plugin trips a `mypy_extensions.TypedDict`
DeprecationWarning while it reports a failing example. Under `-W error`,
or the ini's `filterwarnings = ["error"]`, that warning ends the session in
INTERNALERROR and hides the example, and a command-line `-W error`
outranks an ini `filterwarnings` entry. A per-test mark outranks both, so
every collected test ignores that one warning and nothing else.
"""

import pytest

TYPEDDICT_DEPRECATION = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(TYPEDDICT_DEPRECATION))
