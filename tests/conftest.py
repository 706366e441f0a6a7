"""Tier-1 settings: a test that leaks a file handle or a socket fails, as
under ``python -X dev -W error::ResourceWarning``.  A leak warns from a
finalizer, which pytest reports as an unraisable exception, so both
warnings are errors.  The filters are marked on the items of this
directory only, so the suites elsewhere in the repository keep their own
settings."""

import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
LEAK_FILTERS = ("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


def pytest_collection_modifyitems(items):
    for item in items:
        if str(item.path).startswith(HERE + os.sep):
            for spec in LEAK_FILTERS:
                item.add_marker(pytest.mark.filterwarnings(spec))
