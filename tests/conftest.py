"""Marks every test that trains the toy pipelines (the `toy_runs` fixture)
as `slow`, so `pytest -m "not slow"` is a fast loop over everything else."""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if "toy_runs" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)
