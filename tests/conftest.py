"""Shared fixtures."""

import os
from pathlib import Path

import pytest
from hypothesis import settings

import jointnmf

# every property runs the same examples on every run and has no time
# limit per example; a test sets only its max_examples
settings.register_profile("jointnmf", deadline=None, derandomize=True)
settings.load_profile("jointnmf")


@pytest.fixture
def child_env():
    """Environment for a child Python process that imports this checkout's jointnmf."""
    src = str(Path(jointnmf.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
