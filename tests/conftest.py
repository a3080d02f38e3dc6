"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import jointnmf


@pytest.fixture
def child_env():
    """Environment for a child Python process that imports this checkout's jointnmf."""
    src = str(Path(jointnmf.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
