"""Shared fixtures."""

import os
from pathlib import Path

import pytest
from hypothesis import settings

import jointnmf
from jointnmf import factorize

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


@pytest.fixture
def stack_sizes(monkeypatch):
    """The number of runs in each lockstep stack the solvers sweep, in order."""
    sizes, sweeps = [], factorize._sweeps
    monkeypatch.setattr(factorize, "_sweeps",
                        lambda problems, *rest: sizes.append(len(problems)) or sweeps(problems, *rest))
    return sizes
