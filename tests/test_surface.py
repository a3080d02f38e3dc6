"""The public surface: what the package exports and each module lists.

`import jointnmf` exports the fits, their options and result and
hard_assign, exactly the names README's library section lists; the
rest of the library is reached through its submodules.  README's Python
examples run as written, and its list of errors is errors.py's leaf
classes.  Integers enter through matrix's two rules alone, and a bad
count, cluster code, H entry or threshold fails at entry with a typed
error.
"""

import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jointnmf
from jointnmf import FactorizeOptions, errors, graph, hard_assign, metrics, recommend, textprep

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_exports_the_names_the_readme_library_section_lists():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    section = section[:section.index("\n## ", 1)]
    listing = re.search(r"The package exports exactly (.*?)\.\n", section, re.S).group(1)
    assert jointnmf.__all__ == re.findall(r"`(\w+)`", listing)
    assert all(hasattr(jointnmf, name) for name in jointnmf.__all__)


def test_jointnmf_recommend_is_the_submodule():
    # the package used to re-export recommend.recommend, which hid the module
    from jointnmf import recommend

    assert inspect.ismodule(recommend)
    assert recommend is sys.modules["jointnmf.recommend"]


def test_graph_lists_only_the_builder_the_readers_and_the_benchmark_steps():
    # the incidence, restriction, component and hypergraph steps are
    # similarity's own; symmetrize and normalized_adjacency are listed
    # because the benchmark's set-up calls them
    from jointnmf import graph

    assert graph.__all__ == ["similarity", "read_edge_list", "read_hyperedges", "symmetrize",
                             "normalized_adjacency"]


def test_every_name_a_module_lists_in_all_exists():
    # a stale __all__ entry would make the benchmark's tracer, which wraps
    # each listed function, raise AttributeError
    modules = [jointnmf] + [importlib.import_module(f"jointnmf.{m.name}")
                            for m in pkgutil.iter_modules(jointnmf.__path__)]
    assert {m.__name__ for m in modules} >= {"jointnmf.cli", "jointnmf.recommend"}
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_the_readme_python_examples_run(child_env, tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) >= 2
    for block in blocks:
        done = subprocess.run([sys.executable, "-c", block], env=child_env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, f"{block}\n{done.stderr}"


def test_integer_rules_live_in_matrix_alone():
    # a fourth integer rule could not grow back unseen: matrix holds the
    # count rule (require_count) and the id rule (_int64), and every other
    # module calls them
    src = Path(jointnmf.__file__).parent
    for path in src.glob("*.py"):
        text = path.read_text()
        if path.name != "matrix.py":
            assert "Integral" not in text, path.name
        assert ("def _int64(" in text) == (path.name == "matrix.py"), path.name


def test_readme_error_list_is_the_leaf_errors():
    text = README.read_text()
    section = text[text.index("## Errors"):]
    listed = re.search(r"\((.*?)\), all subclasses of `JointNmfError`", section, re.S).group(1)
    classes = [c for c in vars(errors).values()
               if inspect.isclass(c) and issubclass(c, errors.JointNmfError)]
    leaves = {c.__name__ for c in classes if not any(d is not c and issubclass(d, c)
                                                      for d in classes)}
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(leaves)
    assert len(leaves) == 17


# the pool of bad values each call draws one argument from; an argument
# leaves out the values it takes as valid: a count with no upper bound
# takes 2**64 (cluster counts too: their bound is the memory that the
# confusion rows take), an H entry or a threshold any real number
POOL = {"half": 0.5, "fraction": 2.5, "bool": True, "nan": float("nan"), "inf": float("inf"),
        "past-int64": 2**64, "negative": -1, "str": "two"}
UNBOUNDED = {"past-int64"}
REAL = {"half", "fraction", "bool", "past-int64", "negative"}


def _boundary_calls():
    """(call, valid) pairs: call(value, size, at) passes value as one
    argument of a small input that size and at shape."""
    def options(name):
        return lambda v, size, at: FactorizeOptions(**{"k": 2, name: v})

    def similarity(v, size, at):
        # a path of fewer than size edges, or size + 1 vertices as one
        # hyperedge of the dual, where the documents are the hyperedges
        if at % 2:
            return graph.similarity([(i, i + 1) for i in range(at % size)], n=v)
        return graph.similarity(hyperedges=(np.arange(size + 1), [size + 1]), n=v, dual=True)

    def codes(score):
        # every code is the drawn value: numpy reads a bool among ints as 1
        return lambda v, size, at: score([v] * size, ["a"] * size, n_pred_clusters=2)

    def count(score):
        return lambda v, size, at: score([0, at % 2] * size, ["a", "b"] * size, n_pred_clusters=v)

    def scores_h(v, size, at):
        H = [[1.0] * size, [0.5] * size]
        H[at % 2][at % size] = v
        return hard_assign(H)

    return [
        *[(options(name), UNBOUNDED) for name in ("k", "max_sweeps", "seed", "trials")],
        (similarity, set()),
        (lambda v, size, at: graph.symmetrize([(i, i + 1) for i in range(at % size)],
                                              n_vertices=v), set()),
        *[(codes(score), set()) for score in (metrics.confusion, metrics.labeling_scores)],
        *[(count(score), UNBOUNDED) for score in (metrics.confusion, metrics.labeling_scores)],
        (lambda v, size, at: textprep.top_terms(np.eye(size), list("abcdef")[:size], v),
         UNBOUNDED),
        (scores_h, REAL),
        (lambda v, size, at: recommend.recommend(np.linspace(0, 1, size), v), REAL | {"inf"}),
    ]


BOUNDARY_CALLS = _boundary_calls()


@st.composite
def boundary_cases(draw):
    call, valid = draw(st.sampled_from(BOUNDARY_CALLS))
    name = draw(st.sampled_from(sorted(POOL.keys() - valid)))
    return call, POOL[name], draw(st.integers(2, 6)), draw(st.integers(0, 11))


# 800 derandomized examples draw every pair of call and bad value
@settings(max_examples=800)
@given(case=boundary_cases())
def test_an_integer_argument_fails_at_entry_with_a_typed_error(case):
    # a bad count, cluster code, H entry or threshold is a ValueError or a
    # JointNmfError raised at entry: never a result, and never a
    # TypeError, IndexError or AttributeError from deep inside
    call, value, size, at = case
    with pytest.raises((ValueError, errors.JointNmfError)):
        call(value, size, at)
