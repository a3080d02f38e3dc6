"""The public surface: what the package exports and each module lists.

`import jointnmf` exports the fits, their options and result and
hard_assign, exactly the names README's library section lists; the
rest of the library is reached through its submodules.
"""

import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import jointnmf

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


def test_every_name_a_module_lists_in_all_exists():
    # a stale __all__ entry would make the benchmark's tracer, which wraps
    # each listed function, raise AttributeError
    modules = [jointnmf] + [importlib.import_module(f"jointnmf.{m.name}")
                            for m in pkgutil.iter_modules(jointnmf.__path__)]
    assert {m.__name__ for m in modules} >= {"jointnmf.cli", "jointnmf.recommend"}
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__
