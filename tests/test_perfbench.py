"""The benchmark's own self-test, run as part of the suite.

perfbench/selftest.py pins what the benchmark relies on in the package:
the names its span wrappers rebind (`cli.recommend_above`, the nls
import in factorize) and where fits sit in the span tree.  A refactor
that moves those breaks the benchmark, so it must break a test too.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
