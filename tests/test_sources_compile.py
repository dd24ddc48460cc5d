"""Every Python source of the project compiles with warnings as errors.

``compileall -q`` (scripts/lint.sh) prints no warnings and skips files
whose cached ``.pyc`` is fresh, so an invalid escape sequence in a
non-raw string (a ``SyntaxWarning``, an error in a future Python) would
pass it unseen.  This compiles each source from its text instead.
"""

import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "scripts", "examples")
SOURCES = sorted(path for tree in TREES for path in (ROOT / tree).rglob("*.py"))


def test_the_trees_hold_sources():
    assert len(SOURCES) > 100


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")
