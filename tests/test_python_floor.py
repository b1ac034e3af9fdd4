"""Every Python file parses under the oldest Python that pyproject.toml declares.

The floor is read from ``requires-python`` with a regex, because ``tomllib``
arrived only in 3.11.  ``ast.parse(..., feature_version=...)`` then rejects
syntax newer than the floor, such as ``except*`` or PEP 695 generics.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(
    int(x)
    for x in re.search(
        r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"),
        re.M,
    ).groups()
)
FILES = sorted(f for d in ("src", "tests", "demos", "bench") for f in (ROOT / d).rglob("*.py"))


def test_floor_is_read():
    assert FLOOR >= (3, 0)
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[str(f.relative_to(ROOT)) for f in FILES])
def test_parses_at_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
