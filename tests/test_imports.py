"""Every import in the package, its tests and its demos is read somewhere.

Deleting code tends to strand the imports it needed.  This walks each
file's syntax tree with ``ast`` and fails on an imported name that the file
never reads.  A name listed in the file's ``__all__`` counts as read, which
covers what ``__init__.py`` re-exports.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parafock

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [
        *(ROOT / "src" / "parafock").glob("*.py"),
        *(ROOT / "tests").glob("*.py"),
        *(ROOT / "demos").glob("*.py"),
    ]
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that nothing reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_checker_flags_unread_imports():
    source = "import os.path\nfrom math import inf, pi as tau\n__all__ = ['inf']\n"
    assert unused_imports(source) == ["os", "tau"]
    assert unused_imports(source + "print(os.sep, tau)\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Layers of the package, lowest first: a module may import only from a lower
# layer.  schur and weyl share a layer, so neither imports the other.
LAYERS = {
    "partitions": 0,
    "polyring": 1,
    "schur": 2,
    "weyl": 2,
    "kostant": 3,
    "cli": 4,
    "__init__": 5,
    "__main__": 5,
}
PACKAGE = sorted((ROOT / "src" / "parafock").glob("*.py"))


def relative_imports(source: str) -> set[str]:
    """Sibling modules that ``source`` imports with ``from .x import ...``
    or ``from . import x``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_layer_table_covers_the_package():
    assert {path.stem for path in PACKAGE} == set(LAYERS)
    assert relative_imports("from .a import b\nfrom . import c\nimport d\n") == {"a", "c"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_modules_import_only_lower_layers(path):
    rank = LAYERS[path.stem]
    upward = {
        name
        for name in relative_imports(path.read_text(encoding="utf-8"))
        if LAYERS[name] >= rank
    }
    assert upward == set()


# Names a module lists in ``__all__`` that the package does not re-export.
NOT_REEXPORTED = {"ALTERNANT_RANK_LIMIT", "enumeration_key"}


def test_package_exports_the_modules_public_names():
    # ``parafock.schur`` is the function, so the modules load by name
    listed = set()
    for name in ("partitions", "polyring", "schur", "weyl", "kostant"):
        listed.update(importlib.import_module(f"parafock.{name}").__all__)
    assert sorted(parafock.__all__) == sorted(listed - NOT_REEXPORTED)
    for name in parafock.__all__:
        assert hasattr(parafock, name), name


# The standard-library modules ``import parafock.cli`` may load beyond the
# interpreter, ``argparse`` and ``json``.  Every CLI process pays for each of
# them at start-up: ``dataclasses`` would bring ``inspect``, ``ast``, ``dis``
# and ``tokenize``, and ``typing`` costs a few milliseconds where ``site``
# does not preload it.
CLI_STDLIB_IMPORTS = {"__future__", "collections.abc", "math"}

PROBE = """
import sys, argparse, json
before = set(sys.modules)
import parafock.cli
print(*sorted(set(sys.modules) - before))
"""


def test_cli_import_loads_only_the_listed_stdlib_modules():
    # -S skips ``site``, which may preload modules and hide what the package pulls in
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    added = set(run.stdout.split())
    assert "parafock.cli" in added
    assert {name for name in added if name.split(".")[0] != "parafock"} == CLI_STDLIB_IMPORTS
