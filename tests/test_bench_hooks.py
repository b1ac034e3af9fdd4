"""The benchmark's tracer attaches to parafock by name; every name must resolve.

``bench/spans.py`` wraps library functions and methods listed in its
``FUNCTIONS``, ``GENERATORS`` and ``METHODS`` tables.  A refactor that
renames or drops one of them would break ``bench/run.py --trace 1`` without
failing any library test, so this module loads the tracer (without
installing it) and checks its tables against the library.
"""

import importlib
import importlib.util
from pathlib import Path

from parafock.partitions import enumerate_self_conjugate_in_square
from parafock.schur import SchurContext

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_parafock():
    spans = _load_spans()
    mods = {short: importlib.import_module(f"parafock.{short}") for short in spans.MODULES}
    for short, attr, _ in spans.FUNCTIONS + spans.GENERATORS:
        assert callable(getattr(mods[short], attr, None)), f"parafock.{short}.{attr}"
    for cls_name, methods, _ in spans.METHODS:
        cls = getattr(mods["polyring"], cls_name)
        for meth in methods:
            assert meth in vars(cls), f"{cls_name}.{meth}"
    assert callable(SchurContext.h)


def test_self_conjugate_enumeration_returns_a_list():
    # The tracer counts the diagrams it yields with len().
    assert isinstance(enumerate_self_conjugate_in_square(3), list)
