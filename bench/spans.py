"""In-memory span recorder, attached to parafock's layers from outside.

``install()`` replaces the public functions of ``partitions``, ``polyring``,
``schur``, ``weyl``, ``kostant`` and ``cli`` with timing wrappers.  The
library binds many of these names into other modules with ``from .x import
y``, so a wrapper is written into every module namespace that holds the
original object, not only the defining module.  Class attributes are patched
under every alias (``MultiPoly.__rmul__`` is ``__mul__``, ``__radd__`` is
``__add__``).

Each wrapped call records one span: name, start, end and the index of the
enclosing span.  A call re-entering a name that is already open (``a - b``
runs ``a + (-b)``) records no second span, so ``calls`` counts what the
caller asked for.  Exact work counts (term pairs, terms out, diagrams
yielded, terms scanned, cache hits) are recorded at the same boundaries.
Counting that costs more than a ``len`` runs inside a ``trace.bookkeeping``
span, so it is not charged to the layer that called the wrapped function.

Self time of a span is its duration minus the durations of its direct
children; spans of one name never nest, so inclusive time is the plain sum.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

MODULES = ("cli", "kostant", "schur", "weyl", "polyring", "partitions")

# (defining module, function, span name)
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("kostant", "verify_parafermion_identity", "kostant.verify"),
    ("kostant", "verify_paraboson_identity", "kostant.verify"),
    ("kostant", "verify_parastat_identity", "kostant.verify"),
    ("kostant", "verify_weyl_character", "kostant.verify"),
    ("kostant", "cohomology_via_w1", "kostant.cohomology"),
    ("kostant", "cohomology_via_partitions", "kostant.cohomology"),
    ("kostant", "branching_character", "kostant.branching_character"),
    ("kostant", "_first_discrepancy", "kostant.compare"),
    ("schur", "schur", "schur.schur"),
    ("schur", "hook_schur", "schur.hook_schur"),
    ("schur", "schur_sum", "schur.schur_sum"),
    ("weyl", "alternant", "weyl.alternant"),
    ("weyl", "phi_sigma", "weyl.phi_sigma"),
    ("weyl", "w1_element", "weyl.w1_element"),
    ("weyl", "kostant_weight", "weyl.kostant_weight"),
    ("weyl", "weight_monomial", "weyl.weight_monomial"),
    ("partitions", "enumerate_self_conjugate_in_square", "partitions.enumerate_self_conjugate"),
    ("partitions", "augment_arms", "partitions.augment_arms"),
    ("partitions", "frobenius_decompose", "partitions.frobenius_decompose"),
    ("partitions", "hook_condition", "partitions.hook_condition"),
)

# (class, method names sharing one span name, span name)
METHODS = (
    ("MultiPoly", ("__mul__", "__rmul__"), "polyring.mul"),
    ("MultiPoly", ("__add__", "__radd__", "__sub__", "__rsub__"), "polyring.add"),
    ("TruncatedSeries", ("__mul__", "__rmul__"), "polyring.series_mul"),
)

# Generators get one span per item they produce.
GENERATORS = (("partitions", "enumerate_partitions", "partitions.enumerate_partitions"),)


class Recorder:
    """Spans as parallel arrays, plus exact counters keyed by metric name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.open: list[bool] = []
        self.counts: dict[str, int] = {}
        self._bookkeeping = self.timed("trace.bookkeeping", lambda work: work())

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.open.append(False)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def timed(self, name: str, fn, after=None):
        """Wrap ``fn`` so that each outermost call records a span."""
        nid = self.intern(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, is_open, clock = self.stack, self.open, time.perf_counter

        def wrapper(*args, **kwargs):
            if is_open[nid]:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            is_open[nid] = True
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                is_open[nid] = False
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def timed_generator(self, name: str, fn):
        """Wrap a generator function: one span per ``next`` step."""

        def step(it):
            return next(it, _DONE)

        timed_step = self.timed(name, step)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while (item := timed_step(it)) is not _DONE:
                yield item

        return wrapper

    def bookkeeping(self, work) -> None:
        """Run tracer-only counting inside its own span."""
        self._bookkeeping(work)

    def summary(self) -> dict:
        """Per span name: calls, self seconds and inclusive seconds."""
        k = len(self.names)
        calls, self_s, incl_s = [0] * k, [0.0] * k, [0.0] * k
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(len(start)):
            nid = name[i]
            d = end[i] - start[i]
            calls[nid] += 1
            self_s[nid] += d
            incl_s[nid] += d
            p = parent[i]
            if p >= 0:
                self_s[name[p]] -= d
        return {
            self.names[j]: {"calls": calls[j], "self_s": self_s[j], "incl_s": incl_s[j]}
            for j in range(k)
        }

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self.start)):
                out.write(
                    json.dumps(
                        [self.names[self.name[i]], self.start[i], self.end[i], self.parent[i]]
                    )
                )
                out.write("\n")


_DONE = object()


def _module(short: str):
    # ``parafock.schur`` as an attribute is the function, not the module.
    return importlib.import_module(f"parafock.{short}")


def install() -> Recorder:
    """Patch every binding site of the traced functions; return the recorder."""
    rec = Recorder()
    mods = {short: _module(short) for short in MODULES}
    replace: dict[int, object] = {}

    after = {
        "polyring.mul": _count_mul(rec),
        "polyring.series_mul": _count_terms(rec, "polyring.series_mul.terms_out", lambda r: r.poly),
        "partitions.enumerate_self_conjugate": _count_yielded(rec),
        "weyl.alternant": _count_terms(rec, "weyl.alternant.terms_out", lambda r: r),
        "kostant.compare": _count_compare(rec),
    }
    for short, attr, name in FUNCTIONS:
        fn = getattr(mods[short], attr)
        replace[id(fn)] = rec.timed(name, fn, after.get(name))
    for short, attr, name in GENERATORS:
        fn = getattr(mods[short], attr)
        replace[id(fn)] = rec.timed_generator(name, fn)
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            wrapped = replace.get(id(value))
            if wrapped is not None:
                setattr(mod, attr, wrapped)

    polyring = mods["polyring"]
    for cls_name, methods, name in METHODS:
        cls = getattr(polyring, cls_name)
        for meth in methods:
            setattr(cls, meth, rec.timed(name, vars(cls)[meth], after.get(name)))

    _count_h(rec, mods["schur"].SchurContext)
    return rec


def _count_mul(rec: Recorder):
    polyring = _module("polyring")

    def after(args, result):
        if result is NotImplemented:
            return
        a, b = args
        if isinstance(b, polyring.MultiPoly):
            rec.count("polyring.mul.term_pairs", len(a.terms) * len(b.terms))
        rec.count("polyring.mul.terms_out", len(result.terms))

    return after


def _count_terms(rec: Recorder, key: str, poly_of):
    def after(args, result):
        if result is not NotImplemented:
            rec.count(key, len(poly_of(result).terms))

    return after


def _count_yielded(rec: Recorder):
    def after(args, result):
        rec.count("partitions.self_conjugate_yielded", len(result))

    return after


def _count_compare(rec: Recorder):
    def after(args, result):
        lhs, rhs = args[0], args[1]
        cut = args[2] if len(args) > 2 else None

        def work():
            keys = lhs.terms.keys() | rhs.terms.keys()
            rec.count("kostant.compare.terms_scanned", len(keys))
            rec.count(
                "kostant.compare.in_bound",
                len(keys) if cut is None else sum(1 for e in keys if sum(e) <= cut),
            )

        rec.bookkeeping(work)

    return after


def _count_h(rec: Recorder, context_cls) -> None:
    """Count complete-homogeneous lookups and cache hits (no span: h is tiny)."""
    h = context_cls.h

    def counted(self, k, which="even"):
        rec.count("schur.h.calls")
        if k >= 0:
            rec.count("schur.h.cacheable")
            if (which, k) in self._h_cache:
                rec.count("schur.h.hits")
        return h(self, k, which)

    context_cls.h = counted
