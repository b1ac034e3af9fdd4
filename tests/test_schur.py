"""Schur engines: frozen values, cross-engine agreement, classical oracles."""

import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafock.partitions import Partition, enumerate_partitions, hook_condition
from parafock.polyring import MultiPoly, TruncatedSeries
from parafock.schur import (
    SchurContext,
    _schur_expansion,
    hook_schur,
    schur,
    schur_sum,
    skew_schur,
)


def diagrams_up_to(size, **bounds):
    return list(enumerate_partitions(max_size=size, **bounds))


# -- independent oracles -------------------------------------------------------

def tableau_count_oracle(lam, n):
    """Number of column-strict fillings with entries <= n, by hook contents."""
    conj = lam.conjugate()
    value = Fraction(1)
    for i, row in enumerate(lam):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            value *= Fraction(n + j - i, hook)
    assert value.denominator == 1
    return int(value)


def added_box_shapes(lam, max_rows):
    """All diagrams obtained from lam by adding one box, at most max_rows rows."""
    out = []
    for i in range(min(len(lam) + 1, max_rows)):
        parts = list(lam) + [0] * (i + 1 - len(lam))
        parts[i] += 1
        try:
            out.append(Partition(parts))
        except ValueError:
            continue
    return out


# -- frozen values --------------------------------------------------------------

def test_schur_frozen_two_variables():
    ctx = SchurContext(2)
    x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert schur(Partition(), ctx) == MultiPoly.one(2)
    assert schur(Partition([1]), ctx) == x1 + x2
    assert schur(Partition([2]), ctx) == x1 ** 2 + x1 * x2 + x2 ** 2
    assert schur(Partition([1, 1]), ctx) == x1 * x2
    assert schur(Partition([2, 1]), ctx) == x1 ** 2 * x2 + x1 * x2 ** 2
    assert schur(Partition([1, 1, 1]), ctx).is_zero()


def test_hook_schur_frozen_one_even_one_odd():
    ctx = SchurContext(1, 1)
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert hook_schur(Partition([1]), ctx) == x + y
    assert hook_schur(Partition([2]), ctx) == x ** 2 + x * y
    assert hook_schur(Partition([1, 1]), ctx) == x * y + y ** 2
    assert hook_schur(Partition([2, 1]), ctx) == x ** 2 * y + x * y ** 2
    assert hook_schur(Partition([2, 2]), ctx).is_zero()


def test_skew_schur_frozen():
    ctx = SchurContext(2)
    x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert skew_schur(Partition([2, 1]), Partition([1]), ctx) == (
        x1 ** 2 + 2 * x1 * x2 + x2 ** 2
    )
    assert skew_schur(Partition([2, 1]), Partition([2, 1]), ctx) == MultiPoly.one(2)
    assert skew_schur(Partition([3]), Partition(), ctx) == schur(Partition([3]), ctx)


def test_schur_sum_frozen():
    ctx = SchurContext(2)
    x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    narrow = schur_sum(("max_columns", 1), ctx, math.inf)
    assert narrow.poly == 1 + x1 + x2 + x1 * x2
    assert narrow.valid_degree == math.inf
    shallow = schur_sum(("max_rows", 1), ctx, 2)
    assert shallow.poly == 1 + (x1 + x2) + (x1 ** 2 + x1 * x2 + x2 ** 2)
    assert shallow.valid_degree == 2


def test_hook_schur_sum_frozen():
    ctx = SchurContext(1, 1)
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    s = schur_sum(("hook", 1), ctx, 2)
    # columns of height <= anything, width <= 1: empty, (1), (1,1) survive the hook
    assert s.poly == 1 + (x + y) + (x * y + y ** 2)


def _checked_family_sum(kind, p, ctx, bound):
    """The family sum built through every check: each diagram through
    ``Partition``, each summand by the tableau engine, the total through
    ``TruncatedSeries``."""
    if kind == "max_columns":
        # inside the p^n rectangle, a finite family whatever the bound
        family = [lam for lam in diagrams_up_to(ctx.n * p) if len(lam) <= ctx.n]
    else:
        family = diagrams_up_to(bound)
    family = [Partition(list(lam)) for lam in family]
    if kind == "max_rows":
        family = [lam for lam in family if len(lam) <= p]
    else:
        family = [lam for lam in family if lam.part(0) <= p]
    engine = hook_schur if kind == "hook" else schur
    total = MultiPoly.zero(ctx.nvars)
    for lam in family:
        total = total + engine(lam, ctx, "tab")
    return TruncatedSeries(total, bound)


@pytest.mark.parametrize(
    "kind, n, m, bounds",
    [("max_columns", n, 0, [*range(n * 3 + 2), math.inf]) for n in range(4)]
    + [("max_rows", n, 0, range(7)) for n in range(4)]
    + [("hook", n, m, range(7)) for n in range(3) for m in range(3)],
    ids=str,
)
def test_family_sums_equal_the_checked_construction(kind, n, m, bounds):
    # schur_sum wraps its sum unchecked; max_columns now enumerates only
    # through |lambda| <= D, which must drop exactly what truncation drops
    ctx = SchurContext(n, m)
    for p in range(4 if kind == "max_columns" else 3):
        for bound in bounds:
            got = schur_sum((kind, p), ctx, bound)
            assert got == _checked_family_sum(kind, p, ctx, bound), (kind, n, m, p, bound)
            assert type(got.valid_degree) is type(bound)


# -- validation ------------------------------------------------------------------

def test_algorithm_and_shape_validation():
    ctx = SchurContext(2)
    with pytest.raises(ValueError):
        schur(Partition([1]), ctx, algorithm="nope")
    with pytest.raises(ValueError):
        skew_schur(Partition([1]), Partition([2]), ctx)
    with pytest.raises(ValueError):
        hook_schur(Partition([1]), ctx, algorithm="nope")
    with pytest.raises(ValueError):
        SchurContext(-1)
    with pytest.raises(ValueError, match="expected jt or tab"):
        skew_schur(Partition([1]), Partition(), ctx, algorithm="gt")
    assert SchurContext(1, 2).block("odd") == range(1, 3)
    with pytest.raises(ValueError, match="unknown block"):
        ctx.block("middle")


def test_schur_sum_validation():
    with pytest.raises(ValueError):
        schur_sum(("max_columns", 2), SchurContext(1, 1), math.inf)
    with pytest.raises(ValueError):
        schur_sum(("max_rows", 2), SchurContext(2), math.inf)
    with pytest.raises(ValueError):
        schur_sum(("hook", 2), SchurContext(1, 1), math.inf)
    with pytest.raises(ValueError):
        schur_sum(("sideways", 2), SchurContext(2), 4)
    with pytest.raises(ValueError):
        schur_sum(("max_columns", -1), SchurContext(2), math.inf)



def test_schur_sum_rejects_fractional_degree_bounds():
    for constraint in (("hook", 1), ("max_columns", 1), ("max_rows", 1)):
        with pytest.raises(ValueError, match="degree bound"):
            schur_sum(constraint, SchurContext(1, 1 if constraint[0] == "hook" else 0), 2.5)
    assert schur_sum(("hook", 1), SchurContext(1, 1), 2).valid_degree == 2


@pytest.mark.parametrize("bound", [math.nan, -1, 2.5])
@pytest.mark.parametrize("kind", ["hook", "max_columns", "max_rows"])
def test_schur_sum_checks_its_degree_bound_first(monkeypatch, kind, bound):
    # a bad bound raises before any diagram is enumerated
    def enumerate_nothing(**bounds):
        raise AssertionError(f"enumerated with {bounds}")

    monkeypatch.setattr(
        importlib.import_module("parafock.schur"), "enumerate_partitions", enumerate_nothing
    )
    ctx = SchurContext(1, 1 if kind == "hook" else 0)
    with pytest.raises(ValueError, match="degree bound must be"):
        schur_sum((kind, 1), ctx, bound)


# -- cross-engine agreement -------------------------------------------------------

def test_three_engines_agree():
    # with m > 0 the odd variables must stay absent from plain Schur polynomials
    for n, m in ((1, 0), (2, 0), (3, 0), (0, 2), (1, 1), (2, 1)):
        ctx = SchurContext(n, m)
        for lam in diagrams_up_to(6):
            ref = schur(lam, ctx, "jt")
            assert schur(lam, ctx, "gt") == ref
            assert schur(lam, ctx, "alt") == ref
            assert schur(lam, ctx, "tab") == ref


@st.composite
def small_partitions(draw, max_size=10):
    parts, room = [], max_size
    while room and draw(st.booleans()):
        part = draw(st.integers(1, room))
        parts.append(part)
        room -= part
    return Partition(sorted(parts, reverse=True))


@settings(max_examples=60, deadline=None)
@given(small_partitions(), st.integers(0, 5), st.integers(0, 3))
def test_branching_engine_matches_jacobi_trudi(lam, n, m):
    ctx = SchurContext(n, m)
    assert schur(lam, ctx, "gt") == schur(lam, ctx, "jt")
    if n <= 3 and lam.size <= 8:
        assert hook_schur(lam, ctx, "br") == hook_schur(lam, ctx, "tab")


def test_branching_engine_returns_a_fresh_polynomial():
    ctx = SchurContext(3, 1)
    lam = Partition([2, 1])
    expected = schur(lam, ctx, "jt")
    first = schur(lam, ctx)
    assert first == expected
    first.terms.clear()
    assert schur(lam, ctx) == expected
    expected = hook_schur(lam, ctx, "tab")
    first = hook_schur(lam, ctx)
    assert first == expected
    first.terms.clear()
    assert hook_schur(lam, ctx) == expected


@pytest.mark.parametrize("n, m", [(n, m) for n in range(6) for m in range(6 - n)])
@settings(max_examples=12, deadline=None)
@given(st.data())
def test_one_branching_pass_expands_a_family_like_the_tableau_engine(n, m, data):
    # the family always holds a cancelling pair, a zero coefficient and the
    # empty diagram; the plain sum on m > 0 leaves the odd variables absent.
    # The pass takes the rows tuples the library builds, not Partitions
    ctx = SchurContext(n, m)
    diagram, coefficient = small_partitions(max_size=6), st.integers(-3, 3)
    family = data.draw(st.lists(st.tuples(diagram, coefficient), max_size=5))
    lam, c = data.draw(diagram), data.draw(coefficient)
    family += [(lam, c), (data.draw(diagram), 0), (lam, -c), (Partition(), data.draw(coefficient))]
    family = data.draw(st.permutations(family))
    for hook, engine in ((True, hook_schur), (False, schur)):
        expected = MultiPoly.zero(ctx.nvars)
        for lam, c in family:
            expected = expected + c * engine(lam, ctx, "tab")
        rows = [(lam.parts, c) for lam, c in family]
        assert _schur_expansion(rows, ctx, hook) == expected


def test_skew_engines_agree():
    for n, m in ((3, 0), (0, 2), (1, 1), (2, 1)):
        ctx = SchurContext(n, m)
        for lam in diagrams_up_to(5):
            for mu in diagrams_up_to(lam.size):
                if not lam.contains(mu):
                    continue
                assert skew_schur(lam, mu, ctx, "jt") == skew_schur(lam, mu, ctx, "tab")


def test_hook_engines_agree():
    for n, m in ((1, 1), (2, 1), (1, 2), (2, 2), (0, 3), (3, 0), (3, 1), (1, 3), (3, 3)):
        ctx = SchurContext(n, m)
        for lam in diagrams_up_to(5):
            assert hook_schur(lam, ctx, "br") == hook_schur(lam, ctx, "tab")
    # long thin diagrams: the vertical strips run over many equal rows
    ctx = SchurContext(1, 1)
    for lam in ([2] + [1] * 7, [1] * 9, [2, 2, 2, 1, 1, 1]):
        assert hook_schur(lam, ctx, "br") == hook_schur(lam, ctx, "tab")


@pytest.mark.parametrize("n, m", [(0, 2), (0, 4), (1, 1), (1, 2), (1, 3), (2, 2)])
def test_hook_branching_matches_tableaux_on_wide_diagrams(n, m):
    # wide diagrams have long conjugates, which the odd variables branch; with
    # n = 0 the pass never turns back to rows
    ctx = SchurContext(n, m)
    for lam in ([9], [7, 2], [5, 5, 1], [4, 4, 4], [6, 3, 1]):
        assert hook_schur(lam, ctx, "br") == hook_schur(lam, ctx, "tab"), lam


def splits_oracle(lam, n, m):
    """Number of (nu, kappa) splits in a branching pass over hs_lam in (n|m)
    variables that keeps only the kappa fitting the hook of the variables
    left: a vertical strip off nu for an odd variable, a horizontal one for
    an even variable, found by scanning every smaller diagram."""
    carry, count = {tuple(lam)}, 0
    for k in range(n + m - 1, -1, -1):
        below = set()
        for nu in carry:
            rows = nu + (0,)
            for kappa in enumerate_partitions(max_size=sum(nu)):
                if len(kappa) > len(nu) or any(kappa[i] > nu[i] for i in range(len(kappa))):
                    continue
                if k >= n:
                    split = all(nu[i] - kappa.part(i) <= 1 for i in range(len(nu)))
                    fits = hook_condition(kappa, n, k - n)
                else:
                    split = all(kappa.part(i) >= rows[i + 1] for i in range(len(nu)))
                    fits = len(kappa) <= k
                if split and fits:
                    below.add(kappa.parts)
                    count += 1
        carry = below
    return count


@pytest.mark.parametrize("n, m", [(0, 3), (1, 2), (2, 1), (2, 2), (3, 0), (3, 1)])
def test_the_pass_splits_each_diagram_only_into_what_fits(monkeypatch, n, m):
    # a split whose kappa no longer fits could never reach the empty
    # diagram, so only counting the splits shows that none is made
    schur_module = importlib.import_module("parafock.schur")
    real, made = schur_module.product, []

    def counted(*ranges):
        splits = list(real(*ranges))
        made.append(len(splits))
        return iter(splits)

    monkeypatch.setattr(schur_module, "product", counted)
    ctx = SchurContext(n, m)
    for lam in ([3, 2], [4, 1, 1], [2, 2, 2, 1], [5, 3], [3, 3, 2, 1]):
        made.clear()
        hook_schur(lam, ctx)
        expected = splits_oracle(lam, n, m) if hook_condition(Partition(lam), n, m) else 0
        assert sum(made) == expected, lam
        made.clear()
        schur(lam, ctx)
        assert sum(made) == (splits_oracle(lam, n, 0) if len(lam) <= n else 0), lam


# -- classical properties -----------------------------------------------------------

def test_vanishing_matches_row_and_hook_conditions():
    for n in (1, 2, 3):
        ctx = SchurContext(n)
        for lam in diagrams_up_to(6):
            assert schur(lam, ctx).is_zero() == (len(lam) > n)
    for n, m in ((1, 1), (2, 1), (1, 2), (2, 2)):
        ctx = SchurContext(n, m)
        for lam in diagrams_up_to(6):
            assert hook_schur(lam, ctx).is_zero() == (not hook_condition(lam, n, m))


def test_homogeneity_and_symmetry():
    ctx = SchurContext(3)
    for lam in diagrams_up_to(5, max_length=3):
        p = schur(lam, ctx)
        assert {sum(e) for e in p.terms} == {2 * lam.size}
        assert p.permute_variables((1, 0, 2)) == p
        assert p.permute_variables((2, 0, 1)) == p


def test_hook_schur_symmetric_within_each_block():
    ctx = SchurContext(2, 2)
    for lam in diagrams_up_to(4):
        p = hook_schur(lam, ctx)
        assert p.permute_variables((1, 0, 2, 3)) == p
        assert p.permute_variables((0, 1, 3, 2)) == p


def test_tableau_counts_match_hook_content_oracle():
    for n in (1, 2, 3, 4):
        ctx = SchurContext(n)
        for lam in diagrams_up_to(6, max_length=n):
            assert schur(lam, ctx).sum_of_coefficients() == tableau_count_oracle(lam, n)


def test_pieri_rule_adding_one_box():
    n = 3
    ctx = SchurContext(n)
    h1 = ctx.h(1)
    for lam in diagrams_up_to(5, max_length=n):
        lhs = schur(lam, ctx) * h1
        rhs = MultiPoly.zero(n)
        for mu in added_box_shapes(lam, n):
            rhs = rhs + schur(mu, ctx)
        assert lhs == rhs


def test_hook_schur_specializes_to_schur_when_one_block_is_empty():
    for lam in diagrams_up_to(5):
        even_only = SchurContext(2, 0)
        assert hook_schur(lam, even_only) == schur(lam, even_only)
        odd_only = SchurContext(0, 2)
        plain = SchurContext(2, 0)
        assert hook_schur(lam, odd_only).terms == schur(lam.conjugate(), plain).terms


def test_skew_schur_respects_concatenation_of_disjoint_blocks():
    # s_{lam/mu} restricted to shapes where rows of mu exhaust whole rows of lam
    ctx = SchurContext(2)
    lam, mu = Partition([3, 3, 1]), Partition([3, 3])
    assert skew_schur(lam, mu, ctx) == schur(Partition([1]), ctx)
