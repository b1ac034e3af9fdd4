"""Exact polynomial arithmetic: ring axioms, truncation soundness, serialization."""

import itertools
import json
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafock.polyring import (
    MultiPoly,
    TruncatedSeries,
    _det,
    _mul_terms,
    _times_binomial,
    expand_inverse_product,
)

NVARS = 2


def build(terms):
    return MultiPoly(NVARS, terms)


# doubled exponent entries (odd entries are half-integral exponents)
laurent_polys = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-9, 9),
    max_size=6,
).map(build)

cone_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.integers(-9, 9),
    max_size=6,
).map(build)


# -- frozen examples ----------------------------------------------------------

def test_constructors_frozen():
    x = MultiPoly.variable(3, 0)
    assert x.terms == {(2, 0, 0): 1}
    t = MultiPoly.term(2, (1, 3), -4)
    assert t.terms == {(2, 6): -4}
    h = MultiPoly.half_term(1, (-1,))
    assert h.terms == {(-1,): 1}
    assert MultiPoly.one(2).terms == {(0, 0): 1}
    assert MultiPoly.zero(2).is_zero()
    assert MultiPoly.constant(2, 0).is_zero()


def test_small_product_frozen():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.coefficient((2, 0)) == 1
    assert p.coefficient((0, 2)) == -1
    assert p.coefficient((1, 1)) == 0


def test_str_rendering_frozen():
    x = MultiPoly.variable(1, 0)
    assert str(MultiPoly.zero(1)) == "0"
    assert str(x * x - 1) == "-1 + x1^(2)"
    assert str(MultiPoly.half_term(1, (-1,)) - MultiPoly.half_term(1, (1,))) == (
        "x1^(-1/2) - x1^(1/2)"
    )


def test_component_and_degree_frozen():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    p = x * x + x * y + y + 1
    assert p.component2(4) == x * x + x * y
    assert p.component2(2) == y
    assert max(map(sum, p.terms)) == 4 and min(map(sum, p.terms)) == 0
    h = MultiPoly.half_term(1, (3,))
    assert h.component2(3) == h


def test_validation_errors():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly.variable(2, 5)
    with pytest.raises(ValueError):
        MultiPoly.one(2) + MultiPoly.one(3)
    with pytest.raises(ValueError):
        MultiPoly.one(2) ** -1
    with pytest.raises(ValueError, match="nvars must be >= 0, got -1"):
        MultiPoly(-1)
    with pytest.raises(ValueError, match="not a permutation"):
        MultiPoly.variable(2, 0).permute_variables((0, 0))
    with pytest.raises(ValueError, match="divisor must be a MultiPoly"):
        MultiPoly.one(1).exact_div("x")


def test_coefficient_rejects_a_wrong_length_exponent_vector():
    x = MultiPoly.variable(2, 0)
    assert x.coefficient([1, 0]) == 1 and x.coefficient([0, 1]) == 0
    for exponents in ([1], [1, 0, 0]):
        with pytest.raises(ValueError, match="has length"):
            x.coefficient(exponents)


def test_comparison_with_an_int_lifts_it_to_a_constant():
    assert MultiPoly.constant(2, 3) == 3
    assert MultiPoly.zero(2) == 0
    assert MultiPoly.variable(2, 0) != 1
    assert (MultiPoly.one(1) == "1") is False


@pytest.mark.parametrize(
    "op",
    [
        operator.add,
        operator.sub,
        operator.mul,
        lambda a, b: b + a,
        lambda a, b: b - a,
        lambda a, b: b * a,
    ],
    ids=["add", "sub", "mul", "radd", "rsub", "rmul"],
)
def test_arithmetic_with_a_string_raises_type_error(op):
    x = MultiPoly.variable(1, 0)
    for a in (x, TruncatedSeries(x, 3)):
        with pytest.raises(TypeError):
            op(a, "x")


# -- ring axioms --------------------------------------------------------------

@settings(max_examples=60)
@given(laurent_polys, laurent_polys, laurent_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + MultiPoly.zero(NVARS) == a
    assert a * MultiPoly.one(NVARS) == a
    assert a - a == MultiPoly.zero(NVARS)


@settings(max_examples=40)
@given(laurent_polys, st.integers(0, 5))
def test_pow_matches_repeated_product(a, k):
    expected = MultiPoly.one(NVARS)
    for _ in range(k):
        expected = expected * a
    assert a ** k == expected


@settings(max_examples=40)
@given(laurent_polys)
def test_permute_variables_swap_is_involutive(a):
    swapped = a.permute_variables((1, 0))
    assert swapped.permute_variables((1, 0)) == a
    assert a.permute_variables((0, 1)) == a
    assert swapped.sum_of_coefficients() == a.sum_of_coefficients()


@settings(max_examples=40)
@given(laurent_polys)
def test_scalar_multiplication(a):
    assert 3 * a == a + a + a
    assert a * 0 == MultiPoly.zero(NVARS)
    assert -a == a * -1


# -- exact division -----------------------------------------------------------

@settings(max_examples=60)
@given(cone_polys, cone_polys)
def test_exact_div_inverts_multiplication(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            (a * b).exact_div(b)
        return
    assert (a * b).exact_div(b) == a


def test_exact_div_rejects_inexact():
    x = MultiPoly.variable(1, 0)
    with pytest.raises(ValueError):
        (x * x + 1).exact_div(x + 1)
    with pytest.raises(ValueError):
        (2 * x).exact_div(3 * x)
    with pytest.raises(ValueError):
        MultiPoly.half_term(1, (-2,)).exact_div(x)


def test_exact_div_classic_quotient():
    x = MultiPoly.variable(1, 0)
    quotient = (x ** 3 - 1).exact_div(x - 1)
    assert quotient == x * x + x + 1


# -- truncated series ---------------------------------------------------------

def test_series_mixed_variable_counts_raise():
    two = TruncatedSeries(MultiPoly.variable(2, 0) + 1, 3)
    one = TruncatedSeries(MultiPoly.variable(1, 0) + 1, 3)
    exact_one = TruncatedSeries(MultiPoly.one(1), math.inf)
    for a, b in ((two, one), (one, two), (two, MultiPoly.one(1)), (two, exact_one)):
        for op in (lambda: a * b, lambda: a + b, lambda: a - b, lambda: b - a):
            with pytest.raises(ValueError, match="mixed variable counts"):
                op()


def test_series_drops_terms_beyond_bound():
    x = MultiPoly.variable(1, 0)
    s = TruncatedSeries(x ** 5 + x + 1, 3)
    assert s.poly == x + 1
    assert s.valid_degree == 3
    with pytest.raises(ValueError):
        TruncatedSeries(MultiPoly.half_term(1, (-1,)), 3)


def test_series_degree_bound_must_be_a_non_negative_integer_or_infinite():
    x = MultiPoly.variable(1, 0)
    for bound in (2.5, -1, -math.inf, math.nan):
        with pytest.raises(ValueError, match="degree bound"):
            TruncatedSeries(x, bound)
        with pytest.raises(ValueError, match="degree bound"):
            expand_inverse_product([1 - x], bound)
    with pytest.raises(ValueError, match="degree bound"):
        expand_inverse_product([1 - x], math.inf)
    # an integral float is an integer bound
    assert type(TruncatedSeries(x, 3.0).valid_degree) is int
    assert TruncatedSeries(x, 3.0) == TruncatedSeries(x, 3)
    assert TruncatedSeries(x ** 9, math.inf).valid_degree == math.inf
    assert expand_inverse_product([1 - x], 2.0).poly == 1 + x + x ** 2


@settings(max_examples=60)
@given(cone_polys, cone_polys, st.integers(0, 6))
def test_truncated_product_matches_full_product_through_bound(a, b, d):
    exact = a * b
    approx = TruncatedSeries(a, d) * TruncatedSeries(b, d)
    assert approx.valid_degree == d
    for k in range(d + 1):
        assert approx.poly.component2(2 * k) == exact.component2(2 * k)
    assert max(map(sum, approx.poly.terms), default=0) <= 2 * d


def pair_product(a, b, cut=math.inf):
    """Term-pair product of two term dicts, keeping doubled degrees <= cut."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= cut:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


bounds = st.one_of(st.integers(0, 6), st.just(math.inf))


@settings(max_examples=80)
@given(laurent_polys, laurent_polys)
def test_product_matches_term_pair_reference(a, b):
    assert (a * b).terms == pair_product(a.terms, b.terms)
    assert (b * a).terms == pair_product(a.terms, b.terms)


@settings(max_examples=80)
@given(cone_polys, bounds, cone_polys, bounds, st.sampled_from(("series", "poly", "int")),
       st.integers(-3, 3))
def test_series_product_matches_term_pair_reference(a, da, b, db, kind, k):
    s = TruncatedSeries(a, da)
    if kind == "series":
        other = TruncatedSeries(b, db)
        terms, bound = other.poly.terms, min(da, db)
    elif kind == "poly":
        other, terms, bound = b, b.terms, da
    else:
        other, terms, bound = k, ({(0,) * NVARS: k} if k else {}), da
    expected = pair_product(s.poly.terms, terms, 2 * bound)
    for product in (s * other, other * s):
        assert product.valid_degree == bound
        assert product.poly.terms == expected


@st.composite
def binomial_steps(draw):
    """(terms within the cut, e, c, cut) over 1 to 4 variables; some draws
    plant a term that the shifted copy of another cancels."""
    nv = draw(st.integers(1, 4))
    cut = draw(st.one_of(st.integers(0, 10), st.just(math.inf)))
    vectors = st.tuples(*[st.integers(0, 4)] * nv)
    terms = draw(st.dictionaries(vectors, st.integers(-9, 9).filter(bool), max_size=8))
    terms = {a: ca for a, ca in terms.items() if sum(a) <= cut}
    e = draw(st.tuples(*[st.integers(0, 3)] * nv).filter(any))
    c = draw(st.one_of(st.sampled_from((1, -1)), st.integers(-5, 5).filter(bool)))
    if draw(st.booleans()):
        for a, ca in list(terms.items()):
            k = tuple(x + y for x, y in zip(a, e))
            if sum(k) <= cut:
                terms[k] = -c * ca
                break
    return terms, e, c, cut


@settings(max_examples=200)
@given(binomial_steps())
def test_factor_step_matches_the_generic_product(step):
    terms, e, c, cut = step
    before = dict(terms)
    expected = _mul_terms(terms, {(0,) * len(e): 1, e: c}, cut)
    assert _times_binomial(terms, e, c, cut) == expected
    assert terms == before


def test_factor_step_deletes_a_cancelled_term():
    # (1 + x + x^2)(1 - x) = 1 - x^3, and through degree 2 it is 1
    terms = {(0,): 1, (1,): 1, (2,): 1}
    assert _times_binomial(terms, (1,), -1) == {(0,): 1, (3,): -1}
    assert _times_binomial(terms, (1,), -1, 2) == {(0,): 1}
    assert terms == {(0,): 1, (1,): 1, (2,): 1}


def test_series_times_negative_exponent_raises():
    s = TruncatedSeries(MultiPoly.variable(2, 0) + 1, 3)
    laurent = MultiPoly.half_term(2, (-1, 2))
    for op in (lambda: s * laurent, lambda: laurent * s, lambda: s * (laurent + 1)):
        with pytest.raises(ValueError, match="non-negative"):
            op()


def test_series_product_checks_only_the_lifted_operand(monkeypatch):
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    big = TruncatedSeries(sum((x ** i * y ** j for i in range(6) for j in range(6 - i)),
                              MultiPoly.zero(2)), 5)
    assert len(big.poly) >= 20
    seen = []
    real = TruncatedSeries.__init__

    def spy(self, poly, valid_degree):
        seen.append(len(poly))
        real(self, poly, valid_degree)

    monkeypatch.setattr(TruncatedSeries, "__init__", spy)
    product = big * (1 - x * y)
    assert product.poly.terms == pair_product(big.poly.terms, (1 - x * y).terms, 10)
    assert seen and max(seen) <= 2


def test_series_mixed_bounds_take_the_weaker():
    x = MultiPoly.variable(1, 0)
    a = TruncatedSeries(x + 1, 5)
    b = TruncatedSeries(x * x, 2)
    assert (a * b).valid_degree == 2
    assert (a + b).valid_degree == 2
    exact = TruncatedSeries(x + 1, math.inf) * TruncatedSeries(x, math.inf)
    assert exact.valid_degree == math.inf
    assert exact.poly == x * x + x
    lifted = a * 2 + 1
    assert lifted.valid_degree == 5
    assert lifted.poly == 2 * x + 3
    assert (a - b).valid_degree == 2
    assert (a - b).poly == x + 1 - x * x
    assert (a - 1).poly == x
    # an int or MultiPoly on the left lifts to an exact series, so the
    # difference keeps the series' bound and drops the terms above it
    assert 1 - a == TruncatedSeries(-x, 5)
    assert x ** 3 + 2 - b == TruncatedSeries(2 - x * x, 2)


def test_expand_inverse_product_geometric():
    x = MultiPoly.variable(1, 0)
    one = MultiPoly.one(1)
    s = expand_inverse_product([one - x], 6)
    assert s.poly == sum((x ** k for k in range(7)), MultiPoly.zero(1))
    # multiplying back by the denominator recovers 1 through the bound
    back = s * TruncatedSeries(one - x, 6)
    assert back.poly == one


def test_expand_inverse_product_two_variables():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    one = MultiPoly.one(2)
    s = expand_inverse_product([one - x, one - x * y], 3)
    back = s * TruncatedSeries(one - x, 3) * TruncatedSeries(one - x * y, 3)
    assert back.poly == one
    # coefficient of x^a (xy)^b is 1 for every split
    assert s.poly.coefficient((1, 0)) == 1
    assert s.poly.coefficient((2, 1)) == 1
    assert s.poly.coefficient((0, 1)) == 0


def test_expand_inverse_product_signed_factor():
    x = MultiPoly.variable(1, 0)
    one = MultiPoly.one(1)
    s = expand_inverse_product([one + x], 4)
    assert s.poly == one - x + x ** 2 - x ** 3 + x ** 4


def test_expand_inverse_product_validation():
    x = MultiPoly.variable(1, 0)
    one = MultiPoly.one(1)
    with pytest.raises(ValueError):
        expand_inverse_product([one - x], math.inf)
    with pytest.raises(ValueError):
        expand_inverse_product([x], 3)
    with pytest.raises(ValueError):
        expand_inverse_product([one - x + x ** 2], 3)
    with pytest.raises(ValueError):
        expand_inverse_product([2 * one - x], 3)
    with pytest.raises(ValueError):
        expand_inverse_product([], 3)
    with pytest.raises(ValueError, match="positive total degree"):
        expand_inverse_product([one - MultiPoly.half_term(1, (-2,))], 3)
    with pytest.raises(ValueError, match="share one variable set"):
        expand_inverse_product([one - x, MultiPoly.one(2) - MultiPoly.variable(2, 0)], 3)


def geometric_series_oracle(factors, bound):
    """prod 1/(1 - c x^e) as the product of truncated geometric series."""
    nv = factors[0].nvars
    result = TruncatedSeries(MultiPoly.one(nv), bound)
    for f in factors:
        ((e, c),) = ((e, -c) for e, c in f.terms.items() if any(e))
        terms, k = {}, 0
        while k * sum(e) <= 2 * bound:
            terms[tuple(k * x for x in e)] = c ** k
            k += 1
        result = result * MultiPoly(nv, terms)
    return result


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("bound", range(10))
def test_expand_inverse_product_matches_the_geometric_series(nvars, bound):
    one = MultiPoly.one(nvars)
    factors = []
    for c, degree in itertools.product((1, -1, 2, -3), (1, 2, 3)):
        e = [0] * nvars
        for i in range(degree):
            e[i % nvars] += 2
        factors.append(one - MultiPoly.half_term(nvars, e, c))
    # x1^(1/2) ... xn^(1/2), of half-unit degree when nvars is odd
    factors.append(one + MultiPoly.half_term(nvars, (1,) * nvars))
    for f in factors:
        assert expand_inverse_product([f], bound) == geometric_series_oracle([f], bound), f
    whole = expand_inverse_product(factors, bound)
    assert whole == geometric_series_oracle(factors, bound)
    # a factor above the bound leaves the series as it is
    high = one - MultiPoly.half_term(nvars, (2 * bound + 1,) + (0,) * (nvars - 1), -3)
    assert expand_inverse_product(factors + [high], bound) == whole
    assert expand_inverse_product([high], bound) == TruncatedSeries(one, bound)


# -- determinants -----------------------------------------------------------------

def leibniz(mat):
    """Oracle: sum over pi of sgn(pi) prod_i mat[i][pi(i)]."""
    size = len(mat)
    total = 0
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = -1 if inversions % 2 else 1
        for i, col in enumerate(perm):
            term *= mat[i][col]
        total += term
    return total


integer_matrices = st.integers(0, 5).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=k, max_size=k
    )
)


@settings(max_examples=200, deadline=None)
@given(integer_matrices)
def test_det_of_constant_matrices_matches_leibniz(mat):
    # small entries make zero entries and singular matrices common
    polys = [[MultiPoly.constant(NVARS, c) for c in row] for row in mat]
    assert _det(polys, NVARS) == MultiPoly.constant(NVARS, leibniz(mat))


# -- serialization ------------------------------------------------------------

def test_json_terms_are_in_canonical_order():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    p = y * y + x * y + x - 2
    obj = p.to_json_obj()
    assert obj == [
        {"exp": [0, 0], "coef": "-2"},
        {"exp": [2, 0], "coef": "1"},
        {"exp": [0, 4], "coef": "1"},
        {"exp": [2, 2], "coef": "1"},
    ]
    assert json.dumps(obj)  # JSON-safe


@settings(max_examples=40)
@given(laurent_polys)
def test_json_roundtrip(a):
    obj = json.loads(json.dumps(a.to_json_obj()))
    assert MultiPoly(NVARS, {tuple(t["exp"]): int(t["coef"]) for t in obj}) == a
