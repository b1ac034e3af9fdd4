"""A principal-specialisation oracle for the parafermion and paraboson checks.

Setting x_i = t q^i (i = 1..n) for a fixed integer q turns every Schur
polynomial into an exact integer times a power of t.  By the hook-content
formula (Macdonald I.3 Ex. 1; Stanley, EC2 Thm 7.21.2),

    s_nu(t q, ..., t q^n) = t^|nu| q^(|nu| + n(nu)) prod_cells (q^(n+c) - 1) / (q^h - 1),

with n(nu) = sum (i - 1) nu_i, c the content and h the hook length of a cell;
the product is an integer, so it is taken whole and divided once.  The
denominator L = prod(1 - x_i) prod_{i<j}(1 - x_i x_j) becomes
prod(1 - t q^i) prod_{i<j}(1 - t^2 q^(i+j)), and the symmetric variant's
extra factors 1 - x_i^2 become 1 - t^2 q^(2i).  Each side of an identity is
then an integer polynomial in t, compared in full for the parafermion
identity and through t^D for the paraboson one.

The oracle reads only the cohomology table, ``enumerate_partitions`` and
conjugation: no dominant-weight test, no straightening, no branching pass
and no factor step.  It is a necessary condition, one linear functional per
degree, so a mismatch proves a failure; the tests below pin it to the
library's verdicts where both run, and run it alone at sizes the library's
whole-product oracles cannot reach.
"""

import pytest

from parafock.kostant import (
    cohomology_via_partitions,
    verify_paraboson_identity,
    verify_parafermion_identity,
)
from parafock.partitions import Partition, enumerate_partitions
from parafock.polyring import MultiPoly
from parafock.schur import SchurContext, schur
from test_kostant import PERTURBATION_IDS, PERTURBATIONS

Q = 3


def _principal(nu: Partition, n: int, q: int = Q) -> int:
    """s_nu(q, q^2, ..., q^n), the coefficient of t^|nu| in s_nu(t q, ..., t q^n)."""
    if len(nu) > n:
        return 0
    cols = nu.conjugate()
    num = den = 1
    for i, row in enumerate(nu):
        for j in range(row):
            num *= q ** (n + j - i) - 1
            den *= q ** (row - j + cols[j] - i - 1) - 1
    weighted = sum(i * row for i, row in enumerate(nu))
    whole, rest = divmod(q ** (nu.size + weighted) * num, den)
    assert rest == 0, (nu, n, q)
    return whole


def _times(a: list[int], b: list[int], top: int) -> list[int]:
    """The product of two polynomials in t, as coefficient lists, through t^top."""
    out = [0] * (min(len(a) + len(b) - 1, top + 1))
    for i, x in enumerate(a[: top + 1]):
        if x:
            for j, y in enumerate(b[: top + 1 - i]):
                out[i + j] += x * y
    return out


def _denominator(n: int, symmetric: bool, top: int, q: int = Q) -> list[int]:
    """The specialised paraboson denominator L, through t^top."""
    factors = [(1, q ** i) for i in range(1, n + 1)]
    factors += [(2, q ** (i + j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if symmetric:
        factors += [(2, q ** (2 * i)) for i in range(1, n + 1)]
    den = [1]
    for degree, c in factors:
        den = _times(den, [1] + [0] * (degree - 1) + [-c], top)
    return den


def _schur_sum(diagrams, n: int, top: int, q: int = Q) -> list[int]:
    """sum c s_nu(t q, ..., t q^n) over the (nu, c) pairs, through t^top."""
    out = [0] * (top + 1)
    for nu, c in diagrams:
        if nu.size <= top:
            out[nu.size] += c * _principal(nu, n, q)
    return out


def _trimmed(poly: list[int]) -> list[int]:
    while poly and not poly[-1]:
        poly = poly[:-1]
    return poly


def parafermion_by_specialisation(n: int, p: int, family=None) -> bool:
    """Whether sum (-1)^k s_{mu^(p)} equals L sum_{lambda in p^n} s_lambda
    at x_i = t q^i, as polynomials in t.  ``family`` replaces the right
    side's diagrams."""
    top = n * n + n * p
    entries = cohomology_via_partitions(n, p).entries
    lhs = _schur_sum(((e.diagram, (-1) ** e.k) for e in entries), n, top)
    if family is None:
        family = list(enumerate_partitions(max_part=p, max_length=n))
    branching = _schur_sum(((lam, 1) for lam in family), n, top)
    rhs = _times(_denominator(n, False, top), branching, top)
    return _trimmed(lhs) == _trimmed(rhs)


def paraboson_by_specialisation(n: int, p: int, D: int, denominator: str = "printed",
                                family=None) -> bool:
    """Whether sum (-1)^k s_{[mu^(p)]'} equals the denominator times the sum
    of s_lambda over lambda with at most p rows, at x_i = t q^i, through t^D.
    ``family`` replaces the right side's diagrams."""
    # the n x n square holds every mu whose conjugated mu^(p) fits n rows
    entries = cohomology_via_partitions(n, p, D).entries
    lhs = _schur_sum(((e.diagram.conjugate(), (-1) ** e.k) for e in entries), n, D)
    if family is None:
        family = list(enumerate_partitions(max_length=p, max_size=D))
    den = _denominator(n, denominator == "symmetric", D)
    rhs = _times(den, _schur_sum(((lam, 1) for lam in family), n, D), D)
    return _trimmed(lhs) == _trimmed(rhs)


@pytest.mark.parametrize("n", range(0, 5))
def test_the_hook_content_formula_matches_the_tableau_sum(n):
    # the specialisation of the tableau engine's s_nu, x_i = q^i in half units
    for nu in enumerate_partitions(max_size=6):
        poly = schur(nu, SchurContext(n), "tab")
        value = sum(c * Q ** sum((i + 1) * e // 2 for i, e in enumerate(exps))
                    for exps, c in poly.terms.items())
        assert _principal(nu, n) == value, (nu, n)


def test_the_specialised_denominator_is_the_product_of_its_factors():
    for n in range(1, 5):
        for symmetric in (False, True):
            x = [MultiPoly.variable(n, i) for i in range(n)]
            one = MultiPoly.one(n)
            whole = one
            for i in range(n):
                whole = whole * (one - x[i])
                for j in range(i + 1, n):
                    whole = whole * (one - x[i] * x[j])
                if symmetric:
                    whole = whole * (one - x[i] * x[i])
            expected = [0] * (n * (n + 2) + 1)
            for exps, c in whole.terms.items():
                weight = sum((i + 1) * e // 2 for i, e in enumerate(exps))
                expected[sum(exps) // 2] += c * Q ** weight
            top = len(expected) - 1
            assert _trimmed(_denominator(n, symmetric, top)) == _trimmed(expected), (n, symmetric)


def test_the_oracle_agrees_with_the_parafermion_verdicts():
    for n in range(1, 6):
        for p in range(4):
            assert verify_parafermion_identity(n, p).passed, (n, p)
            assert parafermion_by_specialisation(n, p), (n, p)


def test_the_oracle_agrees_with_the_paraboson_verdicts():
    failures = 0
    for n in range(1, 5):
        for p in range(4):
            for D in (0, 1, 2, 5, 8, 10):
                for den in ("printed", "symmetric"):
                    passed = verify_paraboson_identity(n, p, D, den).passed
                    assert paraboson_by_specialisation(n, p, D, den) == passed, (n, p, D, den)
                    failures += not passed
    # the symmetric variant fails from degree 2 on, at every n and p
    assert failures == 64


@pytest.mark.parametrize("n, p", [(7, 2), (9, 3), (10, 2), (12, 3)])
def test_the_parafermion_identity_holds_at_the_frontier(n, p):
    assert parafermion_by_specialisation(n, p)


@pytest.mark.parametrize("n, p, D", [(8, 3, 12), (10, 1, 10), (10, 3, 12), (14, 2, 10),
                                     (16, 3, 12)])
def test_the_printed_paraboson_identity_holds_at_the_frontier(n, p, D):
    assert paraboson_by_specialisation(n, p, D)


@pytest.mark.parametrize("n, p, D", [(14, 2, 10), (16, 1, 8)])
def test_the_printed_paraboson_check_passes_with_more_variables_than_degree(n, p, D):
    # n > D: the library carries D variables, the oracle all n
    assert verify_paraboson_identity(n, p, D).passed
    assert paraboson_by_specialisation(n, p, D)


@pytest.mark.parametrize("perturb", PERTURBATIONS, ids=PERTURBATION_IDS)
@pytest.mark.parametrize(
    "case",
    [(1, 1, None, "printed"), (2, 2, None, "printed"), (3, 1, None, "printed"),
     (3, 2, None, "printed"), (2, 1, 5, "printed"), (3, 1, 6, "printed"),
     (4, 2, 8, "printed"), (3, 1, 6, "symmetric")],
    ids=str,
)
def test_a_perturbed_family_fails_the_oracle(case, perturb):
    # the branching-family perturbations of the Schur-basis checks' tests
    n, p, D, den = case
    if D is None:
        kwargs = {"max_part": p, "max_length": n}
        family = perturb(list(enumerate_partitions(**kwargs)), kwargs)
        assert not parafermion_by_specialisation(n, p, family)
    else:
        kwargs = {"max_length": p, "max_size": D}
        family = perturb(list(enumerate_partitions(**kwargs)), kwargs)
        assert not paraboson_by_specialisation(n, p, D, den, family)

