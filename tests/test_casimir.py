"""A Casimir oracle for the cohomology table, by Kostant's Laplacian.

Kostant's proof (Kostant 1961, section 5) reads the table off a Laplacian:
on C^k = Lambda^k n* (x) V it acts on the gl(n) component of highest weight
mu by (|Lambda + rho|^2 - |mu + rho|^2) / 2, with Lambda = p theta the highest
weight of V and rho that of B_n.  So H^k is the sum of the components of
C^k on the sphere |mu + rho| = |p theta + rho|, each of multiplicity one.
This reads k as the exterior degree and mu off a character: no Weyl group
element, no coset representative and no Frobenius arm.

In x_i = exp(-e_i), ch Lambda^. n* = prod(1 + t x_i) prod_{i<j}(1 + t x_i x_j)
and ch V = x^(-(p/2)1) sum_{lambda in p^n} s_lambda, the sum being
``branching_character``.  Leaving the uniform shift out, V and then [t^k]
of the product are written in the Schur basis by multiplying each monomial
by x^delta and straightening it (``_straighten_type_a``), and s_nu there
has highest weight mu = (p/2)1 - rev(nu).  Half units (entry 2c for c) keep
both norms whole.

Each convention is a keyword of ``casimir_pairs``, so each test below that
flips one shows the comparison can see it.
"""

from itertools import combinations

import pytest

from parafock.kostant import branching_character, cohomology_via_partitions, cohomology_via_w1
from parafock.weyl import _straighten_type_a


def casimir_pairs(n, p, rho="B", shift=True, reverse=True, dual=True):
    """{(k, nu): coefficient} over the components of C^k on the Casimir
    sphere.  ``rho="gl"`` takes gl(n)'s rho for B_n's, ``shift=False`` drops
    the p/2 shift, ``reverse=False`` reads mu off nu unreversed and
    ``dual=False`` takes n for n*."""
    delta = range(n - 1, -1, -1)

    def straightened(pairs):
        # a symmetric f = sum f[v] x^v has f s_lam = sum f[v] a_{v+lam+delta} / a_delta,
        # the pairs being (v + lam, f[v]); lam = 0 gives f itself
        out = {}
        for v, c in pairs:
            hit = _straighten_type_a([x + d for x, d in zip(v, delta)])
            if hit is not None:
                s, nu = hit
                out[nu] = out.get(nu, 0) + s * c
        return out

    # exterior[k] = [t^k] prod(1 + t x^e) over the weights x^e of n*, as {e: coefficient}
    exterior = [{(0,) * n: 1}]
    for variables in [*((i,) for i in range(n)), *combinations(range(n), 2)]:
        step = [(1 if dual else -1) * variables.count(i) for i in range(n)]
        exterior.append({})
        for k in range(len(exterior) - 1, 0, -1):
            for e, c in exterior[k - 1].items():
                key = tuple(x + y for x, y in zip(e, step))
                exterior[k][key] = exterior[k].get(key, 0) + c
    # V without its shift, in the Schur basis, then each [t^k] times it there
    module = straightened(
        ([x // 2 for x in e], c) for e, c in branching_character(n, p).terms.items()
    )
    two_rho = [(2 * n - 1 if rho == "B" else n - 1) - 2 * i for i in range(n)]
    radius = sum((p + r) ** 2 for r in two_rho)
    kept = {}
    for k, part in enumerate(exterior):
        products = (
            ([x + y for x, y in zip(e, lam + (0,) * (n - len(lam)))], c * d)
            for e, c in part.items()
            for lam, d in module.items()
        )
        for nu, c in straightened(products).items():
            rows = nu + (0,) * (n - len(nu))
            two_mu = [(p if shift else 0) - 2 * x for x in (rows[::-1] if reverse else rows)]
            if c and sum((m + r) ** 2 for m, r in zip(two_mu, two_rho)) == radius:
                kept[k, nu] = c
    return kept


def table(n, p, route=cohomology_via_partitions):
    """A route's (k, mu^(p)) pairs, each with coefficient 1."""
    return [(pair, 1) for pair in route(n, p).degree_diagram_pairs()]


CASES = [(n, p) for n in range(1, 5) for p in range(4)] + [(5, p) for p in range(3)]


@pytest.mark.parametrize("n, p", CASES)
def test_the_casimir_sphere_holds_both_routes_table(n, p):
    assert sorted(casimir_pairs(n, p).items()) == table(n, p) == table(n, p, cohomology_via_w1)


# each wrong convention, with a small case it gets wrong.  Over n <= 4,
# p <= 3 they miss 16, 12, 12 and 16 of the 16 tables: p = 0 cannot see the
# shift, nor n = 1 the reversal of a one-row nu
MUTANTS = [
    ({"rho": "gl"}, (1, 0)),
    ({"shift": False}, (2, 1)),
    ({"reverse": False}, (2, 1)),
    ({"dual": False}, (1, 0)),
]


@pytest.mark.parametrize("convention, case", MUTANTS, ids=[next(iter(m[0])) for m in MUTANTS])
def test_each_wrong_convention_misses_the_table(convention, case):
    assert sorted(casimir_pairs(*case, **convention).items()) != table(*case)
