"""Signed permutations, the abelian nilradical, alternants, dimension formulas."""

import random
import re
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafock import weyl
from parafock.kostant import _reflection_invariant, _sorted_terms
from parafock.partitions import Partition
from parafock.polyring import MultiPoly
from parafock.schur import SchurContext, _sn_alternant, schur
from parafock.weyl import (
    ALTERNANT_RANK_LIMIT,
    RootSystemB,
    SignedPermutation,
    Weight,
    alternant,
    dim_gl,
    dim_so,
    kostant_weight,
    omega_I,
    phi_sigma,
    w1_element,
    weight_monomial,
    _straighten_type_a,
)


def all_subsets(n):
    for r in range(n + 1):
        yield from (set(c) for c in combinations(range(1, n + 1), r))


def all_group_elements(n):
    for word in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            yield SignedPermutation(word, signs)


def random_element(rng, n):
    word = rng.sample(range(1, n + 1), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return SignedPermutation(word, signs)


def monomial_transform(poly, sigma):
    """Push a Laurent polynomial through the group action on exponents."""
    out = {}
    for e, c in poly.terms.items():
        ne = [0] * len(e)
        for j, x in enumerate(e):
            ne[sigma.word[j] - 1] = sigma.signs[j] * x
        out[tuple(ne)] = out.get(tuple(ne), 0) + c
    res = MultiPoly(poly.nvars)
    res.terms = {e: c for e, c in out.items() if c}
    return res


# -- weights -------------------------------------------------------------------

def test_weight_basics_frozen():
    assert Weight.rho(3).coords == (5, 3, 1)
    assert Weight.p_theta(2, 3).coords == (3, 3)
    assert Weight.basis(2, 3).coords == (0, 2, 0)
    assert (Weight.rho(2) + Weight.p_theta(2, 1)).coords == (4, 2)
    assert (-Weight.basis(1, 2)).coords == (-2, 0)
    assert Weight.rho(2).pairing(Weight.basis(1, 2)) == 6  # 4 * (3/2)
    with pytest.raises(ValueError):
        Weight.basis(4, 3)


def test_weight_dominance_and_partition_conversion():
    assert Weight((4, 2, 0)).is_dominant()
    assert Weight((1, 1)).is_dominant()
    assert not Weight((2, 4)).is_dominant()
    assert not Weight((2, -2)).is_dominant()
    assert Weight((6, 2)).to_partition() == Partition([3, 1])
    with pytest.raises(ValueError):
        Weight((3, 1)).to_partition()
    assert Weight((2, 4)).reversed_negated().coords == (-4, -2)


def test_rho_is_half_sum_of_positive_roots():
    for n in range(1, 9):
        total = Weight.zero(n)
        for alpha in RootSystemB(n).positive_roots:
            total = total + alpha
        assert tuple(2 * c for c in Weight.rho(n).coords) == total.coords


def test_weight_monomial_uses_inverse_exponential_convention():
    v = Weight.rho(1)  # e_1 / 2
    assert weight_monomial(v).terms == {(-1,): 1}
    w = Weight((2, -4))
    assert weight_monomial(w).terms == {(-2, 4): 1}


# -- root system ----------------------------------------------------------------

def _positive_root_set(rs):
    """The coordinates of every positive root, for membership tests."""
    return frozenset(alpha.coords for alpha in rs.positive_roots)


def test_root_counts_and_membership():
    for n in range(1, 7):
        rs = RootSystemB(n)
        positive = _positive_root_set(rs)
        assert len(rs.positive_roots) == n * n
        assert len(rs.nilradical_roots) == n * (n + 1) // 2
        for alpha in rs.nilradical_roots:
            assert alpha.coords in positive
            assert all(c >= 0 for c in alpha.coords)
        assert (-Weight.basis(1, n)).coords not in positive
    rs = RootSystemB(2)
    e1, e2 = Weight.basis(1, 2), Weight.basis(2, 2)
    assert rs.is_nilradical_root(e1 + e2)
    assert (e1 - e2).coords in _positive_root_set(rs)
    assert not rs.is_nilradical_root(e1 - e2)
    with pytest.raises(ValueError):
        RootSystemB(0)


# -- signed permutations -----------------------------------------------------------

def test_signed_permutation_validation_and_identity():
    with pytest.raises(ValueError):
        SignedPermutation((1, 1), (1, 1))
    with pytest.raises(ValueError):
        SignedPermutation((1, 2), (1, 0))
    e = SignedPermutation.identity(3)
    assert e.word == (1, 2, 3) and e.signs == (1, 1, 1)
    assert e.epsilon() == 1
    v = Weight((5, 3, 1))
    assert e.apply(v) == v
    with pytest.raises(ValueError, match="rank mismatch"):
        e.apply(Weight((1, 0)))
    with pytest.raises(TypeError):
        e * "x"


def test_action_flips_signs_before_permuting():
    # sigma(e_1) = -e_2, sigma(e_2) = e_1
    sigma = SignedPermutation((2, 1), (-1, 1))
    assert sigma.apply(Weight.basis(1, 2)).coords == (0, -2)
    assert sigma.apply(Weight.basis(2, 2)).coords == (2, 0)
    assert sigma.apply(Weight((4, 2))).coords == (2, -4)


def test_group_laws_on_random_pairs():
    rng = random.Random(20260818)
    for n in range(1, 6):
        e = SignedPermutation.identity(n)
        for _ in range(2000):
            a = random_element(rng, n)
            b = random_element(rng, n)
            v = Weight([rng.randrange(-9, 10) for _ in range(n)])
            ab = a * b
            assert ab.apply(v) == a.apply(b.apply(v))
            assert ab.epsilon() == a.epsilon() * b.epsilon()
            assert a * a.inverse() == e
            assert a.inverse() * a == e
            assert a.inverse().epsilon() == a.epsilon()


def inversion_parity(perm):
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def test_epsilon_matches_determinant_on_small_ranks():
    # epsilon equals the determinant of the signed permutation matrix
    for n in (1, 2, 3):
        for sigma in all_group_elements(n):
            mat = [[0] * n for _ in range(n)]
            for j in range(n):
                mat[sigma.word[j] - 1][j] = sigma.signs[j]
            det = 0
            for perm in permutations(range(n)):
                term = inversion_parity(perm)
                for i in range(n):
                    term *= mat[i][perm[i]]
                det += term
            assert sigma.epsilon() == det


# -- distinguished coset representatives --------------------------------------------

def test_omega_frozen_example():
    om = omega_I({1, 3}, 3)
    assert om.word == (3, 1, 2)
    assert om.inverse().word == (2, 3, 1)
    assert om.signs == (1, 1, 1)


def test_omega_inverse_lists_complement_then_subset_descending():
    for n in range(1, 7):
        for I in all_subsets(n):
            om = omega_I(I, n)
            comp = [x for x in range(1, n + 1) if x not in I]
            desc = sorted(I, reverse=True)
            assert list(om.inverse().word) == comp + desc


def test_w1_frozen_example():
    w = w1_element({1}, 2)
    assert w.word == (2, 1) and w.signs == (-1, 1)
    assert w1_element(set(), 3) == SignedPermutation.identity(3)
    with pytest.raises(ValueError):
        w1_element({0}, 3)
    with pytest.raises(ValueError):
        omega_I({4}, 3)


def test_w1_element_builds_one_signed_permutation(monkeypatch):
    built = []

    class Counted(SignedPermutation):
        def __init__(self, word, signs):
            built.append(word)
            super().__init__(word, signs)

    monkeypatch.setattr(weyl, "SignedPermutation", Counted)
    w = w1_element({1, 3}, 4)
    assert (w.word, w.signs) == ((4, 1, 3, 2), (-1, 1, -1, 1))
    assert len(built) == 1


def test_inversion_sets_lie_in_nilradical_with_predicted_size():
    for n in range(1, 7):
        rs = RootSystemB(n)
        for I in all_subsets(n):
            phi = phi_sigma(w1_element(I, n), rs)
            assert all(rs.is_nilradical_root(alpha) for alpha in phi)
            assert len(phi) == sum(1 + n - i for i in I)


def test_representatives_are_exactly_the_nilradical_filtered_elements():
    for n in range(1, 5):
        rs = RootSystemB(n)
        brute = {
            sigma
            for sigma in all_group_elements(n)
            if all(rs.is_nilradical_root(a) for a in phi_sigma(sigma, rs))
        }
        assert brute == {w1_element(I, n) for I in all_subsets(n)}
        assert len(brute) == 2 ** n


def _phi_sigma_by_image(sigma, rs):
    """Oracle: build sigma^{-1}(alpha) and look it up among the positive roots."""
    if sigma.n != rs.n:
        raise ValueError(f"rank mismatch: {sigma.n} vs {rs.n}")
    moves = tuple((w - 1, s) for w, s in zip(sigma.word, sigma.signs))
    positive = _positive_root_set(rs)
    return [
        alpha
        for alpha in rs.positive_roots
        if tuple(s * alpha.coords[k] for k, s in moves) not in positive
    ]


def test_phi_sigma_matches_the_image_oracle_on_every_group_element():
    checked = 0
    for n in range(1, 6):
        rs = RootSystemB(n)
        for sigma in all_group_elements(n):
            got = phi_sigma(sigma, rs)
            want = _phi_sigma_by_image(sigma, rs)
            assert len(got) == len(want)
            assert all(a is b for a, b in zip(got, want)), sigma
            checked += 1
    assert checked == 4282
    with pytest.raises(ValueError, match="rank mismatch"):
        phi_sigma(SignedPermutation.identity(3), RootSystemB(4))


def test_shifted_action_frozen():
    # n = 2, p = 1, I = {1}
    w = w1_element({1}, 2)
    chi = kostant_weight(w, Weight.p_theta(2, 1), 2)
    assert chi.coords == (-1, -5)  # (-1/2, -5/2)
    assert kostant_weight(
        SignedPermutation.identity(2), Weight.p_theta(2, 1), 2
    ) == Weight.p_theta(2, 1)


def test_kostant_weight_checks_every_rank():
    sigma = w1_element({1}, 2)
    for call, message in [
        (lambda: kostant_weight(sigma, Weight.zero(2), 3), "rank mismatch: 2 vs 3"),
        (lambda: kostant_weight(sigma, Weight.zero(3), 2), "rank mismatch: 3 vs 2"),
        (lambda: kostant_weight(w1_element({1}, 3), Weight.zero(2), 2), "rank mismatch: 3 vs 2"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


# -- alternants ------------------------------------------------------------------------

def test_alternant_frozen_rank_one():
    d = alternant(Weight.rho(1))
    assert d.terms == {(-1,): 1, (1,): -1}


def test_alternant_ratio_rank_one():
    # D_{rho + theta*2} = D_rho * (x^{-1} + 1 + x)
    d_num = alternant(Weight.rho(1) + Weight.p_theta(1, 2))
    d_den = alternant(Weight.rho(1))
    ratio = MultiPoly(1, {(-2,): 1, (0,): 1, (2,): 1})
    assert d_num == d_den * ratio


def test_alternant_vanishes_on_stabilized_weights():
    assert alternant(Weight((2, 2))).is_zero()
    assert alternant(Weight((4, 0))).is_zero()
    assert alternant(Weight((4, -4))).is_zero()


def test_alternant_is_antisymmetric_under_the_group():
    rng = random.Random(7)
    for n in (1, 2, 3):
        chi = Weight.rho(n) + Weight.p_theta(n, 2)
        d = alternant(chi)
        for _ in range(20):
            sigma = random_element(rng, n)
            assert monomial_transform(d, sigma) == d * sigma.epsilon()


def test_alternant_rank_guard():
    with pytest.raises(ValueError):
        alternant(Weight.rho(ALTERNANT_RANK_LIMIT + 1))
    # the cap is a parameter, not a constant baked into the loop
    with pytest.raises(ValueError):
        alternant(Weight.rho(3), max_rank=2)
    assert not alternant(Weight.rho(3), max_rank=3).is_zero()


# -- straightening and invariance -------------------------------------------------------

half_unit_weights = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(-7, 7), min_size=n, max_size=n)
)


def group_sum_alternant(chi):
    """Oracle: sum over every group element w of epsilon(w) x^(-w(chi))."""
    out = MultiPoly.zero(chi.n)
    for sigma in all_group_elements(chi.n):
        out = out + weight_monomial(sigma.apply(chi)) * sigma.epsilon()
    return out


@settings(max_examples=150, deadline=None)
@given(half_unit_weights)
def test_alternant_matches_the_group_sum(coords):
    # singular weights (a zero or two equal absolute values) included
    chi = Weight(coords)
    assert alternant(chi) == group_sum_alternant(chi)


def test_alternant_builds_no_signed_permutation(monkeypatch):
    built = []

    class Counted(SignedPermutation):
        def __init__(self, word, signs):
            built.append(word)
            super().__init__(word, signs)

    monkeypatch.setattr(weyl, "SignedPermutation", Counted)
    assert len(alternant(Weight.rho(4))) == 2 ** 4 * 24
    assert built == []


def test_alternant_matches_the_group_sum_at_rank_zero():
    assert alternant(Weight(())) == group_sum_alternant(Weight(())) == MultiPoly.one(0)


exponent_vectors = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(0, 6), min_size=n, max_size=n)
)


@settings(max_examples=150, deadline=None)
@given(exponent_vectors)
def test_type_a_straighten_matches_the_alternant(v):
    ctx = SchurContext(len(v))
    a = _sn_alternant(v, ctx)
    hit = _straighten_type_a(v)
    if hit is None:
        assert a.is_zero()
    else:
        sign, nu = hit
        assert list(nu) == sorted(nu, reverse=True) and all(x > 0 for x in nu)
        shifted = [Partition(nu).part(i) + len(v) - 1 - i for i in range(len(v))]
        assert a == _sn_alternant(shifted, ctx) * sign


def permutation_sum_alternant(v, ctx):
    """Oracle: sum over pi in S_n of sgn(pi) x_pi(1)^(v_1) ... x_pi(n)^(v_n)."""
    out = {}
    for perm in permutations(range(ctx.n)):
        e = [0] * ctx.nvars
        for col, x in zip(perm, v):
            e[col] = 2 * x
        e = tuple(e)
        out[e] = out.get(e, 0) + inversion_parity(perm)
    return MultiPoly(ctx.nvars, out)


@pytest.mark.parametrize("m", [0, 1])
def test_sn_alternant_matches_the_permutation_sum(m):
    # every v in {0..3}^n, repeated entries included
    for n in range(5):
        ctx = SchurContext(n, m)
        for v in product(range(4), repeat=n):
            assert _sn_alternant(list(v), ctx) == permutation_sum_alternant(v, ctx), v


def test_type_a_straighten_frozen_values():
    assert _straighten_type_a((4, 2, 0)) == (1, (2, 1))
    assert _straighten_type_a((2, 4, 0)) == (-1, (2, 1))
    assert _straighten_type_a((0, 2, 4)) == (-1, (2, 1))
    assert _straighten_type_a((2, 1, 0)) == (1, ())
    assert _straighten_type_a((3, 1, 3)) is None


def test_weyl_invariance_check():
    # at p = 0: S_n invariance read off the terms, the sign changes off the
    # Kostka map that leaves
    def invariant(chi):
        kostka = _sorted_terms(chi.terms)
        return kostka is not None and _reflection_invariant(kostka, 0)

    n = 3
    one = MultiPoly.one(n)
    orbit_e1 = MultiPoly.zero(n)
    for i in range(n):
        for s in (2, -2):
            e = [0] * n
            e[i] = s
            orbit_e1 = orbit_e1 + MultiPoly.half_term(n, e)
    assert invariant(orbit_e1 * orbit_e1 + one * 5)
    d = alternant(Weight.rho(n))
    assert invariant(d * d)
    # antisymmetric, symmetric only under S_n, or only under the sign changes
    assert not invariant(d)
    assert not invariant(sum((MultiPoly.variable(n, i) for i in range(n)), one))
    assert not invariant(MultiPoly.half_term(n, (2, 0, 0)) + MultiPoly.half_term(n, (-2, 0, 0)))
    # each term has its sorted vector's coefficient, but an orbit is short
    assert not invariant(orbit_e1 - MultiPoly.half_term(n, (0, 0, 2)))
    assert _sorted_terms((orbit_e1 - MultiPoly.half_term(n, (0, 0, 2))).terms) is None


# -- dimension formulas -------------------------------------------------------------------

def test_dim_so_frozen_values():
    for n in range(1, 5):
        assert dim_so(Weight.p_theta(n, 1), n) == 2 ** n
    assert dim_so(Weight.p_theta(2, 2), 2) == 10
    assert dim_so(Weight.p_theta(1, 2), 1) == 3
    assert dim_so(Weight.p_theta(1, 4), 1) == 5
    assert dim_so(Weight.zero(3), 3) == 1
    with pytest.raises(ValueError, match="is not dominant"):
        dim_so(Weight((2, 4)), 2)
    with pytest.raises(ValueError, match="weight rank 2 does not match n=3"):
        dim_so(Weight((2, 0)), 3)
    # (3/2, 1) mixes half and whole coordinates: 486 / 24 is no dimension
    with pytest.raises(ArithmeticError, match="not integral; convention bug"):
        dim_so(Weight((3, 2)), 2)


def _dim_so_by_roots(highest, n):
    """Oracle: Weyl's product pairing L + rho and rho with every positive root."""
    rs, rho = RootSystemB(n), Weight.rho(n)
    shifted = highest + rho
    num = den = 1
    for alpha in rs.positive_roots:
        num *= shifted.pairing(alpha)
        den *= rho.pairing(alpha)
    q, r = divmod(num, den)
    assert r == 0
    return q


def test_dim_so_matches_the_product_over_roots():
    for n in range(1, 31):
        for p in range(4):
            assert dim_so(Weight.p_theta(n, p), n) == _dim_so_by_roots(Weight.p_theta(n, p), n)
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        half = rng.randint(0, 1)  # all coordinates whole, or all half
        rows = sorted((rng.randint(0, 4) for _ in range(n)), reverse=True)
        highest = Weight(tuple(2 * x + half for x in rows))
        assert dim_so(highest, n) == _dim_so_by_roots(highest, n), highest


def test_dim_gl_frozen_values():
    assert dim_gl(Partition(), 3) == 1
    assert dim_gl(Partition([1]), 5) == 5
    assert dim_gl(Partition([2, 1]), 3) == 8
    assert dim_gl(Partition([1, 1, 1]), 3) == 1
    with pytest.raises(ValueError):
        dim_gl(Partition([1, 1]), 1)


def test_dim_gl_counts_tableaux():
    from parafock.partitions import enumerate_partitions

    for n in (1, 2, 3, 4):
        ctx = SchurContext(n)
        for lam in enumerate_partitions(max_size=6, max_length=n):
            assert dim_gl(lam, n) == schur(lam, ctx, "tab").sum_of_coefficients()
