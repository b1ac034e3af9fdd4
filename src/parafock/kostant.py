"""Cohomology tables of the abelian nilradical and exact character identities.

The degree-k cohomology of the nilradical acting on the level-p module
decomposes into gl(n) modules indexed by self-conjugate diagrams mu inside
the n x n square, with k = (|mu| + r(mu)) / 2 and highest weight read from
the arm-augmented diagram mu^(p) = (alpha + p | alpha), where mu =
(alpha | alpha) has r diagonal boxes (Kostant's theorem).  Two independent
routes produce the table, each building every entry once, off its own index:

* ``cohomology_via_w1``: walk the 2^n minimal-length coset representatives
  of the hyperoctahedral group as words and signs, and read each one's
  image of h = (n, ..., 1): its order checks that sigma^{-1} keeps the Levi
  simple roots positive, its negative entries count the nilradical roots
  sigma^{-1} inverts, and with p it gives the dominant diagram of
  sigma(rho + p theta) - rho;
* ``cohomology_via_partitions``: enumerate self-conjugate diagrams in the
  square.  Arm i runs along row i, so mu^(p) is mu with each of its first
  r rows lengthened by p.  Since |mu| = sum(2 alpha_i + 1) = 2 sum(alpha_i)
  + r, |mu| + r is even and k = sum(alpha_i + 1) = sum_{i<r}(mu_i - i), the
  number of boxes on and right of the diagonal.  Given a bound on |mu^(p)|
  = sum(2 alpha_i + 1 + p), the enumeration opens only the arms that fit
  it, so a truncated check builds the entries it compares and no others.

On top of the tables sit exact verdicts for three Schur-polynomial
identities (parafermionic, parabosonic, parastatistics) and for the
Weyl-character/branching consistency check.  The left side of each of the
three identities is the Euler-Poincare characteristic of the free
resolution: the alternating sum over a ``cohomology_via_partitions`` table,
each entry signed by its degree k.  The parafermionic and parabosonic
identities are compared in the Schur basis.  The parafermionic denominator
times a_delta is, up to a sign and a uniform shift, the B_n Weyl
denominator D_rho, so its right side is D_rho times the shifted branching
character chi'.  That is D_{rho + p theta}, expanded into 2^n type-A
alternants, exactly when chi' is the character of L(p theta), which is
decided on the C(n + p, n) weakly decreasing exponent vectors of the
branching character: its Kostka sums must be invariant under the sign
changes of W(B_n), and its dominant multiplicities must be Freudenthal's.
Any other family takes the paraboson carry below with the printed
denominator, only through the degree where the two sides first differ; no
denominator is expanded.  The paraboson
denominator is a product of S_n orbits of factors, prod(1-x_i),
prod_{i<j}(1-x_i x_j) and optionally prod(1-x_i^2); each orbit is
symmetric, so its product with s_lambda = a_{lambda+delta} / a_delta is
the alternant of its product with x^{lambda+delta} over a_delta.  The
Schur sum is carried as those monomials, takes each orbit's factors one
at a time under the degree bound, and is straightened back onto +-s_nu
(type A) after each orbit, so no orbit, nor the whole denominator, is
ever expanded, and neither side's Schur polynomials are.  The
parastatistics identity is compared by truncated integer polynomial
arithmetic, each side taking its factors one at a time under the degree
cap.  Its right side starts from a closed form of the box family times
prod(1 - x_i) in the Schur basis, a signed sum over diagrams with paired
rows below a full column p + 1, so only the odd block's 1 - y_j^2 and the
same-parity 1 - z_i z_j remain to multiply in.  The Weyl-character
check asks the same question of the same family through the same test,
and expands the family's character and the 2^n n!-term alternants only
to locate a failure.  Nothing is ever divided or
rounded.  Every failure is named by ``_first_discrepancy``:
the first offending monomial, in graded-lexicographic order, of the two
sides expanded as polynomials (the Schur-basis checks expand only the
Kostka sums of their lowest differing degree).
"""

from __future__ import annotations

import math
from itertools import combinations, combinations_with_replacement, product

from .partitions import (
    Partition,
    _FrozenRecord,
    _Record,
    _column_lengths,
    _integer,
    enumerate_partitions,
    enumerate_self_conjugate_in_square,
)
from .polyring import (
    MultiPoly,
    TruncatedSeries,
    _term_key,
    _times_binomial,
    expand_inverse_product,
)
from .schur import SchurContext, _schur_expansion, schur_sum
from .weyl import (
    Weight,
    alternant,
    RootSystemB,
    weight_monomial,
    _straighten_type_a,
    _w1_word,
)

__all__ = [
    "CohomologyEntry",
    "CohomologyTable",
    "VerificationReport",
    "cohomology_via_w1",
    "cohomology_via_partitions",
    "branching_character",
    "resolution_character",
    "verify_weyl_character",
    "verify_parafermion_identity",
    "verify_paraboson_identity",
    "verify_parastat_identity",
]


class CohomologyEntry(_FrozenRecord):
    """One summand: degree k, dominant diagram mu^(p), and its origin."""

    __slots__ = ("k", "diagram", "source")

    def __init__(self, k: int, diagram: Partition, source: tuple[int, ...] | Partition) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "source", source)

    def to_json_obj(self) -> dict:
        if isinstance(self.source, Partition):
            src = {"mu": self.source.to_json()}
        else:
            src = {"I": list(self.source)}
        return {"k": self.k, "mu": self.diagram.to_json(), "source": src}


class CohomologyTable(_Record):
    __slots__ = ("n", "p", "entries")

    def __init__(self, n: int, p: int, entries: list[CohomologyEntry] | None = None) -> None:
        self.n = n
        self.p = p
        self.entries = [] if entries is None else entries

    def sort(self) -> None:
        """Order by degree k, then as ``enumeration_key`` orders diagrams: by
        size, then by rows in descending order.  Two diagrams of one size
        are never a prefix of one another, so two stable sorts, on the rows
        and then on (k, size), give that order."""
        self.entries.sort(key=lambda e: e.diagram.parts, reverse=True)
        self.entries.sort(key=lambda e: (e.k, sum(e.diagram.parts)))

    def degree_diagram_pairs(self) -> list[tuple[int, tuple[int, ...]]]:
        """Multiset of (k, diagram) pairs, the route-independent content."""
        return sorted((e.k, e.diagram.parts) for e in self.entries)

    def entries_at(self, k: int) -> list[CohomologyEntry]:
        return [e for e in self.entries if e.k == k]

    def max_degree(self) -> int:
        return self.n * (self.n + 1) // 2

    def to_json_obj(self) -> list[dict]:
        return [e.to_json_obj() for e in self.entries]


def cohomology_via_w1(n: int, p: int) -> CohomologyTable:
    """Cohomology table from the 2^n coset representatives.

    The entry of sigma has degree |Phi_sigma| and weight
    w = sigma(rho + p theta) - rho, which is reflected to a dominant diagram
    and shifted by the p/2 vacuum offset; ``_w1_walk`` reads both off
    sigma's word and signs.
    """
    n, p = _integer(n, "n", 1), _integer(p, "p")
    table = CohomologyTable(n, p, [e for _, _, _, e in _w1_walk(n, p)])
    table.sort()
    return table


def _w1_walk(n: int, p: int):
    """Yield (I, word, signs, entry) for each coset representative sigma =
    ``w1_element(I, n)``, I in ``combinations`` order, for checked n and p.

    A root alpha is positive exactly when <alpha, h> > 0 for h = (n, ..., 1),
    and <sigma^{-1} alpha, h> = <alpha, v> for v = sigma(h): sigma^{-1}
    sends e_c to +-e_q (q from 0), and v_c = +-(n - q).  So sigma^{-1}
    keeps the n - 1 Levi simple roots e_t - e_{t+1} positive when v is
    strictly decreasing, and then keeps every Levi positive root positive,
    each being a sum of simple ones: Phi_sigma lies in the nilradical.  Of
    its roots, e_c is inverted when v_c < 0, and e_c + e_d when the entry
    of larger size is negative, so a negative v_c inverts |v_c| roots and
    k = |Phi_sigma| = (n(n + 1)/2 - sum(v)) / 2.

    The loop keeps v reversed, u_i = v_{n-1-i}, which must increase: sigma
    moves coordinate j to place q = word[j], so u_{n-q} = signs[j] (n - j).
    Row i (from 0) of the dominant diagram is (2i + 1 + p - w_i) / 2, for w
    the half units of sigma(rho + p theta) reversed.  rho + p theta is
    2h - 1 + p there, so w_i = 2 u_i + (p - 1) sgn(u_i), and the row is
    i + 1 - u_i for u_i > 0 and i + p - u_i for u_i < 0.
    """
    h, total = range(n, 0, -1), n * (n + 1) // 2
    for r in range(n + 1):
        for I in combinations(range(1, n + 1), r):
            word, signs = _w1_word(I, n)
            u, rows = [0] * n, [0] * n
            for q, s, t in zip(word, signs, h):
                i, x = n - q, s * t
                u[i] = x
                rows[i] = i + 1 - x if x > 0 else i + p - x
            if u != sorted(u):
                raise ArithmeticError(
                    f"representative for I={I} left the nilradical; convention bug"
                )
            diagram = Partition._of(tuple(rows[: n - rows.count(0)]))  # zero rows trail
            yield I, word, signs, CohomologyEntry((total - sum(u)) // 2, diagram, I)


def cohomology_via_partitions(n: int, p: int, max_size: int | None = None) -> CohomologyTable:
    """Cohomology table from self-conjugate diagrams in the n x n square.

    The entry of mu (Frobenius rank r) has degree k = (|mu| + r) / 2 and
    diagram mu^(p), which is mu with each of its first r rows lengthened by
    p (as ``augment_arms`` does).  With arms a_i = mu_i - i - 1 (rows from
    i = 0), |mu| = sum(2 a_i + 1), so |mu| + r is even and k = sum(a_i + 1):
    the boxes on and right of the diagonal, which is the number of roots the
    matching coset representative inverts.  Both are read off mu's rows.

    With ``max_size`` the table holds only the entries with |mu^(p)| <=
    max_size, in the same order as in the whole table, and builds no other.
    """
    n, p = _integer(n, "n", 1), _integer(p, "p")
    table = CohomologyTable(n, p)
    for mu in enumerate_self_conjugate_in_square(n, max_size, p):
        rows, r = mu.parts, mu.frobenius_rank()
        k = sum(rows[:r]) - r * (r - 1) // 2
        diagram = Partition._of((*(x + p for x in rows[:r]), *rows[r:]))
        table.entries.append(CohomologyEntry(k=k, diagram=diagram, source=mu))
    table.sort()
    return table


def branching_character(n: int, p: int) -> MultiPoly:
    """Character of the level-p module as a gl(n) sum: all s_lambda with
    lambda inside the p^n rectangle.  Exact polynomial."""
    n, p = _integer(n, "n", 1), _integer(p, "p")
    ctx = SchurContext(n)
    return schur_sum(("max_columns", p), ctx, math.inf).poly


def _euler_characteristic(entries) -> dict[tuple[int, ...], int]:
    """Euler-Poincare characteristic in the Schur basis: each entry's
    mu^(p) with sign (-1)^k, as {rows: coefficient}."""
    chi: dict[tuple[int, ...], int] = {}
    for e in entries:
        chi[e.diagram.parts] = chi.get(e.diagram.parts, 0) + (-1) ** e.k
    return chi


def resolution_character(n: int, p: int, k: int, valid_degree) -> TruncatedSeries:
    """Character of the k-th term of the resolution through degree D =
    ``valid_degree``: (sum of s_{mu^(p)} at degree k) times the character of
    U(n) for the nilradical n, prod 1/(1 - x^alpha) over its roots alpha = e_i
    and e_i + e_j, whose half-unit coordinates are the monomials' exponents.
    s_{mu^(p)} is homogeneous of degree |mu^(p)|, so the table is bounded at
    D: a larger entry adds only above D."""
    n, p, k = _integer(n, "n", 1), _integer(p, "p"), _integer(k, "k")
    D = _integer(valid_degree, "degree bound")
    table = cohomology_via_partitions(n, p, D)
    if k > table.max_degree():
        raise ValueError(f"k={k} outside 0..{table.max_degree()}")
    degree_k = ((e.diagram.parts, 1) for e in table.entries_at(k))
    numerator = _schur_expansion(degree_k, SchurContext(n))
    one = MultiPoly.one(n)
    factors = [one - MultiPoly.half_term(n, a.coords) for a in RootSystemB(n).nilradical_roots]
    universal = expand_inverse_product(factors, D)
    return TruncatedSeries._of(numerator, math.inf) * universal


class VerificationReport(_Record):
    """Outcome of one identity check.

    ``degree`` is None for exact comparisons and the truncation bound
    otherwise.  ``first_discrepancy`` names the smallest offending monomial
    when the check fails, and the status, passed and conjecture read-outs
    follow from it and from ``identity``.  ``millis`` is a time its caller
    recorded, 0 if none did: a check reads no clock.  ``denominator`` labels
    the paraboson denominator variant.
    """

    __slots__ = ("identity", "n", "m", "p", "degree", "first_discrepancy", "millis",
                 "denominator")

    def __init__(
        self,
        identity: str,
        n: int,
        m: int | None,
        p: int,
        degree: int | None,
        first_discrepancy: dict | None,
        millis: int = 0,
        denominator: str | None = None,
    ) -> None:
        self.identity = identity
        self.n = n
        self.m = m
        self.p = p
        self.degree = degree
        self.first_discrepancy = first_discrepancy
        self.millis = millis
        self.denominator = denominator

    @property
    def status(self) -> str:
        return "pass" if self.first_discrepancy is None else "fail"

    @property
    def passed(self) -> bool:
        return self.first_discrepancy is None

    @property
    def conjecture(self) -> bool:
        """The parastatistics identity is the paper's conjecture."""
        return self.identity == "parastat"

    def to_json_obj(self) -> dict:
        """The report as a fresh dict that shares no mutable object with it."""
        disc = self.first_discrepancy
        if disc is not None:
            # ``_first_discrepancy`` builds this dict; its one mutable value
            # is the monomial's exponent list
            disc = dict(disc, monomial=list(disc["monomial"]))
        out = {
            "identity": self.identity,
            "n": self.n,
            "m": self.m,
            "p": self.p,
            "degree": self.degree,
            "status": self.status,
            "first_discrepancy": disc,
            "millis": self.millis,
        }
        if self.denominator is not None:
            out["denominator"] = self.denominator
        if self.conjecture:
            out["conjecture"] = True
        return out


def _first_discrepancy(lhs: MultiPoly, rhs: MultiPoly) -> dict | None:
    keys = set(lhs.terms) | set(rhs.terms)
    bad = [e for e in keys if lhs.terms.get(e, 0) != rhs.terms.get(e, 0)]
    if not bad:
        return None
    e = min(bad, key=_term_key)
    d2 = sum(e)
    return {
        "degree": d2 // 2 if d2 % 2 == 0 else d2 / 2,
        "monomial": list(e),
        "lhs": str(lhs.terms.get(e, 0)),
        "rhs": str(rhs.terms.get(e, 0)),
    }


def verify_weyl_character(n: int, p: int) -> VerificationReport:
    """Check D_{rho + p theta} = D_rho * chi', chi' = exp(p theta) * branching
    character, on dominant weights.

    D_rho is no zero divisor, so the identity holds exactly when chi' =
    D_{rho + p theta} / D_rho, the character of L(p theta) by Weyl's
    formula.  The branching family, every lambda inside the p^n box, is read
    once and decided by ``_is_level_p_character``, the parafermion check's
    test, on its C(n + p, n) Kostka sums.  Neither chi's (p+1)^n monomials
    nor either side's 2^n n!-term alternant is built, and nothing is divided.

    Only on failure are both sides expanded as Laurent polynomials, chi from
    the family that was read, to locate the first offending monomial;
    ``alternant`` guards that product by its own rank limit, before any of
    its terms is built.
    """
    n, p = _integer(n, "n", 1), _integer(p, "p")
    family = list(enumerate_partitions(max_part=p, max_length=n))
    if _is_level_p_character(n, p, family):
        return VerificationReport("weyl-character", n, None, p, None, None)
    rho = Weight.rho(n)
    theta_p = Weight.p_theta(n, p)
    lhs = alternant(rho + theta_p)
    chi = _schur_expansion(((lam.parts, 1) for lam in family), SchurContext(n))
    rhs = alternant(rho) * weight_monomial(theta_p) * chi
    return VerificationReport("weyl-character", n, None, p, None, _first_discrepancy(lhs, rhs))


def _is_level_p_character(n: int, p: int, family) -> bool:
    """Whether chi' = x^{-(p/2)1} chi is the character of L(p theta), for
    chi = sum_{lambda in family} s_lambda in n variables.

    chi is symmetric, so its Kostka map {weakly decreasing e: coefficient
    m(e) of x^e} (half units) determines it; the branching pass builds it
    on those vectors alone, at most C(n + p, n) of them for a family in the
    p^n box.  x^e in chi is exp(p theta - e) in chi', so chi' is
    W(B_n)-invariant exactly when ``_reflection_invariant`` holds.  An
    invariant chi' is determined by its dominant multiplicities, at the e
    with every entry at least p/2, where exp(p theta - e) is conjugate to
    exp(e - p theta) with e - p theta dominant; it is the character of
    L(p theta) exactly when these equal ``_freudenthal``'s.
    """
    pairs = ((lam.parts, 1) for lam in family)
    kostka = _schur_expansion(pairs, SchurContext(n), dominant=True).terms
    if not _reflection_invariant(kostka, p):
        return False
    dominant = {tuple(x - p for x in e): c for e, c in kostka.items() if e[-1] >= p}
    return dominant == _freudenthal(n, p)


def _reflection_invariant(kostka: dict[tuple[int, ...], int], p: int) -> bool:
    """Whether x^{-(p/2)1} chi is W(B_n)-invariant, for a symmetric Laurent
    polynomial chi given by its Kostka map (half units).  W(B_n) is
    generated by S_n, under which chi is invariant, and the last sign
    change, which on chi sends one entry v of e to p - v (2p - v in half
    units); so every m(e) must equal m of each such reflection of e, sorted.
    """
    for e, c in kostka.items():
        for v in set(e):
            i = e.index(v)
            if kostka.get(tuple(sorted((*e[:i], *e[i + 1 :], 2 * p - v), reverse=True))) != c:
                return False
    return True


def _freudenthal(n: int, p: int) -> dict[tuple[int, ...], int]:
    """The dominant weight multiplicities of L(p theta) in so(2n+1), as {mu:
    m(mu)} in half units, by Freudenthal's formula (Humphreys §22.3):

        (|p theta + rho|^2 - |mu + rho|^2) m(mu)
            = 2 sum over positive roots a, k >= 1 of m(mu + k a) <mu + k a, a>.

    The dominant mu <= p theta have every coordinate in p/2, p/2 - 1, ...,
    down to 0 or 1/2, weakly decreasing.  They are taken in decreasing
    lexicographic order, which extends the dominance order: nu - mu a sum
    of simple roots e_i - e_{i+1} and e_n makes every partial sum of
    nu - mu non-negative, so a weight above mu is done before it.  m is
    W-invariant, so m(mu + k a) is m of the sorted absolute values; an
    a-string of weights is unbroken, so each sum over k stops at the first
    weight outside.  Half units scale both sides by 4, and every quotient
    is exact: a remainder raises ``ArithmeticError``.
    """
    rho = Weight.rho(n).coords
    # the positive roots e_i + s e_j in half units: (i, i, 0) is e_i alone
    roots = [(i, i, 0) for i in range(n)]
    roots += [(i, j, s) for i, j in combinations(range(n), 2) for s in (1, -1)]

    def norm(mu):
        # |mu + rho|^2
        return sum((x + r) ** 2 for x, r in zip(mu, rho))

    weights = combinations_with_replacement(range(p, -1, -2), n)
    top = next(weights)  # p theta
    mult = {top: 1}
    for mu in weights:
        total = 0
        for i, j, s in roots:
            nu = list(mu)
            while True:
                nu[i] += 2
                nu[j] += 2 * s
                m = mult.get(tuple(sorted(map(abs, nu), reverse=True)), 0)
                if not m:
                    break
                total += m * 2 * (nu[i] + s * nu[j])  # <nu, a>, in half units
        q, r = divmod(2 * total, norm(top) - norm(mu))
        if r:
            raise ArithmeticError(f"Freudenthal quotient at {mu} is not integral; convention bug")
        mult[mu] = q
    return mult


def _straightened(pairs) -> dict[tuple[int, ...], int]:
    """sum c sign s_nu over the pairs (v, c), as {nu: coefficient} without
    zeros, where ``_straighten_type_a(v)`` writes a_v / a_delta as sign s_nu,
    or as 0.  Cancelled coefficients are dropped where they meet, so no
    other dict is built."""
    out: dict[tuple[int, ...], int] = {}
    for v, c in pairs:
        hit = _straighten_type_a(v)
        if hit is not None:
            sign, nu = hit
            total = out.get(nu, 0) + sign * c
            if total:
                out[nu] = total
            else:
                out.pop(nu, None)
    return out


def verify_parafermion_identity(n: int, p: int) -> VerificationReport:
    """Exact check of the parafermionic character identity.

    sum over self-conjugate mu in the n x n square of
    (-1)^((|mu|+r)/2) s_{mu^(p)}  equals
    L times sum_{lambda inside p^n} s_lambda, L = prod(1-x_i) prod_{i<j}(1-x_i x_j).

    Both sides are compared as {nu: coefficient of s_nu}, which decides the
    identity because the s_nu with at most n rows are linearly independent.
    The left side is read off the cohomology table.  When the family's
    shifted character is the character of L(p theta), decided on its
    C(n + p, n) Kostka sums, the right side is the one term D_{rho + p theta}
    (``_parafermion_times``), so neither L nor either side is expanded into
    monomials.  Any other family is carried by ``_denominator_times`` only
    through the caps ``_located_discrepancy`` deepens to, up to the maps'
    top degree; a failure expands only its lowest differing degree, to name
    the monomial.
    """
    n, p = _integer(n, "n", 1), _integer(p, "p")
    lhs = _euler_characteristic(cohomology_via_partitions(n, p).entries)
    family = list(enumerate_partitions(max_part=p, max_length=n))
    rhs = _parafermion_times(n, p, family)
    if rhs is not None:
        disc = _schur_discrepancy(lhs, rhs, n)
    else:
        # L has degree n + 2 C(n, 2) = n^2, so the carry's top degree is the
        # family's top plus n^2, read off the family itself (a diagram with
        # more than n rows vanishes)
        sizes = [lam.size for lam in family if len(lam) <= n]
        top = max(max(map(sum, lhs), default=0), max(sizes, default=0) + n * n)
        disc = _located_discrepancy(
            lhs, lambda cap: _denominator_times(n, False, family, cap), n, top
        )
    return VerificationReport("parafermion", n, None, p, None, disc)


def _parafermion_times(n: int, p: int, family) -> dict[tuple[int, ...], int] | None:
    """L times chi = sum_{lambda in family} s_lambda in n variables, as {nu:
    coefficient of s_nu}, when the shifted character chi' = x^{-(p/2)1} chi
    is the character of L(p theta); None otherwise.

    By the Weyl denominator formula, each positive root a of B_n gives D_rho
    a factor e^{a/2} - e^{-a/2} = e^{a/2}(1 - e^{-a}), and under
    x_i = exp(-e_i), e^{-a} is x_i for a = e_i, x_i x_j for e_i + e_j and
    x_i / x_j for e_i - e_j.  The e^{a/2} multiply to e^rho = x^{-rho}.  So
    D_rho = x^{-rho} L prod_{i<j}(1 - x_i / x_j), and
    prod_{i<j}(1 - x_i / x_j) = (-1)^{n(n-1)/2} a_delta x^{-(0, 1, ..., n-1)}.
    Since rho_i + i - 1 = n - 1/2 for every i,

        L a_delta = (-1)^{n(n-1)/2} x^{(n-1/2)1} D_rho,

    and L chi a_delta = (-1)^{n(n-1)/2} x^{c1} D_rho chi' with
    c = n - 1/2 + p/2.  When chi' is the character of L(p theta), Weyl's
    formula gives D_rho chi' = D_{rho + p theta}, which
    ``_shifted_alternants`` writes in the Schur basis, since its top
    coordinate is rho_1 + p/2 = c.  ``_is_level_p_character`` decides
    whether chi' is that character.
    """
    if not _is_level_p_character(n, p, family):
        return None
    return _shifted_alternants(tuple(range(2 * n - 1 + p, p, -2)))


def _shifted_alternants(nu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """(-1)^{n(n-1)/2} x^{(c/2)1} D_nu / a_delta, as {lambda: coefficient of
    s_lambda}, for a strictly dominant nu in n coordinates with top
    coordinate c = nu_1 (both in half units).

    Row i of D_nu = det(x_j^{-nu_i} - x_j^{nu_i}) splits over s_i = +-1 into
    s_i x_j^{-s_i nu_i}, so D_nu = sum_s prod(s) a_{-s nu} over the 2^n sign
    vectors s, and the shift makes each term prod(s) a_v with v = (c1 - s nu)
    / 2.  Every c - s_i nu_i is even and non-negative, so v is in whole
    units, and ``_straightened`` writes each a_v / a_delta as +-s_lambda or
    0.
    """
    n, c = len(nu), nu[0]
    sign = (-1) ** (n * (n - 1) // 2)
    pairs = (
        ([(c - si * x) // 2 for si, x in zip(s, nu)], sign * math.prod(s))
        for s in product((1, -1), repeat=n)
    )
    return _straightened(pairs)


def verify_paraboson_identity(
    n: int, p: int, valid_degree: int, denominator: str = "printed"
) -> VerificationReport:
    """Truncated check of the parabosonic character identity.

    sum over self-conjugate mu of (-1)^((|mu|+r)/2) s_{[mu^(p)]'} equals
    the denominator times sum over lambda with at most p rows of s_lambda,
    compared through total degree ``valid_degree``.  The printed
    denominator is prod(1-x_i) prod_{i<j}(1-x_i x_j); the "symmetric"
    variant also includes the diagonal factors 1-x_i^2.

    Both variants are products of S_n orbits of factors, each orbit
    symmetric, so ``_denominator_times`` multiplies the branching sum by
    one orbit at a time and straightens it back into the Schur basis after
    each, and the left side is the parafermionic one with conjugate
    diagrams.  Truncation at degree D keeps exactly the s_nu with
    |nu| <= D, because s_nu is homogeneous of degree |nu|.

    The compared maps hold only nu with |nu| <= D, so with at most D rows.
    Each denominator orbit is the n-variable specialisation of a symmetric
    power series, and restriction to N variables kills the s_nu with more
    than N rows and keeps the rest independent (Macdonald I.3); so N =
    min(n, max(D, 1)) variables (never none) give the maps at n.
    The table, family and carry are built in N variables, and a failure is
    still located in n.

    The printed identity is omega of the parafermion one: omega (s_lambda
    to s_lambda', e_k to h_k) is a degree-preserving ring involution of
    Lambda and its completion (Macdonald I.2), omega(prod(1-x_i)) =
    prod(1+x_i)^{-1}, and by Littlewood's expansions (I.5 Ex. 9) it sends
    prod_{i<j}(1-x_i x_j), the signed sum over kappa = (a-1|a), to the one
    over (a|a-1), prod_{i<=j}(1-x_i x_j).  So omega(L) is the printed
    denominator, the family lambda_1 <= p goes to l(lambda) <= p and
    s_{mu^(p)} to s_{[mu^(p)]'}.  With N' = max(D, 1) in the restriction
    above, the printed maps at (n, p, D) are the parafermion maps at N' cut
    to |nu| <= D, conjugated and cut to at most n rows.  The symmetric
    variant is that times prod(1-x_i^2), the omega image of no parafermion
    map; its failure at degree 2 is the factor's -sum x_i^2.

    The symmetric maps are the printed maps times the orbit prod(1-x_i^2).
    Its left side is the printed one, and ``_denominator_times`` takes the
    symmetric variant's orbits in the printed order with the squares last,
    straightening after each orbit; straightening is linear and commutes
    with the symmetric factors, so the two printed orbits give the printed
    map, and the squares multiply that.  Its failure is located at its own
    degree by ``_located_discrepancy``: at each cap c the printed map cut
    to |nu| <= c, an exact truncation since no factor has negative degree,
    times the squares through c, is the symmetric map through c.  So one
    printed carry serves both variants (``_paraboson_reports``), and the
    symmetric one multiplies in only its last orbit, at the caps.
    """
    return next(_paraboson_reports(n, p, valid_degree, (denominator,)))


def _paraboson_reports(n: int, p: int, valid_degree: int, denominators):
    """Yield ``verify_paraboson_identity``'s report for each of
    ``denominators`` in turn, from one table, family and printed carry.
    Each report is built when it is asked for, so a caller can time each
    ``next``."""
    n, p = _integer(n, "n", 1), _integer(p, "p")
    for denominator in denominators:
        if denominator not in ("printed", "symmetric"):
            raise ValueError(f"unknown denominator variant {denominator!r}")
    D = _integer(valid_degree, "degree bound")
    N = min(n, max(D, 1))
    # [mu^(p)]' has alpha_1 + p + 1 rows, so only arms alpha_1 < N - p give a
    # nonzero Schur polynomial in N variables: the (N-p) x (N-p) square.
    # Conjugation keeps |mu^(p)|, so the degree bound is the table's bound.
    table = cohomology_via_partitions(max(N - p, 1), p, D)
    lhs = {}
    for rows, c in _euler_characteristic(table.entries).items():
        cols = _column_lengths(rows)
        if len(cols) <= N:
            lhs[cols] = c
    family = enumerate_partitions(max_length=min(p, N), max_size=D)
    printed = _denominator_times(N, False, family, D)
    for denominator in denominators:
        if denominator == "printed":
            disc = _schur_discrepancy(lhs, printed, n)
        else:
            def symmetric(cap):
                start = {nu: c for nu, c in printed.items() if sum(nu) <= cap}
                return _times_orbit(N, start, [(i, i) for i in range(N)], cap)

            disc = _located_discrepancy(lhs, symmetric, n, D)
        yield VerificationReport("paraboson", n, None, p, D, disc, denominator=denominator)


def _located_discrepancy(lhs: dict[tuple[int, ...], int], right, n: int, top: int) -> dict | None:
    """``_schur_discrepancy(lhs, rhs, n)`` for the map rhs = ``right(top)``,
    where ``right(c)`` is the right side through degree c and both maps
    hold no nu with |nu| > top; ``right`` is called only at the caps 1, 2,
    4, ..., clipped at top, up to the first at which the maps differ.

    Every factor of a right side has non-negative degree, so the right map
    through a cap c is an exact truncation of the whole map: its s_nu with
    |nu| <= c, with their whole coefficients.  Cut to c, the left map is
    too, so the cut maps differ exactly when the whole maps differ at some
    |nu| <= c.  The first cap c at which they differ therefore holds the
    lowest differing degree d <= c, and every s_nu of degree d on both
    sides, which is all ``_schur_discrepancy`` expands: it locates the same
    d and monomial, with the same coefficients, as the whole maps.  Each
    cap at most doubles the last, so the carries up to the located cap cost
    about twice the last one.
    """
    cap = 1
    while True:
        cap = min(cap, top)
        cut = {nu: c for nu, c in lhs.items() if sum(nu) <= cap}
        disc = _schur_discrepancy(cut, right(cap), n)
        if disc is not None or cap == top:
            return disc
        cap *= 2


def _denominator_times(
    n: int, symmetric: bool, family, degree: int | None = None
) -> dict[tuple[int, ...], int]:
    """The paraboson denominator times sum_{lambda in family} s_lambda in n
    variables, as {nu: coefficient of s_nu}, through total degree ``degree``.

    It serves the paraboson check, and the parafermion check when
    ``_parafermion_times`` cannot (a family whose shifted character is not
    the character of L(p theta)).  The checks carry the printed
    denominator; the symmetric variant takes its last orbit, the 1-x_i^2,
    from the printed map by ``_times_orbit``, one orbit's step of this
    carry, and ``symmetric`` runs the whole carry that it cuts short,
    which the tests compare with it.  s_nu = a_{nu+delta} / a_delta with a_v
    the S_n alternant and delta = (n-1, ..., 0), so the Schur sum,
    sum c_nu s_nu, is carried in whole units as the monomials
    sum c_nu x^{nu+delta}, whose antisymmetrization A(x^v) =
    sum_w sign(w) w(x^v) = a_v gives back sum c_nu a_{nu+delta}.  A symmetric G commutes with every w, so
    G a_v = A(G x^v), and G times the sum is A(G sum c_nu x^{nu+delta}) /
    a_delta.  The denominator's S_n orbits of factors are such G: the 1-x_i,
    the 1-x_i x_j (i < j) and, for the symmetric variant, the 1-x_i^2.  Each
    factor 1 - x^e is multiplied in by the factor step ``_times_binomial``,
    which builds no factor; only a whole orbit need be symmetric.  After an
    orbit, ``_straightened`` writes each a_v once as +-a_{nu+delta}, with
    |nu| = |v| - |delta|, or 0 (Macdonald I.3), which merges the monomials
    that land on one s_nu.  G_1 = prod(1-x_i) goes first: its alternating
    Pieri terms largely cancel, which shrinks the sum before the many
    factors of G_2 = prod_{i<j}(1-x_i x_j) meet it.  No factor has a
    negative exponent, so a monomial above the cut degree + |delta| =
    degree + n(n-1)/2 gives only s_nu above the bound, and every step drops
    it; the carry starts within the cut (|nu| <= degree), as the step
    requires.  Neither an orbit nor the whole denominator is ever expanded.
    """
    cap = math.inf if degree is None else degree
    coeffs: dict[tuple[int, ...], int] = {}
    for lam in family:
        # s_lambda vanishes in n variables when lambda has more than n rows
        if len(lam) <= n and lam.size <= cap:
            coeffs[lam.parts] = coeffs.get(lam.parts, 0) + 1
    # each factor 1 - x^e named by the variables in e: x_i, x_i x_j, x_i^2
    orbits = [[(i,) for i in range(n)], list(combinations(range(n), 2))]
    if symmetric:
        orbits.append([(i, i) for i in range(n)])
    for orbit in orbits:
        coeffs = _times_orbit(n, coeffs, orbit, cap)
    return coeffs


def _times_orbit(
    n: int, coeffs: dict[tuple[int, ...], int], orbit, cap
) -> dict[tuple[int, ...], int]:
    """One step of ``_denominator_times``: sum c_nu s_nu, every |nu| <= cap,
    times the factors 1 - x^e of one S_n orbit, each e named by its
    variables, through total degree ``cap``, as {nu: coefficient}."""
    delta = range(n - 1, -1, -1)
    cut = cap + n * (n - 1) // 2
    terms = {
        tuple(x + d for x, d in zip(nu + (0,) * (n - len(nu)), delta)): c
        for nu, c in coeffs.items()
    }
    for variables in orbit:
        e = tuple(variables.count(i) for i in range(n))
        terms = _times_binomial(terms, e, -1, cut)
    return _straightened(terms.items())


def _schur_discrepancy(
    lhs: dict[tuple[int, ...], int], rhs: dict[tuple[int, ...], int], n: int
) -> dict | None:
    """First offending monomial of sum lhs[nu] s_nu against sum rhs[nu] s_nu
    in n variables (every nu with at most n rows), or None if they agree.

    These s_nu are linearly independent and homogeneous of degree |nu|, so
    the monomials first disagree at the lowest |nu| = d where the maps
    differ.  Only the degree-d s_nu of each side are expanded, and
    ``_first_discrepancy`` names the monomial.  Both sides are symmetric, so
    they differ on whole S_n orbits of monomials, and the first monomial of
    an orbit in graded-lexicographic order is its increasing arrangement.
    So each side is expanded only on the weakly decreasing exponent vectors,
    its Kostka sums, and these are reversed: they name the same monomial,
    with the same coefficients, as the whole expansions.
    """
    gap = {nu for nu in lhs.keys() | rhs.keys() if lhs.get(nu, 0) != rhs.get(nu, 0)}
    if not gap:
        return None
    d = min(sum(nu) for nu in gap)
    ctx = SchurContext(n)

    def increasing(side):
        # the Kostka sums of the degree-d s_nu, each at its orbit's first monomial
        pairs = ((nu, c) for nu, c in side.items() if sum(nu) == d)
        kostka = _schur_expansion(pairs, ctx, dominant=True).terms
        return MultiPoly._of(n, {e[::-1]: c for e, c in kostka.items()})

    return _first_discrepancy(increasing(lhs), increasing(rhs))


def verify_parastat_identity(n: int, m: int, p: int, valid_degree: int) -> VerificationReport:
    """Truncated check of the parastatistics character identity (conjecture).

    prod over opposite-parity pairs of (1 + x_i x_j), times the alternating
    sum of hs_{mu^(p)} over self-conjugate mu, equals prod(1 - x_i) times
    prod over same-parity pairs of (1 - x_i x_j), times the hook Schur sum
    over lambda with at most p columns; compared through ``valid_degree``.
    Setting m=0 reproduces the parafermionic check, n=0 the parabosonic one
    in the odd variables.

    The Euler sum reads a cohomology table bounded at |mu^(p)| <= D, which
    builds only the entries that can appear below the cap.  Each side is
    carried as a plain term dict, starting from a sum truncated at degree
    D, and takes its factors one at a time through the factor step
    ``_times_binomial`` (1 + x_i y_j on the left; 1 - y_j^2, then the
    same-parity 1 - z_i z_j on the right), which builds no factor.  No
    factor has a negative exponent, so dropping the terms above D at every
    step leaves the degree-D truncation of the whole product, and neither
    product of factors is ever expanded.

    The right side starts from a closed form of the box family times
    prod(1 - x_i), taken in the ring Lambda of symmetric functions:

        M = sum_{lambda_1 <= p} s_lambda sum_k (-1)^k e_k
          = sum_{l >= 0} (-1)^l sum_{nu_1 <= p} s_{((p+1)^l, nu_1, nu_1, nu_2, nu_2, ...)}.

    By Pieri's rule the coefficient of s_kappa in M is the sum of
    (-1)^{|kappa/lambda|} over the lambda with lambda_1 <= p and kappa/lambda
    a vertical strip.  Without the bound on lambda_1 that sum is the
    coefficient of s_kappa in sum_lambda s_lambda prod(1 - x_i) =
    prod_{i<j}(1 - x_i x_j)^{-1} = sum_{kappa' even} s_kappa (Macdonald I.5
    Ex. 5): 1 when kappa's rows pair up, kappa_1 = kappa_2, kappa_3 =
    kappa_4, ..., and 0 otherwise.  For kappa_1 <= p the bound excludes no
    lambda.  For kappa_1 = p + 1 the strip, one box a row at most, must
    take the last box of row 1, and then of every row of length p + 1
    (lambda is a partition): all l boxes of column p + 1, sign (-1)^l.
    What remains is any vertical strip of the rows below, all at most p,
    so they must pair up.  For kappa_1 >= p + 2 no lambda qualifies.

    Superization rho(s_lambda) = hs_lambda is a degree-preserving ring map
    from Lambda (Berele & Regev 1987), with rho(sum_k (-1)^k e_k) =
    prod(1 - x_i) / prod(1 + y_j).  So prod(1 - z_i) times the hook Schur
    sum is rho(M) prod(1 - y_j^2), and the right side is rho(M) prod(1 -
    y_j^2) prod_same(1 - z_i z_j).  The kernel of rho is spanned by the
    s_kappa outside the (n|m) hook, and it is an ideal (every s_gamma in a
    product with such an s_kappa has gamma containing kappa, so outside
    too): dropping those s_kappa from M changes no product taken after
    rho.  That drops every l > n when p + 1 > m, since row n + 1 is then
    p + 1.  Each s_kappa is homogeneous of degree |kappa|, so rho(M)
    through degree D is the sum over the kappa with |kappa| <= D, which
    ``_box_sum_times_e`` lists; the branching pass drops the rest of the
    kernel.  The right side is the same truncated polynomial as the hook
    Schur sum times every 1 - z_i and 1 - z_i z_j, built from far fewer
    diagrams and with m squares in place of the n + m single factors.
    """
    n, m, p = _integer(n, "n"), _integer(m, "m"), _integer(p, "p")
    if n + m < 1:
        raise ValueError(f"need n + m >= 1, got n={n}, m={m}")
    D = _integer(valid_degree, "degree bound")
    ctx = SchurContext(n, m)
    nv = n + m
    # The table holds the mu with |mu^(p)| <= D.  Every arm a that fits,
    # 2a + 1 + p <= D, lies in the ((D + 1 - p) // 2)-square, so the square
    # cuts nothing that the budget keeps.
    table = cohomology_via_partitions(max((D + 1 - p) // 2, 1), p, D)

    def times_factors(terms, c, factors):
        # each factor 1 + c z^e named by the variables in e: z_i z_j, or z_j^2
        for variables in factors:
            e = tuple(2 * variables.count(k) for k in range(nv))
            terms = _times_binomial(terms, e, c, 2 * D)
        return terms

    # hs_{mu^(p)} and hs_kappa are homogeneous of degree |mu^(p)|, |kappa|
    # <= D, so both starting sums lie within the cut, as the factor step
    # requires; the branching pass drops the diagrams outside the (n|m)
    # hook, where hs vanishes
    euler = _schur_expansion(_euler_characteristic(table.entries).items(), ctx, hook=True)
    lhs = times_factors(euler.terms, 1, product(range(n), range(n, nv)))
    start = _schur_expansion(_box_sum_times_e(n, m, p, D), ctx, hook=True)
    squares = [(j, j) for j in range(n, nv)]
    same = [*combinations(range(n), 2), *combinations(range(n, nv), 2)]
    rhs = times_factors(start.terms, -1, [*squares, *same])
    disc = _first_discrepancy(MultiPoly._of(nv, lhs), MultiPoly._of(nv, rhs))
    return VerificationReport("parastat", n, m, p, D, disc)


def _box_sum_times_e(n: int, m: int, p: int, D: int):
    """The (rows, sign) pairs of M = sum_{lambda_1 <= p} s_lambda times
    sum_k (-1)^k e_k through degree D: each kappa = ((p+1)^l, nu_1, nu_1,
    nu_2, nu_2, ...) with nu_1 <= p and |kappa| <= D, with sign (-1)^l.
    Past l = n such a kappa has row n + 1 equal to p + 1, outside the (n|m)
    hook when p + 1 > m, so l stops at n then."""
    top = D // (p + 1)
    if p + 1 > m:
        top = min(top, n)
    for l in range(top + 1):
        head = (p + 1,) * l
        for nu in enumerate_partitions(max_part=p, max_size=(D - (p + 1) * l) // 2):
            yield (*head, *(x for x in nu.parts for _ in range(2))), (-1) ** l
