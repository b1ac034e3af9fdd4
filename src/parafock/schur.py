"""Schur, skew Schur and hook (supersymmetric) Schur polynomials.

Polynomials live in ``n + m`` variables: the n "even" variables come first
(indices 0..n-1), the m "odd" ones after them (indices n..n+m-1).  Plain
Schur polynomials use only the even block; hook Schur polynomials use both.
This even-then-odd ordering is a fixed convention of the package and is
what the CLI prints.

Four engines compute s_lambda:

* ``gt``  - Gelfand-Tsetlin branching rule (the default):
  s_lambda(x_1..x_k) = sum over mu interlacing lambda of
  s_mu(x_1..x_{k-1}) x_k^{|lambda/mu|} (Macdonald, I.(5.11)); it needs no
  polynomial multiplication, only exponent shifts and additions,
* ``jt``  - Jacobi-Trudi determinant in complete homogeneous polynomials
  (the independent oracle the fast path is tested against),
* ``alt`` - bialternant: quotient of two determinants
  det(x_j^(lambda_i+n-i)) / det(x_j^(n-i)), computed by exact polynomial
  division (cost grows like n!, intended as a cross-check for small n),
* ``tab`` - monomial sum over semistandard tableaux.

Hook Schur polynomials come either from the same branching rule run over
all n + m variables (``br``) or from super-semistandard tableaux
(``tab``).  Each odd variable removes a vertical strip, hs_lambda(x;
y_1..y_j) = sum over nu of hs_nu(x; y_1..y_{j-1}) y_j^{|lambda/nu|}
(Macdonald I.5, Berele & Regev 1987), and nu/kappa is a vertical strip
exactly when kappa' interlaces nu': the odd variables branch the
conjugates, under one row cap that suffices for the hook.  hs_lambda
vanishes exactly when the diagram does not fit in the (n|m) hook.
Determinants, all taken by ``polyring._det``, serve only the ``jt`` and
``alt`` oracles and ``skew_schur``.

All ``tab`` engines (plain, skew and hook) share one super-tableau
enumerator; with no odd letters (m = 0) its tableaux are the ordinary
semistandard ones.

Every branching expansion, of one diagram or of a whole signed family, is
``_schur_expansion``: one pass from the last variable down, which splits
each diagram the family's members share once.  It takes trusted rows
tuples: the public functions check outside input once, not the pass.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import combinations_with_replacement, product

from .partitions import Partition, _column_lengths, _integer, as_partition, enumerate_partitions
from .polyring import MultiPoly, TruncatedSeries, _det

__all__ = [
    "SchurContext",
    "schur",
    "skew_schur",
    "hook_schur",
    "schur_sum",
]


class SchurContext:
    """Variable bookkeeping plus a cache of complete homogeneous polynomials,
    which the Jacobi-Trudi oracle reads."""

    def __init__(self, n: int, m: int = 0):
        self.n = _integer(n, "n")
        self.m = _integer(m, "m")
        self.nvars = self.n + self.m
        self._h_cache: dict[tuple[str, int], MultiPoly] = {}

    def block(self, which: str) -> range:
        if which == "even":
            return range(0, self.n)
        if which == "odd":
            return range(self.n, self.nvars)
        raise ValueError(f"unknown block {which!r}")

    def h(self, k: int, which: str = "even") -> MultiPoly:
        """Complete homogeneous polynomial of degree k in one variable block."""
        if k < 0:
            return MultiPoly.zero(self.nvars)
        key = (which, k)
        cached = self._h_cache.get(key)
        if cached is not None:
            return cached
        terms: dict[tuple[int, ...], int] = {}
        for combo in combinations_with_replacement(self.block(which), k):
            e = [0] * self.nvars
            for i in combo:
                e[i] += 2
            e = tuple(e)
            terms[e] = terms.get(e, 0) + 1
        poly = MultiPoly._of(self.nvars, terms)
        self._h_cache[key] = poly
        return poly

    def __repr__(self) -> str:
        return f"SchurContext(n={self.n}, m={self.m})"


def _jt_det(outer: Partition, inner: Partition, ctx: SchurContext) -> MultiPoly:
    """Jacobi-Trudi determinant det h(outer_i - inner_j - i + j), the h taken
    over the even block of ``ctx``."""
    size = len(outer)
    mat = [
        [ctx.h(outer[i] - inner.part(j) - i + j) for j in range(size)]
        for i in range(size)
    ]
    return _det(mat, ctx.nvars)


def _sn_alternant(exponents: list[int], ctx: SchurContext) -> MultiPoly:
    """S_n alternant det(x_j^(e_i)) over the even block."""
    nv = ctx.nvars
    mat = [
        [MultiPoly._of(nv, {(0,) * j + (2 * x,) + (0,) * (nv - j - 1): 1}) for j in range(ctx.n)]
        for x in exponents
    ]
    return _det(mat, nv)


def _iter_super_contents(
    lam: Partition, n: int, m: int, inner: Partition = Partition()
) -> Iterator[list[int]]:
    """Content vectors of super-semistandard tableaux of shape lam/inner.

    Letters 0..n-1 are even, n..n+m-1 odd, totally ordered by value.  Rows
    and columns weakly increase; even letters repeat only along rows, odd
    letters only down columns.  With m = 0 these are the column-strict
    tableaux.  Cells of ``inner`` carry no entry and constrain nothing.
    """
    cells = [
        (r, c) for r, row_len in enumerate(lam) for c in range(inner.part(r), row_len)
    ]
    grid: dict[tuple[int, int], int] = {}
    content = [0] * (n + m)

    def rec(idx: int) -> Iterator[list[int]]:
        if idx == len(cells):
            yield list(content)
            return
        r, c = cells[idx]
        lo = 0
        left = grid.get((r, c - 1))
        if left is not None:
            lo = left + (left >= n)
        above = grid.get((r - 1, c))
        if above is not None:
            lo = max(lo, above + (above < n))
        for v in range(lo, n + m):
            grid[(r, c)] = v
            content[v] += 1
            yield from rec(idx + 1)
            content[v] -= 1
        grid.pop((r, c), None)

    yield from rec(0)


def _content_sum(contents: Iterator[list[int]], nvars: int) -> MultiPoly:
    # Content vectors may cover only a prefix block of the variables.
    terms: dict[tuple[int, ...], int] = {}
    for content in contents:
        e = tuple(2 * x for x in content) + (0,) * (nvars - len(content))
        terms[e] = terms.get(e, 0) + 1
    return MultiPoly._of(nvars, terms)


def schur(lam, ctx: SchurContext, algorithm: str = "gt") -> MultiPoly:
    """Schur polynomial in the even variables of ``ctx``.

    Vanishes exactly when the diagram has more rows than even variables.
    """
    lam = as_partition(lam)
    if algorithm == "gt":
        return _schur_expansion(((lam.parts, 1),), ctx)
    # Neither determinant engine sees a diagram longer than the even block.
    if algorithm in ("jt", "alt") and len(lam) > ctx.n:
        return MultiPoly.zero(ctx.nvars)
    if algorithm == "jt":
        return _jt_det(lam, Partition(), ctx)
    if algorithm == "alt":
        delta = [ctx.n - 1 - i for i in range(ctx.n)]
        shifted = [lam.part(i) + d for i, d in enumerate(delta)]
        numerator = _sn_alternant(shifted, ctx)
        denominator = _sn_alternant(delta, ctx)
        return numerator.exact_div(denominator)
    if algorithm == "tab":
        return _content_sum(_iter_super_contents(lam, ctx.n, 0), ctx.nvars)
    raise ValueError(f"unknown algorithm {algorithm!r} (expected gt, jt, alt or tab)")


def skew_schur(lam, mu, ctx: SchurContext, algorithm: str = "jt") -> MultiPoly:
    """Skew Schur polynomial s_{lam/mu} in the even variables of ``ctx``."""
    lam, mu = as_partition(lam), as_partition(mu)
    if not lam.contains(mu):
        raise ValueError(f"{mu!r} is not contained in {lam!r}")
    if algorithm == "jt":
        return _jt_det(lam, mu, ctx)
    if algorithm == "tab":
        return _content_sum(_iter_super_contents(lam, ctx.n, 0, mu), ctx.nvars)
    raise ValueError(f"unknown algorithm {algorithm!r} (expected jt or tab)")


def hook_schur(lam, ctx: SchurContext, algorithm: str = "br") -> MultiPoly:
    """Hook (supersymmetric) Schur polynomial hs_lambda(x_even; x_odd).

    Zero exactly when the diagram violates the (n|m) hook condition.
    """
    lam = as_partition(lam)
    if algorithm == "br":
        return _schur_expansion(((lam.parts, 1),), ctx, hook=True)
    if algorithm == "tab":
        return _content_sum(_iter_super_contents(lam, ctx.n, ctx.m), ctx.nvars)
    raise ValueError(f"unknown algorithm {algorithm!r} (expected br or tab)")


def _schur_expansion(
    coeffs, ctx: SchurContext, hook: bool = False, dominant: bool = False
) -> MultiPoly:
    """sum c s_lambda over the (rows, c) pairs of ``coeffs``, or sum c hs_lambda
    with ``hook``, by one branching pass over the whole family.  Each ``rows``
    is lambda's parts without trailing zeros, trusted and not checked.
    With ``dominant`` the sum keeps only its terms whose exponents weakly
    decrease: for a plain sum, each symmetric, these are its Kostka sums.

    The pass removes the variables from the last one down, carrying
    {nu: {exponents of the variables removed: coefficient}}.  Removing z_k
    splits each nu into the kappa with nu/kappa a horizontal (z_k even) or
    vertical (z_k odd) strip that fit the hook of the variables left, and
    gives z_k the exponent |nu/kappa|; what cancels is dropped where it meets.
    A vertical strip is a horizontal one of the conjugates, so with m > 0 the
    carry holds nu' until the first even variable.  Either way kappa
    interlaces nu, rows from ``first`` on (from 0) capped at ``cap``: k rows
    for an even z_k, the (n | k - n) hook for an odd one.  That cap suffices
    and leaves no range empty, since nu' is at most n from row k - n + 1 on.
    An exponent vector is built from its last entry forward, so ``dominant``
    drops it as soon as a new entry is below the one after it, and drops a
    kappa whose size cannot give each variable left at least that entry.
    """
    n, m = ctx.n, ctx.m if hook else 0
    seeds: dict[tuple[int, ...], int] = {}
    for rows, c in coeffs:
        # hs_lambda vanishes outside the (n|m) hook, s_lambda past n rows
        if len(rows) <= n or rows[n] <= m:
            seeds[rows] = seeds.get(rows, 0) + c
    tail = (0,) * (ctx.nvars - n - m)  # the odd variables of a plain sum
    carry = {(_column_lengths(nu) if m else nu): {tail: c} for nu, c in seeds.items() if c}
    k = n + m
    while k:
        k -= 1
        first, cap = (k - n, n) if k >= n else (k, 0)
        if m and k == n - 1:
            carry = {_column_lengths(nu): terms for nu, terms in carry.items()}
        below: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for nu, terms in carry.items():
            if not terms:
                continue
            rows = nu + (0,)
            tops = (v if i < first else min(v, cap) for i, v in enumerate(nu))
            strips = product(*(range(rows[i + 1], top + 1) for i, top in enumerate(tops)))
            size = sum(nu)
            for kappa in strips:
                kappa = kappa[: len(kappa) - kappa.count(0)]
                rest = sum(kappa)
                d = 2 * (size - rest)
                items = terms.items()
                if dominant:
                    # the k variables left need exponents of at least d each
                    if k * d > 2 * rest:
                        continue
                    items = [(e, c) for e, c in items if not e or e[0] <= d]
                into = below.setdefault(kappa, {})
                for e, c in items:
                    e = (d,) + e
                    s = into.get(e, 0) + c
                    if s:
                        into[e] = s
                    else:
                        into.pop(e, None)
        carry = below
    return MultiPoly._of(ctx.nvars, carry.get((), {}))


def schur_sum(constraint: tuple[str, int], ctx: SchurContext, valid_degree) -> TruncatedSeries:
    """Sum of (hook) Schur polynomials over a constrained family of diagrams.

    ``constraint`` is one of

    * ``("max_columns", p)``: all lambda with at most p columns; requires
      m = 0, where the family is finite (lambda inside the p^n rectangle)
      and the sum is exact, so ``valid_degree`` may be ``math.inf``;
    * ``("max_rows", p)``: all lambda with at most p rows (m = 0, finite
      degree bound required);
    * ``("hook", p)``: hook Schur sum over all lambda with at most p
      columns (finite degree bound required).
    """
    valid_degree = _integer(valid_degree, "degree bound", infinite=True)
    kind, p = constraint
    p = _integer(p, "p")
    if kind in ("max_columns", "max_rows") and ctx.m != 0:
        raise ValueError(f"constraint {kind!r} needs a context with m=0")
    if kind == "max_columns":
        family = enumerate_partitions(max_part=p, max_length=ctx.n, max_size=valid_degree)
    elif valid_degree == math.inf:
        raise ValueError(f"constraint {kind!r} needs a finite degree bound")
    elif kind == "max_rows":
        family = enumerate_partitions(max_length=min(p, ctx.n), max_size=valid_degree)
    elif kind == "hook":
        family = enumerate_partitions(max_part=p, max_size=valid_degree)
    else:
        raise ValueError(f"unknown constraint kind {kind!r}")
    total = _schur_expansion(((lam.parts, 1) for lam in family), ctx, hook=kind == "hook")
    return TruncatedSeries._of(total, valid_degree)
