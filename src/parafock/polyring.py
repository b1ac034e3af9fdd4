"""Exact sparse polynomial arithmetic over the integers, in half-unit exponents.

Monomials are keyed by exponent vectors stored in *half units*: the tuple
entry ``2c`` stands for the exponent ``c``.  Weights of type-B root systems
live on the half-integer lattice, so doubling keeps every exponent an exact
Python int; ordinary polynomials simply use even entries.  Entries may be
negative (Laurent monomials), coefficients are arbitrary-precision ints,
and nothing here ever divides approximately: the only division offered is
``exact_div``, which raises unless the quotient is exact.

Serialization uses the stored (doubled) integers verbatim:
``[{"exp": [...], "coef": "<decimal string>"}, ...]`` sorted by total degree
and then lexicographically on the exponent vector, which is also the
canonical term order used everywhere else in the package.

``TruncatedSeries`` pairs a polynomial with the total degree through which
its coefficients are trusted; products propagate the weaker bound.  Series
are restricted to non-negative exponents so that truncation by total degree
is sound.

Both classes multiply through one term-pair loop, ``_mul_terms``, which
drops every term above a degree cut (none for an exact product).  A
truncated check that multiplies in one two-term factor 1 + c x^e at a
time takes the factor step ``_times_binomial`` instead, which copies the
terms once and adds only the shifted copies that fit the cut.  So does
``expand_inverse_product``, as 1/(1 - c x^e) = prod_j (1 + (c x^e)^(2^j)).
The public constructors check outside input: whole exponents and
coefficients, exponent lengths, non-negative series exponents, the degree
bound, each whole number through ``partitions._integer``.  Results the
library computes itself are wrapped by the private ``MultiPoly._of`` and
``TruncatedSeries._of`` and are not checked again.

``_det`` is the package's one determinant of a polynomial matrix: the
Jacobi-Trudi minors, the S_n bialternant and the B_n alternant all come
from it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from operator import add

from .partitions import _integer

__all__ = [
    "MultiPoly",
    "TruncatedSeries",
    "expand_inverse_product",
]


def _term_key(e: tuple[int, ...]):
    """Canonical (graded, then lexicographic) order on exponent vectors."""
    return (sum(e), e)


def _fmt_half(d: int) -> str:
    return str(d // 2) if d % 2 == 0 else f"{d}/2"


def _exponents(values) -> tuple[int, ...]:
    """An exponent vector from outside, each entry a whole number."""
    return tuple(_integer(x, "exponent", -math.inf) for x in values)


def _mul_terms(a: dict, b: dict, cut=math.inf) -> dict:
    """Product of two term dicts without the terms whose exponent sum (the
    doubled degree, for ``MultiPoly`` terms) is above cut.

    The smaller operand is sorted by degree, so each term of the larger one
    stops at its first partner past the cut.
    """
    if len(a) < len(b):
        a, b = b, a
    inner = sorted(((sum(e), e, c) for e, c in b.items()), key=lambda t: t[0])
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        room = cut - sum(ea)
        for d, eb, cb in inner:
            if d > room:
                break
            e = tuple(map(add, ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _times_binomial(terms: dict, e: tuple[int, ...], c: int, cut=math.inf) -> dict:
    """terms times (1 + c x^e), without the products whose exponent sum is
    above cut; every term of ``terms`` must lie within the cut already.

    The terms are copied once for the 1, and only those that fit under
    cut - |e| add a shifted copy; ``terms`` itself is left as it is.
    """
    out = dict(terms)
    room = cut - sum(e)
    for ea, ca in terms.items():
        if sum(ea) <= room:
            k = tuple(map(add, ea, e))
            s = out.get(k, 0) + c * ca
            if s:
                out[k] = s
            else:
                del out[k]
    return out


class MultiPoly:
    """Sparse multivariate Laurent polynomial with integer coefficients.

    Treat instances as immutable values: all arithmetic returns new objects.
    ``terms`` maps doubled exponent tuples to non-zero int coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int] | None = None):
        self.nvars = _integer(nvars, "nvars")
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for e, c in terms.items():
                e = _exponents(e)
                if len(e) != self.nvars:
                    raise ValueError(
                        f"exponent vector {e} has length {len(e)}, expected {self.nvars}"
                    )
                c = _integer(c, "coefficient", -math.inf)
                if c:
                    clean[e] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, nvars: int, terms: dict[tuple[int, ...], int]) -> "MultiPoly":
        """Wrap terms the library computed itself, without copying or checking."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def constant(cls, nvars: int, c: int) -> "MultiPoly":
        return cls(nvars, {(0,) * _integer(nvars, "nvars"): c})

    @classmethod
    def term(cls, nvars: int, exponents: Iterable[int], coef: int = 1) -> "MultiPoly":
        """Single term from whole-integer exponents (doubled internally)."""
        return cls(nvars, {tuple(2 * x for x in _exponents(exponents)): coef})

    @classmethod
    def half_term(cls, nvars: int, doubled: Iterable[int], coef: int = 1) -> "MultiPoly":
        """Single term from an exponent vector already in half units."""
        return cls(nvars, {tuple(doubled): coef})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        nvars, i = _integer(nvars, "nvars"), _integer(i, "variable index", -math.inf)
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        e = [0] * nvars
        e[i] = 2
        return cls(nvars, {tuple(e): 1})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda t: _term_key(t[0]))

    def coefficient(self, exponents: Iterable[int]) -> int:
        """Coefficient at whole-integer exponents."""
        e = _exponents(exponents)
        if len(e) != self.nvars:
            raise ValueError(f"exponent vector {e} has length {len(e)}, expected {self.nvars}")
        return self.terms.get(tuple(2 * x for x in e), 0)

    def component2(self, d2: int) -> "MultiPoly":
        """Homogeneous component of total degree d2/2."""
        return MultiPoly._of(
            self.nvars, {e: c for e, c in self.terms.items() if sum(e) == d2}
        )

    def sum_of_coefficients(self) -> int:
        """Value at all variables = 1."""
        return sum(self.terms.values())

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError(
                    f"mixed variable counts: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, int):
            return MultiPoly.constant(self.nvars, other)
        return None

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly._of(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            return MultiPoly._of(
                self.nvars, {e: c * other for e, c in self.terms.items()} if other else {}
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly._of(self.nvars, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        k = _integer(k, "power")
        out = MultiPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def permute_variables(self, images: Iterable[int]) -> "MultiPoly":
        """Relabel variables: variable i becomes variable images[i]."""
        images = tuple(images)
        if sorted(images) != list(range(self.nvars)):
            raise ValueError(f"{images} is not a permutation of 0..{self.nvars - 1}")
        out: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            ne = [0] * self.nvars
            for i, x in enumerate(e):
                ne[images[i]] = x
            out[tuple(ne)] = c
        return MultiPoly._of(self.nvars, out)

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial quotient; raises ValueError if it does not divide.

        Both operands must have non-negative exponents (the graded order is
        only well founded on the polynomial cone).
        """
        divisor = self._coerce(divisor)
        if divisor is None:
            raise ValueError("divisor must be a MultiPoly")
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        for poly in (self, divisor):
            if any(x < 0 for e in poly.terms for x in e):
                raise ValueError("exact_div requires non-negative exponents")
        dlead = max(divisor.terms, key=_term_key)
        dcoef = divisor.terms[dlead]
        rem = dict(self.terms)
        quot: dict[tuple[int, ...], int] = {}
        while rem:
            rlead = max(rem, key=_term_key)
            q, r = divmod(rem[rlead], dcoef)
            mono = tuple(a - b for a, b in zip(rlead, dlead))
            if r != 0 or any(x < 0 for x in mono):
                raise ValueError("polynomial division is not exact")
            quot[mono] = quot.get(mono, 0) + q
            for de, dc in divisor.terms.items():
                e = tuple(x + y for x, y in zip(mono, de))
                s = rem.get(e, 0) - q * dc
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
        return MultiPoly._of(self.nvars, {e: c for e, c in quot.items() if c})

    # -- serialization and display ----------------------------------------

    def to_json_obj(self) -> list[dict]:
        return [
            {"exp": list(e), "coef": str(c)} for e, c in self.sorted_terms()
        ]

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            factors = []
            for i, x in enumerate(e):
                if x == 0:
                    continue
                if x == 2:
                    factors.append(f"x{i + 1}")
                else:
                    factors.append(f"x{i + 1}^({_fmt_half(x)})")
            mono = "*".join(factors)
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        out = " + ".join(bits)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self})"


def _det(mat: list[list[MultiPoly]], nvars: int) -> MultiPoly:
    """Determinant of a square matrix of polynomials, by Laplace expansion
    along the rows; the minor on each set of remaining columns is memoized."""
    size = len(mat)
    memo: dict[tuple[int, ...], MultiPoly] = {(): MultiPoly.one(nvars)}

    def minor(cols: tuple[int, ...]) -> MultiPoly:
        got = memo.get(cols)
        if got is not None:
            return got
        row = mat[size - len(cols)]
        terms: dict[tuple[int, ...], int] = {}
        for idx, col in enumerate(cols):
            if row[col]:
                sign = -1 if idx % 2 else 1
                for e, c in (row[col] * minor(cols[:idx] + cols[idx + 1:])).terms.items():
                    s = terms.get(e, 0) + sign * c
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
        memo[cols] = got = MultiPoly._of(nvars, terms)
        return got

    return minor(tuple(range(size)))


class TruncatedSeries:
    """A polynomial trusted through a total-degree bound.

    ``valid_degree`` may be ``math.inf`` for exact (finite) sums.  Terms of
    total degree above the bound are dropped on construction; products take
    the weaker of the two bounds.  Exponents must be non-negative.

    The constructor checks its input, and so does lifting a ``MultiPoly`` or
    int operand.  A product is built by ``_mul_terms`` from two series that
    already passed those checks, so it is wrapped by ``_of`` unchecked.
    """

    __slots__ = ("poly", "valid_degree")

    def __init__(self, poly: MultiPoly, valid_degree):
        valid_degree = _integer(valid_degree, "degree bound", infinite=True)
        if any(x < 0 for e in poly.terms for x in e):
            raise ValueError("series exponents must be non-negative")
        cut = 2 * valid_degree
        self.poly = MultiPoly._of(
            poly.nvars, {e: c for e, c in poly.terms.items() if sum(e) <= cut}
        )
        self.valid_degree = valid_degree

    @classmethod
    def _of(cls, poly: MultiPoly, valid_degree) -> "TruncatedSeries":
        """Wrap a product the library computed itself, without checking it."""
        series = object.__new__(cls)
        series.poly = poly
        series.valid_degree = valid_degree
        return series

    @property
    def nvars(self) -> int:
        return self.poly.nvars

    def _coerce(self, other) -> "TruncatedSeries | None":
        """Lift ``other`` to a series; mixed variable counts raise ValueError."""
        if isinstance(other, TruncatedSeries):
            self.poly._coerce(other.poly)
            return other
        p = self.poly._coerce(other)
        return None if p is None else TruncatedSeries(p, math.inf)

    def __add__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TruncatedSeries(
            self.poly + other.poly, min(self.valid_degree, other.valid_degree)
        )

    __radd__ = __add__

    def __sub__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TruncatedSeries(
            self.poly - other.poly, min(self.valid_degree, other.valid_degree)
        )

    def __rsub__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        bound = min(self.valid_degree, other.valid_degree)
        terms = _mul_terms(self.poly.terms, other.poly.terms, 2 * bound)
        return TruncatedSeries._of(MultiPoly._of(self.nvars, terms), bound)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.valid_degree == other.valid_degree
            and self.poly == other.poly
        )

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.poly}, valid_degree={self.valid_degree})"


def _geometric_factor(factor: MultiPoly) -> tuple[tuple[int, ...], int]:
    """Validate a ``1 - c*monomial`` factor; return (doubled exponent, c)."""
    zero = (0,) * factor.nvars
    if len(factor.terms) != 2 or factor.terms.get(zero) != 1:
        raise ValueError(f"factor must be 1 minus a single monomial, got {factor}")
    (e, c) = next((e, c) for e, c in factor.terms.items() if e != zero)
    if sum(e) <= 0 or any(x < 0 for x in e):
        raise ValueError(
            f"factor monomial must have positive total degree, got {factor}"
        )
    return e, -c


def expand_inverse_product(factors: list[MultiPoly], valid_degree) -> TruncatedSeries:
    """Expand prod 1/(1 - c_k * x^(a_k)) as a series through ``valid_degree``.

    Every factor must literally be 1 minus a single monomial of positive
    total degree.  As 1/(1 - c x^e) = prod_{j >= 0} (1 + (c x^e)^(2^j)), each
    factor is a run of factor steps on one carried term dict, doubling e and
    squaring c while e fits the bound; a factor above it adds nothing.
    """
    valid_degree = _integer(valid_degree, "degree bound")
    if not factors:
        raise ValueError("need at least one factor")
    nv = factors[0].nvars
    cut = 2 * valid_degree
    terms = {(0,) * nv: 1}
    for f in factors:
        if f.nvars != nv:
            raise ValueError("factors must share one variable set")
        e, c = _geometric_factor(f)
        while sum(e) <= cut:
            terms = _times_binomial(terms, e, c, cut)
            e, c = tuple(2 * x for x in e), c * c
    return TruncatedSeries._of(MultiPoly._of(nv, terms), valid_degree)
