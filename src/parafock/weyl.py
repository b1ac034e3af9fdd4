"""Type-B_n root system, signed permutations, alternants and dimension formulas.

Weights are vectors in the standard orthonormal basis e_1..e_n, stored in
half units (the tuple entry ``2c`` means coordinate ``c``), so the weights
of spinor-like modules stay exact integers.

A signed permutation sigma acts by sigma(e_j) = signs[j] * e_{word[j]},
i.e. signs flip first, then positions permute; ``word`` is one-line image
notation.  Its sign is the permutation parity times the product of the
coordinate signs.

Monomials encode formal exponentials through the fixed convention
x_i = exp(-e_i): the monomial of a weight v is prod_i x_i^(-v_i).  Under
it the character of the level-p module is a Laurent polynomial whose
positive-degree part collects the states above the vacuum.

The alternant D_chi = sum epsilon(w) exp(w chi) over the group is one
determinant, det(x_j^(-chi_i) - x_j^(chi_i)): epsilon(w) is the permutation
parity times the product of the signs, so the sum over signs factors row
by row and the sum over permutations is a determinant.

S_n alternants are straightened onto partitions plus delta
(``_straighten_type_a``, used by the Schur-basis identity checks).
"""

from __future__ import annotations

from math import prod

from .partitions import Partition, _integer, as_partition

__all__ = [
    "Weight",
    "SignedPermutation",
    "RootSystemB",
    "weight_monomial",
    "omega_I",
    "w1_element",
    "phi_sigma",
    "kostant_weight",
    "alternant",
    "dim_so",
    "dim_gl",
    "ALTERNANT_RANK_LIMIT",
]

from .polyring import MultiPoly, _det, _fmt_half

ALTERNANT_RANK_LIMIT = 6


class Weight:
    """Vector in the e-basis, coordinates stored in half units."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords: tuple[int, ...] = tuple(
            _integer(c, "coordinate", float("-inf")) for c in coords
        )

    @classmethod
    def _of(cls, coords: tuple[int, ...]) -> "Weight":
        """Wrap coordinates the library computed itself, without checking."""
        v = object.__new__(cls)
        v.coords = coords
        return v

    @property
    def n(self) -> int:
        return len(self.coords)

    @classmethod
    def zero(cls, n: int) -> "Weight":
        return cls._of((0,) * _integer(n, "n"))

    @classmethod
    def basis(cls, i: int, n: int) -> "Weight":
        """The unit vector e_i (1-based i)."""
        n, i = _integer(n, "n"), _integer(i, "index", float("-inf"))
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range 1..{n}")
        return cls._of((0,) * (i - 1) + (2,) + (0,) * (n - i))

    @classmethod
    def rho(cls, n: int) -> "Weight":
        """Half-sum of the positive roots: coordinates (2n-2i+1)/2."""
        return cls._of(tuple(range(2 * _integer(n, "n") - 1, 0, -2)))

    @classmethod
    def p_theta(cls, n: int, p: int) -> "Weight":
        """p/2 times the all-ones vector (the level-p highest weight)."""
        return cls._of((_integer(p, "p"),) * _integer(n, "n"))

    def __add__(self, other: "Weight") -> "Weight":
        return Weight._of(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight._of(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __neg__(self) -> "Weight":
        return Weight._of(tuple(-c for c in self.coords))

    def pairing(self, other: "Weight") -> int:
        """Standard inner product, scaled by 4 (exact; ratios are unscaled)."""
        return sum(a * b for a, b in zip(self.coords, other.coords, strict=True))

    def is_dominant(self) -> bool:
        return all(
            a >= b for a, b in zip(self.coords, self.coords[1:])
        ) and (not self.coords or self.coords[-1] >= 0)

    def reversed_negated(self) -> "Weight":
        """Negate and reverse the coordinates (lowest-to-highest reflection)."""
        return Weight._of(tuple(-c for c in reversed(self.coords)))

    def to_partition(self) -> Partition:
        if any(c % 2 for c in self.coords):
            raise ValueError(f"{self!r} has half-integer coordinates")
        return Partition(c // 2 for c in self.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, Weight) and self.coords == other.coords

    def __hash__(self):
        return hash(("Weight", self.coords))

    def __repr__(self) -> str:
        return "Weight(" + ", ".join(_fmt_half(c) for c in self.coords) + ")"


def weight_monomial(v: Weight) -> MultiPoly:
    """Monomial of exp(v) under x_i = exp(-e_i): prod x_i^(-v_i)."""
    return MultiPoly.half_term(v.n, tuple(-c for c in v.coords))


class SignedPermutation:
    """Element of the hyperoctahedral group: sigma(e_j) = signs[j] e_{word[j]}."""

    __slots__ = ("word", "signs")

    def __init__(self, word, signs):
        self.word: tuple[int, ...] = tuple(_integer(w, "word entry", float("-inf")) for w in word)
        self.signs: tuple[int, ...] = tuple(_integer(s, "sign", float("-inf")) for s in signs)
        n = len(self.word)
        if sorted(self.word) != list(range(1, n + 1)):
            raise ValueError(f"{self.word} is not a permutation of 1..{n}")
        if len(self.signs) != n or any(s not in (1, -1) for s in self.signs):
            raise ValueError(f"signs must be +-1 of length {n}, got {self.signs}")

    @property
    def n(self) -> int:
        return len(self.word)

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(range(1, n + 1), (1,) * n)

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        """Composition: (self * other)(v) = self(other(v))."""
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        word = tuple(self.word[other.word[j] - 1] for j in range(self.n))
        signs = tuple(
            other.signs[j] * self.signs[other.word[j] - 1] for j in range(self.n)
        )
        return SignedPermutation(word, signs)

    def inverse(self) -> "SignedPermutation":
        iw = [0] * self.n
        for j, im in enumerate(self.word):
            iw[im - 1] = j + 1
        isg = tuple(self.signs[iw[i] - 1] for i in range(self.n))
        return SignedPermutation(iw, isg)

    def epsilon(self) -> int:
        """Sign character: permutation parity times the product of signs."""
        sign = 1
        seen = [False] * self.n
        for i in range(self.n):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = self.word[j] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        for s in self.signs:
            sign *= s
        return sign

    def apply(self, v: Weight) -> Weight:
        if v.n != self.n:
            raise ValueError(f"rank mismatch: {self.n} vs {v.n}")
        out = [0] * self.n
        for j in range(self.n):
            out[self.word[j] - 1] = self.signs[j] * v.coords[j]
        return Weight._of(tuple(out))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignedPermutation)
            and self.word == other.word
            and self.signs == other.signs
        )

    def __hash__(self):
        return hash((self.word, self.signs))

    def __repr__(self) -> str:
        return f"SignedPermutation(word={list(self.word)}, signs={list(self.signs)})"


class RootSystemB:
    """Positive roots e_i, e_i +- e_j (i<j) and the abelian-nilradical subset."""

    def __init__(self, n: int):
        self.n = n = _integer(n, "rank", 1)
        pos: list[Weight] = []
        for i in range(1, n + 1):
            pos.append(Weight.basis(i, n))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                ei, ej = Weight.basis(i, n), Weight.basis(j, n)
                pos.append(ei - ej)
                pos.append(ei + ej)
        self.positive_roots: tuple[Weight, ...] = tuple(pos)
        # the nilradical roots e_i and e_i + e_j
        self.nilradical_roots = tuple(w for w in pos if min(w.coords) >= 0)
        self._nil_set = frozenset(w.coords for w in self.nilradical_roots)
        # Per positive root, its first and last nonzero coordinates with their
        # values, (i, c, j, d); e_i has just one, read twice.
        nonzero = ([(k, c) for k, c in enumerate(w.coords) if c] for w in pos)
        self._supports = tuple(nz[0] + nz[-1] for nz in nonzero)

    def is_nilradical_root(self, w: Weight) -> bool:
        return w.coords in self._nil_set


def omega_I(I, n: int) -> SignedPermutation:
    """Unsigned permutation sending the complement of I (ascending) to 1..n-r
    and I = {i_1 < ... < i_r} to n, n-1, ..., n-r+1.

    Its inverse reads, in one-line notation, as the complement ascending
    followed by I descending.  It is ``w1_element``'s word with every sign +1.
    """
    sigma = w1_element(I, n)
    return SignedPermutation(sigma.word, (1,) * sigma.n)


def w1_element(I, n: int) -> SignedPermutation:
    """Coset representative: flip signs on I, then rearrange by omega_I."""
    n = _integer(n, "n")
    I = frozenset(_integer(i, "element of I", float("-inf")) for i in I)
    if not I <= set(range(1, n + 1)):
        raise ValueError(f"I={sorted(I)} is not a subset of 1..{n}")
    return SignedPermutation(*_w1_word(sorted(I), n))


def _w1_word(I, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Word and signs of ``w1_element(I, n)`` for I ascending inside 1..n.

    The word is omega_I: the complement of I ascending goes to 1..n-r, and
    I = {i_1 < ... < i_r} to n, n-1, ..., n-r+1.
    """
    word, signs = [0] * n, [1] * n
    place = n
    for i in I:
        word[i - 1], signs[i - 1] = place, -1
        place -= 1
    place = 0
    for j, s in enumerate(signs):
        if s > 0:
            place += 1
            word[j] = place
    return tuple(word), tuple(signs)


def phi_sigma(sigma: SignedPermutation, rs: RootSystemB) -> list[Weight]:
    """Positive roots sent to negative roots by sigma^{-1}.

    A root of B_n is positive exactly when its first nonzero coordinate is
    positive: the positive roots e_i and e_i +- e_j (i < j) all start with
    +1 at i, and every other root is the negative of one of them.
    sigma^{-1} maps e_{word[j]} to signs[j] e_j, so it moves each nonzero
    coordinate of alpha to a new place, times a sign, and its image is again
    a root.  The image's first nonzero coordinate is therefore whichever of
    alpha's one or two support coordinates lands first, and its sign decides
    the root; no image vector is built.
    """
    if sigma.n != rs.n:
        raise ValueError(f"rank mismatch: {sigma.n} vs {rs.n}")
    return [rs.positive_roots[x] for x in _inverted(sigma.word, sigma.signs, rs)]


def _inverted(word, signs, rs: RootSystemB) -> list[int]:
    """Indices into ``rs.positive_roots`` of ``phi_sigma`` for sigma = (word, signs)."""
    # sigma^{-1}(e_{k+1}) = sign[k] * e_{place[k]+1}
    place = [0] * rs.n
    sign = [0] * rs.n
    for j, (w, s) in enumerate(zip(word, signs)):
        place[w - 1] = j
        sign[w - 1] = s
    return [
        x
        for x, (i, c, j, d) in enumerate(rs._supports)
        if (sign[i] * c if place[i] <= place[j] else sign[j] * d) < 0
    ]


def kostant_weight(sigma: SignedPermutation, highest: Weight, n: int) -> Weight:
    """sigma(rho + highest) - rho."""
    for m in (sigma.n, highest.n):
        if m != n:
            raise ValueError(f"rank mismatch: {m} vs {n}")
    rho = Weight.rho(n)
    return sigma.apply(rho + highest) - rho


def alternant(chi: Weight, max_rank: int = ALTERNANT_RANK_LIMIT) -> MultiPoly:
    """Antisymmetrized exponential sum over the full hyperoctahedral group.

    D_chi = sum over the 2^n n! group elements of epsilon(w) exp(w chi),
    returned as a Laurent polynomial under x_i = exp(-e_i).  epsilon(w) is
    the permutation parity times the product of the signs, so the sum over
    signs factors row by row and D_chi = det(x_j^(-chi_i) - x_j^(chi_i)).
    Guarded by ``max_rank`` because the result has up to 2^n n! terms.
    """
    n, max_rank = chi.n, _integer(max_rank, "max_rank")
    if n > max_rank:
        raise ValueError(
            f"rank {n} exceeds the alternant limit {max_rank}; raise max_rank to force"
        )

    def entry(c: int, j: int) -> MultiPoly:
        # x_j^(-c) - x_j^(c) in half units; the two terms cancel when c = 0
        before, after = (0,) * j, (0,) * (n - j - 1)
        return MultiPoly._of(n, {before + (-c,) + after: 1, before + (c,) + after: -1} if c else {})

    return _det([[entry(c, j) for j in range(n)] for c in chi.coords], n)


def _straighten_type_a(exponents) -> tuple[int, tuple[int, ...]] | None:
    """Write the S_n alternant a_v = det(x_j^(v_i)) as sign * a_{nu + delta}.

    For v of non-negative integers, returns ``(sign, nu)`` with nu a
    partition (no trailing zeros) and delta = (n-1, ..., 1, 0), or None when
    two entries are equal, where a_v = 0.  The sign counts the inversions of
    the sort of v into decreasing order (Macdonald I.3).
    """
    sign = 1
    seen = []
    for v in exponents:
        for s in seen:
            if s == v:
                return None
            if s < v:
                sign = -sign
        seen.append(v)
    top = len(seen) - 1
    nu = [v - (top - i) for i, v in enumerate(sorted(seen, reverse=True))]
    return sign, tuple(x for x in nu if x)


def dim_so(highest: Weight, n: int) -> int:
    """Dimension of the so(2n+1) module with the given dominant highest weight.

    Weyl's product over the positive roots a of <L + rho, a> / <rho, a>,
    evaluated as an exact integer quotient and read off the coordinates in
    O(n^2) products: <x, e_i> = x_i and <x, e_i - e_j> <x, e_i + e_j> =
    x_i^2 - x_j^2.  Half units scale the numerator and the denominator by
    the same power of 2.
    """
    n = _integer(n, "n", 1)
    if highest.n != n:
        raise ValueError(f"weight rank {highest.n} does not match n={n}")
    if not highest.is_dominant():
        raise ValueError(f"{highest!r} is not dominant")
    rho = range(2 * n - 1, 0, -2)
    shifted = [c + r for c, r in zip(highest.coords, rho)]
    num, den = _weyl_product(shifted), _weyl_product(rho)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("dimension product is not integral; convention bug")
    return q


def _weyl_product(x) -> int:
    """prod_i x_i * prod_{i<j} (x_i^2 - x_j^2)."""
    return prod(x) * prod(a * a - b * b for i, a in enumerate(x) for b in x[i + 1:])


def dim_gl(lam, n: int) -> int:
    """Dimension of the gl(n) module with highest weight lambda (hook-content)."""
    lam, n = as_partition(lam), _integer(n, "n")
    if len(lam) > n:
        raise ValueError(f"{lam!r} has more than {n} rows")
    conj = lam.conjugate()
    num = den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= (row - j) + (conj[j] - (i + 1))
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("hook-content product is not integral; bug")
    return q
