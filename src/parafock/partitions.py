"""Partition and Young-diagram calculus.

A partition is a weakly decreasing tuple of positive integers; trailing
zeros are stripped on construction so that equality of ``Partition``
values is equality of diagrams.  Frobenius coordinates describe a diagram
by its diagonal hooks, ``(arms | legs)``, both strictly decreasing and of
equal length r (the number of diagonal boxes).

Self-conjugate diagrams (arms == legs) inside the square ``(n^n)`` are in
bijection with subsets of ``{0, ..., n-1}``: choose the arm lengths.  That
is how ``enumerate_self_conjugate_in_square`` produces them directly,
without scanning the square: a depth-first walk over the arm sets, which
under a size budget never opens an arm the budget cannot pay for, so it
builds only the diagrams it returns.

Enumerations are deterministic: diagrams are ordered by total size and,
within a size, by descending lexicographic order on the part lists.  They
build their rows themselves, so they yield trusted diagrams wrapped by
``Partition._of``, as ``Partition.conjugate`` returns its transpose; only
``Partition(...)`` and ``as_partition`` check rows from outside.

Every count and bound the package takes from outside (a variable count,
an order p, a degree k or a degree bound D) is checked by ``_integer``,
which the other modules import from here, the lowest layer.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import itemgetter

__all__ = [
    "Partition",
    "FrobeniusForm",
    "frobenius_decompose",
    "frobenius_compose",
    "augment_arms",
    "enumerate_self_conjugate_in_square",
    "enumerate_partitions",
    "hook_condition",
    "enumeration_key",
]


def _integer(value, name: str, low=0, infinite: bool = False):
    """``value`` as an int, or ``math.inf`` where ``infinite`` allows it.

    Integral numbers (``True``, ``3.0``) count as whole; ValueError naming
    ``name`` for a whole value below ``low`` and for anything else: a
    fraction, NaN, a disallowed infinity, a string.
    """
    if infinite and value == float("inf"):
        return value
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if whole < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return whole


class Partition:
    """A weakly decreasing tuple of positive integers (a Young diagram)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()) -> None:
        ps = [_integer(x, "part", float("-inf")) for x in parts]
        while ps and ps[-1] == 0:
            ps.pop()
        if any(a < b for a, b in zip(ps, ps[1:])):
            raise ValueError(f"parts must be weakly decreasing, got {ps}")
        if ps and ps[-1] < 0:
            raise ValueError(f"parts must be non-negative, got {ps}")
        self.parts: tuple[int, ...] = tuple(ps)

    @classmethod
    def _of(cls, parts: tuple[int, ...]) -> "Partition":
        """Wrap rows the library computed itself, without copying or checking."""
        lam = object.__new__(cls)
        lam.parts = parts
        return lam

    @property
    def size(self) -> int:
        """Number of boxes."""
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def part(self, i: int) -> int:
        """The i-th part, 0-based, 0 beyond the last row."""
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    def conjugate(self) -> "Partition":
        """Transpose the diagram: column lengths become row lengths."""
        return Partition._of(_column_lengths(self.parts))

    def is_self_conjugate(self) -> bool:
        return self.parts == _column_lengths(self.parts)

    def contains(self, other: "Partition") -> bool:
        """Diagram inclusion: every row of ``other`` fits inside this one."""
        return all(other[i] <= self.part(i) for i in range(len(other)))

    def frobenius_rank(self) -> int:
        """Number of diagonal boxes."""
        return sum(1 for i, p in enumerate(self.parts) if p >= i + 1)

    def to_json(self) -> list[int]:
        return list(self.parts)

    @classmethod
    def from_json(cls, obj) -> "Partition":
        return cls(obj)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("Partition", self.parts))

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


class _Record:
    """Value semantics for a class whose fields are its ``__slots__``.

    Equality compares the fields of two instances of the same class and the
    repr names each field, as a dataclass does.  A ``_Record`` is mutable,
    so it is unhashable; ``_FrozenRecord`` is the hashable kind.  The
    package avoids ``dataclasses`` because importing it loads ``inspect``
    and its dependencies, which lengthens every CLI start-up.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class _FrozenRecord(_Record):
    """A hashable ``_Record`` whose fields cannot change after ``__init__``,
    which sets them with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild the record through __init__, not by assignment
        return type(self), self._fields()


class FrobeniusForm(_FrozenRecord):
    """Frobenius coordinates (arms | legs) of a diagram with r diagonal boxes.

    ``arms[i]`` counts boxes strictly right of diagonal box i, ``legs[i]``
    boxes strictly below it; both sequences are strictly decreasing and
    non-negative.
    """

    __slots__ = ("arms", "legs")

    def __init__(self, arms: tuple[int, ...], legs: tuple[int, ...]) -> None:
        arms = tuple(_integer(a, "arm", float("-inf")) for a in arms)
        legs = tuple(_integer(b, "leg", float("-inf")) for b in legs)
        if len(arms) != len(legs):
            raise ValueError("arms and legs must have the same length")
        for seq, name in ((arms, "arms"), (legs, "legs")):
            if any(x < 0 for x in seq):
                raise ValueError(f"{name} must be non-negative: {seq}")
            if any(a <= b for a, b in zip(seq, seq[1:])):
                raise ValueError(f"{name} must be strictly decreasing: {seq}")
        object.__setattr__(self, "arms", arms)
        object.__setattr__(self, "legs", legs)

    @property
    def rank(self) -> int:
        return len(self.arms)

    def to_json(self) -> dict:
        return {"arms": list(self.arms), "legs": list(self.legs)}

    @classmethod
    def from_json(cls, obj) -> "FrobeniusForm":
        return cls(tuple(obj["arms"]), tuple(obj["legs"]))


def as_partition(lam) -> Partition:
    """Coerce an iterable of whole parts (or a Partition) to a Partition."""
    return lam if isinstance(lam, Partition) else Partition(lam)


def frobenius_decompose(lam: Partition) -> FrobeniusForm:
    """Diagonal-hook coordinates of a diagram."""
    lam = as_partition(lam)
    conj = lam.conjugate()
    r = lam.frobenius_rank()
    arms = tuple(lam[i] - (i + 1) for i in range(r))
    legs = tuple(conj[i] - (i + 1) for i in range(r))
    return FrobeniusForm(arms, legs)


def frobenius_compose(form: FrobeniusForm) -> Partition:
    """Rebuild the diagram from diagonal-hook coordinates."""
    r = form.rank
    rows = tuple(a + i + 1 for i, a in enumerate(form.arms))
    # Column j is legs[j] + j + 1 long, and a row below the diagonal block
    # meets only those first r columns, so below row r the rows are the
    # conjugate of those column lengths, as in the square walk.
    cols = tuple(b + j + 1 for j, b in enumerate(form.legs))
    return Partition(rows + _column_lengths(cols)[r:])


def augment_arms(mu: Partition, p: int) -> Partition:
    """Lengthen every diagonal arm of a self-conjugate diagram by p.

    In Frobenius coordinates, (alpha | alpha) becomes (alpha + p | alpha).
    Arm i runs along row i, so this adds p boxes to each of the first r
    rows, r being the number of diagonal boxes; the rows below the diagonal
    block hold leg boxes only and stay as they are.
    """
    mu = as_partition(mu)
    p = _integer(p, "p")
    if not mu.is_self_conjugate():
        raise ValueError(f"{mu!r} is not self-conjugate")
    r = mu.frobenius_rank()
    return Partition((*(row + p for row in mu.parts[:r]), *mu.parts[r:]))


def enumeration_key(lam: Partition):
    """Sort key: by size, then descending lexicographic on part lists."""
    lam = as_partition(lam)
    return (lam.size, tuple(-p for p in lam.parts))


def enumerate_self_conjugate_in_square(
    n: int, max_size: int | None = None, p: int = 0
) -> list[Partition]:
    """Self-conjugate diagrams mu inside the n x n square whose arm-augmented
    diagram mu^(p) (``augment_arms``) has at most ``max_size`` boxes; all
    2^n of them when ``max_size`` is None.

    Each strictly decreasing arm set (a_0 > ... > a_{r-1}) inside
    {0, ..., n-1} gives one diagram (arms == legs).  Its first r rows are
    a_i + i + 1; below them, row i equals column i, which meets only those
    first r rows, since every lower row is at most r long.  Arm a adds
    2a + 1 + p boxes to mu^(p), so the walk adds arms in decreasing order
    and opens only those that fit the remaining budget: every arm set it
    visits is one it returns.

    At each depth the walk tries the largest arm first, so it visits the
    diagrams of one size in descending order of their rows: two of them
    part at the first arm where their sets differ, and neither set extends
    the other, since an extension is larger.  A stable sort on |mu|, which
    the walk carries, then gives the enumeration order.
    """
    n, p = _integer(n, "n", 1), _integer(p, "p")
    budget = n * (n + p)  # every arm 0..n-1: |mu^(p)| = sum(2a + 1 + p)
    if max_size is not None:
        budget = min(_integer(max_size, "max_size", infinite=True), budget)
    out = []

    def walk(top: tuple[int, ...], below: int, room: int, size: int) -> None:
        r = len(top)
        out.append((size, Partition._of(top + _column_lengths(top)[r:])))
        # arms a < below with 2a + 1 + p <= room, largest first
        for a in range(min(below, (room - 1 - p) // 2 + 1) - 1, -1, -1):
            walk(top + (a + r + 1,), a, room - 2 * a - 1 - p, size + 2 * a + 1)

    walk((), n, budget, 0)
    out.sort(key=itemgetter(0))
    return [mu for _, mu in out]


def _column_lengths(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths of the diagram with the given rows, longest first.

    The columns between row i+1's end and row i's end are i+1 long, so one
    pass from the bottom row up lists them all.
    """
    cols: list[int] = []
    below = 0
    for i in range(len(parts), 0, -1):
        cols += [i] * (parts[i - 1] - below)
        below = parts[i - 1]
    return tuple(cols)


def _partitions_of(d: int, max_part: int, max_length: int) -> Iterator[tuple[int, ...]]:
    """Partitions of d, parts <= max_part, at most max_length rows, descending lex.

    One row list is walked in place: fill the boxes left greedily under the
    last part, yield, then take one box from the last part x that can still
    hold everything after it (rest + 1 <= (x - 1) * rows after x) and refill.
    No recursion, so a diagram may have any number of rows.
    """
    if d > max_part * max_length:
        return
    parts: list[int] = []
    rest, cap = d, max_part
    while True:
        rows, tail = divmod(rest, cap) if rest else (0, 0)
        parts += [cap] * rows
        if tail:
            parts.append(tail)
        yield tuple(parts)
        # a part of 1 can give no box, so the scan starts left of the ones
        i = parts.index(1) - 1 if parts and parts[-1] == 1 else len(parts) - 1
        rest = len(parts) - 1 - i
        while i >= 0 and rest + 1 > (parts[i] - 1) * (max_length - 1 - i):
            rest += parts[i]
            i -= 1
        if i < 0:
            return
        cap = parts[i] - 1
        del parts[i:]
        parts.append(cap)
        rest += 1


def enumerate_partitions(
    max_part: int | None = None,
    max_length: int | None = None,
    max_size: int | None = None,
) -> Iterator[Partition]:
    """Stream all partitions obeying the given bounds (None = unbounded).

    Ordered by size, then descending lexicographic within a size.  At least
    one of the bounds must make the stream's grading well defined: when
    max_part and max_length are both unbounded, max_size must be finite.
    """
    max_part, max_length, max_size = (
        None if v is None else _integer(v, name, infinite=True)
        for v, name in ((max_part, "max_part"), (max_length, "max_length"), (max_size, "max_size"))
    )
    if max_size is None and (max_part is None and max_length is None):
        raise ValueError("unbounded request: give max_size, or max_part and max_length")
    # One positive shape bound alone still leaves infinitely many sizes; the
    # stream is lazy and graded, so it is well defined and usable.  A zero
    # bound leaves only the empty diagram.
    size_cap = max_size
    if max_part == 0 or max_length == 0:
        size_cap = 0  # before the product, which is NaN for 0 * math.inf
    elif max_part is not None and max_length is not None:
        shape = max_part * max_length
        size_cap = shape if size_cap is None else min(size_cap, shape)
    d = 0
    while size_cap is None or d <= size_cap:
        mp = d if max_part is None else min(max_part, d)
        ml = d if max_length is None else min(max_length, d)
        for parts in _partitions_of(d, mp, ml):
            yield Partition._of(parts)
        d += 1


def hook_condition(lam: Partition, n: int, m: int) -> bool:
    """True when the diagram fits in the (n|m) hook: row n+1 has at most m boxes."""
    n, m = _integer(n, "n"), _integer(m, "m")
    return as_partition(lam).part(n) <= m
