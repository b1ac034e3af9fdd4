"""Partition calculus: cell-set oracles, frozen values, exhaustive roundtrips."""

import copy
import math
import pickle
from itertools import combinations, islice

import pytest

from parafock import partitions
from parafock.partitions import (
    FrobeniusForm,
    Partition,
    augment_arms,
    enumerate_partitions,
    enumerate_self_conjugate_in_square,
    enumeration_key,
    frobenius_compose,
    frobenius_decompose,
    hook_condition,
)


# -- independent oracles on explicit cell sets -------------------------------

def cells(lam):
    return {(i, j) for i, row in enumerate(lam) for j in range(row)}


def partition_from_cells(cs):
    rows = {}
    for i, _ in cs:
        rows[i] = rows.get(i, 0) + 1
    return Partition(rows[i] for i in sorted(rows))


def conjugate_oracle(lam):
    return partition_from_cells({(j, i) for i, j in cells(lam)})


def frobenius_oracle(lam):
    cs = cells(lam)
    r = sum(1 for i, j in cs if i == j)
    arms = tuple(sum(1 for (i, j) in cs if i == d and j > d) for d in range(r))
    legs = tuple(sum(1 for (i, j) in cs if j == d and i > d) for d in range(r))
    return r, arms, legs


def all_partitions_up_to(size):
    return list(enumerate_partitions(max_size=size))


# -- frozen examples ----------------------------------------------------------

def test_conjugate_frozen():
    assert Partition([3, 1]).conjugate() == Partition([2, 1, 1])
    assert Partition([2, 1]).conjugate() == Partition([2, 1])
    assert Partition().conjugate() == Partition()


def test_frobenius_frozen():
    f = frobenius_decompose(Partition([3, 1]))
    assert (f.arms, f.legs) == ((2,), (1,))
    f = frobenius_decompose(Partition([3, 2, 1]))
    assert (f.arms, f.legs) == ((2, 0), (2, 0))
    assert frobenius_decompose(Partition()).rank == 0


def test_compose_frozen():
    assert frobenius_compose(FrobeniusForm((2,), (0,))) == Partition([3])
    assert frobenius_compose(FrobeniusForm((2, 1), (1, 0))) == Partition([3, 3])
    assert frobenius_compose(FrobeniusForm((0,), (0,))) == Partition([1])
    assert frobenius_compose(FrobeniusForm((), ())) == Partition()


def test_augment_frozen():
    assert augment_arms(Partition([1]), 2) == Partition([3])
    assert augment_arms(Partition([2, 2]), 1) == Partition([3, 3])
    assert augment_arms(Partition([2, 1]), 0) == Partition([2, 1])
    assert augment_arms(Partition(), 5) == Partition()


def test_self_conjugate_square_frozen():
    assert enumerate_self_conjugate_in_square(1) == [Partition(), Partition([1])]
    assert enumerate_self_conjugate_in_square(2) == [
        Partition(),
        Partition([1]),
        Partition([2, 1]),
        Partition([2, 2]),
    ]


def _partitions_by_recursion(d, max_part, max_length):
    """The enumerator's former recursive form, one nested generator per row."""
    if d == 0:
        yield ()
        return
    for first in range(min(d, max_part), 0, -1):
        if d - first > first * (max_length - 1):
            continue
        for rest in _partitions_by_recursion(d - first, first, max_length - 1):
            yield (first, *rest)


def test_enumeration_matches_the_recursive_form_under_every_cap():
    for d in range(19):
        for max_part in range(d + 2):
            for max_length in range(d + 2):
                assert list(partitions._partitions_of(d, max_part, max_length)) == list(
                    _partitions_by_recursion(d, max_part, max_length)
                ), (d, max_part, max_length)


def test_enumeration_reaches_diagrams_longer_than_the_recursion_limit():
    # one nested generator per row overflowed the stack near 1,000 rows
    *_, last = enumerate_partitions(max_part=1, max_size=2000)
    assert last == Partition([1] * 2000)


def test_enumerate_partitions_frozen():
    assert list(enumerate_partitions(max_part=2, max_length=2)) == [
        Partition(),
        Partition([1]),
        Partition([2]),
        Partition([1, 1]),
        Partition([2, 1]),
        Partition([2, 2]),
    ]
    assert list(enumerate_partitions(max_part=1, max_length=3)) == [
        Partition(),
        Partition([1]),
        Partition([1, 1]),
        Partition([1, 1, 1]),
    ]
    assert list(enumerate_partitions(max_length=1, max_size=3)) == [
        Partition(),
        Partition([1]),
        Partition([2]),
        Partition([3]),
    ]


def test_hook_condition_frozen():
    assert hook_condition(Partition([5, 1]), 1, 1)
    assert not hook_condition(Partition([2, 2, 2]), 1, 1)
    assert hook_condition(Partition(), 0, 0)
    assert hook_condition(Partition(), 3, 2)


# -- construction and validation ----------------------------------------------

def test_constructor_normalizes_and_validates():
    assert Partition([3, 1, 0, 0]) == Partition([3, 1])
    assert Partition([]) == Partition()
    assert len(Partition([2, 2, 1])) == 3
    assert Partition([4, 2]).size == 6
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])


def test_frobenius_form_validation():
    for arms, legs, message in (
        ((1, 1), (1, 0), "arms must be strictly decreasing: (1, 1)"),
        ((1,), (1, 0), "arms and legs must have the same length"),
        ((-1,), (0,), "arms must be non-negative: (-1,)"),
        ((1,), (-1,), "legs must be non-negative: (-1,)"),
        ((2, 1), (0, 0), "legs must be strictly decreasing: (0, 0)"),
    ):
        with pytest.raises(ValueError) as err:
            FrobeniusForm(arms, legs)
        assert str(err.value) == message


def test_frobenius_form_is_a_frozen_value():
    form = FrobeniusForm([2, 1.0], (1, 0))
    assert form.arms == (2, 1) and type(form.arms[1]) is int
    assert form == FrobeniusForm(arms=(2, 1), legs=(1, 0))
    assert form != FrobeniusForm((2,), (0,)) and form != ((2, 1), (1, 0))
    assert len({form, FrobeniusForm((2, 1), (1, 0))}) == 1
    assert repr(form) == "FrobeniusForm(arms=(2, 1), legs=(1, 0))"
    for name in ("arms", "legs"):
        with pytest.raises(AttributeError):
            setattr(form, name, ())
    with pytest.raises(AttributeError):
        del form.arms
    assert copy.deepcopy(form) == form and pickle.loads(pickle.dumps(form)) == form


def test_augment_rejects_non_self_conjugate():
    with pytest.raises(ValueError):
        augment_arms(Partition([2]), 1)
    with pytest.raises(ValueError):
        augment_arms(Partition([3, 1]), 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: augment_arms(Partition([1]), -1),
        lambda: enumerate_self_conjugate_in_square(0),
        lambda: enumerate_self_conjugate_in_square(2, -1),
        lambda: enumerate_self_conjugate_in_square(2, math.nan),
        lambda: enumerate_self_conjugate_in_square(2, 4, -1),
        lambda: list(enumerate_partitions(max_part=-1, max_length=2)),
        lambda: hook_condition(Partition([1]), -1, 0),
    ],
    ids=[
        "augment_arms",
        "self_conjugate_in_square",
        "self_conjugate_negative_size",
        "self_conjugate_nan_size",
        "self_conjugate_negative_p",
        "enumerate_partitions",
        "hook_condition",
    ],
)
def test_negative_bounds_raise(call):
    with pytest.raises(ValueError, match="must be"):
        call()


def test_enumerate_rejects_fully_unbounded():
    with pytest.raises(ValueError):
        list(enumerate_partitions())


def test_zero_shape_bound_yields_only_the_empty_diagram():
    # with one bound zero and the other unbounded, no size past 0 has a diagram
    assert list(enumerate_partitions(max_part=0)) == [Partition()]
    assert list(enumerate_partitions(max_length=0)) == [Partition()]


@pytest.mark.parametrize("max_size", [None, 0, 1, 5, math.inf])
@pytest.mark.parametrize("max_length", [None, 0, 1, 3, math.inf])
@pytest.mark.parametrize("max_part", [None, 0, 2, 4, math.inf])
def test_enumerations_yield_what_the_checked_constructor_builds(max_part, max_length, max_size):
    # enumerate_partitions and conjugate wrap their own rows unchecked; each
    # diagram must equal the checked construction of its rows, and an
    # unbounded stream is read through its first 60 diagrams
    bounds = {"max_part": max_part, "max_length": max_length, "max_size": max_size}
    bounds = {name: v for name, v in bounds.items() if v is not None}
    try:
        stream = enumerate_partitions(**bounds)
        diagrams = list(islice(stream, 60))
    except ValueError:
        assert "max_size" not in bounds and not {"max_part", "max_length"} <= bounds.keys()
        return
    assert diagrams
    for lam in diagrams:
        assert type(lam.parts) is tuple
        assert lam == Partition(lam.parts) and hash(lam) == hash(Partition(lam.parts))
        conj = lam.conjugate()
        assert type(conj.parts) is tuple and conj == Partition(conj.parts)
        assert conj == conjugate_oracle(lam)


# -- oracle agreement and invariants ------------------------------------------

def test_conjugate_matches_cell_transpose_oracle():
    for lam in all_partitions_up_to(10):
        assert lam.conjugate() == conjugate_oracle(lam)


def test_conjugate_is_involutive_and_size_preserving():
    for lam in all_partitions_up_to(12):
        c = lam.conjugate()
        assert c.conjugate() == lam
        assert c.size == lam.size


def test_frobenius_matches_cell_oracle_and_roundtrips():
    for lam in all_partitions_up_to(12):
        f = frobenius_decompose(lam)
        r, arms, legs = frobenius_oracle(lam)
        assert (f.rank, f.arms, f.legs) == (r, arms, legs)
        assert frobenius_compose(f) == lam
        assert lam.size == f.rank + sum(f.arms) + sum(f.legs)


def test_self_conjugate_iff_arms_equal_legs():
    for lam in all_partitions_up_to(12):
        f = frobenius_decompose(lam)
        assert lam.is_self_conjugate() == (f.arms == f.legs)


def test_square_enumeration_counts_and_membership():
    for n in range(1, 9):
        sq = enumerate_self_conjugate_in_square(n)
        assert len(sq) == 2 ** n
        assert len(set(sq)) == 2 ** n
        for mu in sq:
            assert mu.is_self_conjugate()
            assert len(mu) <= n and mu.part(0) <= n


def test_square_enumeration_equals_brute_filter():
    for n in range(1, 6):
        brute = [
            lam
            for lam in enumerate_partitions(max_part=n, max_length=n)
            if lam.is_self_conjugate()
        ]
        assert sorted(brute, key=lambda l: l.parts) == sorted(
            enumerate_self_conjugate_in_square(n), key=lambda l: l.parts
        )


def _square_by_frobenius(n):
    """Every arm set inside {0, ..., n-1}, composed from Frobenius coordinates."""
    out = [
        frobenius_compose(FrobeniusForm(arms, arms))
        for r in range(n + 1)
        for arms in combinations(range(n - 1, -1, -1), r)
    ]
    return sorted(out, key=enumeration_key)


def test_square_enumeration_equals_frobenius_composition():
    for n in range(1, 11):
        full = _square_by_frobenius(n)
        assert enumerate_self_conjugate_in_square(n) == full
        # a bound at or past the largest |mu^(p)| = n (n + p) cuts nothing
        assert enumerate_self_conjugate_in_square(n, n * (n + 2), 2) == full
        assert enumerate_self_conjugate_in_square(n, math.inf, 3) == full


def test_bounded_square_enumeration_builds_only_what_it_returns(monkeypatch):
    built = []

    class Counted(Partition):
        __slots__ = ()

        def __init__(self, parts=()):
            built.append(1)
            super().__init__(parts)

        @classmethod
        def _of(cls, parts):
            built.append(1)
            return super()._of(parts)

    monkeypatch.setattr(partitions, "Partition", Counted)
    # the 20 x 20 square holds 2^20 diagrams; at p = 1, 371 have |mu^(1)| <= 40
    out = enumerate_self_conjugate_in_square(20, 40, 1)
    assert len(out) == len(built) == 371
    assert all(type(mu) is Counted for mu in out)


def test_degree_formula_is_integral_in_six_square():
    for mu in enumerate_self_conjugate_in_square(6):
        r = frobenius_decompose(mu).rank
        assert (mu.size + r) % 2 == 0


def test_augment_size_and_self_conjugacy_of_source():
    for n in range(1, 6):
        for mu in enumerate_self_conjugate_in_square(n):
            r = frobenius_decompose(mu).rank
            for p in range(4):
                aug = augment_arms(mu, p)
                assert aug.size == mu.size + p * r
                assert len(aug) <= n
                f = frobenius_decompose(aug)
                assert f.arms == tuple(a + p for a in f.legs)


def test_enumeration_is_graded_unique_and_bounded():
    seen = set()
    prev_size = 0
    for lam in enumerate_partitions(max_part=4, max_length=3, max_size=9):
        assert lam.size >= prev_size
        prev_size = lam.size
        assert lam not in seen
        seen.add(lam)
        assert lam.part(0) <= 4 and len(lam) <= 3 and lam.size <= 9
    # complete against a brute-force filter
    brute = {
        lam
        for lam in enumerate_partitions(max_size=9)
        if lam.part(0) <= 4 and len(lam) <= 3
    }
    assert seen == brute


def test_containment_and_part_access():
    lam = Partition([4, 2, 1])
    assert lam.contains(Partition([2, 2]))
    assert not lam.contains(Partition([5]))
    assert not lam.contains(Partition([1, 1, 1, 1]))
    assert lam.part(0) == 4 and lam.part(3) == 0
    assert lam[1] == 2


def test_json_roundtrip():
    lam = Partition([3, 1])
    assert Partition.from_json(lam.to_json()) == lam
    assert lam.to_json() == [3, 1]
    f = frobenius_decompose(lam)
    assert FrobeniusForm.from_json(f.to_json()) == f
    assert f.to_json() == {"arms": [2], "legs": [1]}
