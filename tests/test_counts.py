"""Every count and bound is checked by one function, ``partitions._integer``.

Each public site that takes a count (n, m, p, k, a rank, a number of
variables) or a bound (a degree bound, an enumeration bound) must reject a
fraction, NaN, a string, a value below its minimum and a disallowed
infinity with a ValueError naming the argument, and must treat an integral
number (3.0, True) exactly as the int it equals.
"""

import math
import re

import pytest

from parafock.cli import main
from parafock.kostant import (
    branching_character,
    cohomology_via_partitions,
    cohomology_via_w1,
    resolution_character,
    verify_paraboson_identity,
    verify_parafermion_identity,
    verify_parastat_identity,
    verify_weyl_character,
)
from parafock.partitions import (
    FrobeniusForm,
    Partition,
    _integer,
    augment_arms,
    enumerate_partitions,
    enumerate_self_conjugate_in_square,
    hook_condition,
)
from parafock.polyring import MultiPoly, TruncatedSeries, expand_inverse_product
from parafock.schur import SchurContext, hook_schur, schur, schur_sum
from parafock.weyl import (
    RootSystemB,
    SignedPermutation,
    Weight,
    alternant,
    dim_gl,
    dim_so,
    omega_I,
    w1_element,
)

X = MultiPoly.variable(1, 0)

# (id, argument name, minimum, infinity allowed, call with the argument set to v)
SITES = [
    ("augment_arms.p", "p", 0, False, lambda v: augment_arms(Partition([2, 1]), v)),
    ("self_conjugate.n", "n", 1, False, lambda v: enumerate_self_conjugate_in_square(v)),
    ("self_conjugate.p", "p", 0, False, lambda v: enumerate_self_conjugate_in_square(2, p=v)),
    ("self_conjugate.max_size", "max_size", 0, True,
     lambda v: enumerate_self_conjugate_in_square(3, v, 1)),
    ("enumerate.max_part", "max_part", 0, True,
     lambda v: list(enumerate_partitions(max_part=v, max_length=2))),
    ("enumerate.max_length", "max_length", 0, True,
     lambda v: list(enumerate_partitions(max_part=2, max_length=v))),
    ("enumerate.max_size", "max_size", 0, True,
     lambda v: list(enumerate_partitions(max_part=2, max_size=v))),
    ("hook_condition.n", "n", 0, False, lambda v: hook_condition(Partition([2, 2, 1]), v, 1)),
    ("hook_condition.m", "m", 0, False, lambda v: hook_condition(Partition([3, 3, 2]), 1, v)),
    ("MultiPoly.nvars", "nvars", 0, False, lambda v: MultiPoly(v)),
    ("MultiPoly.zero", "nvars", 0, False, lambda v: MultiPoly.zero(v)),
    ("MultiPoly.one", "nvars", 0, False, lambda v: MultiPoly.one(v)),
    ("MultiPoly.constant.nvars", "nvars", 0, False, lambda v: MultiPoly.constant(v, 2)),
    ("MultiPoly.variable.nvars", "nvars", 0, False, lambda v: MultiPoly.variable(v, 0)),
    ("MultiPoly.variable.index", "variable index", -math.inf, False,
     lambda v: MultiPoly.variable(4, v)),
    ("MultiPoly.exponent", "exponent", -math.inf, False, lambda v: MultiPoly(1, {(v,): 1})),
    ("MultiPoly.coefficient", "coefficient", -math.inf, False,
     lambda v: MultiPoly(1, {(2,): v})),
    ("MultiPoly.constant", "coefficient", -math.inf, False, lambda v: MultiPoly.constant(1, v)),
    ("MultiPoly.term", "exponent", -math.inf, False, lambda v: MultiPoly.term(1, (v,))),
    ("MultiPoly.half_term", "exponent", -math.inf, False,
     lambda v: MultiPoly.half_term(1, (v,))),
    ("MultiPoly.coefficient_lookup", "exponent", -math.inf, False,
     lambda v: (X ** 3 + 5 * X).coefficient((v,))),
    ("MultiPoly.pow", "power", 0, False, lambda v: (X + 1) ** v),
    ("TruncatedSeries.bound", "degree bound", 0, True, lambda v: TruncatedSeries(X ** 2 + X, v)),
    ("expand_inverse_product.bound", "degree bound", 0, False,
     lambda v: expand_inverse_product([1 - X], v)),
    ("SchurContext.n", "n", 0, False, lambda v: schur(Partition([2, 1]), SchurContext(v))),
    ("SchurContext.m", "m", 0, False,
     lambda v: hook_schur(Partition([2, 1]), SchurContext(1, v))),
    ("schur_sum.bound", "degree bound", 0, True,
     lambda v: schur_sum(("max_columns", 1), SchurContext(2), v)),
    ("schur_sum.p", "p", 0, False, lambda v: schur_sum(("hook", v), SchurContext(1, 1), 4)),
    ("RootSystemB.rank", "rank", 1, False, lambda v: RootSystemB(v).positive_roots),
    ("Weight.zero", "n", 0, False, lambda v: Weight.zero(v)),
    ("Weight.basis.n", "n", 0, False, lambda v: Weight.basis(1, v)),
    ("Weight.basis.index", "index", -math.inf, False, lambda v: Weight.basis(v, 3)),
    ("Weight.rho", "n", 0, False, lambda v: Weight.rho(v)),
    ("Weight.p_theta.n", "n", 0, False, lambda v: Weight.p_theta(v, 1)),
    ("Weight.p_theta.p", "p", 0, False, lambda v: Weight.p_theta(2, v)),
    ("omega_I.n", "n", 0, False, lambda v: omega_I([1], v)),
    ("w1_element.n", "n", 0, False, lambda v: w1_element([1], v)),
    ("w1_element.I", "element of I", -math.inf, False, lambda v: w1_element([v], 3)),
    ("dim_so.n", "n", 1, False, lambda v: dim_so(Weight.rho(v), v)),
    ("dim_gl.n", "n", 0, False, lambda v: dim_gl([1], v)),
    ("as_partition.part", "part", -math.inf, False,
     lambda v: schur([v, 1], SchurContext(2))),
    ("cohomology_via_w1.n", "n", 1, False, lambda v: cohomology_via_w1(v, 1)),
    ("cohomology_via_w1.p", "p", 0, False, lambda v: cohomology_via_w1(2, v)),
    ("cohomology_via_partitions.n", "n", 1, False, lambda v: cohomology_via_partitions(v, 1)),
    ("cohomology_via_partitions.p", "p", 0, False, lambda v: cohomology_via_partitions(2, v)),
    ("cohomology_via_partitions.max_size", "max_size", 0, True,
     lambda v: cohomology_via_partitions(3, 1, v)),
    ("branching_character.n", "n", 1, False, lambda v: branching_character(v, 1)),
    ("branching_character.p", "p", 0, False, lambda v: branching_character(2, v)),
    ("resolution_character.n", "n", 1, False, lambda v: resolution_character(v, 1, 1, 3)),
    ("resolution_character.p", "p", 0, False, lambda v: resolution_character(2, v, 1, 3)),
    ("resolution_character.k", "k", 0, False, lambda v: resolution_character(2, 1, v, 3)),
    ("resolution_character.bound", "degree bound", 0, False,
     lambda v: resolution_character(2, 1, 1, v)),
    ("weyl_character.n", "n", 1, False, lambda v: verify_weyl_character(v, 1)),
    ("weyl_character.p", "p", 0, False, lambda v: verify_weyl_character(2, v)),
    ("alternant.max_rank", "max_rank", 0, False, lambda v: alternant(Weight.rho(1), v)),
    ("parafermion.n", "n", 1, False, lambda v: verify_parafermion_identity(v, 1)),
    ("parafermion.p", "p", 0, False, lambda v: verify_parafermion_identity(2, v)),
    ("paraboson.n", "n", 1, False, lambda v: verify_paraboson_identity(v, 1, 4)),
    ("paraboson.p", "p", 0, False, lambda v: verify_paraboson_identity(2, v, 4)),
    ("paraboson.bound", "degree bound", 0, False,
     lambda v: verify_paraboson_identity(2, 1, v)),
    ("parastat.n", "n", 0, False, lambda v: verify_parastat_identity(v, 1, 1, 4)),
    ("parastat.m", "m", 0, False, lambda v: verify_parastat_identity(1, v, 1, 4)),
    ("parastat.p", "p", 0, False, lambda v: verify_parastat_identity(1, 1, v, 4)),
    ("parastat.bound", "degree bound", 0, False,
     lambda v: verify_parastat_identity(1, 1, 1, v)),
]


def bad_values(low, infinite):
    """(value, the message it must raise) for one argument."""
    out = [(v, "must be an integer, got " + repr(v)) for v in (2.5, math.nan, "3")]
    if low > -math.inf:
        out.append((low - 1, f"must be >= {low}, got {low - 1}"))
    if not infinite:
        out.append((math.inf, "must be an integer, got inf"))
    return out


BAD = [
    pytest.param(call, value, f"{name} {message}", id=f"{site}-{value!r}")
    for site, name, low, infinite, call in SITES
    for value, message in bad_values(low, infinite)
]


@pytest.mark.parametrize("call, value, message", BAD)
def test_a_bad_count_raises_naming_the_argument(call, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)


@pytest.mark.parametrize("call", [s[4] for s in SITES], ids=[s[0] for s in SITES])
def test_an_integral_number_counts_as_its_int(call):
    # a repr tells an int from an equal float, and a report's depends only
    # on its check's arguments
    assert repr(call(3.0)) == repr(call(3))
    assert repr(call(True)) == repr(call(1))


def test_the_helper():
    assert _integer(3.0, "n") == 3 and type(_integer(3.0, "n")) is int
    assert type(_integer(True, "n")) is int
    assert _integer(math.inf, "bound", infinite=True) == math.inf
    assert _integer(-5, "exponent", -math.inf) == -5
    for value in (None, [3], 3 + 0j, -math.inf):
        with pytest.raises(ValueError, match=re.escape(f"x must be an integer, got {value!r}")):
            _integer(value, "x", infinite=True)


# Calls that, before every count went through ``_integer``, passed with a
# wrong verdict, returned a silently truncated or empty result, or crashed
# with a TypeError.
DEFECTS = {
    "weyl_character_fractional_p": lambda: verify_weyl_character(2, 1.5),
    "weyl_character_half_p": lambda: verify_weyl_character(3, 0.5),
    "w1_table_fractional_p": lambda: cohomology_via_w1(2, 1.5),
    "resolution_fractional_k": lambda: resolution_character(2, 1, 1.5, 4),
    "branching_fractional_p": lambda: branching_character(2, 1.5),
    "schur_sum_fractional_p": lambda: schur_sum(("hook", 2.5), SchurContext(1, 1), 4),
    "augment_fractional_p": lambda: augment_arms(Partition([1]), 1.5),
    "context_fractional_n": lambda: SchurContext(2.7),
    "enumerate_nan_size": lambda: list(enumerate_partitions(max_part=2, max_size=math.nan)),
    "enumerate_nan_length": lambda: list(enumerate_partitions(max_part=2, max_length=math.nan)),
    "self_conjugate_fractional_size": lambda: enumerate_self_conjugate_in_square(3, 2.5),
    "partitions_table_fractional_size": lambda: cohomology_via_partitions(3, 1, 2.5),
    "parafermion_fractional_p": lambda: verify_parafermion_identity(2, 1.5),
    "multipoly_fractional_exponent": lambda: MultiPoly(1, {(2.5,): 1}),
    "multipoly_fractional_coefficient": lambda: MultiPoly(1, {(2,): 2.5}),
    "multipoly_fractional_constant": lambda: MultiPoly.constant(1, 0.5),
    "p_theta_fractional_p": lambda: Weight.p_theta(2, 1.5),
    "dim_gl_fractional_n": lambda: dim_gl([1], 2.5),
    "w1_element_fractional_n": lambda: w1_element([1], 1.5),
    "w1_element_fractional_element": lambda: w1_element([1.5], 2),
    "zero_weight_fractional_n": lambda: Weight.zero(1.5),
    "rho_fractional_n": lambda: Weight.rho(2.5),
    "basis_fractional_index": lambda: Weight.basis(1.5, 2),
    "variable_fractional_index": lambda: MultiPoly.variable(2, 0.5),
    "schur_fractional_part": lambda: schur([2.5, 1], SchurContext(2)),
    # a NaN bound let a rank-3 alternant build all 48 terms past the guard
    "alternant_nan_max_rank": lambda: alternant(Weight.rho(3), math.nan),
    "alternant_string_max_rank": lambda: alternant(Weight.rho(3), "7"),
    "alternant_fractional_max_rank": lambda: alternant(Weight.rho(3), 1.5),
}


@pytest.mark.parametrize("call", DEFECTS.values(), ids=DEFECTS.keys())
def test_former_defects_raise(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


# (argument name, call with one entry set to v) for the constructors that
# take entries rather than counts; each truncated a fraction with int()
ENTRIES = {
    "Partition": ("part", lambda v: Partition([v, 1])),
    "Partition.from_json": ("part", lambda v: Partition.from_json([v])),
    "SignedPermutation.word": ("word entry", lambda v: SignedPermutation([2, v], [1, 1])),
    "SignedPermutation.signs": ("sign", lambda v: SignedPermutation([2, 1], [v, 1])),
    "Weight": ("coordinate", lambda v: Weight([2, v])),
    "FrobeniusForm.arms": ("arm", lambda v: FrobeniusForm((v, 0), (1, 0))),
    "FrobeniusForm.legs": ("leg", lambda v: FrobeniusForm((2, 0), (v, 0))),
    "FrobeniusForm.from_json": ("arm",
                                lambda v: FrobeniusForm.from_json({"arms": [v], "legs": [0]})),
}


@pytest.mark.parametrize("value", [2.5, 1.5, math.nan, "3"])
@pytest.mark.parametrize("name, call", ENTRIES.values(), ids=ENTRIES.keys())
def test_a_constructor_rejects_an_entry_that_is_not_whole(name, call, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        call(value)


def test_a_constructor_takes_an_integral_entry_as_its_int():
    for lam in (Partition([3.0, True]), Partition.from_json([3.0, True])):
        assert lam.parts == (3, 1) and all(type(x) is int for x in lam.parts)
    sigma = SignedPermutation([2.0, True], [True, -1.0])
    assert (sigma.word, sigma.signs) == ((2, 1), (1, -1))
    assert all(type(x) is int for x in sigma.word + sigma.signs)
    weight = Weight([3.0, True, -2.0])
    assert weight.coords == (3, 1, -2) and all(type(x) is int for x in weight.coords)
    for form in (FrobeniusForm((3.0, True), (1.0, False)),
                 FrobeniusForm.from_json({"arms": [3.0, True], "legs": [1.0, False]})):
        assert (form.arms, form.legs) == ((3, 1), (1, 0))
        assert all(type(x) is int for x in form.arms + form.legs)
    # the order checks run on the whole entries, with their messages
    with pytest.raises(ValueError, match=re.escape("arms must be non-negative: (1, -1)")):
        FrobeniusForm((1.0, -1), (1, 0))
    with pytest.raises(ValueError, match=re.escape("legs must be strictly decreasing: (1, 1)")):
        FrobeniusForm((2, 0), (1.0, 1))
    # the public Schur functions coerce through Partition, with the same message
    with pytest.raises(ValueError, match=re.escape("part must be an integer, got 2.5")):
        schur([2.5], SchurContext(2))


def test_former_crashes_on_whole_floats_now_run():
    assert verify_parafermion_identity(2.0, 1).to_json_obj()["n"] == 2
    assert enumerate_self_conjugate_in_square(3, 8.0) == enumerate_self_conjugate_in_square(3, 8)
    assert omega_I([1], 2.0) == omega_I([1], 2)
    assert dim_so(Weight.zero(2), 2.0) == 1
    assert MultiPoly.one(2.0) == MultiPoly.one(2)
    assert MultiPoly.constant(2.0, 1) == MultiPoly.constant(2, 1)
    assert MultiPoly.variable(2.0, 0) == MultiPoly.variable(2, 0)


def test_whole_out_of_range_entries_keep_their_messages():
    # an index, an element of I or a part that is whole but out of range is
    # still refused by the check that knows the range
    for call, message in [
        (lambda: Weight.basis(0, 2), "index 0 out of range 1..2"),
        (lambda: MultiPoly.variable(2, 2), "variable index 2 out of range for nvars=2"),
        (lambda: w1_element([0], 3), "I=[0] is not a subset of 1..3"),
        (lambda: schur([2, -1], SchurContext(2)), "parts must be non-negative, got [2, -1]"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_a_zero_bound_beside_an_infinite_one_leaves_the_empty_diagram():
    assert list(enumerate_partitions(max_part=0, max_length=math.inf)) == [Partition()]
    assert list(enumerate_partitions(max_part=math.inf, max_length=0)) == [Partition()]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("schur", "--n", "-1"), "n must be >= 0, got -1"),
        (("hook-schur", "--n", "1", "--m", "-1"), "m must be >= 0, got -1"),
        (("dims", "--n", "0", "--p", "1"), "n must be >= 1, got 0"),
        (("dims", "--n", "2", "--p", "-1"), "p must be >= 0, got -1"),
        (("verify", "--identity", "paraboson", "--n", "1", "--p", "1", "--degree", "-1"),
         "--degree must be >= 0, got -1"),
        (("verify", "--identity", "parastat", "--n=-1", "--m", "1", "--p", "1"),
         "--n must be >= 0, got -1"),
        (("verify", "--identity", "parastat", "--n", "1", "--m=-1", "--p", "1"),
         "--m must be >= 0, got -1"),
        (("verify", "--identity", "parastat", "--n", "1", "--m", "1", "--p=-1"),
         "--p must be >= 0, got -1"),
        (("verify", "--identity", "parafermion", "--n", "0", "--p", "1"),
         "--n must be >= 1, got 0"),
        (("verify", "--identity", "parastat", "--n", "0", "--m", "0", "--p", "1"),
         "need n + m >= 1, got n=0, m=0"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
)
def test_cli_names_the_bad_count(capsys, argv, message):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
