"""Cohomology tables (two routes) and the exact identity verdicts."""

import copy
import functools
import importlib
import json
import math
import pickle
import time
from itertools import combinations, count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafock import kostant, partitions, polyring, weyl
from parafock.kostant import (
    CohomologyEntry,
    CohomologyTable,
    VerificationReport,
    _first_discrepancy,
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
    augment_arms,
    enumerate_partitions,
    enumeration_key,
    frobenius_compose,
    frobenius_decompose,
)
from parafock.polyring import MultiPoly, TruncatedSeries
from parafock.schur import SchurContext, _schur_expansion, _sn_alternant, hook_schur, schur
from parafock.weyl import (
    ALTERNANT_RANK_LIMIT,
    RootSystemB,
    Weight,
    alternant,
    dim_gl,
    dim_so,
    kostant_weight,
    w1_element,
    weight_monomial,
    _straighten_type_a,
)
from test_weyl import _phi_sigma_by_image


# -- frozen tables ---------------------------------------------------------------

def test_table_frozen_rank_one():
    for p in range(4):
        for route in (cohomology_via_w1, cohomology_via_partitions):
            assert route(1, p).degree_diagram_pairs() == [(0, ()), (1, (p + 1,))]


def test_table_frozen_rank_two_level_one():
    expected = [(0, ()), (1, (2,)), (2, (3, 1)), (3, (3, 3))]
    assert cohomology_via_w1(2, 1).degree_diagram_pairs() == expected
    assert cohomology_via_partitions(2, 1).degree_diagram_pairs() == expected


def test_table_frozen_rank_three_level_zero():
    expected = [
        (0, ()),
        (1, (1,)),
        (2, (2, 1)),
        (3, (2, 2)),
        (3, (3, 1, 1)),
        (4, (3, 2, 1)),
        (5, (3, 3, 2)),
        (6, (3, 3, 3)),
    ]
    assert cohomology_via_partitions(3, 0).degree_diagram_pairs() == expected
    assert cohomology_via_w1(3, 0).degree_diagram_pairs() == expected


def test_tables_are_ordered_by_degree_then_enumeration_key():
    def key(e):
        return (e.k, enumeration_key(e.diagram))

    for n in range(1, 9):
        for p in range(4):
            for route in (cohomology_via_w1, cohomology_via_partitions):
                table = route(n, p)
                assert table.entries == sorted(table.entries, key=key), (route, n, p)
                # sort() restores the order from any other, here the reverse one
                table.entries.reverse()
                table.sort()
                assert table.entries == sorted(table.entries, key=key), (route, n, p)
    # entries of one degree and size, ordered by their rows alone, occur
    keys = [(e.k, e.diagram.size) for e in cohomology_via_partitions(8, 2).entries]
    assert len(set(keys)) < len(keys)


def test_validation():
    with pytest.raises(ValueError):
        cohomology_via_w1(0, 1)
    with pytest.raises(ValueError):
        cohomology_via_partitions(2, -1)
    with pytest.raises(ValueError):
        resolution_character(2, 1, 9, 4)
    with pytest.raises(ValueError, match="p must be >= 0, got -1"):
        verify_parastat_identity(1, 1, -1, 4)


# -- structural invariants ----------------------------------------------------------

def test_routes_agree_and_tables_are_well_formed():
    for n in range(1, 8):
        for p in range(4):
            via_w = cohomology_via_w1(n, p)
            via_mu = cohomology_via_partitions(n, p)
            assert via_w.degree_diagram_pairs() == via_mu.degree_diagram_pairs()
            assert len(via_w.entries) == 2 ** n
            ks = [e.k for e in via_w.entries]
            assert ks == sorted(ks)
            assert ks[0] == 0 and ks[-1] == via_w.max_degree()
            assert sum(1 for k in ks if k == 0) == 1
            assert sum(1 for k in ks if k == via_w.max_degree()) == 1
            for e in via_mu.entries:
                assert isinstance(e.source, Partition)
                assert e.source.is_self_conjugate()
                r = frobenius_decompose(e.source).rank
                assert e.k == (e.source.size + r) // 2
            for e in via_w.entries:
                assert isinstance(e.source, tuple)
                assert e.k == sum(1 + n - i for i in e.source)


def _bounded_by_filter(side, p, D, full=None):
    full = cohomology_via_partitions(side, p).entries if full is None else full
    return [e for e in full if e.diagram.size <= D]


def test_bounded_table_is_the_filtered_whole_table():
    # every bound from 0 to past the largest |mu^(p)| = side * (side + p)
    for side in range(1, 9):
        for p in range(4):
            full = cohomology_via_partitions(side, p).entries
            for D in range(side * (side + p) + 2):
                table = cohomology_via_partitions(side, p, D)
                assert (table.n, table.p) == (side, p)
                assert table.entries == _bounded_by_filter(side, p, D, full), (side, p, D)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(0, 3), st.data())
def test_bounded_table_is_the_filtered_whole_table_hypothesis(side, p, data):
    D = data.draw(st.integers(0, side * (side + p) + 1))
    assert cohomology_via_partitions(side, p, D).entries == _bounded_by_filter(side, p, D)


def test_source_arms_match_subset_complements():
    # partition route source mu has arms {n - i : i in I} for the w1 route's I
    n, p = 3, 2
    by_key_w = {
        (e.k, e.diagram.parts): set(e.source)
        for e in cohomology_via_w1(n, p).entries
    }
    for e in cohomology_via_partitions(n, p).entries:
        arms = frobenius_decompose(e.source).arms
        I = {n - a for a in arms}
        assert by_key_w[(e.k, e.diagram.parts)] == I


def test_entry_json_shapes():
    w_entry = cohomology_via_w1(2, 1).entries_at(2)[0]
    assert w_entry.to_json_obj() == {"k": 2, "mu": [3, 1], "source": {"I": [1]}}
    mu_entry = cohomology_via_partitions(2, 1).entries_at(2)[0]
    assert mu_entry.to_json_obj() == {"k": 2, "mu": [3, 1], "source": {"mu": [2, 1]}}
    assert CohomologyEntry(0, Partition(), ()).to_json_obj()["source"] == {"I": []}


def test_cohomology_records_are_values():
    entry = CohomologyEntry(0, Partition(), ())
    assert entry == CohomologyEntry(k=0, diagram=Partition([]), source=())
    assert entry != CohomologyEntry(0, Partition(), Partition()) and entry != (0, Partition(), ())
    assert len({entry, CohomologyEntry(0, Partition(), ())}) == 1
    assert repr(entry) == "CohomologyEntry(k=0, diagram=Partition([]), source=())"
    for name in ("k", "diagram", "source"):
        with pytest.raises(AttributeError):
            setattr(entry, name, 1)
    assert copy.deepcopy(entry) == entry and pickle.loads(pickle.dumps(entry)) == entry

    table, other = CohomologyTable(2, 1), CohomologyTable(n=2, p=1)
    table.entries.append(entry)
    assert other.entries == [] and table != other
    assert table == CohomologyTable(2, 1, [entry]) == CohomologyTable(n=2, p=1, entries=[entry])
    assert repr(table) == f"CohomologyTable(n=2, p=1, entries=[{entry!r}])"
    with pytest.raises(TypeError, match="unhashable"):
        hash(table)


def test_verification_report_is_a_mutable_value():
    fields = ("parastat", 1, 1, 1, 4, None)
    report = VerificationReport(*fields)
    assert report == VerificationReport(
        identity="parastat", n=1, m=1, p=1, degree=4, first_discrepancy=None, millis=0,
        denominator=None,
    )
    assert report != VerificationReport(*fields, millis=7)
    assert repr(report) == (
        "VerificationReport(identity='parastat', n=1, m=1, p=1, degree=4, "
        "first_discrepancy=None, millis=0, denominator=None)"
    )
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)
    report.millis = 7
    assert report.to_json_obj()["millis"] == 7


def test_status_passed_and_conjecture_are_read_off_the_fields():
    disc = {"degree": 1, "monomial": [2], "lhs": "1", "rhs": "0"}
    for identity, first_discrepancy, status in (
        ("parastat", None, "pass"), ("parastat", disc, "fail"), ("paraboson", disc, "fail"),
    ):
        report = VerificationReport(identity, 1, None, 1, 4, first_discrepancy)
        assert (report.status, report.passed) == (status, status == "pass")
        assert report.conjecture == (identity == "parastat")
        assert report.to_json_obj().get("conjecture", False) == report.conjecture
        for name in ("status", "passed", "conjecture"):
            with pytest.raises(AttributeError):
                setattr(report, name, None)


def test_a_check_reads_no_clock(monkeypatch):
    # a clock that advances a second per read would show in any report
    reads = count()
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(reads)))
    calls = [
        (verify_weyl_character, (2, 1)),
        (verify_parafermion_identity, (2, 1)),
        (verify_paraboson_identity, (2, 1, 6)),
        (verify_paraboson_identity, (2, 1, 6, "symmetric")),
        (verify_parastat_identity, (1, 1, 1, 4)),
    ]
    for check, args in calls:
        report = check(*args)
        assert report.millis == 0 and report == check(*args), check
    assert next(reads) == 0


def test_report_json_shares_nothing_mutable_with_the_report():
    report = verify_paraboson_identity(2, 1, 6, denominator="symmetric")
    obj = report.to_json_obj()
    assert obj["first_discrepancy"]["monomial"] == [0, 4]
    expected = copy.deepcopy(obj)
    obj["first_discrepancy"]["monomial"].append(9)
    obj["first_discrepancy"]["lhs"] = "changed"
    obj["status"] = "changed"
    assert report.to_json_obj() == expected


def _w1_table_by_images(n, p):
    """Oracle: the coset route built from full root images and Kostant weights."""
    rs = RootSystemB(n)
    table = CohomologyTable(n, p)
    for r in range(n + 1):
        for I in combinations(range(1, n + 1), r):
            sigma = w1_element(I, n)
            phis = _phi_sigma_by_image(sigma, rs)
            assert all(rs.is_nilradical_root(x) for x in phis)
            w = kostant_weight(sigma, Weight.p_theta(n, p), n)
            shifted = w.reversed_negated() + Weight.p_theta(n, p)
            table.entries.append(
                CohomologyEntry(k=len(phis), diagram=shifted.to_partition(), source=I)
            )
    table.sort()
    return table


def _partition_table_by_frobenius(n, p):
    """Oracle: the partition route built by Frobenius round trips."""
    squares = []
    for r in range(n + 1):
        for arms in combinations(range(n - 1, -1, -1), r):
            squares.append(frobenius_compose(FrobeniusForm(arms, arms)))
    squares.sort(key=enumeration_key)
    table = CohomologyTable(n, p)
    for mu in squares:
        form = frobenius_decompose(mu)
        assert (mu.size + form.rank) % 2 == 0
        augmented = frobenius_compose(
            FrobeniusForm(tuple(a + p for a in form.arms), form.legs)
        )
        table.entries.append(
            CohomologyEntry(k=(mu.size + form.rank) // 2, diagram=augmented, source=mu)
        )
    table.sort()
    return table


def test_both_routes_match_their_round_trip_constructions():
    cases = [(n, p) for n in range(1, 9) for p in range(4)]
    for n, p in cases + [(n, p) for n in (9, 10, 11) for p in (0, 2)]:
        for route, oracle in (
            (cohomology_via_w1, _w1_table_by_images),
            (cohomology_via_partitions, _partition_table_by_frobenius),
        ):
            got, want = route(n, p), oracle(n, p)
            assert (got.n, got.p) == (want.n, want.p)
            assert json.dumps(got.to_json_obj()) == json.dumps(want.to_json_obj())


def _w1_word_ascending(I, n):
    """The representative's word with I = {i_1 < ... < i_r} sent to
    n-r+1, ..., n, the wrong way round: for r >= 2 its inverse sends the
    Levi simple root e_{n-r+1} - e_{n-r+2} to e_{i_2} - e_{i_1} < 0."""
    inverse = [j for j in range(1, n + 1) if j not in I] + sorted(I)
    word = [0] * n
    for place, j in enumerate(inverse, start=1):
        word[j - 1] = place
    return tuple(word), tuple(-1 if j in I else 1 for j in range(1, n + 1))


def test_w1_route_refuses_a_representative_outside_the_nilradical(monkeypatch, capsys):
    from parafock import cli

    monkeypatch.setattr(kostant, "_w1_word", _w1_word_ascending)
    assert cohomology_via_w1(1, 2).degree_diagram_pairs() == [(0, ()), (1, (3,))]
    for n in (2, 3, 4):
        for p in (0, 2):
            with pytest.raises(ArithmeticError, match="left the nilradical; convention bug"):
                cohomology_via_w1(n, p)
        assert cli.main(["w1", "--n", str(n)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "left the nilradical; convention bug" in err


def test_only_phi_sigma_scans_every_root(monkeypatch, capsys):
    from parafock import cli

    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    real = weyl._inverted
    monkeypatch.setattr(weyl, "_inverted", spy)
    assert not hasattr(kostant, "_inverted") and not hasattr(cli, "_inverted")
    assert len(cohomology_via_w1(6, 2).entries) == 2 ** 6
    assert cli.main(["w1", "--n", "5"]) == 0
    capsys.readouterr()
    assert calls == []
    assert len(weyl.phi_sigma(w1_element({1, 3}, 4), RootSystemB(4))) == 6
    assert len(calls) == 1


def test_bounded_partition_route_matches_the_filtered_oracle():
    # the oracle's whole table, cut at |mu^(p)| <= D, in the oracle's order
    for n in range(1, 9):
        for p in range(4):
            whole = _partition_table_by_frobenius(n, p).entries
            for D in (0, 3, 7, 12):
                want = [e for e in whole if e.diagram.size <= D]
                assert cohomology_via_partitions(n, p, D).entries == want, (n, p, D)


def test_partition_route_makes_no_frobenius_round_trip(monkeypatch):
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("frobenius_decompose", "frobenius_compose"):
        for mod in (partitions, kostant):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
    monkeypatch.setattr(Partition, "conjugate", spy("conjugate", Partition.conjugate))
    table = cohomology_via_partitions(6, 2)
    assert len(table.entries) == 2 ** 6
    assert calls == []


# -- characters -----------------------------------------------------------------------

def test_branching_character_frozen():
    x = MultiPoly.variable(1, 0)
    assert branching_character(1, 2) == 1 + x + x ** 2
    ctx2 = SchurContext(2)
    assert branching_character(2, 1) == 1 + schur(Partition([1]), ctx2) + schur(
        Partition([1, 1]), ctx2
    )
    assert branching_character(2, 0) == MultiPoly.one(2)


def test_branching_character_counts_states():
    for n in range(1, 4):
        for p in range(5):
            assert branching_character(n, p).sum_of_coefficients() == dim_so(
                Weight.p_theta(n, p), n
            )


def test_dimension_split_matches_table_free_dimension():
    # sum of gl dimensions over the branching rectangle equals the so dimension
    from parafock.partitions import enumerate_partitions

    for n in range(1, 4):
        for p in range(5):
            total = sum(
                dim_gl(lam, n)
                for lam in enumerate_partitions(max_part=p, max_length=n)
            )
            assert total == dim_so(Weight.p_theta(n, p), n)


def test_euler_alternating_sum_recovers_branching_character():
    D = 6
    for n in (1, 2, 3):
        for p in (0, 1, 2):
            table = cohomology_via_partitions(n, p)
            acc = MultiPoly.zero(n)
            for k in range(table.max_degree() + 1):
                ch = resolution_character(n, p, k, D).poly
                acc = acc + ch if k % 2 == 0 else acc - ch
            truth = branching_character(n, p)
            for d in range(D + 1):
                assert acc.component2(2 * d) == truth.component2(2 * d)


def test_resolution_characters_have_nonnegative_coefficients():
    for k in range(4):
        series = resolution_character(2, 1, k, 5)
        assert all(c > 0 for c in series.poly.terms.values())


# -- identity verdicts -------------------------------------------------------------------

def test_weyl_character_reports_pass():
    for n in (1, 2):
        for p in (0, 1, 2):
            rep = verify_weyl_character(n, p)
            assert rep.passed and rep.status == "pass"
            assert rep.first_discrepancy is None
            assert rep.degree is None and rep.m is None
    assert verify_weyl_character(3, 3).passed


def _weyl_character_by_product(n, p, branching=branching_character):
    """The monomial verdict: expand both alternants and compare term by term."""
    rho, theta_p = Weight.rho(n), Weight.p_theta(n, p)
    lhs = alternant(rho + theta_p)
    rhs = alternant(rho) * weight_monomial(theta_p) * branching(n, p)
    disc = _first_discrepancy(lhs, rhs)
    return ("pass" if disc is None else "fail"), disc


def test_weyl_character_straightening_matches_the_alternant_product():
    for n in range(1, 6):
        for p in range(4):
            rep = verify_weyl_character(n, p)
            assert (rep.status, rep.first_discrepancy) == _weyl_character_by_product(n, p)


@pytest.mark.parametrize(
    "perturb",
    [
        lambda chi, n: chi + MultiPoly.variable(n, 0),  # not Weyl-invariant
        lambda chi, n: chi * 2,
        lambda chi, n: chi + MultiPoly.one(n),
        # every term keeps its sorted vector's coefficient, but at n >= 2
        # the orbit of x_1 loses x_n
        lambda chi, n: chi - MultiPoly.variable(n, n - 1),
    ],
    ids=["plus-x1", "times-2", "plus-1", "minus-xn"],
)
def test_weyl_character_failures_match_the_alternant_product(monkeypatch, perturb):
    real = kostant.branching_character

    def broken(n, p):
        return perturb(real(n, p), n)

    monkeypatch.setattr(kostant, "branching_character", broken)
    for n in range(1, 5):
        for p in range(3):
            rep = verify_weyl_character(n, p)
            assert rep.status == "fail"
            assert (rep.status, rep.first_discrepancy) == _weyl_character_by_product(
                n, p, broken
            )


def test_weyl_character_pass_builds_no_alternant(monkeypatch):
    calls = []
    real = kostant.alternant

    def spy(chi, max_rank=ALTERNANT_RANK_LIMIT):
        calls.append(chi)
        return real(chi, max_rank)

    monkeypatch.setattr(kostant, "alternant", spy)
    # past the alternant's rank limit too: no guard stands before the pass
    for n, p in [(4, 2), (7, 2), (7, 3), (8, 2)]:
        assert verify_weyl_character(n, p).passed
    # the dominant-weight tests never walk the 2^n n! group
    assert calls == []


def test_weyl_character_failure_stops_at_the_alternant_guard(monkeypatch):
    real = kostant.branching_character

    def broken(n, p):
        return real(n, p) + MultiPoly.variable(n, 0)

    def unreachable(rows, n):
        raise AssertionError("the rank guard must fire before any alternant term")

    monkeypatch.setattr(kostant, "branching_character", broken)
    monkeypatch.setattr(weyl, "_det", unreachable)
    with pytest.raises(ValueError, match="exceeds the alternant limit 6"):
        verify_weyl_character(7, 2)


def test_parafermion_reports_pass():
    for n in (1, 2):
        for p in range(4):
            rep = verify_parafermion_identity(n, p)
            assert rep.passed
            assert rep.identity == "parafermion"
            assert rep.degree is None
    assert verify_parafermion_identity(3, 2).passed


# The whole-product oracle: the tests compare the verifiers, which never
# expand the paraboson denominator, against it.
def _denominator_factors(n: int) -> list[MultiPoly]:
    """The factors 1 - x_i and 1 - x_i x_j (i < j) in n variables."""
    one = MultiPoly.one(n)
    xs = [MultiPoly.variable(n, i) for i in range(n)]
    return [one - x for x in xs] + [one - xs[i] * xs[j] for i, j in combinations(range(n), 2)]


def _paraboson_denominator(n: int, symmetric: bool) -> MultiPoly:
    """The whole denominator, expanded: the product of the 1 - x_i and the
    1 - x_i x_j (i < j), and for the symmetric variant the 1 - x_i^2."""
    one = MultiPoly.one(n)
    factors = _denominator_factors(n)
    if symmetric:
        factors += [one - MultiPoly.variable(n, i) ** 2 for i in range(n)]
    return math.prod(factors, start=one)


def test_parafermion_level_zero_reduces_to_pure_denominator():
    from parafock.partitions import enumerate_self_conjugate_in_square

    for n in (1, 2, 3):
        ctx = SchurContext(n)
        lhs = MultiPoly.zero(n)
        for mu in enumerate_self_conjugate_in_square(n):
            r = frobenius_decompose(mu).rank
            term = schur(augment_arms(mu, 0), ctx)
            lhs = lhs + term if ((mu.size + r) // 2) % 2 == 0 else lhs - term
        assert lhs == _paraboson_denominator(n, symmetric=False)


def test_paraboson_printed_denominator_passes():
    for n in (1, 2):
        for p in range(3):
            rep = verify_paraboson_identity(n, p, 8)
            assert rep.passed
            assert rep.degree == 8
            assert rep.denominator == "printed"
    assert verify_paraboson_identity(3, 1, 6).passed


def test_paraboson_symmetric_denominator_fails_with_located_discrepancy():
    rep = verify_paraboson_identity(1, 1, 10, denominator="symmetric")
    assert not rep.passed
    assert rep.denominator == "symmetric"
    assert rep.first_discrepancy == {
        "degree": 2,
        "monomial": [4],
        "lhs": "0",
        "rhs": "-1",
    }
    with pytest.raises(ValueError):
        verify_paraboson_identity(1, 1, 10, denominator="other")


def _identity_by_product(n, p, degree=None, denominator="printed"):
    """The monomial verdict: expand every Schur polynomial, multiply the
    denominator out and compare term by term.  ``degree`` None is the
    parafermionic identity, an int the paraboson one truncated there.  The
    branching family comes from ``kostant.enumerate_partitions`` with the
    verifier's own arguments, so a patched family reaches both."""
    ctx = SchurContext(n)
    if degree is None:
        table = cohomology_via_partitions(n, p)
        family = kostant.enumerate_partitions(max_part=p, max_length=n)
    else:
        table = cohomology_via_partitions(max(n - p, 1), p)
        family = kostant.enumerate_partitions(max_length=min(p, n), max_size=degree)
    lhs = MultiPoly.zero(n)
    for e in table.entries:
        lam = e.diagram if degree is None else e.diagram.conjugate()
        lhs = lhs + schur(lam, ctx) * (-1) ** e.k
    tail = MultiPoly.zero(n)
    for lam in family:
        tail = tail + schur(lam, ctx)
    den = _paraboson_denominator(n, denominator == "symmetric")
    if degree is None:
        disc = _first_discrepancy(lhs, den * tail)
    else:
        rhs = TruncatedSeries(den, math.inf) * TruncatedSeries(tail, degree)
        disc = _first_discrepancy(TruncatedSeries(lhs, degree).poly, rhs.poly)
    return ("pass" if disc is None else "fail"), disc


def test_parafermion_schur_basis_matches_the_monomial_product():
    for n in range(1, 6):
        for p in range(4):
            rep = verify_parafermion_identity(n, p)
            assert (rep.status, rep.first_discrepancy) == _identity_by_product(n, p), (n, p)


def test_paraboson_schur_basis_matches_the_monomial_product():
    failures = 0
    for n in range(1, 5):
        for p in range(4):
            for D in (0, 1, 2, 5, 8, 10):
                for den in ("printed", "symmetric"):
                    rep = verify_paraboson_identity(n, p, D, den)
                    expected = _identity_by_product(n, p, D, den)
                    assert (rep.status, rep.first_discrepancy) == expected, (n, p, D, den)
                    failures += rep.status == "fail"
    # the symmetric variant's located failures are part of the comparison
    assert failures > 0


def _drop_last(family, kwargs):
    return family[:-1]


def _add_outside(family, kwargs):
    if "max_part" in kwargs:
        return family + [Partition([kwargs["max_part"] + 1])]
    return family + [Partition([1] * (kwargs["max_length"] + 1))]


def _double_last(family, kwargs):
    return family + family[-1:]


def _double_all(family, kwargs):
    # the shifted parafermion character stays Weyl-invariant, and only
    # Freudenthal's multiplicities see the change
    return family + family


def _double_first(family, kwargs):
    # one more empty diagram changes only the coefficient of x^0; the
    # dominant multiplicities are read at exponents >= p/2, so for p >= 1
    # only the reflection test sees it
    return family + family[:1]


PERTURBATIONS = [_drop_last, _add_outside, _double_last, _double_all, _double_first]
PERTURBATION_IDS = ["drop", "extra", "duplicate", "double", "double-empty"]


@pytest.mark.parametrize("perturb", PERTURBATIONS, ids=PERTURBATION_IDS)
@pytest.mark.parametrize(
    "case",
    [(1, 1, None, "printed"), (2, 2, None, "printed"), (3, 1, None, "printed"),
     (3, 2, None, "printed"), (2, 1, 5, "printed"), (3, 1, 6, "printed"),
     (4, 2, 8, "printed"), (3, 1, 6, "symmetric")],
    ids=str,
)
def test_perturbed_branching_family_fails_where_the_product_does(monkeypatch, case, perturb):
    real, real_times = kostant.enumerate_partitions, kostant._denominator_times
    fallbacks = []

    def broken(**kwargs):
        return perturb(list(real(**kwargs)), kwargs)

    def spy_times(n, symmetric, family, degree=None):
        fallbacks.append(degree)
        return real_times(n, symmetric, family, degree)

    monkeypatch.setattr(kostant, "enumerate_partitions", broken)
    monkeypatch.setattr(kostant, "_denominator_times", spy_times)
    n, p, D, den = case
    if D is None:
        rep = verify_parafermion_identity(n, p)
        # a family whose character is not L(p theta)'s takes the denominator
        assert fallbacks == [None]
    else:
        rep = verify_paraboson_identity(n, p, D, den)
        assert fallbacks == [D]
    assert rep.status == "fail"
    assert (rep.status, rep.first_discrepancy) == _identity_by_product(n, p, D, den)


@functools.cache
def _whole_denominator_terms(n, symmetric):
    """Terms (|alpha|, alpha, c) of the expanded denominator, by degree."""
    terms = _paraboson_denominator(n, symmetric).terms.items()
    return sorted((sum(e) // 2, [x // 2 for x in e], c) for e, c in terms)


def _denominator_times_single_pass(n, symmetric, family, degree=None):
    """The denominator times sum s_lambda in one pass: expand the whole
    denominator and straighten each of its terms against each lambda."""
    delta = range(n - 1, -1, -1)
    shifted = sorted(
        (lam.size, [lam.part(i) + d for i, d in enumerate(delta)])
        for lam in family
        if len(lam) <= n
    )
    out = {}
    for size_a, alpha, c in _whole_denominator_terms(n, symmetric):
        room = math.inf if degree is None else degree - size_a
        for size, v in shifted:
            if size > room:
                break
            hit = _straighten_type_a([a + x for a, x in zip(alpha, v)])
            if hit is not None:
                sign, nu = hit
                out[nu] = out.get(nu, 0) + sign * c
    return {nu: c for nu, c in out.items() if c}


def test_denominator_times_matches_the_single_pass():
    cases = [(n, D) for n in range(1, 6) for D in (None, 0, 1, 2, 5, 8, 10)]
    cases += [(6, D) for D in (4, 8, 10)]
    for n, D in cases:
        for p in range(4):
            if D is None:
                family = list(enumerate_partitions(max_part=p, max_length=n))
            else:
                family = list(enumerate_partitions(max_length=min(p, n), max_size=D))
            for symmetric in (False, True):
                got = kostant._denominator_times(n, symmetric, family, D)
                expected = _denominator_times_single_pass(n, symmetric, family, D)
                assert got == expected, (n, p, D, symmetric)


small_families = st.lists(
    st.lists(st.integers(1, 4), max_size=5).map(
        lambda parts: Partition(sorted(parts, reverse=True))
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 9)),
    small_families,
    st.data(),
)
def test_denominator_times_on_families_with_repeats(n, symmetric, degree, family, data):
    # repeated diagrams add up; diagrams with more than n rows vanish
    family = family + [data.draw(st.sampled_from(family))]
    assert kostant._denominator_times(
        n, symmetric, family, degree
    ) == _denominator_times_single_pass(n, symmetric, family, degree)


def test_printed_denominator_is_the_shifted_weyl_denominator():
    # L a_delta = (-1)^{n(n-1)/2} x^{(n-1/2)1} D_rho, by expansion
    for n in range(1, 6):
        a_delta = _sn_alternant(list(range(n - 1, -1, -1)), SchurContext(n))
        sign = (-1) ** (n * (n - 1) // 2)
        shifted = {
            tuple(x + 2 * n - 1 for x in e): sign * c
            for e, c in alternant(Weight.rho(n)).terms.items()
        }
        assert _paraboson_denominator(n, symmetric=False) * a_delta == MultiPoly(n, shifted)


def test_brauer_map_matches_the_denominator_product():
    for n in range(1, 7):
        for p in range(4):
            family = list(enumerate_partitions(max_part=p, max_length=n))
            expected = kostant._denominator_times(n, False, family)
            assert kostant._parafermion_times(n, p, family) == expected, (n, p)


def test_paraboson_maps_are_the_conjugate_parafermion_maps():
    # omega duality (verify_paraboson_identity's docstring): the printed
    # paraboson maps at (n, p, D) are the parafermion maps at N' = max(D, 1)
    # variables, cut to |nu| <= D, conjugated and cut to at most n rows.  The
    # dominant-weight pass, which expands D_{rho + p theta}, and the type-A
    # carry share only the type-A straightener.
    cases = 0
    for p in range(4):
        for D in range(9):
            wide = max(D, 1)
            box = list(enumerate_partitions(max_part=p, max_length=wide))
            fermion = kostant._parafermion_times(wide, p, box)
            conjugate = {
                partitions._column_lengths(nu): c for nu, c in fermion.items() if sum(nu) <= D
            }
            for n in range(1, D + 3):
                N = min(n, wide)
                family = list(enumerate_partitions(max_length=min(p, N), max_size=D))
                expected = {nu: c for nu, c in conjugate.items() if len(nu) <= n}
                assert kostant._denominator_times(N, False, family, D) == expected, (n, p, D)
                # the symmetric variant is the omega image of no parafermion map
                if D >= 2 and n > p:
                    assert kostant._denominator_times(N, True, family, D) != expected, (n, p, D)
                cases += 1
    assert cases == 216


def test_sign_patterns_of_the_top_weight_give_the_cohomology_table():
    # Kostant's theorem, combinatorially: D_{rho+p theta} alone, expanded
    # over its 2^n sign patterns and straightened in type A, is the Euler
    # characteristic of the table
    for n in range(1, 13):
        for p in range(4):
            top = Weight.rho(n) + Weight.p_theta(n, p)
            got = kostant._shifted_alternants(top.coords)
            euler = kostant._euler_characteristic(cohomology_via_partitions(n, p).entries)
            assert got == euler, (n, p)


def test_rank_seven_parafermion_passes_without_the_denominator(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the parafermion pass applied the denominator")

    monkeypatch.setattr(kostant, "_denominator_times", unreachable)
    assert verify_parafermion_identity(7, 2).passed


def _is_sorted(e):
    return all(a >= b for a, b in zip(e, e[1:]))


def test_kostka_sums_are_the_sorted_coefficients():
    # the pass restricted to weakly decreasing vectors keeps exactly the
    # whole expansion's coefficients there, for true and perturbed families
    for n in range(1, 6):
        for p in range(4):
            kwargs = {"max_part": p, "max_length": n}
            true = list(enumerate_partitions(**kwargs))
            for family in [true] + [perturb(true, kwargs) for perturb in PERTURBATIONS]:
                pairs = [(lam.parts, 1) for lam in family]
                whole = _schur_expansion(pairs, SchurContext(n)).terms
                kostka = _schur_expansion(pairs, SchurContext(n), dominant=True).terms
                assert kostka == {e: c for e, c in whole.items() if _is_sorted(e)}, (n, p)
                # a sum of Schur polynomials passes the S_n test as it stands
                assert kostant._sorted_terms(whole) == kostka, (n, p)
            # every multiset over 0..p is a weight of L(p theta)
            assert len(kostant._schur_expansion(
                ((lam.parts, 1) for lam in true), SchurContext(n), dominant=True
            )) == math.comb(n + p, n)


def test_freudenthal_matches_the_branching_character():
    # the dominant weight e - p theta of L(p theta) is x^e in the branching
    # character, for weakly decreasing e with every entry at least p/2
    for n in range(1, 7):
        for p in range(4):
            expected = {
                tuple(x - p for x in e): c
                for e, c in branching_character(n, p).terms.items()
                if _is_sorted(e) and e[-1] >= p
            }
            assert kostant._freudenthal(n, p) == expected, (n, p)


def test_freudenthal_orbit_sum_is_the_weyl_dimension():
    # sum of m(mu) |W mu| against Weyl's product; no Schur engine involved
    for n in range(1, 9):
        for p in range(4):
            total = 0
            for mu, m in kostant._freudenthal(n, p).items():
                stabiliser = math.prod(math.factorial(mu.count(v)) for v in set(mu))
                total += m * 2 ** (n - mu.count(0)) * math.factorial(n) // stabiliser
            assert total == dim_so(Weight.p_theta(n, p), n), (n, p)


def test_freudenthal_refuses_a_non_integral_quotient(monkeypatch):
    # gl(n)'s rho = (n - 1, ..., 0) in place of B_n's: at (1, 3) the weight
    # 1/2 gets 2 * 3 / 8
    monkeypatch.setattr(
        Weight, "rho", classmethod(lambda cls, n: cls._of(tuple(range(2 * n - 2, -1, -2))))
    )
    with pytest.raises(ArithmeticError, match="not integral; convention bug"):
        kostant._freudenthal(1, 3)


@pytest.mark.parametrize("n, p", [(1, 0), (4, 3), (7, 2), (8, 3)])
def test_parafermion_pass_reads_only_dominant_contents(monkeypatch, n, p):
    expansions, straightened = [], []
    real_expansion, real_straighten = kostant._schur_expansion, kostant._straighten_type_a

    def spy_expansion(coeffs, ctx, hook=False, dominant=False):
        out = real_expansion(coeffs, ctx, hook, dominant)
        expansions.append((dominant, len(out)))
        return out

    def spy_straighten(v):
        straightened.append(v)
        return real_straighten(v)

    def unreachable(*args):
        raise AssertionError("the parafermion pass applied the denominator")

    monkeypatch.setattr(kostant, "_schur_expansion", spy_expansion)
    monkeypatch.setattr(kostant, "_straighten_type_a", spy_straighten)
    monkeypatch.setattr(kostant, "_denominator_times", unreachable)
    assert verify_parafermion_identity(n, p).passed
    # one pass over the C(n + p, n) weakly decreasing contents, against
    # (p + 1)^n monomials, then the 2^n sign patterns of D_{rho + p theta}
    assert expansions == [(True, math.comb(n + p, n))]
    assert len(straightened) == 2 ** n


def test_paraboson_denominator_oracle_is_the_product_of_its_factors():
    for n in range(1, 6):
        one = MultiPoly.one(n)
        xs = [MultiPoly.variable(n, i) for i in range(n)]
        for symmetric in (False, True):
            factors = [one - x for x in xs]
            factors += [one - xs[i] * xs[j] for i in range(n) for j in range(i + 1, n)]
            if symmetric:
                factors += [one - x * x for x in xs]
            whole = math.prod(factors, start=one)
            assert _paraboson_denominator(n, symmetric) == whole


def _spy_on_factor_steps(monkeypatch):
    """Every factor step a verifier takes, as (e, c, top exponent sum out),
    and every generic term-pair product, as (len a, len b)."""
    steps, products = [], []
    real_step, real_mul = polyring._times_binomial, polyring._mul_terms

    def spy_step(terms, e, c, cut=math.inf):
        out = real_step(terms, e, c, cut)
        steps.append((e, c, max(map(sum, out), default=0)))
        return out

    def spy_mul(a, b, cut=math.inf):
        products.append((len(a), len(b)))
        return real_mul(a, b, cut)

    monkeypatch.setattr(polyring, "_times_binomial", spy_step)
    monkeypatch.setattr(kostant, "_times_binomial", spy_step)
    # MultiPoly and TruncatedSeries products both run here
    monkeypatch.setattr(polyring, "_mul_terms", spy_mul)
    return steps, products


def test_verifiers_never_expand_the_whole_denominator(monkeypatch):
    steps, products = _spy_on_factor_steps(monkeypatch)
    assert verify_parafermion_identity(5, 3).passed
    # the dominant-weight pass needs no orbit, nor any other product
    assert steps == [] and products == []
    n, D = 4, 10
    assert verify_paraboson_identity(n, 3, D, "symmetric").status == "fail"
    monkeypatch.undo()
    assert steps and products == []
    # every step stops at degree D plus |delta|, in whole units ...
    assert max(d for _, _, d in steps) <= D + n * (n - 1) // 2
    # ... and multiplies in one two-term factor 1 - x_i, 1 - x_i x_j or
    # 1 - x_i^2, so no orbit's product is ever built
    assert all(c == -1 and min(e) >= 0 and sum(e) in (1, 2) for e, c, _ in steps)


def test_rank_six_paraboson_verdicts():
    assert verify_paraboson_identity(6, 2, 10).passed
    rep = verify_paraboson_identity(6, 2, 10, "symmetric")
    assert rep.first_discrepancy == {
        "degree": 2,
        "monomial": [0, 0, 0, 0, 0, 4],
        "lhs": "0",
        "rhs": "-1",
    }
    assert verify_paraboson_identity(7, 3, 12).passed
    rep = verify_paraboson_identity(7, 3, 12, "symmetric")
    assert rep.first_discrepancy == {
        "degree": 2,
        "monomial": [0, 0, 0, 0, 0, 0, 4],
        "lhs": "0",
        "rhs": "-1",
    }


def _paraboson_maps(n, p, D, symmetric):
    """Both sides of the paraboson check as {nu: coefficient} maps, built in
    n variables however large n is against D."""
    table = cohomology_via_partitions(max(n - p, 1), p, D)
    lhs = {}
    for rows, c in kostant._euler_characteristic(table.entries).items():
        cols = partitions._column_lengths(rows)
        if len(cols) <= n:
            lhs[cols] = c
    family = enumerate_partitions(max_length=min(p, n), max_size=D)
    return lhs, kostant._denominator_times(n, symmetric, family, D)


@pytest.mark.parametrize("D", [0, 1, 2, 5, 8])
def test_paraboson_maps_need_only_min_n_d_variables(monkeypatch, D):
    # every compared nu has at most |nu| <= D rows, so restriction to
    # min(n, D) variables loses none of them (Macdonald I.3)
    real_times, real_discrepancy = kostant._denominator_times, kostant._schur_discrepancy
    carried, compared = [], []

    def spy_times(n, symmetric, family, degree=None):
        carried.append(n)
        return real_times(n, symmetric, family, degree)

    def spy_discrepancy(lhs, rhs, n):
        compared.append((lhs, rhs, n))
        return real_discrepancy(lhs, rhs, n)

    monkeypatch.setattr(kostant, "_denominator_times", spy_times)
    monkeypatch.setattr(kostant, "_schur_discrepancy", spy_discrepancy)
    for n in range(1, D + 4):
        for p in range(4):
            for symmetric in (False, True):
                case = (n, p, D, symmetric)
                maps = _paraboson_maps(n, p, D, symmetric)
                if n > D:
                    assert maps == _paraboson_maps(D, p, D, symmetric), case
                carried.clear()
                compared.clear()
                verify_paraboson_identity(n, p, D, "symmetric" if symmetric else "printed")
                assert carried == [min(n, max(D, 1))], case
                assert compared == [(*maps, n)], case


@pytest.mark.parametrize("n, p, D", [(12, 1, 8), (11, 2, 8), (13, 3, 9)])
def test_symmetric_paraboson_failure_past_the_degree(n, p, D):
    # carried in D variables, the failure is still located in n
    rep = verify_paraboson_identity(n, p, D, "symmetric")
    assert rep.first_discrepancy == {
        "degree": 2,
        "monomial": [0] * (n - 1) + [4],
        "lhs": "0",
        "rhs": "-1",
    }


def test_parafermion_and_paraboson_pass_without_products(monkeypatch):
    schur_module = importlib.import_module("parafock.schur")
    series_products, schur_calls, expanded = [], [], []
    real_mul, real_schur = TruncatedSeries.__mul__, schur_module.schur
    real_expansion = schur_module._schur_expansion

    def spy_mul(self, other):
        series_products.append(other)
        return real_mul(self, other)

    def spy_schur(*args, **kwargs):
        schur_calls.append(args)
        return real_schur(*args, **kwargs)

    def spy_expansion(coeffs, *args, **kwargs):
        # every Schur expansion goes through this one pass
        coeffs = list(coeffs)
        expanded.extend(Partition(lam).parts for lam, _ in coeffs)
        return real_expansion(coeffs, *args, **kwargs)

    monkeypatch.setattr(TruncatedSeries, "__mul__", spy_mul)
    monkeypatch.setattr(schur_module, "schur", spy_schur)
    monkeypatch.setattr(schur_module, "_schur_expansion", spy_expansion)
    monkeypatch.setattr(kostant, "_schur_expansion", spy_expansion)
    assert verify_parafermion_identity(4, 3).passed
    # the Kostka pass expands the branching character, from diagrams in
    # the 3^4 box alone; nothing else is expanded
    assert expanded
    assert all(len(parts) <= 4 and max(parts, default=0) <= 3 for parts in expanded)
    expanded.clear()
    assert verify_paraboson_identity(4, 2, 10).passed
    assert expanded == []
    assert series_products == []
    assert schur_calls == []


def test_schur_basis_failures_are_named_by_first_discrepancy(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return _first_discrepancy(*args)

    monkeypatch.setattr(kostant, "_first_discrepancy", spy)
    assert verify_parafermion_identity(3, 2).passed
    assert verify_paraboson_identity(3, 2, 8).passed
    assert calls == []
    rep = verify_paraboson_identity(3, 2, 8, denominator="symmetric")
    assert not rep.passed and rep.first_discrepancy is not None
    assert len(calls) == 1


def test_parastat_reports():
    rep = verify_parastat_identity(1, 1, 1, 6)
    assert rep.passed
    assert rep.conjecture is True
    assert rep.m == 1 and rep.degree == 6
    assert verify_parastat_identity(1, 2, 2, 5).passed
    assert verify_parastat_identity(2, 1, 1, 5).passed
    # includes D <= p, where only the empty diagram survives
    for n in range(3):
        for m in range(3):
            if n + m == 0:
                continue
            for p in range(4):
                for D in range(10):
                    assert verify_parastat_identity(n, m, p, D).passed, (n, m, p, D)


def _spy_on_square_walk(monkeypatch):
    """Every diagram the tables' self-conjugate walk returns, in one list."""
    built = []
    real = kostant.enumerate_self_conjugate_in_square

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        built.extend(out)
        return out

    monkeypatch.setattr(kostant, "enumerate_self_conjugate_in_square", spy)
    return built


def test_parastat_enumerates_only_diagrams_that_fit_the_degree(monkeypatch):
    enumerated = _spy_on_square_walk(monkeypatch)
    assert verify_parastat_identity(1, 1, 1, 14).passed
    # at p = 1 an arm a adds 2a + 2 boxes: exactly the arm sets with
    # sum(a + 1) <= 7, 19 of the 2^7 in the 7 x 7 square
    fits = {
        arms
        for r in range(8)
        for arms in combinations(range(6, -1, -1), r)
        if sum(2 * a + 2 for a in arms) <= 14
    }
    assert len(fits) == 19
    assert sorted(frobenius_decompose(mu).arms for mu in enumerated) == sorted(fits)
    enumerated.clear()
    # the 20 x 20 square holds 2^20 diagrams; 371 fit degree 40
    assert verify_parastat_identity(1, 1, 1, 40).passed
    assert len(enumerated) == 371


def test_paraboson_builds_only_entries_that_fit_the_degree(monkeypatch):
    built = _spy_on_square_walk(monkeypatch)
    assert verify_paraboson_identity(7, 1, 10).passed
    # the 6 x 6 square holds 2^6 diagrams; arm sets with sum(2a + 2) <= 10 are 10
    assert len(built) == 10
    assert all(mu.size + frobenius_decompose(mu).rank <= 10 for mu in built)


def test_resolution_character_matches_the_whole_table():
    # every entry of the unbounded table expanded, then truncated at D
    for n in (1, 2, 3):
        for p in range(3):
            table = cohomology_via_partitions(n, p)
            for D in (0, 3, 6):
                universal = polyring.expand_inverse_product(_denominator_factors(n), D)
                for k in range(table.max_degree() + 1):
                    numerator = sum(
                        (schur(e.diagram, SchurContext(n)) for e in table.entries_at(k)),
                        MultiPoly.zero(n),
                    )
                    expected = TruncatedSeries(numerator, math.inf) * universal
                    assert resolution_character(n, p, k, D) == expected, (n, p, k, D)


def test_resolution_character_builds_only_entries_that_fit_the_degree(monkeypatch):
    built = _spy_on_square_walk(monkeypatch)
    assert resolution_character(8, 2, 1, 6).poly
    # of the 2^8 diagrams in the 8 x 8 square, only the empty one and the
    # arm sets {0} and {1} have |mu^(2)| = sum(2a + 3) <= 6
    assert len(built) == 3
    assert all(augment_arms(mu, 2).size <= 6 for mu in built)


def test_parafermion_builds_no_jacobi_trudi_minors(monkeypatch):
    calls = []
    real = SchurContext.h

    def spy(self, k, which="even"):
        calls.append((which, k))
        return real(self, k, which)

    monkeypatch.setattr(SchurContext, "h", spy)
    assert verify_parafermion_identity(3, 2).passed
    # the branching rule shifts exponents; it never asks for h_k
    assert calls == []
    # nor does its super form, which builds the hook Schur polynomials
    assert verify_parastat_identity(1, 1, 1, 14).passed
    assert calls == []


def _parastat_by_product(n, m, p, D, chi):
    """The whole-product parastat verdict for the Euler sum ``chi``: the
    mixed-pair product expanded in full times sum chi[lam] hs_lam, against
    the whole denominator times the hook Schur sum, both truncated at D."""
    ctx = SchurContext(n, m)
    nv = n + m
    one = MultiPoly.one(nv)
    z = [MultiPoly.variable(nv, i) for i in range(nv)]
    mixed = math.prod((one + z[i] * z[j] for i in range(n) for j in range(n, nv)), start=one)
    same = [(i, j) for i, j in combinations(range(nv), 2) if (i < n) == (j < n)]
    den = math.prod([one - x for x in z] + [one - z[i] * z[j] for i, j in same], start=one)
    euler = MultiPoly.zero(nv)
    for lam, c in chi.items():
        euler = euler + hook_schur(lam, ctx) * c
    tail = MultiPoly.zero(nv)
    for lam in enumerate_partitions(max_part=p, max_size=D):
        tail = tail + hook_schur(lam, ctx)
    lhs = TruncatedSeries(mixed, math.inf) * TruncatedSeries(euler, D)
    rhs = TruncatedSeries(den, math.inf) * TruncatedSeries(tail, D)
    disc = _first_discrepancy(lhs.poly, rhs.poly)
    return ("pass" if disc is None else "fail"), disc


@pytest.mark.parametrize("n,m", [(n, m) for n in range(3) for m in range(3) if n + m])
def test_parastat_passes_where_the_whole_product_does(monkeypatch, n, m):
    real = kostant._euler_characteristic
    used = []

    def spy(entries):
        chi = real(entries)
        used.append(chi)
        return chi

    monkeypatch.setattr(kostant, "_euler_characteristic", spy)
    for p in range(3):
        for D in range(9):
            used.clear()
            rep = verify_parastat_identity(n, m, p, D)
            assert len(used) == 1
            assert rep.passed, (n, m, p, D)
            assert _parastat_by_product(n, m, p, D, used[0]) == ("pass", None), (n, m, p, D)


def _bump(chi, lam):
    chi[lam] += 1


def _drop(chi, lam):
    del chi[lam]


@pytest.mark.parametrize("perturb", [_bump, _drop], ids=["bump", "drop"])
@pytest.mark.parametrize(
    "case",
    [(n, m, p, D) for n in range(3) for m in range(3) if n + m
     for p in range(3) for D in (4, 8)],
    ids=str,
)
def test_perturbed_parastat_euler_sum_fails_where_the_product_does(monkeypatch, case, perturb):
    # one run per diagram of the Euler sum, each perturbing that diagram
    # alone; hs_lambda vanishes outside the (n|m) hook, so only a diagram
    # inside it can change the verdict
    _perturb_parastat_euler_sum(monkeypatch, case, perturb)


def _perturb_parastat_euler_sum(monkeypatch, case, perturb):
    """Perturb each diagram of the Euler sum alone, and check that one inside
    the hook fails where the whole product does and one outside it passes.
    The diagrams outside the hook, in the order of the sum."""
    n, m = case[:2]
    real = kostant._euler_characteristic
    unperturbed = []

    def spy(entries):
        chi = real(entries)
        unperturbed.append(list(chi))
        return chi

    monkeypatch.setattr(kostant, "_euler_characteristic", spy)
    assert verify_parastat_identity(*case).passed
    outside = []
    for lam in unperturbed[0]:
        used = []

        def perturbed(entries):
            chi = dict(real(entries))
            perturb(chi, lam)
            used.append(chi)
            return chi

        monkeypatch.setattr(kostant, "_euler_characteristic", perturbed)
        rep = verify_parastat_identity(*case)
        assert len(used) == 1
        inside = len(lam) <= n or lam[n] <= m
        if not inside:
            outside.append(lam)
        assert rep.status == ("fail" if inside else "pass"), (case, lam)
        assert (rep.status, rep.first_discrepancy) == _parastat_by_product(*case, used[0]), (
            case,
            lam,
        )
    return outside


@pytest.mark.parametrize("perturb", [_bump, _drop], ids=["bump", "drop"])
def test_a_perturbed_diagram_outside_the_hook_leaves_parastat_passing(monkeypatch, perturb):
    # the table's square holds mu^(p) that overflow the (1|1) hook; the
    # branching pass drops them, perturbed or not
    outside = _perturb_parastat_euler_sum(monkeypatch, (1, 1, 1, 8), perturb)
    assert outside == [(3, 3), (4, 3, 1)]


def test_parastat_multiplies_in_one_factor_at_a_time(monkeypatch):
    schur_module = importlib.import_module("parafock.schur")
    steps, products = _spy_on_factor_steps(monkeypatch)
    hook_calls = []
    real_hook = schur_module.hook_schur

    def spy_hook(*args, **kwargs):
        hook_calls.append(args)
        return real_hook(*args, **kwargs)

    monkeypatch.setattr(schur_module, "hook_schur", spy_hook)
    monkeypatch.setattr(kostant, "hook_schur", spy_hook, raising=False)
    D = 8
    assert verify_parastat_identity(2, 2, 2, D).passed
    # both sides take their factors one at a time, in half units: the four
    # 1 + x_i y_j on the left, the four 1 - x_i and the two same-parity
    # 1 - x_i x_j on the right, and no other product
    assert products == []
    assert all(set(e) <= {0, 2} for e, _, _ in steps)
    assert sorted((c, sum(e)) for e, c, _ in steps) == [(-1, 2)] * 4 + [(-1, 4)] * 2 + [(1, 4)] * 4
    # ... and never goes above degree D, 2D in half units
    assert max(d for _, _, d in steps) <= 2 * D
    # the Euler and hook sums come straight from the one branching pass
    assert hook_calls == []


def test_parastat_checks_only_its_starting_sums(monkeypatch):
    checked = []
    real = TruncatedSeries.__init__

    def spy(self, poly, valid_degree):
        checked.append(len(poly))
        real(self, poly, valid_degree)

    monkeypatch.setattr(TruncatedSeries, "__init__", spy)
    assert verify_parastat_identity(2, 2, 2, 8).passed
    # nothing built inside the check is checked again: ``schur_sum`` wraps
    # the hook Schur sum it built, the Euler sum and both products stay
    # plain term dicts, and no factor is lifted to a series
    assert checked == []


def _spy_on_input_checks(monkeypatch):
    """Names of the input checks called: ``hook_condition`` and
    ``as_partition`` at every module that binds them, and the checking
    constructors of ``Partition`` and ``TruncatedSeries``."""
    calls = []
    modules = [importlib.import_module(f"parafock.{name}")
               for name in ("partitions", "schur", "weyl", "polyring", "kostant", "cli")]
    for name in ("hook_condition", "as_partition"):
        real = getattr(partitions, name)

        def spy(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    for cls in (Partition, TruncatedSeries):
        real = cls.__init__

        def spy_init(self, *args, _name=f"{cls.__name__}.__init__", _real=real):
            calls.append(_name)
            _real(self, *args)

        monkeypatch.setattr(cls, "__init__", spy_init)
    return calls


@pytest.mark.parametrize(
    "check",
    [lambda: verify_parafermion_identity(4, 3), lambda: verify_paraboson_identity(4, 2, 10),
     lambda: verify_parastat_identity(2, 2, 2, 8)],
    ids=["parafermion", "paraboson", "parastat"],
)
def test_identity_checks_recheck_nothing_they_build(monkeypatch, check):
    # the verifiers check their counts once; the diagrams, family sums and
    # series they build from them are trusted and pass no further check
    calls = _spy_on_input_checks(monkeypatch)
    # the spies see public calls that check outside input
    partitions.hook_condition([2, 1], 1, 1)
    TruncatedSeries(MultiPoly.one(1), 2)
    assert calls == ["hook_condition", "as_partition", "Partition.__init__",
                     "TruncatedSeries.__init__"]
    calls.clear()
    assert check().passed
    assert calls == []


@pytest.mark.parametrize("bound", [2.9, 3.7, -1, math.inf, math.nan])
def test_verifiers_reject_bad_degree_bounds(bound):
    # neither truncates a fractional bound nor overflows on an infinite one
    with pytest.raises(ValueError, match="degree bound"):
        verify_paraboson_identity(2, 1, bound)
    with pytest.raises(ValueError, match="degree bound"):
        verify_parastat_identity(1, 1, 1, bound)


def test_parastat_degenerations_match_single_block_identities():
    # m = 0 is the parafermionic statement, n = 0 the parabosonic one
    assert verify_parastat_identity(2, 0, 1, 6).passed
    assert verify_parastat_identity(0, 2, 1, 6).passed
    with pytest.raises(ValueError):
        verify_parastat_identity(0, 0, 1, 6)


def test_report_json_schema():
    rep = verify_parafermion_identity(1, 1)
    obj = rep.to_json_obj()
    assert list(obj) == [
        "identity", "n", "m", "p", "degree", "status", "first_discrepancy", "millis",
    ]
    assert obj["status"] == "pass" and obj["first_discrepancy"] is None
    assert obj["millis"] == 0

    rep = verify_paraboson_identity(1, 0, 4)
    assert list(rep.to_json_obj())[-1] == "denominator"

    rep = verify_parastat_identity(1, 1, 1, 4)
    obj = rep.to_json_obj()
    assert list(obj)[-1] == "conjecture" and obj["conjecture"] is True


def test_first_discrepancy_picks_smallest_monomial():
    a = MultiPoly(2, {(0, 0): 1, (2, 2): 3, (0, 4): 5})
    b = MultiPoly(2, {(0, 0): 1, (2, 2): 4, (0, 4): 7})
    disc = _first_discrepancy(a, b)
    assert disc == {"degree": 2, "monomial": [0, 4], "lhs": "5", "rhs": "7"}
    assert _first_discrepancy(a, a) is None
    half = _first_discrepancy(MultiPoly(1, {(1,): 1}), MultiPoly(1, {(1,): 2}))
    assert half["degree"] == 0.5
