"""Acceptance gate: nine criteria, one pass/fail line each.

Every comparison below is exact integer or exact polynomial equality:
tolerance is pinned at zero throughout, and series checks compare every
coefficient through the stated total-degree bound.  Each criterion also
carries a wall-clock budget, asserted after the computation.

The pass/fail lines are printed with capture suspended so they stay
visible in plain ``pytest -v`` runs.
"""

import time
from contextlib import contextmanager
from itertools import combinations

from parafock.kostant import (
    branching_character,
    cohomology_via_partitions,
    cohomology_via_w1,
    verify_paraboson_identity,
    verify_parafermion_identity,
    verify_parastat_identity,
    verify_weyl_character,
)
from parafock.partitions import (
    FrobeniusForm,
    enumerate_partitions,
    enumerate_self_conjugate_in_square,
    frobenius_compose,
    frobenius_decompose,
)
from parafock.polyring import MultiPoly
from parafock.schur import SchurContext, hook_schur, schur
from parafock.weyl import (
    RootSystemB,
    Weight,
    dim_gl,
    dim_so,
    phi_sigma,
    w1_element,
)


class Emitter:
    """Prints acceptance lines with pytest's capture suspended."""

    def __init__(self, capsys):
        self.capsys = capsys

    def __call__(self, line: str) -> None:
        with self.capsys.disabled():
            print(line)


@contextmanager
def criterion(emit: Emitter, number: int, name: str, budget_seconds: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        emit(f"\ncriterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    if elapsed >= budget_seconds:
        emit(
            f"\ncriterion {number} ({name}): FAIL"
            f" (took {elapsed:.2f}s, budget {budget_seconds:g}s)"
        )
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds:g}s budget: {elapsed:.2f}s"
        )
    emit(
        f"\ncriterion {number} ({name}): PASS"
        f" ({elapsed:.2f}s < {budget_seconds:g}s)"
    )


def all_subsets(n):
    for r in range(n + 1):
        yield from (tuple(c) for c in combinations(range(1, n + 1), r))


def test_criterion_1_coset_representatives(capsys):
    emit = Emitter(capsys)
    with criterion(emit, 1, "coset representative structure, n <= 6", 5):
        for n in range(1, 7):
            rs = RootSystemB(n)
            reps = set()
            images = set()
            for I in all_subsets(n):
                sigma = w1_element(I, n)
                reps.add(sigma)
                phi = phi_sigma(sigma, rs)
                assert all(rs.is_nilradical_root(a) for a in phi)
                assert len(phi) == sum(1 + n - i for i in I)
                arms = tuple(sorted((n - i for i in I), reverse=True))
                mu = frobenius_compose(FrobeniusForm(arms, arms))
                images.add(mu)
            assert len(reps) == 2 ** n
            assert len(images) == 2 ** n
            assert images == set(enumerate_self_conjugate_in_square(n))


def test_criterion_2_route_agreement(capsys):
    emit = Emitter(capsys)
    with criterion(emit, 2, "cohomology route agreement, n <= 5, p <= 4", 10):
        for n in range(1, 6):
            for p in range(5):
                a = cohomology_via_w1(n, p).degree_diagram_pairs()
                b = cohomology_via_partitions(n, p).degree_diagram_pairs()
                assert a == b


def test_criterion_3_weyl_character_consistency(capsys):
    emit = Emitter(capsys)
    with criterion(emit, 3, "alternant/branching consistency, n <= 3, p <= 3", 30):
        for n in range(1, 4):
            for p in range(4):
                report = verify_weyl_character(n, p)
                assert report.passed, report.to_json_obj()


def test_criterion_4_branching_dimensions(capsys):
    emit = Emitter(capsys)
    with criterion(emit, 4, "branching dimension bookkeeping, n <= 3, p <= 4", 1):
        for n in range(1, 4):
            for p in range(5):
                total = sum(
                    dim_gl(lam, n)
                    for lam in enumerate_partitions(max_part=p, max_length=n)
                )
                assert total == dim_so(Weight.p_theta(n, p), n)
        for n in range(1, 4):
            assert dim_so(Weight.p_theta(n, 1), n) == 2 ** n
        assert dim_so(Weight.p_theta(2, 2), 2) == 10


def test_criterion_5_parafermion_identity(capsys):
    emit = Emitter(capsys)
    with criterion(emit, 5, "parafermionic identity, n in 1..3, p in 0..3", 60):
        for n in (1, 2, 3):
            for p in range(4):
                report = verify_parafermion_identity(n, p)
                assert report.degree is None  # exact, not truncated
                assert report.passed, report.to_json_obj()


def test_criterion_6_paraboson_identity(capsys):
    emit = Emitter(capsys)
    with criterion(emit, 6, "parabosonic identity through degree 10", 120):
        recorded = []
        for n in (1, 2, 3):
            for p in range(4):
                report = verify_paraboson_identity(n, p, 10, "printed")
                assert report.degree == 10
                assert report.passed, report.to_json_obj()
                alt = verify_paraboson_identity(n, p, 10, "symmetric")
                assert alt.status in ("pass", "fail")
                assert (alt.first_discrepancy is None) == alt.passed
                recorded.append((n, p, alt.status))
        emit(
            "criterion 6 note: symmetric-denominator runs recorded: "
            + ", ".join(f"n={n} p={p} {s}" for n, p, s in recorded)
        )


def test_criterion_7_parastat_verifier(capsys):
    emit = Emitter(capsys)
    with criterion(emit, 7, "parastatistics verifier through degree 8", 120):
        for n, m in ((1, 1), (2, 1), (1, 2)):
            for p in (1, 2):
                report = verify_parastat_identity(n, m, p, 8)
                obj = report.to_json_obj()
                assert obj["identity"] == "parastat"
                assert (obj["n"], obj["m"], obj["p"]) == (n, m, p)
                assert obj["degree"] == 8
                assert obj["conjecture"] is True
                assert obj["status"] in ("pass", "fail")
                if obj["status"] == "fail":
                    disc = obj["first_discrepancy"]
                    assert set(disc) == {"degree", "monomial", "lhs", "rhs"}
                    assert len(disc["monomial"]) == n + m
                else:
                    assert obj["first_discrepancy"] is None


def test_criterion_8_schur_engine_equivalence(capsys):
    emit = Emitter(capsys)
    with criterion(emit, 8, "Schur engine equivalence", 60):
        for n in range(1, 5):
            ctx = SchurContext(n)
            for lam in enumerate_partitions(max_size=8):
                ref = schur(lam, ctx, "jt")
                assert schur(lam, ctx, "gt") == ref
                assert schur(lam, ctx, "alt") == ref
                assert schur(lam, ctx, "tab") == ref
        for n in range(3):
            for m in range(3):
                if n + m == 0:
                    continue
                ctx = SchurContext(n, m)
                for lam in enumerate_partitions(max_size=6):
                    assert hook_schur(lam, ctx, "br") == hook_schur(lam, ctx, "tab")


def test_criterion_9_level_zero_degeneration(capsys):
    emit = Emitter(capsys)
    with criterion(emit, 9, "level-zero degeneration", 5):
        from test_kostant import _paraboson_denominator

        for n in (1, 2, 3):
            report = verify_parafermion_identity(n, 0)
            assert report.passed, report.to_json_obj()
            # strong form: the alternating numerator literally equals the
            # closed product over the nilradical roots
            ctx = SchurContext(n)
            acc = MultiPoly.zero(n)
            for mu in enumerate_self_conjugate_in_square(n):
                r = frobenius_decompose(mu).rank
                k = (mu.size + r) // 2
                term = schur(mu, ctx, "jt")
                acc = acc + term if k % 2 == 0 else acc - term
            assert acc == _paraboson_denominator(n, symmetric=False)
            assert branching_character(n, 0) == MultiPoly.one(n)
