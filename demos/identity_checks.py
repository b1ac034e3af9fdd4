#!/usr/bin/env python3
"""Run the character-identity verifiers and read their reports.

Three identities (parafermionic, parabosonic, parastatistics) plus the
Weyl-character check, which asks whether the shifted branching character
is the character of L(p theta) on dominant weights alone (Kostka sums
invariant under the sign changes, and Freudenthal's multiplicities) and
expands the alternants only to locate a failure.  The parafermionic check
asks the same question, since its denominator is a shifted D_rho, and
then expands the single term D_{rho + p theta}.  Everything is exact
integer arithmetic; a failing check names the first offending monomial
instead of a distance.
"""

import json

from parafock import (
    verify_paraboson_identity,
    verify_parafermion_identity,
    verify_parastat_identity,
    verify_weyl_character,
)


def show(report):
    print(" ", json.dumps(report.to_json_obj()))


def main():
    print("Weyl-character check (exact, on dominant weights):")
    for n in (1, 2, 3):
        show(verify_weyl_character(n, p=2))

    print("\nparafermionic identity (exact, on dominant weights, in the Schur basis):")
    for p in (0, 1, 2):
        show(verify_parafermion_identity(n=2, p=p))

    print("\nparabosonic identity (series compared through degree 10):")
    for p in (1, 2):
        show(verify_paraboson_identity(n=3, p=p, valid_degree=10))

    # The same check with the symmetric-square denominator variant is
    # expected to fail; the report pinpoints the first wrong coefficient.
    print("\nsymmetric-denominator variant (recorded, not asserted):")
    show(verify_paraboson_identity(n=1, p=1, valid_degree=10, denominator="symmetric"))

    print("\nparastatistics identity (conjectural; verdict + detail only):")
    for n, m in ((1, 1), (2, 1), (1, 2)):
        show(verify_parastat_identity(n=n, m=m, p=2, valid_degree=8))


if __name__ == "__main__":
    main()
