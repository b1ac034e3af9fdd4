#!/usr/bin/env python3
"""One Schur polynomial, three independent engines and the fast default,
plus the hook variant.

The default engine is the Gelfand-Tsetlin branching rule, which only
shifts exponents and adds.  The package keeps three more algorithms for
s_lambda precisely so they can cross-check it and each other: a
Jacobi-Trudi determinant, a bialternant quotient computed by exact
polynomial division, and a tableau sum.  Hook Schur polynomials get two
engines of their own.
"""

from parafock import Partition, SchurContext, dim_gl, hook_schur, schur, skew_schur


def main():
    lam = Partition([3, 1])
    ctx = SchurContext(3)

    print(f"s_{list(lam.parts)} in 3 variables, four ways:")
    by_branch = schur(lam, ctx, "gt")
    by_det = schur(lam, ctx, "jt")
    by_quot = schur(lam, ctx, "alt")
    by_tab = schur(lam, ctx, "tab")
    print(f"  branching rule {by_branch}")
    print(f"  jacobi-trudi   {by_det}")
    print(f"  bialternant    {by_quot}")
    print(f"  tableau sum    {by_tab}")
    print(f"  all equal?     {by_branch == by_det == by_quot == by_tab}")

    # Setting every variable to 1 counts the tableaux, i.e. the dimension
    # of the gl(3) module with this highest weight.
    print(f"\n  s at x=1       {by_branch.sum_of_coefficients()}")
    print(f"  dim_gl         {dim_gl(lam, 3)}")

    # Skew shapes: remove a sub-diagram, same two engines.
    outer, inner = Partition([3, 2]), Partition([1])
    skew = skew_schur(outer, inner, ctx)
    print(f"\ns_{list(outer.parts)}/{list(inner.parts)} = {skew}")
    print(f"  tab agrees?    {skew == skew_schur(outer, inner, ctx, 'tab')}")

    # Hook Schur polynomials live in an even block and an odd block of
    # variables (even first).  They vanish exactly when the diagram pokes
    # out of the (n|m) hook.
    super_ctx = SchurContext(1, 1)
    print("\nhook Schur polynomials with one even and one odd variable:")
    for parts in ([2], [1, 1], [2, 1], [2, 2]):
        hs = hook_schur(Partition(parts), super_ctx)
        tag = "vanishes (outside the hook)" if hs.is_zero() else hs
        print(f"  hs_{parts}: {tag}")

    hs_tab = hook_schur(Partition([2, 1]), super_ctx, "tab")
    print(f"  super-tableau engine agrees? {hs_tab == hook_schur(Partition([2, 1]), super_ctx)}")


if __name__ == "__main__":
    main()
