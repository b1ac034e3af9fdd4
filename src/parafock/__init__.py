"""Exact combinatorics of parastatistics Fock-space characters.

Partitions and Frobenius coordinates, exact sparse integer polynomials,
four Schur-polynomial engines plus hook Schur polynomials,
the type-B hyperoctahedral machinery, nilradical cohomology tables built
two independent ways, and exact verdicts for the parafermionic,
parabosonic and parastatistics character identities.
"""

from .partitions import (
    FrobeniusForm,
    Partition,
    augment_arms,
    enumerate_partitions,
    enumerate_self_conjugate_in_square,
    frobenius_compose,
    frobenius_decompose,
    hook_condition,
)
from .polyring import (
    MultiPoly,
    TruncatedSeries,
    expand_inverse_product,
)
from .schur import SchurContext, hook_schur, schur, schur_sum, skew_schur
from .weyl import (
    RootSystemB,
    SignedPermutation,
    Weight,
    alternant,
    dim_gl,
    dim_so,
    kostant_weight,
    omega_I,
    phi_sigma,
    w1_element,
    weight_monomial,
)
from .kostant import (
    CohomologyEntry,
    CohomologyTable,
    VerificationReport,
    branching_character,
    cohomology_via_partitions,
    cohomology_via_w1,
    resolution_character,
    verify_parafermion_identity,
    verify_paraboson_identity,
    verify_parastat_identity,
    verify_weyl_character,
)

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "FrobeniusForm",
    "frobenius_decompose",
    "frobenius_compose",
    "augment_arms",
    "enumerate_self_conjugate_in_square",
    "enumerate_partitions",
    "hook_condition",
    "MultiPoly",
    "TruncatedSeries",
    "expand_inverse_product",
    "SchurContext",
    "schur",
    "skew_schur",
    "hook_schur",
    "schur_sum",
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
    "CohomologyEntry",
    "CohomologyTable",
    "VerificationReport",
    "cohomology_via_w1",
    "cohomology_via_partitions",
    "branching_character",
    "resolution_character",
    "verify_weyl_character",
    "verify_parafermion_identity",
    "verify_paraboson_identity",
    "verify_parastat_identity",
]
