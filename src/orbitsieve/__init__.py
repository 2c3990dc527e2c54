"""Exact verification of cyclic sieving identities on word loci, with an
independent re-derivation of their polynomials through graded quotient rings.

The high-traffic entry points are re-exported here: locus enumeration, the
closed-form polynomial constructors with their verifiers, and the harmonics
pipeline (vanishing ideal, associated graded ideal, Hilbert series, graded
Frobenius, presentation checks).
"""

from .cyclotomic import CycloElement, CycloField, cyclo_field, eval_at_unity
from .errors import DomainError, InternalCheckError, ResourceBudgetError
from .harmonics import (
    GroebnerBasis,
    associated_graded,
    graded_character,
    graded_frobenius,
    hilbert_series,
    stated_generators,
    vanishing_ideal,
    verify_presentation,
)
from .loci import Action, Locus, OrbitSet, enumerate_locus, orbit_set
from .qpoly import SparsePoly, q_binomial, q_multinomial
from .sieving import (
    Report,
    SievingInstance,
    build_instance,
    oracle_csp_poly,
    sieving_polynomial,
    verify_bicsp,
    verify_csp,
    verify_family,
)
from .suite import run_criterion, run_suite

__version__ = "0.1.0"

__all__ = [
    "Action",
    "CycloElement",
    "CycloField",
    "DomainError",
    "GroebnerBasis",
    "InternalCheckError",
    "Locus",
    "OrbitSet",
    "Report",
    "ResourceBudgetError",
    "SievingInstance",
    "SparsePoly",
    "associated_graded",
    "build_instance",
    "cyclo_field",
    "enumerate_locus",
    "eval_at_unity",
    "graded_character",
    "graded_frobenius",
    "hilbert_series",
    "oracle_csp_poly",
    "orbit_set",
    "q_binomial",
    "q_multinomial",
    "run_criterion",
    "run_suite",
    "sieving_polynomial",
    "stated_generators",
    "vanishing_ideal",
    "verify_bicsp",
    "verify_csp",
    "verify_family",
    "verify_presentation",
]
