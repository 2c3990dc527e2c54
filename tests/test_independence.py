"""The two sides of each cross-check share no working code.

``oracle_csp_poly`` is the independent check of every closed form: it re-derives the
graded Frobenius image from the vanishing ideal of the locus.  The verifiers check
every sieving polynomial against fixed points counted on the words of the locus.
``verify_presentation`` checks each stated presentation, reduced by Buchberger's
algorithm, against the associated graded basis of the eliminated point ideal.
Each check means something only while neither side reads the other's results.  For
a few small cases, each side runs alone under ``sys.setprofile`` from the same
parameters, with every ``lru_cache`` of the package cleared first and a freshly built
locus, so no cache warmed by the other side hides a call.  Every package function
both sides enter must be listed, in ``SHARED_BY_BOTH_SIDES`` for the oracle and the
closed forms, in ``SHARED_BY_COUNTS_AND_POLYNOMIALS`` for the grids and in
``SHARED_BY_PRESENTATIONS_AND_ELIMINATION`` for the presentations, with the reason it
cannot carry one side's result into the other; a listed function that no case
shares fails too, so no list can go stale.
"""

import pathlib
import sys

import pytest

import orbitsieve
from orbitsieve import sieving
from orbitsieve.harmonics import associated_graded, buchberger, stated_generators, vanishing_ideal
from orbitsieve.loci import Action, enumerate_locus, locus_parameters, orbit_set
from orbitsieve.qpoly import SparsePoly
from orbitsieve.sieving import closed_frobenius, oracle_csp_poly, sieving_polynomial, word_bicsp_instance

from test_command_reach import SOURCE, definitions

SHARED_BY_BOTH_SIDES = {
    "qpoly.SparsePoly.__init__": "polynomial arithmetic",
    "qpoly.SparsePoly._valid": "polynomial arithmetic",
    "qpoly.SparsePoly.__add__": "polynomial arithmetic",
    "qpoly.SparsePoly.__mul__": "polynomial arithmetic",
    "qpoly.SparsePoly.zero": "polynomial arithmetic",
    "tableaux.partitions": "lists the index set of the Schur expansion",
    "tableaux._partitions": "lists the index set of the Schur expansion",
    "tableaux.check_partition": "parameter check",
}

SHARED_BY_COUNTS_AND_POLYNOMIALS = {
    "characters.check_subgroup": "checks the position subgroup's name against n",
    "loci._check_family": "parameter check",
    "loci._check_sizes": "parameter check",
    "loci.locus_parameters": "parameter check",
    "loci.symmetry_steps": "parameter check: the tanisaki value shift's step and order",
}

_FIELD = "builds the cyclotomic field of the locus's k"
_CYCLOTOMIC_POLYNOMIAL = "polynomial arithmetic of cyclotomic_polynomial, which builds the field's modulus"

SHARED_BY_PRESENTATIONS_AND_ELIMINATION = {
    "cyclotomic.cyclo_field": _FIELD,
    "cyclotomic.cyclotomic_polynomial": _FIELD,
    "cyclotomic.CycloField.__init__": _FIELD,
    "cyclotomic.CycloField._build_powers": _FIELD,
    "cyclotomic.CycloField.from_int": "field element arithmetic",
    "cyclotomic.CycloElement.__init__": "field element arithmetic",
    "cyclotomic.CycloElement._check": "field element arithmetic",
    "cyclotomic.CycloElement.__bool__": "field element arithmetic",
    "cyclotomic.CycloElement.__eq__": "field element arithmetic",
    "cyclotomic.CycloElement.is_zero": "field element arithmetic",
    "harmonics.GroebnerBasis.__init__": "stores and checks a basis; it derives no generator",
    "interpolation.PackedMonomials.__init__": "packs exponents into one int for the grevlex order",
    "interpolation.PackedMonomials.pack": "packs exponents into one int for the grevlex order",
    "interpolation.grevlex_key": "the grevlex order",
    "qpoly.SparsePoly.__init__": _CYCLOTOMIC_POLYNOMIAL,
    "qpoly.SparsePoly._valid": _CYCLOTOMIC_POLYNOMIAL,
    "qpoly.SparsePoly.__mul__": _CYCLOTOMIC_POLYNOMIAL,
    "qpoly.SparsePoly._q_coeff_list": _CYCLOTOMIC_POLYNOMIAL,
    "qpoly.SparsePoly.coeff": _CYCLOTOMIC_POLYNOMIAL,
    "qpoly.SparsePoly.degree_q": _CYCLOTOMIC_POLYNOMIAL,
    "qpoly.SparsePoly.div_exact_q": _CYCLOTOMIC_POLYNOMIAL,
    "qpoly.SparsePoly.is_zero": _CYCLOTOMIC_POLYNOMIAL,
    "qpoly.SparsePoly.one": _CYCLOTOMIC_POLYNOMIAL,
}

# Each derives one side's ideal, so no presentation case may share it.
PRESENTATION_DERIVATIONS = {
    "harmonics.buchberger",
    "harmonics._reduce",
    "harmonics.stated_generators",
    "harmonics.elementary_symmetric",
    "harmonics.complete_homogeneous",
    "interpolation.modular_lifts",
    "interpolation.modular_elimination",
    "harmonics._certified",
    "harmonics._cube_basis",
    "harmonics._basis",
}

CASES = [
    ("X", 3, 3, None),
    ("Y", 3, 4, None),
    ("Z", 4, 2, None),
    ("tanisaki", None, None, (2, 1, 1)),
    ("tanisaki", None, None, (2, 2)),
]


GRID_CASES = [
    ("word-bicsp-X", 3, 3, None),
    ("wcomp-csp", 3, 3, None),
    ("necklace-Y", 3, 4, None),
    ("graph-Z", 4, 2, None),
    ("tanisaki-bicsp", None, None, (2, 1, 1)),
]

# The instance's polynomial is never read by a count; built once, outside every profile.
NO_POLYNOMIAL = SparsePoly.zero()


def package_caches() -> list:
    """Every ``lru_cache`` a module of the package holds."""
    return [
        obj
        for name, module in list(sys.modules.items())
        if name.startswith("orbitsieve.")
        for obj in vars(module).values()
        if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
    ]


def entered_by(run) -> set[str]:
    """The dotted names of the package functions ``run()`` enters, from cold caches."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    for cache in package_caches():
        cache.cache_clear()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    names = definitions()
    return {
        names[key]
        for filename, line, name in entered
        if (path := pathlib.Path(filename).resolve()).parent == SOURCE and (key := (path.stem, line, name)) in names
    }


def shared_functions(family, n, k, mu) -> set[str]:
    """What the oracle, building its locus, and the closed form, handed the completed
    parameters, both enter."""
    n, k, mu, _ = locus_parameters(family, n, k, mu)
    oracle = entered_by(lambda: oracle_csp_poly(enumerate_locus(family, n, k, mu=mu), "Sn"))
    return oracle & entered_by(lambda: closed_frobenius(family, n, k, mu))


def test_the_package_has_caches_to_clear():
    caches = package_caches()
    assert orbitsieve.sieving._closed_frobenius in caches and len(caches) > 5


@pytest.mark.parametrize("family,n,k,mu", CASES)
def test_the_oracle_enters_only_listed_functions_of_the_closed_forms(family, n, k, mu):
    assert shared_functions(family, n, k, mu) - set(SHARED_BY_BOTH_SIDES) == set()


def test_every_listed_function_is_shared_in_some_case():
    shared = set().union(*(shared_functions(*case) for case in CASES))
    assert shared == set(SHARED_BY_BOTH_SIDES)


def grid_counts(family, n, k, mu) -> list[int]:
    """Every fixed-point count of the result's grid, from a freshly built locus."""
    locus_family, group = sieving._FAMILIES[family]
    locus = enumerate_locus(locus_family, n, k, mu=mu)
    if group == "rotation":
        inst = word_bicsp_instance(family, locus, Action.position_rotation(n), NO_POLYNOMIAL)
        return [inst.fixed_count(r, s) for r in range(inst.order_q) for s in range(inst.order_t)]
    orbits, order = orbit_set(locus, group), locus.scaling_order
    fixed = sieving._fixed_table(orbits.shift_permutation(locus.scaling_step), list(range(orbits.size)), order, 1)
    return [fixed(r, 0) for r in range(order)]


def shared_by_the_grid(family, n, k, mu) -> set[str]:
    """What the grid counts and the sieving polynomial, both on the completed
    parameters, both enter."""
    n, k, mu, _ = locus_parameters(sieving._FAMILIES[family][0], n, k, mu)
    counts = entered_by(lambda: grid_counts(family, n, k, mu))
    return counts & entered_by(lambda: sieving_polynomial(family, n, k, mu))


@pytest.mark.parametrize("family,n,k,mu", GRID_CASES)
def test_the_grid_counts_enter_only_listed_functions_of_the_polynomials(family, n, k, mu):
    assert shared_by_the_grid(family, n, k, mu) - set(SHARED_BY_COUNTS_AND_POLYNOMIALS) == set()


def test_every_function_listed_for_the_grids_is_shared_in_some_case():
    shared = set().union(*(shared_by_the_grid(*case) for case in GRID_CASES))
    assert shared == set(SHARED_BY_COUNTS_AND_POLYNOMIALS)


PRESENTATION_CASES = [("X", 2, 3), ("Y", 2, 3), ("Y", 3, 4), ("Z", 3, 2), ("Z", 4, 3)]


def shared_by_the_presentation(family, n, k) -> set[str]:
    """What the stated presentation, reduced by Buchberger's algorithm, and the
    associated graded basis of the eliminated point ideal both enter, each side on its
    own locus, built before either side runs."""
    stated_locus, eliminated_locus = enumerate_locus(family, n, k), enumerate_locus(family, n, k)
    stated = entered_by(lambda: buchberger(stated_generators(stated_locus)))
    return stated & entered_by(lambda: associated_graded(vanishing_ideal(eliminated_locus)))


def test_no_derivation_of_a_presentation_is_listed():
    assert PRESENTATION_DERIVATIONS <= set(definitions().values())
    assert PRESENTATION_DERIVATIONS.isdisjoint(SHARED_BY_PRESENTATIONS_AND_ELIMINATION)


@pytest.mark.parametrize("family,n,k", PRESENTATION_CASES)
def test_the_stated_presentation_enters_only_listed_functions_of_the_elimination(family, n, k):
    assert shared_by_the_presentation(family, n, k) - set(SHARED_BY_PRESENTATIONS_AND_ELIMINATION) == set()


def test_every_function_listed_for_the_presentations_is_shared_in_some_case():
    shared = set().union(*(shared_by_the_presentation(*case) for case in PRESENTATION_CASES))
    assert shared == set(SHARED_BY_PRESENTATIONS_AND_ELIMINATION)
