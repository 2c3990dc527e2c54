"""The two sides of each cross-check share no working code.

``oracle_csp_poly`` is the independent check of every closed form: it re-derives the
graded Frobenius image from the vanishing ideal of the locus.  The verifiers check
every sieving polynomial against fixed points counted on the words of the locus.
Each check means something only while neither side reads the other's results.  For
a few small cases, each side runs alone under ``sys.setprofile`` from the same
parameters, with every ``lru_cache`` of the package cleared first and a freshly built
locus, so no cache warmed by the other side hides a call.  Every package function
both sides enter must be listed, in ``SHARED_BY_BOTH_SIDES`` for the oracle and the
closed forms and in ``SHARED_BY_COUNTS_AND_POLYNOMIALS`` for the grids, with the
reason it cannot carry one side's result into the other; a listed function that no
case shares fails too, so neither list can go stale.
"""

import pathlib
import sys

import pytest

import orbitsieve
from orbitsieve import sieving
from orbitsieve.loci import Action, enumerate_locus, locus_parameters, orbit_set
from orbitsieve.qpoly import SparsePoly
from orbitsieve.sieving import closed_frobenius, oracle_csp_poly, sieving_polynomial, word_bicsp_instance

from test_command_reach import SOURCE, definitions

SHARED_BY_BOTH_SIDES = {
    "characters.SchurVector.__init__": "stores a Schur expansion; it computes no coefficient",
    "qpoly.SparsePoly.__init__": "polynomial arithmetic",
    "qpoly.SparsePoly._valid": "polynomial arithmetic",
    "qpoly.SparsePoly.__add__": "polynomial arithmetic",
    "qpoly.SparsePoly.__mul__": "polynomial arithmetic",
    "qpoly.SparsePoly.zero": "polynomial arithmetic",
    "qpoly.SparsePoly.is_zero": "polynomial arithmetic",
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
