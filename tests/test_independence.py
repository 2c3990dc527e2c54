"""The orbit-harmonics oracle and the closed forms share no working code.

``oracle_csp_poly`` is the independent check of every closed form: it re-derives the
graded Frobenius image from the vanishing ideal of the locus.  That check means
something only while neither side reads the other's results.  For a few small loci,
each side runs alone under ``sys.setprofile`` from the same parameters, with every
``lru_cache`` of the package cleared first and a freshly built locus, so no cache
warmed by the other side hides a call.  Every package function both sides enter must
be listed in ``SHARED_BY_BOTH_SIDES`` with the reason it cannot carry a closed form
into the oracle; a listed function that no case shares fails too, so the list cannot
go stale.
"""

import pathlib
import sys

import pytest

import orbitsieve
from orbitsieve.loci import enumerate_locus, locus_parameters
from orbitsieve.sieving import closed_frobenius, oracle_csp_poly

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

CASES = [
    ("X", 3, 3, None),
    ("Y", 3, 4, None),
    ("Z", 4, 2, None),
    ("tanisaki", None, None, (2, 1, 1)),
    ("tanisaki", None, None, (2, 2)),
]


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
