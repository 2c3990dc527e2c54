"""The failure details of the criteria: the first bad cell, named exactly."""

import collections
import re
import weakref
from types import SimpleNamespace

import pytest

from orbitsieve import cli, harmonics, loci, sieving, suite, tableaux
from orbitsieve.errors import DomainError
from orbitsieve.qpoly import SparsePoly

BAD_ROW = {"r": 1, "s": 0, "fixed": 2, "value": "3", "ok": False}


@pytest.mark.parametrize(
    "name, failing_family, detail",
    [
        ("word-bicsp-grids", "word-bicsp-Y", "word-bicsp-Y n=1 k=1: row r=1 s=0: fixed 2 vs value 3"),
        ("orbit-csps", "comp-csp", "comp-csp n=1 k=1: row r=1 s=0: fixed 2 vs value 3"),
        ("necklace-graph-csps", "graph-X", "graph-X n=2 k=1: row r=1 s=0: fixed 2 vs value 3"),
        ("tanisaki-sieving", "tanisaki-bicsp", "tanisaki-bicsp mu=(1,) a=1: row r=1 s=0: fixed 2 vs value 3"),
        ("tanisaki-sieving", "tanisaki-necklace", "tanisaki-necklace mu=(1,): row r=1 s=0: fixed 2 vs value 3"),
        ("springer-bicsp", "springer-bicsp", "springer-bicsp n=1: row r=1 s=0: fixed 2 vs value 3"),
    ],
)
def test_first_bad_cell_is_reported(monkeypatch, name, failing_family, detail):
    def fake_verify(family, **params):
        if family == failing_family:
            return SimpleNamespace(all_ok=False, rows=[BAD_ROW])
        return SimpleNamespace(all_ok=True, rows=[])

    monkeypatch.setattr(suite, "verify_family", fake_verify)
    assert suite.run_criterion(name).detail == detail


@pytest.mark.parametrize("clamps, message", [
    ({"max_n": 0}, "the suite clamp max_n must be at least 1, not 0"),
    ({"max_k": -1}, "the suite clamp max_k must be at least 1, not -1"),
    ({"max_n": 2, "max_k": 0}, "the suite clamp max_k must be at least 1, not 0"),
])
def test_clamp_below_one_is_a_usage_error(monkeypatch, clamps, message):
    # Refused before any grid is built: no criterion runs.
    monkeypatch.setattr(suite, "CRITERIA", {name: None for name in suite.CRITERIA})
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        suite.run_criterion("word-bicsp-grids", **clamps)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        suite.run_suite(**clamps)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        suite.run_suite([], **clamps)


def test_unknown_criterion_is_refused():
    message = "unknown suite criterion 'bogus'"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        suite.run_criterion("bogus")
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        suite.run_suite(["orbit-csps", "bogus"], max_n=1, max_k=1)


def test_springer_grid_shape_is_checked(monkeypatch):
    good = {"r": 0, "s": 0, "fixed": 1, "value": "1", "ok": True}
    rows = {1: [good], 2: [good]}  # n=2 should give a 2x2 grid

    def fake_verify(family, n):
        return SimpleNamespace(all_ok=True, rows=rows[n])

    monkeypatch.setattr(suite, "verify_family", fake_verify)
    result = suite.run_criterion("springer-bicsp", max_n=2)
    assert not result.ok
    assert result.detail == "springer-bicsp n=2: unexpected grid shape"


def test_suite_eliminates_each_locus_once(monkeypatch):
    # frobenius-coherence and oracle-coherence read the bases presentations computed.
    monkeypatch.setattr(harmonics, "_BASIS_CACHE", weakref.WeakKeyDictionary())
    monkeypatch.setattr(harmonics, "_FROBENIUS_CACHE", weakref.WeakKeyDictionary())
    calls = []
    compute = harmonics.vanishing_ideal

    def spy(locus, *args, **kwargs):
        calls.append(locus)
        return compute(locus, *args, **kwargs)

    monkeypatch.setattr(harmonics, "vanishing_ideal", spy)
    assert all(result.ok for result in suite.run_suite(max_k=4))
    assert len(calls) == len({repr(locus.describe()) for locus in calls}) == 57


def _count_builds(monkeypatch) -> collections.Counter:
    """Builds of each completed parameter set, counted at the builder."""
    builds = collections.Counter()
    build = loci._build_locus

    def counted(*params):
        builds[params] += 1
        return build(*params)

    monkeypatch.setattr(loci, "_build_locus", counted)
    return builds


def test_a_suite_run_builds_each_locus_once(monkeypatch):
    builds = _count_builds(monkeypatch)
    calls = []
    for module in (suite, sieving):
        enumerate_locus = module.enumerate_locus

        def spy(*args, enumerate_locus=enumerate_locus, **kwargs):
            calls.append(args)
            return enumerate_locus(*args, **kwargs)

        monkeypatch.setattr(module, "enumerate_locus", spy)
    assert all(result.ok for result in suite.run_suite(max_n=3, max_k=3))
    assert set(builds.values()) == {1}
    assert (len(calls), len(builds)) == (227, 39)
    assert loci._SHARED.get() is None


def _built_loci(monkeypatch) -> list:
    """A weak reference to each locus built from here on."""
    refs = []
    build = loci._build_locus

    def kept(*params):
        locus = build(*params)
        refs.append(weakref.ref(locus))
        return locus

    monkeypatch.setattr(loci, "_build_locus", kept)
    return refs


def test_no_locus_outlives_the_run(monkeypatch):
    # Every criterion: the harmonics memos keep no locus, so their entries go with the run.
    harmonics._BASIS_CACHE.clear()
    harmonics._FROBENIUS_CACHE.clear()
    refs = _built_loci(monkeypatch)
    assert all(result.ok for result in suite.run_suite(max_n=3, max_k=3))
    assert len(refs) == 39 and not any(ref() for ref in refs)
    assert len(harmonics._BASIS_CACHE) == len(harmonics._FROBENIUS_CACHE) == 0


def test_no_locus_outlives_a_criterion_that_raises(monkeypatch):
    refs = _built_loci(monkeypatch)
    verify = suite.verify_family

    def failing(family, **params):
        if len(refs) == 5:
            raise RuntimeError("a fault mid-run")
        return verify(family, **params)

    monkeypatch.setattr(suite, "verify_family", failing)
    with pytest.raises(RuntimeError, match="^a fault mid-run$"):
        suite.run_suite(["word-bicsp-grids"], max_n=3, max_k=3)
    assert len(refs) == 5 and not any(ref() for ref in refs)
    assert loci._SHARED.get() is None


def test_each_criterion_of_a_run_reads_the_run_s_loci(monkeypatch):
    seen = []

    def criterion(max_n, max_k):
        seen.append((loci._SHARED.get(), loci.enumerate_locus("Y", 2, 3)))
        return True, "ok"

    monkeypatch.setattr(suite, "CRITERIA", {"first": criterion, "second": criterion})
    suite.run_suite()
    (shared, locus), (shared_again, locus_again) = seen
    assert shared is shared_again and locus is locus_again
    assert shared == {("Y", 2, 3, None, None): locus}
    # A criterion run on its own has loci of its own, dropped when it returns.
    suite.run_criterion("first")
    assert seen[2][0] is not shared and seen[2][1] is not locus
    assert loci._SHARED.get() is None


def test_oracle_enumerates_each_locus_once(monkeypatch):
    calls = []
    enumerate_locus = suite.enumerate_locus

    def spy(family, n, k=None, **kwargs):
        calls.append((family, n, k, kwargs.get("mu")))
        return enumerate_locus(family, n, k, **kwargs)

    monkeypatch.setattr(suite, "enumerate_locus", spy)
    result = suite.run_criterion("oracle-coherence")
    assert (result.ok, result.detail) == (True, "157 oracle comparisons exact")
    assert len(calls) == len(set(calls))
    assert ("X", 2, 2, None) in calls


def _wrong_closed_frobenius(monkeypatch):
    closed = suite.closed_frobenius

    def wrong(family, n, k, mu=None):
        frob = closed(family, n, k, mu)
        if (family, n, k) != ("Z", 3, 2):
            return frob
        return {lam: c * SparsePoly.monomial(1) for lam, c in frob.items()}

    monkeypatch.setattr(suite, "closed_frobenius", wrong)


def _wrong_oracle(monkeypatch):
    oracle = suite.oracle_csp_poly

    def wrong(locus, group, **budgets):
        poly = oracle(locus, group, **budgets)
        return poly + SparsePoly.monomial(1) if (locus.family, locus.n, locus.k, group) == ("Y", 2, 3, "Cn") else poly

    monkeypatch.setattr(suite, "oracle_csp_poly", wrong)


def _wrong_stated_generators(monkeypatch):
    stated = harmonics.stated_generators

    def wrong(locus):
        gens = stated(locus)
        return gens[1:] if (locus.family, locus.n, locus.k) == ("Z", 3, 2) else gens

    monkeypatch.setattr(harmonics, "stated_generators", wrong)


def _wrong_at(name, wrong_for, change):
    """Perturb ``suite.<name>``: its result for the arguments ``wrong_for`` accepts is changed."""

    def perturb(monkeypatch):
        real = getattr(suite, name)

        def wrong(*args):
            result = real(*args)
            return change(result) if wrong_for(*args) else result

        monkeypatch.setattr(suite, name, wrong)

    return perturb


@pytest.mark.parametrize(
    "name, perturb, detail",
    [
        ("frobenius-coherence", _wrong_closed_frobenius, "Frobenius mismatch for {'family': 'Z', 'n': 3, 'k': 2}"),
        ("oracle-coherence", _wrong_oracle, "oracle mismatch for {'family': 'Y', 'n': 2, 'k': 3} under Cn"),
        ("presentations", _wrong_stated_generators, "presentation Z n=3 k=2 does not match"),
        (
            "property-suites",
            _wrong_at("fake_degree", lambda lam: lam == (2, 1), lambda poly: poly + 1),
            "fake degree of (2, 1) disagrees with the maj sum over SYT",
        ),
        (
            "property-suites",
            _wrong_at("rsk", lambda w: w == (2, 1), lambda pq: suite.rsk((1, 2))),
            "rsk does not preserve maj on (2, 1)",
        ),
        (
            "property-suites",
            _wrong_at("kostka_foulkes", lambda lam, mu: lam == (2, 1), lambda poly: poly + 1),
            "Kostka-Foulkes at content 1^3 disagrees for (2, 1)",
        ),
        (
            "property-suites",
            _wrong_at("cyclotomic_polynomial", lambda d: d == 6, lambda coeffs: (coeffs[0] + 1,) + tuple(coeffs[1:])),
            "cyclotomic factors of x^6 - 1 do not multiply back",
        ),
        (
            "property-suites",
            _wrong_at(
                "cyclo_field",
                lambda level: level == 6,
                lambda field: SimpleNamespace(zero=field.zero, root_power=lambda j: field.root_power(j + 1)),
            ),
            "power sum at L=6 m=0 is not 6",
        ),
        (
            "property-suites",
            _wrong_at("subgroup_elements", lambda group, n: (group, n) == ("Cn", 3), lambda perms: perms + perms[1:2]),
            "Burnside sum not divisible for X n=3 k=2 Cn",
        ),
        (
            "property-suites",
            _wrong_at(
                "orbit_set",
                lambda locus, group: (locus.family, locus.n, locus.k, group) == ("Y", 3, 3, "Cn"),
                lambda orbits: SimpleNamespace(size=orbits.size + 1),
            ),
            "Burnside count mismatch for Y n=3 k=3 Cn",
        ),
    ],
)
def test_wrong_answer_fails_its_criterion_and_the_cli(monkeypatch, capsys, name, perturb, detail):
    perturb(monkeypatch)
    result = suite.run_criterion(name, max_k=4)
    assert not result.ok
    assert result.detail == detail
    assert cli.main(["suite", "--max-k", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if not line.startswith("PASS ")]
    assert failed == [f"FAIL {name}: {detail}", "FAILED: some criteria did not pass"]


@pytest.fixture
def fresh_tableau_caches(monkeypatch):
    """Empty the caches a perturbed tableau source could fill, before and after."""
    caches = (tableaux.fake_degree, tableaux._kostka_foulkes)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


_FAKE_DEGREE_FAILS = "fake degree of (1,) disagrees with the maj sum over SYT"


@pytest.mark.parametrize(
    "source, wrong, detail",
    [
        # The enumerated side of the fake-degree check: the hook formula must not follow it.
        ("generate_ssyt", lambda real, *args: real(*args)[:-1], _FAKE_DEGREE_FAILS),
        # The hook formula: the maj sum over SYT must not follow it.
        ("q_product_quotient", lambda real, *args: real(*args) + 1, _FAKE_DEGREE_FAILS),
        # The cocharge sum: Kostka-Foulkes at 1^n must not be read off the fake degree.
        ("cocharge", lambda real, *args: real(*args) + 1, "Kostka-Foulkes at content 1^1 disagrees for (1,)"),
    ],
)
def test_property_checks_compare_independent_derivations(monkeypatch, fresh_tableau_caches, source, wrong, detail):
    """Break one side of a tableau identity at its source: its check must fail, which it
    would not if the other side were derived from the same source."""
    real = getattr(tableaux, source)
    monkeypatch.setattr(tableaux, source, lambda *args: wrong(real, *args))
    result = suite.run_criterion("property-suites", max_n=3, max_k=2)
    assert (result.ok, result.detail) == (False, detail)
