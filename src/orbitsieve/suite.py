"""The acceptance matrix: every supported identity verified over its full desk-scale grid.

Nine criteria cover the three word biCSPs, the orbit/necklace/graph CSPs, the
fixed-content and permutation biCSPs, the quotient-ring presentations, the graded
Frobenius expansions, the independent oracle, and a battery of combinatorial
identities the rest of the library leans on.  Every check is exact; a criterion
fails on its first discrepancy and reports the offending cell.

``run_suite`` is what both the command-line ``suite`` subcommand and the acceptance
tests call; ``--max-n``/``--max-k`` clamp the grids without changing their shape.

Many criteria read the same locus: the X cube of a word grid is the one of the
necklace grid, the presentation and the oracle.  ``run_suite`` and ``run_criterion``
each run inside ``loci._shared_loci``, so every locus is built and checked once per
run (a criterion run alone is its own run) and all of its readings share it, the
harmonics memos, which are keyed by the locus object, among them.  The run's loci are
dropped when it ends, raised or not, and the memo entries go with them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .characters import subgroup_elements
from .cyclotomic import cyclo_field, cyclotomic_polynomial
from .errors import DomainError
from .harmonics import DEFAULT_MAX_POINTS, graded_frobenius, verify_presentation
from .loci import _shared_loci, enumerate_locus, fixed_words, orbit_set, symmetry_steps
from .qpoly import SparsePoly
from .sieving import _FAMILIES, closed_frobenius, oracle_csp_poly, sieving_polynomial, verify_family
from .tableaux import (
    compositions,
    fake_degree,
    generate_syt,
    kostka_foulkes,
    partitions,
    rsk,
    tableau_maj_des,
    word_maj_des,
)


@dataclass
class SuiteResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _cap(limit: int, override: int | None) -> int:
    return limit if override is None else min(limit, override)


def _bad_cell(report) -> str:
    row = next(r for r in report.rows if not r["ok"])
    return f"row r={row['r']} s={row['s']}: fixed {row['fixed']} vs value {row['value']}"


def _verify_grids(cells, shape_ok=None):
    """Verify each (family, params) cell in order; stop at the first bad row.

    A cell is labelled by its family and ``key=value`` parameters; ``shape_ok``, when
    given, must also accept each passing report.
    """
    grids = rows = 0
    for family, params in cells:
        label = " ".join([family] + [f"{key}={value}" for key, value in params.items()])
        report = verify_family(family, **params)
        if not report.all_ok:
            return False, f"{label}: {_bad_cell(report)}"
        if shape_ok is not None and not shape_ok(params, report):
            return False, f"{label}: unexpected grid shape"
        grids += 1
        rows += len(report.rows)
    return True, f"{grids} grids, {rows} rows exact"


# -- criterion 1: word biCSP grids --------------------------------------------------------


def _crit_word_bicsp(max_n, max_k):
    cells = []
    for n in range(1, _cap(4, max_n) + 1):
        cells += [("word-bicsp-X", {"n": n, "k": k}) for k in range(1, _cap(4, max_k) + 1)]
        cells += [("word-bicsp-Y", {"n": n, "k": k}) for k in range(1, _cap(6, max_k) + 1)]
    for n in range(1, _cap(6, max_n) + 1):
        cells += [("word-bicsp-Z", {"n": n, "k": k}) for k in range(1, _cap(n, max_k) + 1)]
    return _verify_grids(cells)


# -- criterion 2: orbit CSPs under the full position group --------------------------------


def _crit_orbit_csps(max_n, max_k):
    return _verify_grids(
        (family, {"n": n, "k": k})
        for family in ("wcomp-csp", "subset-csp", "comp-csp")
        for n in range(1, _cap(6, max_n) + 1)
        for k in range(1, _cap(6, max_k) + 1)
    )


# -- criterion 3: necklace and graph CSPs --------------------------------------------------


def _crit_necklace_graph(max_n, max_k):
    cells = []
    for suffix in ("X", "Y", "Z"):
        for n in range(1, _cap(6, max_n) + 1):
            for k in range(1, _cap(5, max_k) + 1):
                cells.append(("necklace-" + suffix, {"n": n, "k": k}))
                if n % 2 == 0:
                    cells.append(("graph-" + suffix, {"n": n, "k": k}))
    return _verify_grids(cells)


# -- criterion 4: fixed-content sieving ----------------------------------------------------


def _tanisaki_mu_grid(max_n, max_k):
    for n in range(1, _cap(6, max_n) + 1):
        for k in range(1, _cap(4, max_k) + 1):
            yield from compositions(n, k)


def _crit_tanisaki(max_n, max_k):
    cells = []
    for mu in _tanisaki_mu_grid(max_n, max_k):
        cells += [("tanisaki-bicsp", {"mu": mu, "a": a}) for a in symmetry_steps(mu)]
        examples = ["tanisaki-trivial", "tanisaki-necklace"] + (["tanisaki-graph"] if sum(mu) % 2 == 0 else [])
        cells += [(family, {"mu": mu}) for family in examples]
    return _verify_grids(cells)


# -- criterion 5: permutation-word biCSP ---------------------------------------------------


def _crit_springer(max_n, max_k):
    def shape_ok(params, report):
        n = params["n"]
        return len(report.rows) == n * n and report.rows[0]["fixed"] == math.factorial(n)

    return _verify_grids((("springer-bicsp", {"n": n}) for n in range(1, _cap(5, max_n) + 1)), shape_ok)


# -- criterion 6: quotient presentations ---------------------------------------------------


def _crit_presentations(max_n, max_k):
    cells = []
    for n in range(1, _cap(3, max_n) + 1):
        cells += [("X", n, k) for k in range(1, _cap(3, max_k) + 1)]
        cells += [("Y", n, k) for k in range(n, _cap(5, max_k) + 1)]
    for n in range(1, _cap(4, max_n) + 1):
        cells += [("Z", n, k) for k in range(1, _cap(n, max_k) + 1)]
    checked = 0
    for family, n, k in cells:
        if not verify_presentation(enumerate_locus(family, n, k)):
            return False, f"presentation {family} n={n} k={k} does not match"
        checked += 1
    return True, f"{checked} presentations match"


# -- criterion 7: graded Frobenius against the stated expansions ---------------------------


def _crit_frobenius(max_n, max_k):
    cells = []
    for n in range(1, _cap(3, max_n) + 1):
        cells += [("X", n, k, None) for k in range(1, _cap(3, max_k) + 1)]
        cells += [("Y", n, k, None) for k in range(n, _cap(6, max_k) + 1)]
    for n in range(1, _cap(4, max_n) + 1):
        cells += [("Z", n, k, None) for k in range(1, _cap(n, max_k) + 1)]
    for n in range(1, _cap(5, max_n) + 1):
        cells += [("tanisaki", n, len(mu), mu) for mu in partitions(n) if len(mu) <= _cap(5, max_k)]
    for family, n, k, mu in cells:
        locus = enumerate_locus(family, n, k, mu=mu)
        if graded_frobenius(locus) != closed_frobenius(family, n, k, mu):
            return False, f"Frobenius mismatch for {locus.describe()}"
    return True, f"{len(cells)} Schur expansions match"


# -- criterion 8: independent oracle vs closed forms ---------------------------------------


# The sieving result each (locus family, position subgroup) oracle polynomial must equal.
_CLOSED_FORMS = {cell: family for family, cell in _FAMILIES.items()}


def _crit_oracle(max_n, max_k):
    """Each locus is enumerated once and compared under every group of its cell:
    Sn for k <= 6, Cn and (for even n) Hr for k <= 5, all three for tanisaki."""
    cells = []
    for n in range(1, _cap(4, max_n) + 1):
        cyclic = ["Cn", "Hr"] if n % 2 == 0 else ["Cn"]
        for k in range(1, _cap(6, max_k) + 1):
            groups = ["Sn"] + (cyclic if k <= _cap(5, max_k) else [])
            present = (("X", k**n <= DEFAULT_MAX_POINTS), ("Y", k >= n), ("Z", k <= n))
            cells += [(family, n, k, None, groups) for family, keep in present if keep]
    for mu in _tanisaki_mu_grid(_cap(4, max_n), max_k):
        cells.append(("tanisaki", sum(mu), None, mu, ["Sn", "Cn"] + (["Hr"] if sum(mu) % 2 == 0 else [])))
    compared = 0
    for family, n, k, mu, groups in cells:
        locus = enumerate_locus(family, n, k, mu=mu)
        params = {"mu": mu} if mu else {"n": n, "k": k}
        for group in groups:
            if oracle_csp_poly(locus, group) != sieving_polynomial(_CLOSED_FORMS[family, group], **params):
                return False, f"oracle mismatch for {locus.describe()} under {group}"
            compared += 1
    return True, f"{compared} oracle comparisons exact"


# -- criterion 9: property suites -----------------------------------------------------------


def _syt_maj_generating_function(lam):
    out = SparsePoly.zero()
    for t in generate_syt(lam):
        out = out + SparsePoly.monomial(tableau_maj_des(t)[0])
    return out


def _crit_properties(max_n, max_k):
    checks = 0
    for n in range(1, _cap(7, max_n) + 1):
        for lam in partitions(n):
            if fake_degree(lam) != _syt_maj_generating_function(lam):
                return False, f"fake degree of {lam} disagrees with the maj sum over SYT"
            checks += 1
    for n in range(1, _cap(5, max_n) + 1):
        for k in range(1, _cap(3, max_k) + 1):
            locus = enumerate_locus("X", n, k)
            for w in locus.words:
                _, recording = rsk(w)
                if word_maj_des(w)[0] != tableau_maj_des(recording)[0]:
                    return False, f"rsk does not preserve maj on {w}"
                checks += 1
    for n in range(1, _cap(5, max_n) + 1):
        for lam in partitions(n):
            if kostka_foulkes(lam, (1,) * n) != fake_degree(lam):
                return False, f"Kostka-Foulkes at content 1^{n} disagrees for {lam}"
            checks += 1
    for level in range(1, 31):
        product = SparsePoly.one()
        for d in range(1, level + 1):
            if level % d == 0:
                product = product * SparsePoly({(i, 0): c for i, c in enumerate(cyclotomic_polynomial(d))})
        if product != SparsePoly({(0, 0): -1, (level, 0): 1}):
            return False, f"cyclotomic factors of x^{level} - 1 do not multiply back"
        field = cyclo_field(level)
        for m in (0, 1, level // 2, level, level + 3):
            total = field.zero
            for j in range(level):
                total = total + field.root_power(j * m)
            expected_sum = level if m % level == 0 else 0
            if not (total.is_integer() and total.as_int() == expected_sum):
                return False, f"power sum at L={level} m={m} is not {expected_sum}"
        checks += 1
    # Burnside counts the words each element fixes: on every X, Y and Z with n, k <= 4 it
    # cross-checks the labels orbit_set generates from the parameters (Sn, Cn, and Hr
    # on the cube) and the Hr labels it reads off the words of Y and Z.
    for n in range(1, _cap(4, max_n) + 1):
        for k in range(1, _cap(4, max_k) + 1):
            for family in ("X", "Y", "Z"):
                locus = enumerate_locus(family, n, k)
                groups = ["Sn", "Cn"] + (["Hr"] if n % 2 == 0 else [])
                for group in groups:
                    elements = subgroup_elements(group, n)
                    total = sum(fixed_words(perm, locus.codes) for perm in elements)
                    if total % len(elements):
                        return False, f"Burnside sum not divisible for {family} n={n} k={k} {group}"
                    if total // len(elements) != orbit_set(locus, group).size:
                        return False, f"Burnside count mismatch for {family} n={n} k={k} {group}"
                    checks += 1
    return True, f"{checks} property checks exact"


CRITERIA = {
    "word-bicsp-grids": _crit_word_bicsp,
    "orbit-csps": _crit_orbit_csps,
    "necklace-graph-csps": _crit_necklace_graph,
    "tanisaki-sieving": _crit_tanisaki,
    "springer-bicsp": _crit_springer,
    "presentations": _crit_presentations,
    "frobenius-coherence": _crit_frobenius,
    "oracle-coherence": _crit_oracle,
    "property-suites": _crit_properties,
}


def _check_clamps(max_n: int | None, max_k: int | None) -> None:
    """Refuse a clamp below 1, which would empty every grid and check nothing."""
    for value, name in ((max_n, "max_n"), (max_k, "max_k")):
        if value is not None and value < 1:
            raise DomainError(f"the suite clamp {name} must be at least 1, not {value}")


def run_criterion(name: str, max_n: int | None = None, max_k: int | None = None) -> SuiteResult:
    if name not in CRITERIA:
        raise DomainError(f"unknown suite criterion {name!r}")
    _check_clamps(max_n, max_k)
    start = time.perf_counter()
    with _shared_loci():
        ok, detail = CRITERIA[name](max_n, max_k)
    return SuiteResult(name, ok, detail, time.perf_counter() - start)


def run_suite(names=None, max_n: int | None = None, max_k: int | None = None) -> list[SuiteResult]:
    """Run the acceptance criteria in order, optionally clamping every grid to
    n <= max_n and k <= max_k, each at least 1."""
    _check_clamps(max_n, max_k)
    chosen = list(CRITERIA) if names is None else list(names)
    with _shared_loci():
        return [run_criterion(name, max_n=max_n, max_k=max_k) for name in chosen]
