"""Closed-form sieving polynomials and the brute-force verifiers that check them.

Each supported result pairs a finite set (the words of a locus, or its orbits under a
position subgroup) with one or two commuting cyclic actions and a polynomial whose
root-of-unity evaluations must count fixed points.  The binding convention is fixed
throughout and recorded in every report: q tracks the value-shift action, t tracks the
position action.  Verification is exhaustive and exact: for every group element the
fixed points are counted on the set and compared with the cyclotomic evaluation of the
polynomial, with no numerical tolerance anywhere.  Each generator's image of every
element of the set is computed once, which turns the generator into a permutation of
indices and checks that the set is closed under it (a generator is injective, so
closure under the generators is closure under the group).  A word grid moves the
locus' codes, its words as byte strings (``loci``), and looks each image up among
them; no word tuple is built.  On the cube {1..k}^n that ``enumerate_locus`` builds,
under the value shift and the rotation, both permutations come from base-k digit
arithmetic instead (``loci.cube_index_permutations``): the cube is closed under both,
and no word is built.  Nor is one for an orbit grid whose
labels ``loci.orbit_set`` generates from the parameters of a built locus: under Sn,
and under Cn off tanisaki.  Each orbit of the group is then walked once and its
stabilizer read off: a group element fixes exactly the points of the orbits whose
stabilizer contains it (``_fixed_table``), so no count comes from the polynomial.  A cyclic sieving instance is counted and checked as the
bicyclic one with no position action: its second group is trivial, so its grid is
the one column s = 0, reported as None.

Every polynomial is read off the closed graded Frobenius image of its locus
(``closed_frobenius``): paired with the rotation's fake degrees in t, or restricted to
the invariants of a position subgroup.  One closed form lists tableaux: the tanisaki
image, whose Kostka-Foulkes polynomials sum cocharge over the semistandard tableaux
(``tableaux.kostka_foulkes``).  No other does: (maj, des) counts come from a recursion
in ``tableaux``, the X image's principal specialisations from the hook-content
formula, and q-analogues from quotients of products of (1 - q^a).
``oracle_csp_poly`` derives the Frobenius image from the associated-graded quotient
instead and restricts it the same way, so the closed forms can be cross-checked
against an independent derivation.
"""

from __future__ import annotations

import functools
import gc
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

from .characters import FrobeniusImage, check_subgroup, invariant_hilbert
from .cyclotomic import CycloElement, eval_at_unity
from .errors import DomainError, InternalCheckError
from .harmonics import DEFAULT_MAX_POINTS, DEFAULT_MAX_VARS, graded_frobenius
from .loci import Action, Locus, act_on_words, cube_index_permutations, enumerate_locus, locus_parameters, orbit_set
from .qpoly import SparsePoly, q_binomial
from .tableaux import fake_degree, kostka_foulkes, partitions, principal_specialization, syt_maj_des

# Each result: the locus family it counts and how the Frobenius image is read off,
# either paired with the rotation's fake degrees in t ("rotation") or restricted to
# the invariants of a position subgroup.
_FAMILIES = {
    "word-bicsp-X": ("X", "rotation"),
    "word-bicsp-Y": ("Y", "rotation"),
    "word-bicsp-Z": ("Z", "rotation"),
    "tanisaki-bicsp": ("tanisaki", "rotation"),
    "springer-bicsp": ("springer", "rotation"),
    "wcomp-csp": ("X", "Sn"),
    "subset-csp": ("Y", "Sn"),
    "comp-csp": ("Z", "Sn"),
    "necklace-X": ("X", "Cn"),
    "necklace-Y": ("Y", "Cn"),
    "necklace-Z": ("Z", "Cn"),
    "graph-X": ("X", "Hr"),
    "graph-Y": ("Y", "Hr"),
    "graph-Z": ("Z", "Hr"),
    "tanisaki-trivial": ("tanisaki", "Sn"),
    "tanisaki-necklace": ("tanisaki", "Cn"),
    "tanisaki-graph": ("tanisaki", "Hr"),
}
SIEVING_FAMILIES = tuple(_FAMILIES)

_BINDING_NOTE = "binding: q is evaluated on the value-shift side, t on the position side"
_Y_CONVENTION_NOTE = (
    "each shape contributes its fake degree in q times the same fake degree in t; "
    "the orientation is pinned by the asymmetric rows of the verification grid"
)


def normalize_family(name: str) -> str:
    """Resolve a result identifier, accepting an optional 'thm-' prefix."""
    base = name[4:] if name.startswith("thm-") else name
    if base not in SIEVING_FAMILIES:
        raise DomainError(f"unknown sieving family {name!r}")
    return base


# -- polynomial constructors ------------------------------------------------------------


def closed_frobenius(family: str, n: int, k: int, mu=None) -> FrobeniusImage:
    """The graded Frobenius image of R/gr I(X) for a locus family, in closed form: a
    read-only mapping from each shape of n to its nonzero coefficient, in
    ``partitions(n)`` order.  The image is cached, and every later call returns it.

    X: s_lambda(1, q, ..., q^(k-1)) by the hook-content formula.  Y: [k choose n]_q
    f^lambda(q).  Z: sum over T in SYT(lambda) of q^maj(T) [n-des(T)-1 choose n-k]_q.
    tanisaki: the modified Kostka-Foulkes polynomials of mu.  springer: Y with k = n.
    ``mu`` is read as a tuple before the cache lookup, so a list and a tuple share
    one entry.
    """
    return _closed_frobenius(family, n, k, None if mu is None else tuple(mu))


@functools.lru_cache(maxsize=None)
def _closed_frobenius(family: str, n: int, k: int, mu: tuple[int, ...] | None) -> FrobeniusImage:
    if family == "X":
        coeffs = {lam: principal_specialization(lam, k) for lam in partitions(n)}
    elif family == "Z":
        coeffs = {lam: SparsePoly.zero() for lam in partitions(n)}
        for lam in coeffs:
            for (maj, des), count in syt_maj_des(lam):
                coeffs[lam] = coeffs[lam] + SparsePoly.monomial(maj, 0, count) * q_binomial(n - des - 1, n - k)
    elif family == "tanisaki":
        coeffs = {lam: kostka_foulkes(lam, mu) for lam in partitions(n)}
    elif family in ("Y", "springer"):
        factor = q_binomial(n if family == "springer" else k, n)
        coeffs = {lam: factor * fake_degree(lam) for lam in partitions(n)}
    else:
        raise DomainError(f"no closed Frobenius image for family {family!r}")
    return MappingProxyType({lam: c for lam, c in coeffs.items() if c})


def _check_counting_poly(p: SparsePoly) -> SparsePoly:
    for coeff in p.terms.values():
        if coeff < 0:
            raise InternalCheckError("sieving polynomial has a negative coefficient")
    return p


def sieving_polynomial(family: str, n=None, k=None, mu=None, a=None) -> SparsePoly:
    """The closed-form polynomial attached to one sieving result.

    Bivariate families produce polynomials in q and t; single-action families are
    univariate in q.  Coefficients are nonnegative integers, and the value at
    q = t = 1 is the cardinality of the underlying set.  The parameters are those of
    the result's locus family, checked by ``locus_parameters`` (so a tanisaki mu may
    have zero parts, and its n and k may be left out), and a position subgroup by
    ``check_subgroup``.
    """
    family = normalize_family(family)
    locus_family, group = _FAMILIES[family]
    n, k, mu, _ = locus_parameters(locus_family, n, k, mu, a)
    if group != "rotation":
        check_subgroup(group, n)
    frob = closed_frobenius(locus_family, n, k, mu)
    if group == "rotation":
        return _check_counting_poly(
            sum((c * fake_degree(lam).swap_q_to_t() for lam, c in frob.items()), SparsePoly.zero())
        )
    return _check_counting_poly(invariant_hilbert(frob, group, n))


# -- instances and reports --------------------------------------------------------------


@dataclass(eq=False)
class SievingInstance:
    """A finite set, its cyclic action(s), and the polynomial that should count them.

    ``fixed_count(r, s)`` counts the points fixed by the r-th power of the value
    action and the s-th power of the position action.  A single-action instance has
    no position action: its ``order_t`` is None, and it is asked at s = 0.
    """

    family: str
    params: dict
    polynomial: SparsePoly
    order_q: int
    fixed_count: Callable[[int, int], int]
    binding: dict
    order_t: int | None = None
    notes: tuple[str, ...] = ()

    @property
    def bivariate(self) -> bool:
        return self.order_t is not None

    @property
    def size(self) -> int:
        return self.fixed_count(0, 0)


@dataclass
class Report:
    """Outcome of verifying one sieving instance, row by row."""

    family: str
    params: dict
    binding: dict
    rows: list[dict]
    all_ok: bool
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "binding": self.binding,
            "rows": [dict(row) for row in self.rows],
            "all_ok": self.all_ok,
            "notes": list(self.notes),
        }


def _value_field(value: CycloElement) -> int | str:
    if value.is_integer():
        return value.as_int()
    return "non-integer: " + repr(value)


def _shift_binding(step: int, order: int) -> dict:
    return {"action": "value-shift", "step": step, "order": order}


def _fixed_table(a: list[int], b: list[int], p: int, q: int) -> Callable[[int, int], int]:
    """``fixed(r, s)``: how many indices b^s a^r fixes, for index permutations a and b
    with a^p = b^q = 1 that commute (checked first, in one C-level pass).

    The group is abelian, so b^s a^r fixes all of an orbit of <a, b> or none of it:
    all of it exactly when (r, s) stabilizes the orbit's first index i0.  Each orbit
    is walked once: the b-cycle of i0, then a until a^r0(i0) = b^t0(i0) falls back
    into that cycle, marking the r0 b-cycles met on the way.  The stabilizer is
    then the cosets (m r0, -m t0 mod |cycle|), and the orbit has r0 |cycle| points.
    """
    if list(map(a.__getitem__, b)) != list(map(b.__getitem__, a)):
        raise DomainError("the two actions do not commute on this set")
    table = [[0] * q for _ in range(p)]
    seen = bytearray(len(a))
    for i0 in range(len(a)):
        if seen[i0]:
            continue
        cycle, j = {}, i0  # each point of the b-cycle of i0, with its step from i0
        while j not in cycle:
            cycle[j] = len(cycle)
            j = b[j]
        layer, j, r0 = list(cycle), a[i0], 1
        while True:
            for x in layer:
                seen[x] = 1
            if j in cycle:
                break
            layer, j, r0 = list(map(a.__getitem__, layer)), a[j], r0 + 1
        c, t0 = len(cycle), cycle[j]
        for m in range(p // r0):
            row = table[m * r0]
            for s in range(-m * t0 % c, q, c):
                row[s] += r0 * c

    def fixed(r: int, s: int) -> int:
        if r < 0 or s < 0:
            raise DomainError("negative action power")
        return table[r % p][s % q]

    return fixed


def _lazy_table(permutations: Callable[[], tuple[list[int], list[int]]], p: int, q: int) -> Callable[[int, int], int]:
    """``_fixed_table`` on the two index permutations ``permutations()`` makes, on the first count."""

    @functools.cache
    def table() -> Callable[[int, int], int]:
        return _fixed_table(*permutations(), p, q)

    return lambda r, s: table()(r, s)


def _notes(locus: Locus, notes) -> tuple[str, ...]:
    empty = ("the parameter range admits no words; every row checks 0 = 0",) if locus.infeasible else ()
    return (_BINDING_NOTE,) + tuple(notes) + empty


def word_bicsp_instance(
    family: str,
    locus: Locus,
    position_action: Action,
    polynomial: SparsePoly,
    notes: tuple[str, ...] = (),
) -> SievingInstance:
    """Bivariate instance on the words of a locus, with an arbitrary position action.

    The value side is always the canonical shift preserving the locus; callers choose
    the position side (the long rotation for the standard grids, other permutations
    for ad hoc checks).  Each generator moves every code of the locus once
    (``act_on_words``), on the first count, and becomes a permutation of word indices
    by one dictionary lookup per image; closure under both
    generators is closure under every element, as they are injective, and a locus that
    either generator does not preserve is refused.  On a cube under a rotation the
    permutations are computed from the indices alone.
    """
    shift = Action.value_shift(locus.scaling_step, locus.k)
    t_label = "position-permutation" if position_action.kind == "permutation" else "position-rotation"
    t_binding = {"action": t_label, "order": position_action.order}
    if position_action.perm is not None:
        t_binding["perm"] = list(position_action.perm)
    binding = {"q": _shift_binding(locus.scaling_step, shift.order), "t": t_binding}

    def permutations() -> tuple[list[int], list[int]]:
        arithmetic = cube_index_permutations(locus, (shift, position_action))
        if arithmetic is not None:
            return tuple(arithmetic)
        words, n = locus.codes, locus.n
        index = dict(zip(words, range(len(words))))
        out = []
        names = (f"value shift by {locus.scaling_step}", t_label.replace("-", " "))
        for action, name in zip((shift, position_action), names):
            try:
                out.append(list(map(index.__getitem__, act_on_words(action, words, n))))
            except KeyError:
                raise DomainError(f"the {name} does not preserve the locus") from None
        return tuple(out)

    return SievingInstance(
        family,
        locus.describe(),
        polynomial,
        shift.order,
        _lazy_table(permutations, shift.order, position_action.order),
        binding,
        order_t=position_action.order,
        notes=_notes(locus, notes),
    )


def build_instance(family: str, n=None, k=None, mu=None, a=None) -> SievingInstance:
    """Assemble the set, actions, and polynomial for one supported sieving result."""
    family = normalize_family(family)
    polynomial = sieving_polynomial(family, n=n, k=k, mu=mu, a=a)
    locus_family, group = _FAMILIES[family]
    locus = enumerate_locus(locus_family, n, k, mu=mu, a=a)
    if locus_family == "tanisaki":
        notes = (f"the value shift advances every letter by {locus.a} and has order {locus.scaling_order}",)
    else:
        notes = (_Y_CONVENTION_NOTE,) if family == "word-bicsp-Y" else ()
    if group == "rotation":
        return word_bicsp_instance(family, locus, Action.position_rotation(locus.n), polynomial, notes=notes)
    orbits = orbit_set(locus, group)
    step = locus.scaling_step
    order = locus.scaling_order
    params = locus.describe()
    params["group"] = group
    return SievingInstance(
        family,
        params,
        polynomial,
        order,
        _lazy_table(lambda: (orbits.shift_permutation(step), list(range(orbits.size))), order, 1),
        {"q": _shift_binding(step, order)},
        notes=_notes(locus, notes),
    )


# -- verification -------------------------------------------------------------------------


def _verify(inst: SievingInstance) -> Report:
    """Each exponent pair's fixed points against the polynomial at roots of unity."""
    order_t = inst.order_t or 1
    level = math.lcm(inst.order_q, order_t)
    rows = []
    for r in range(inst.order_q):
        for s in range(order_t):
            fixed = inst.fixed_count(r, s)
            value = eval_at_unity(inst.polynomial, level, r=r, s=s, order_q=inst.order_q, order_t=order_t)
            ok = value == fixed
            rows.append(
                {"r": r, "s": s if inst.bivariate else None, "fixed": fixed, "value": _value_field(value), "ok": ok}
            )
    return Report(
        family=inst.family,
        params=inst.params,
        binding=inst.binding,
        rows=rows,
        all_ok=all(row["ok"] for row in rows),
        notes=inst.notes,
    )


def verify_csp(inst: SievingInstance) -> Report:
    """Check a single-action instance: every power's fixed points against q-evaluations."""
    if inst.bivariate:
        raise DomainError("instance carries two actions; use verify_bicsp")
    return _verify(inst)


def verify_bicsp(inst: SievingInstance) -> Report:
    """Check a two-action instance over the full grid of exponent pairs.

    The two actions must commute pointwise on the set; otherwise the product group
    is not defined and the first count rejects the request.
    """
    if not inst.bivariate:
        raise DomainError("instance carries a single action; use verify_csp")
    return _verify(inst)


def verify_family(family: str, n=None, k=None, mu=None, a=None) -> Report:
    """Build the instance for a named result and run the matching verifier.

    Cyclic GC is paused meanwhile, then restored: the codes, index dicts, index
    permutations and count table made here form no cycles, and the few cycles made
    meanwhile wait for the next collection.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        inst = build_instance(family, n=n, k=k, mu=mu, a=a)
        return verify_bicsp(inst) if inst.bivariate else verify_csp(inst)
    finally:
        if enabled:
            gc.enable()


def oracle_csp_poly(
    locus: Locus,
    group: str,
    *,
    max_points: int = DEFAULT_MAX_POINTS,
    max_vars: int = DEFAULT_MAX_VARS,
) -> SparsePoly:
    """Re-derive a CSP polynomial from the locus itself, bypassing the closed forms.

    Computes the graded Frobenius of the associated-graded quotient attached to the
    locus and restricts to the invariants of the chosen position subgroup.  Up to
    the subgroup's order, this is the generating function the sieving results name
    explicitly, so it serves as an independent oracle for every constructor above.
    The subgroup is checked first, so a bad one is refused before any elimination.
    """
    check_subgroup(group, locus.n)
    frob = graded_frobenius(locus, max_points=max_points, max_vars=max_vars)
    return invariant_hilbert(frob, group, locus.n)
