"""Closed-form sieving polynomials and the brute-force verifiers that check them.

Each supported result pairs a finite set (the words of a locus, or its orbits under a
position subgroup) with one or two commuting cyclic actions and a polynomial whose
root-of-unity evaluations must count fixed points.  The binding convention is fixed
throughout and recorded in every report: q tracks the value-shift action, t tracks the
position action.  Verification is exhaustive and exact: for every group element the
fixed points are counted directly and compared with the cyclotomic evaluation of the
polynomial, with no numerical tolerance anywhere.  Each generator's image of every
element of the set is computed once, which turns the generator into a permutation of
indices and checks that the set is closed under it (a generator is injective, so
closure under the generators is closure under the group); every group element is
then counted over the whole set on compositions of those index permutations.

``oracle_csp_poly`` rebuilds a sieving polynomial from first principles (graded
Frobenius of the associated-graded quotient, restricted to subgroup invariants) so the
closed forms above can be cross-checked against an independent derivation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .characters import invariant_hilbert
from .cyclotomic import CycloElement, eval_at_unity
from .errors import DomainError, InternalCheckError
from .harmonics import DEFAULT_MAX_POINTS, DEFAULT_MAX_VARS, graded_frobenius
from .loci import Action, Locus, apply_action, enumerate_locus, fixed_points, orbit_set, symmetry_steps
from .qpoly import SparsePoly, q_binomial, q_multinomial
from .tableaux import (
    count_maj_divisible,
    fake_degree,
    generate_syt,
    is_even_partition,
    kostka_foulkes,
    kostka_number,
    m_of,
    maj_des,
    partitions,
    partitions_in_box,
)

BICSP_FAMILIES = (
    "word-bicsp-X",
    "word-bicsp-Y",
    "word-bicsp-Z",
    "tanisaki-bicsp",
    "springer-bicsp",
)
CSP_FAMILIES = (
    "wcomp-csp",
    "subset-csp",
    "comp-csp",
    "necklace-X",
    "necklace-Y",
    "necklace-Z",
    "graph-X",
    "graph-Y",
    "graph-Z",
    "tanisaki-trivial",
    "tanisaki-necklace",
    "tanisaki-graph",
)
SIEVING_FAMILIES = BICSP_FAMILIES + CSP_FAMILIES

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


def _content_partitions(n: int, k: int):
    """Partitions indexing the content strata of length-n words over {1..k}."""
    return partitions_in_box(n, k - 1)


def _syt_rows(n: int):
    """(maj, des, shape) over all standard tableaux with n cells."""
    for shape in partitions(n):
        for t in generate_syt(shape):
            maj, des = maj_des(t)
            yield maj, des, shape


def _poly_word_x(n: int, k: int) -> SparsePoly:
    total = SparsePoly.zero()
    for mu in _content_partitions(n, k):
        total = total + SparsePoly.monomial(sum(mu)) * q_multinomial(n, m_of(mu, n, k)).swap_q_to_t()
    return total


def _poly_word_y(n: int, k: int) -> SparsePoly:
    total = SparsePoly.zero()
    for lam in partitions(n):
        total = total + fake_degree(lam) * fake_degree(lam).swap_q_to_t()
    return q_binomial(k, n) * total


def _poly_word_z(n: int, k: int) -> SparsePoly:
    total = SparsePoly.zero()
    for lam in partitions(n):
        fd_t = fake_degree(lam).swap_q_to_t()
        for t in generate_syt(lam):
            maj, des = maj_des(t)
            total = total + SparsePoly.monomial(maj) * q_binomial(n - des - 1, n - k) * fd_t
    return total


def _poly_necklace_x(n: int, k: int) -> SparsePoly:
    total = SparsePoly.zero()
    for mu in _content_partitions(n, k):
        fixed_dim = count_maj_divisible(n, content=m_of(mu, n, k))
        total = total + SparsePoly.monomial(sum(mu), 0, fixed_dim)
    return total


def _poly_necklace_y(n: int, k: int) -> SparsePoly:
    total = SparsePoly.zero()
    for lam in partitions(n):
        total = total + fake_degree(lam) * SparsePoly.from_int(count_maj_divisible(n, shape=lam))
    return q_binomial(k, n) * total


def _poly_necklace_z(n: int, k: int) -> SparsePoly:
    total = SparsePoly.zero()
    for lam in partitions(n):
        weight = count_maj_divisible(n, shape=lam)
        if not weight:
            continue
        for t in generate_syt(lam):
            maj, des = maj_des(t)
            total = total + SparsePoly.monomial(maj, 0, weight) * q_binomial(n - des - 1, n - k)
    return total


def _require_even(n: int) -> None:
    if n % 2:
        raise DomainError("matching-stabilizer results need an even number of positions")


def _poly_graph_x(n: int, k: int) -> SparsePoly:
    _require_even(n)
    total = SparsePoly.zero()
    even_shapes = [lam for lam in partitions(n) if is_even_partition(lam)]
    for mu in _content_partitions(n, k):
        content = m_of(mu, n, k)
        weight = sum(kostka_number(lam, content) for lam in even_shapes)
        total = total + SparsePoly.monomial(sum(mu), 0, weight)
    return total


def _poly_graph_y(n: int, k: int) -> SparsePoly:
    _require_even(n)
    total = SparsePoly.zero()
    for lam in partitions(n):
        if is_even_partition(lam):
            total = total + fake_degree(lam)
    return q_binomial(k, n) * total


def _poly_graph_z(n: int, k: int) -> SparsePoly:
    _require_even(n)
    total = SparsePoly.zero()
    for maj, des, shape in _syt_rows(n):
        if is_even_partition(shape):
            total = total + SparsePoly.monomial(maj) * q_binomial(n - des - 1, n - k)
    return total


def _sorted_mu(mu) -> tuple[int, ...]:
    return tuple(sorted((int(c) for c in mu), reverse=True))


def _poly_tanisaki(mu) -> SparsePoly:
    n = sum(mu)
    total = SparsePoly.zero()
    for lam in partitions(n):
        total = total + kostka_foulkes(lam, _sorted_mu(mu)) * fake_degree(lam).swap_q_to_t()
    return total


def _poly_tanisaki_necklace(mu) -> SparsePoly:
    n = sum(mu)
    total = SparsePoly.zero()
    for lam in partitions(n):
        weight = count_maj_divisible(n, shape=lam)
        if weight:
            total = total + kostka_foulkes(lam, _sorted_mu(mu)) * SparsePoly.from_int(weight)
    return total


def _poly_tanisaki_graph(mu) -> SparsePoly:
    n = sum(mu)
    _require_even(n)
    total = SparsePoly.zero()
    for lam in partitions(n):
        if is_even_partition(lam):
            total = total + kostka_foulkes(lam, _sorted_mu(mu))
    return total


def _poly_springer(n: int) -> SparsePoly:
    total = SparsePoly.zero()
    for lam in partitions(n):
        total = total + fake_degree(lam) * fake_degree(lam).swap_q_to_t()
    return total


def _check_counting_poly(p: SparsePoly) -> SparsePoly:
    for coeff in p.terms.values():
        if coeff < 0:
            raise InternalCheckError("sieving polynomial has a negative coefficient")
    return p


def _need_nk(family: str, n, k) -> tuple[int, int]:
    if n is None or k is None:
        raise DomainError(f"family {family!r} needs both n and k")
    if n < 1 or k < 1:
        raise DomainError("n and k must be positive")
    return int(n), int(k)


def _need_mu(family: str, mu) -> tuple[int, ...]:
    if mu is None:
        raise DomainError(f"family {family!r} needs a content vector mu")
    mu = tuple(int(c) for c in mu)
    if not mu or any(c < 1 for c in mu):
        raise DomainError("mu must be a nonempty vector of positive parts")
    return mu


def sieving_polynomial(family: str, n=None, k=None, mu=None, a=None) -> SparsePoly:
    """The closed-form polynomial attached to one sieving result.

    Bivariate families produce polynomials in q and t; single-action families are
    univariate in q.  Coefficients are nonnegative integers, and the value at
    q = t = 1 is the cardinality of the underlying set.
    """
    family = normalize_family(family)
    if family == "springer-bicsp":
        if n is None or n < 1:
            raise DomainError("springer-bicsp needs a positive n")
        if k is not None and k != n:
            raise DomainError("springer-bicsp uses the alphabet {1..n}; omit k or set k = n")
        return _check_counting_poly(_poly_springer(int(n)))
    if family.startswith("tanisaki"):
        mu = _need_mu(family, mu)
        if n is not None and n != sum(mu):
            raise DomainError("n must equal the sum of mu")
        if k is not None and k != len(mu):
            raise DomainError("k must equal the length of mu")
        if a is not None and a not in symmetry_steps(mu):
            raise DomainError(f"mu is not invariant under an index shift by {a}")
        builder = {
            "tanisaki-bicsp": _poly_tanisaki,
            "tanisaki-trivial": lambda _mu: SparsePoly.one(),
            "tanisaki-necklace": _poly_tanisaki_necklace,
            "tanisaki-graph": _poly_tanisaki_graph,
        }[family]
        return _check_counting_poly(builder(mu))
    n, k = _need_nk(family, n, k)
    builder = {
        "word-bicsp-X": _poly_word_x,
        "word-bicsp-Y": _poly_word_y,
        "word-bicsp-Z": _poly_word_z,
        "wcomp-csp": lambda n, k: q_binomial(n + k - 1, n),
        "subset-csp": lambda n, k: q_binomial(k, n),
        "comp-csp": lambda n, k: q_binomial(n - 1, k - 1),
        "necklace-X": _poly_necklace_x,
        "necklace-Y": _poly_necklace_y,
        "necklace-Z": _poly_necklace_z,
        "graph-X": _poly_graph_x,
        "graph-Y": _poly_graph_y,
        "graph-Z": _poly_graph_z,
    }[family]
    return _check_counting_poly(builder(n, k))


# -- instances and reports --------------------------------------------------------------


class SievingInstance:
    """A finite set, its cyclic action(s), and the polynomial that should count them.

    ``fixed_count`` takes one exponent for single-action instances and two (value
    exponent first) for bivariate ones.  ``order_t`` is None exactly in the
    single-action case.
    """

    def __init__(
        self,
        family: str,
        params: dict,
        polynomial: SparsePoly,
        order_q: int,
        fixed_count: Callable[..., int],
        binding: dict,
        order_t: int | None = None,
        notes: tuple[str, ...] = (),
        commutes: Callable[[], bool] | None = None,
    ):
        self.family = family
        self.params = dict(params)
        self.polynomial = polynomial
        self.order_q = order_q
        self.order_t = order_t
        self.fixed_count = fixed_count
        self.binding = binding
        self.notes = tuple(notes)
        self._commutes = commutes

    @property
    def bivariate(self) -> bool:
        return self.order_t is not None

    @property
    def size(self) -> int:
        return self.fixed_count(0, 0) if self.bivariate else self.fixed_count(0)


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


class _Powers:
    """Powers of one permutation of indices, composed on demand.

    Composition stops when the identity comes back, so the order used to reduce
    exponents is the permutation's own, never a declared ``Action.order``.
    """

    def __init__(self, perm: list[int]):
        self._perm = perm
        self._powers = [list(range(len(perm)))]
        self._order: int | None = None

    def __getitem__(self, exponent: int) -> list[int]:
        if exponent < 0:
            raise DomainError("negative action power")
        while self._order is None and len(self._powers) <= exponent:
            power = [self._perm[i] for i in self._powers[-1]]
            if power == self._powers[0]:
                self._order = len(self._powers)
            else:
                self._powers.append(power)
        return self._powers[exponent % self._order if self._order else exponent]


def _word_grid(locus: Locus, action_q: Action, action_t: Action) -> tuple[Callable[..., int], Callable[[], bool]]:
    """``fixed_count`` and the commute check, on the generators as permutations of
    word indices.  Each generator is applied once per word, on first use; closure
    under both generators is closure under every element, as they are injective."""

    @functools.cache
    def generators() -> tuple[_Powers, _Powers]:
        index = {w: i for i, w in enumerate(locus.words)}
        try:
            return tuple(_Powers([index[apply_action(a, w)] for w in locus.words]) for a in (action_q, action_t))
        except KeyError:
            raise InternalCheckError("action does not preserve the locus") from None

    def fixed(r: int, s: int) -> int:
        shifts, moves = generators()
        return fixed_points(map(shifts[r].__getitem__, moves[s]))

    def commutes() -> bool:
        shift, move = (powers[1] for powers in generators())
        return [shift[i] for i in move] == [move[i] for i in shift]

    return fixed, commutes


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
    for ad hoc checks).
    """
    shift = Action.value_shift(locus.scaling_step, locus.k)
    t_label = "position-permutation" if position_action.kind == "permutation" else "position-rotation"
    t_binding = {"action": t_label, "order": position_action.order}
    if position_action.perm is not None:
        t_binding["perm"] = list(position_action.perm)
    binding = {"q": _shift_binding(locus.scaling_step, shift.order), "t": t_binding}
    all_notes = (_BINDING_NOTE,) + tuple(notes)
    if locus.infeasible:
        all_notes = all_notes + ("the parameter range admits no words; every row checks 0 = 0",)
    fixed, commutes = _word_grid(locus, shift, position_action)
    return SievingInstance(
        family,
        locus.describe(),
        polynomial,
        shift.order,
        fixed,
        binding,
        order_t=position_action.order,
        notes=all_notes,
        commutes=commutes,
    )


def _orbit_instance(family: str, locus: Locus, group: str, polynomial: SparsePoly, notes) -> SievingInstance:
    orbits = orbit_set(locus, group)
    step = locus.scaling_step
    order = locus.scaling_order
    params = locus.describe()
    params["group"] = group

    @functools.cache
    def shifts() -> _Powers:
        return _Powers(orbits.shift_permutation(step))

    def fixed(r: int) -> int:
        return fixed_points(shifts()[r])

    all_notes = (_BINDING_NOTE,) + tuple(notes)
    if locus.infeasible:
        all_notes = all_notes + ("the parameter range admits no words; every row checks 0 = 0",)
    return SievingInstance(
        family,
        params,
        polynomial,
        order,
        fixed,
        {"q": _shift_binding(step, order)},
        notes=all_notes,
    )


_ORBIT_TABLE = {
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


def build_instance(family: str, n=None, k=None, mu=None, a=None) -> SievingInstance:
    """Assemble the set, actions, and polynomial for one supported sieving result."""
    family = normalize_family(family)
    polynomial = sieving_polynomial(family, n=n, k=k, mu=mu, a=a)
    if family == "springer-bicsp":
        locus = enumerate_locus("springer", int(n))
        return word_bicsp_instance(family, locus, Action.position_rotation(locus.n), polynomial)
    if family in ("word-bicsp-X", "word-bicsp-Y", "word-bicsp-Z"):
        locus = enumerate_locus(family[-1], int(n), int(k))
        notes = (_Y_CONVENTION_NOTE,) if family == "word-bicsp-Y" else ()
        return word_bicsp_instance(family, locus, Action.position_rotation(locus.n), polynomial, notes=notes)
    if family.startswith("tanisaki"):
        mu_tuple = _need_mu(family, mu)
        locus = enumerate_locus("tanisaki", sum(mu_tuple), len(mu_tuple), mu=mu_tuple, a=a)
        notes = (f"the value shift advances every letter by {locus.a} and has order {locus.scaling_order}",)
        if family == "tanisaki-bicsp":
            return word_bicsp_instance(family, locus, Action.position_rotation(locus.n), polynomial, notes=notes)
        return _orbit_instance(family, locus, _ORBIT_TABLE[family][1], polynomial, notes)
    locus_family, group = _ORBIT_TABLE[family]
    n, k = _need_nk(family, n, k)
    locus = enumerate_locus(locus_family, n, k)
    return _orbit_instance(family, locus, group, polynomial, ())


# -- verification -------------------------------------------------------------------------


def verify_csp(inst: SievingInstance) -> Report:
    """Check a single-action instance: every power's fixed points against q-evaluations."""
    if inst.bivariate:
        raise DomainError("instance carries two actions; use verify_bicsp")
    order = inst.order_q
    rows = []
    for r in range(order):
        fixed = inst.fixed_count(r)
        value = eval_at_unity(inst.polynomial, order, r=r, order_q=order)
        ok = value == fixed
        rows.append({"r": r, "s": None, "fixed": fixed, "value": _value_field(value), "ok": ok})
    return Report(
        family=inst.family,
        params=inst.params,
        binding=inst.binding,
        rows=rows,
        all_ok=all(row["ok"] for row in rows),
        notes=inst.notes,
    )


def verify_bicsp(inst: SievingInstance) -> Report:
    """Check a two-action instance over the full grid of exponent pairs.

    The two actions must commute pointwise on the set; otherwise the product group
    is not defined and the request is rejected.
    """
    if not inst.bivariate:
        raise DomainError("instance carries a single action; use verify_csp")
    if inst._commutes is not None and not inst._commutes():
        raise DomainError("the two actions do not commute on this set")
    level = math.lcm(inst.order_q, inst.order_t)
    rows = []
    for r in range(inst.order_q):
        for s in range(inst.order_t):
            fixed = inst.fixed_count(r, s)
            value = eval_at_unity(inst.polynomial, level, r=r, s=s, order_q=inst.order_q, order_t=inst.order_t)
            ok = value == fixed
            rows.append({"r": r, "s": s, "fixed": fixed, "value": _value_field(value), "ok": ok})
    return Report(
        family=inst.family,
        params=inst.params,
        binding=inst.binding,
        rows=rows,
        all_ok=all(row["ok"] for row in rows),
        notes=inst.notes,
    )


def verify_family(family: str, n=None, k=None, mu=None, a=None) -> Report:
    """Build the instance for a named result and run the matching verifier."""
    inst = build_instance(family, n=n, k=k, mu=mu, a=a)
    return verify_bicsp(inst) if inst.bivariate else verify_csp(inst)


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
    """
    frob = graded_frobenius(locus, max_points=max_points, max_vars=max_vars)
    return invariant_hilbert(frob, group)
