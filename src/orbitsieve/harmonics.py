"""Orbit harmonics: vanishing ideals of word loci and their graded quotients.

Words are embedded as points with root-of-unity coordinates (letter j becomes
zeta_k^j), so value shifts act by scaling and position permutations by permuting
coordinates.  The vanishing ideal I(X) comes from Buchberger-Moller interpolation
(``interpolation``): elimination over F_p for primes p = 1 mod k, with a
primitive k-th root of unity mod p standing in for zeta_k.  A locus closed under
scaling its letters by every unit mod k has a rational basis, and one root per
prime gives it; any other locus is eliminated once for each primitive root and
interpolated at those roots.  CRT over primes and rational reconstruction lift
the coefficients to Q(zeta_k).  A lifted basis is returned only after an exact
certificate here (monic generators with standard tails, each generator within
one eigenclass of the value shift, antichain leads, |X| standard monomials,
vanishing at every value-shift orbit representative), which proves it is the
reduced one.  If none of the first ``interpolation.MODULAR_PRIMES`` split primes
yields a certified basis, ResourceBudgetError names that prime budget.  On the cube
{1..k}^n that ``enumerate_locus`` builds for X(n, k) (``loci._is_cube``), the basis
x_i^k - 1 is known beforehand (``_cube_basis``); it passes the same certificate, and
no elimination runs.  A locus handed the words of a cube is eliminated like any
other, and gives the same basis.  Each generator is a ``Generator``, a mapping from
exponent tuples to nonzero coefficients; ``GroebnerBasis.gens`` holds read-only views.

Under grevlex the top-degree components of the reduced basis of I(X) are already
the reduced basis of the associated graded ideal T(X), so no second Groebner
pass is needed.  The standard monomials of T(X) (``GroebnerBasis.quotient_basis``,
a plain tuple of levels, one per degree) give the Hilbert series, and their
permutation traces give the graded Frobenius image.  The traces are read modulo
a split prime: S_n preserves the locus (checked), so each is an integer no larger
than its piece's dimension, and every class' traces must add up to the words its
permutation fixes.  The normal forms behind them (``GroebnerBasis``) walk the
packed exponents of ``interpolation.PackedMonomials``, at a width each basis
fixes when it is built.  Buchberger's algorithm remains inside
``verify_presentation``, with no budget of its own, for the stated presentations,
which are given by generators rather than by points.  It takes pairs least lcm
first and skips those that coprime leads or the chain criterion prove redundant
(Buchberger, EUROSAM 1979; Gebauer and Moller, J. Symb. Comput. 6, 1988).

A point-ideal basis and a graded Frobenius image depend on the locus alone, so each
is kept while its locus lives, in a weak memo keyed by that ``Locus`` object: each
locus's basis is found once however many checks read its quotient, and both go with
the locus.  ``graded_frobenius`` and ``verify_presentation`` check their budgets before
the lookup.  ``vanishing_ideal`` itself is not memoised: every call finds and
certifies its basis afresh.

Every result is exact: modular arithmetic only proposes a basis, which exact
arithmetic certifies.  The monomial order is graded reverse lexicographic
throughout; pivoting is first-nonzero with no size heuristics, so every run is
deterministic.
"""

from __future__ import annotations

import math
import operator
from heapq import heapify, heappop, heappush
from itertools import combinations, combinations_with_replacement
from types import MappingProxyType
from typing import Iterable, Mapping
from weakref import WeakKeyDictionary

from . import interpolation, loci
from .characters import FrobeniusImage, conjugacy_classes, sn_character
from .cyclotomic import CycloElement, CycloField, cyclo_field
from .errors import DomainError, InternalCheckError, ResourceBudgetError
from .interpolation import (
    Exponents,
    PackedMonomials,
    grevlex_key,
    modular_lifts,
    primitive_roots,
    split_primes,
)
from .loci import Action, Locus, act_on_words, fixed_words
from .qpoly import SparsePoly
from .tableaux import partitions

DEFAULT_MAX_POINTS = 720
DEFAULT_MAX_VARS = 5
MAX_QUOTIENT_DIM = 100000

# Standard monomials of a zero-dimensional monomial quotient, one level per degree.
QuotientBasis = tuple[tuple[Exponents, ...], ...]

# A polynomial of a basis: each exponent tuple to its nonzero coefficient.  The library
# only builds, reads and prints these; it does no arithmetic on them.
Generator = Mapping[Exponents, CycloElement]


def _sorted_terms(g: Generator) -> list[tuple[Exponents, CycloElement]]:
    return sorted(g.items(), key=lambda t: grevlex_key(t[0]), reverse=True)


def generator_text(g: Generator) -> str:
    """g as text, its terms in descending grevlex order."""
    if not g:
        return "0"
    parts = []
    for e, c in _sorted_terms(g):
        factors = [f"x{i + 1}" + (f"^{p}" if p > 1 else "") for i, p in enumerate(e) if p]
        mono = "*".join(factors) if factors else "1"
        if c.is_integer():
            coeff = str(c.as_int())
        else:
            coeff = "zeta[" + ", ".join(str(x) for x in c.coords) + "]"
        if coeff == "1" and factors:
            parts.append(mono)
        else:
            parts.append(f"({coeff})*{mono}" if factors else f"({coeff})")
    return " + ".join(parts)


def elementary_symmetric(field: CycloField, nvars: int, d: int) -> Generator:
    """e_d(x_1..x_n): sum of squarefree degree-d monomials."""
    if d < 0 or d > nvars:
        raise DomainError("elementary symmetric degree out of range")
    one = field.one
    terms = {}
    for subset in combinations(range(nvars), d):
        e = [0] * nvars
        for i in subset:
            e[i] = 1
        terms[tuple(e)] = one
    return terms


def complete_homogeneous(field: CycloField, nvars: int, d: int) -> Generator:
    """h_d(x_1..x_n): sum of all degree-d monomials."""
    if d < 0:
        raise DomainError("negative degree")
    one = field.one
    terms = {}
    for multiset in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in multiset:
            e[i] += 1
        terms[tuple(e)] = one
    return terms


# -- Groebner bases ------------------------------------------------------------------


class GroebnerBasis:
    """A reduced, monic Groebner basis under grevlex, with normal forms mod p cached.

    Every generator must be nonzero and monic; reductions rely on it and never
    invert a leading coefficient.  ``gens`` holds read-only views of the
    generators, in ascending grevlex order of their leads: a basis outlives its
    builder in the per-locus memo, and its packed tails are derived here once.

    Normal forms walk packed exponents in one ``interpolation.PackedMonomials``
    format, ``monomials``, fixed at construction: a product of monomials is one
    addition and a divisibility test one subtraction and one mask.  Its fields hold
    every exponent up to the highest lead degree, which bounds every generator
    term, and, when each variable has a pure power x_i^a_i among the leads, up to
    sum(a_i - 1), the top degree of a standard monomial.  Tails lie below their
    grevlex leads, so reducing x^e meets no monomial of degree above deg e, and
    every walk from a graded trace stays within the fields.
    """

    def __init__(self, field: CycloField, nvars: int, gens: Iterable[Generator]):
        self.field = field
        self.nvars = nvars
        by_lead = []
        for g in gens:
            if not g:
                raise DomainError("zero polynomial has no leading term")
            by_lead.append((max(g, key=grevlex_key), MappingProxyType(g)))
        by_lead.sort(key=lambda pair: grevlex_key(pair[0]))
        self._leads = leads = tuple(lt for lt, _ in by_lead)
        self.gens = tuple(g for _, g in by_lead)
        if any(g[lt] != field.one for g, lt in zip(self.gens, leads)):
            raise InternalCheckError("Groebner basis generator is not monic")
        # The least a_i with x_i^a_i a lead, per variable, or None where a variable has none.
        self._pure_powers = [min((lt[i] for lt in leads if sum(lt) == lt[i]), default=None) for i in range(nvars)]
        width = max(map(sum, leads), default=0)
        if None not in self._pure_powers:
            width = max(width, sum(self._pure_powers) - nvars)
        self.monomials = monos = PackedMonomials(nvars, width)
        self._packed_leads = tuple(map(monos.pack, leads))
        self._packed_tails = tuple(
            tuple((monos.pack(e), c) for e, c in g.items() if e != lt) for g, lt in zip(self.gens, leads)
        )
        # Per prime p: the packed tails mapped to F_p and their normal-form cache, or
        # None when p divides a coefficient denominator.
        self._nf_mod: dict[int, tuple | None] = {}
        self._qb: QuotientBasis | None = None

    def leading_exponents(self) -> tuple[Exponents, ...]:
        return self._leads

    def is_standard(self, e: Exponents) -> bool:
        if len(e) != self.nvars or min(e, default=0) < 0:
            raise DomainError("exponents do not name a monomial of this basis' ring")
        # Every lead exponent fits the fields, so clamping to them keeps divisibility.
        monos = self.monomials
        return monos.divisor(self._packed_leads, monos.pack([min(x, monos.full) for x in e])) is None

    def trace_prime(self, bound: int) -> int:
        """The largest split prime p > bound that divides no coefficient denominator.

        Primes are p = 1 mod k (``interpolation.split_primes``), so zeta_k maps to
        omega, the first primitive k-th root mod p, and every coefficient has an
        image in F_p.  ``_normal_form_walk`` then reads normal forms modulo p.
        """
        for p in split_primes(self.field.order):
            if p <= bound:
                break
            if p not in self._nf_mod:
                self._nf_mod[p] = self._tails_mod(p)
            if self._nf_mod[p] is not None:
                return p
        raise InternalCheckError(f"no split prime above {bound} for the field of order {self.field.order}")

    def _tails_mod(self, p: int):
        """(packed tails with coefficients in F_p, empty cache), or None if p divides a denominator."""
        omega = primitive_roots(self.field.order, p)[0]
        powers = [pow(omega, i, p) for i in range(self.field.degree)]
        tails = []
        for tail in self._packed_tails:
            row = []
            for te, tc in tail:
                image = 0
                for x, power in zip(tc.coords, powers):
                    if x:
                        num, den = x.numerator, x.denominator
                        if den % p == 0:
                            return None
                        image += num * pow(den, -1, p) * power
                row.append((te, image % p))
            tails.append(tuple(row))
        return tuple(tails), {}

    def _normal_form_walk(self, e: int, p: int) -> dict[int, int]:
        """Normal form of packed x^e modulo p, for p from ``trace_prime``, as a map from
        packed standard monomials to residues.  The fields of ``monomials`` must
        hold deg e.

        The generators are monic, so a reduction only adds and multiplies, and the
        walk mod p gives the image of the exact normal form.  Each monomial is
        looked up among the leads once: one whose shifted tail holds monomials not
        yet reduced keeps that tail in ``pending`` until they are, so every cache
        entry costs one ``divisor`` call and one shifted tail.
        """
        tails, cache = self._nf_mod[p]
        leads, divisor = self._packed_leads, self.monomials.divisor
        pending: dict[int, list] = {}
        stack = [e]
        while stack:
            cur = stack[-1]
            if cur in cache:
                stack.pop()
                continue
            deps = pending.pop(cur, None)
            if deps is None:
                idx = divisor(leads, cur)
                if idx is None:
                    cache[cur] = {cur: 1}
                    stack.pop()
                    continue
                shift = cur - leads[idx]
                # x^cur = x^shift * lt = x^shift * (g - tail) for monic g, so modulo g
                # only the shifted tail survives.
                deps = [(shift + te, tc) for te, tc in tails[idx]]
                missing = [d for d, _ in deps if d not in cache]
                if missing:
                    # Reduced above cur on the stack, so all in the cache when it is back on top.
                    pending[cur] = deps
                    stack.extend(missing)
                    continue
            acc: dict = {}
            for d, tc in deps:
                for se, sc in cache[d].items():
                    v = tc * sc
                    acc[se] = acc[se] - v if se in acc else -v
            cache[cur] = {se: r for se, c in acc.items() if (r := c % p)}
            stack.pop()
        return cache[e]

    def quotient_basis(self) -> QuotientBasis:
        if self._qb is None:
            self._qb = _enumerate_standard(self)
        return self._qb

    def _canonical(self):
        return tuple(tuple((e, tuple(c.coords)) for e, c in _sorted_terms(g)) for g in self.gens)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroebnerBasis)
            and self.field == other.field
            and self.nvars == other.nvars
            and self._canonical() == other._canonical()
        )

    def __repr__(self) -> str:
        return f"GroebnerBasis({len(self.gens)} generators, {self.nvars} vars, field order {self.field.order})"

    def to_json_dict(self) -> dict:
        return {
            "field_order": self.field.order,
            "nvars": self.nvars,
            "generators": [
                {
                    "terms": [
                        {"exponents": list(e), "coords": [str(x) for x in c.coords]}
                        for e, c in _sorted_terms(g)
                    ]
                }
                for g in self.gens
            ],
        }


def _enumerate_standard(gb: GroebnerBasis) -> QuotientBasis:
    """Standard monomials degree by degree: a monomial is standard when it is not
    a leading exponent and its one-step predecessors are all standard.  A visited
    e has e_i at most the least pure power x_i^a among the leads, so the walk stays
    within the basis' packed fields."""
    if None in gb._pure_powers:
        raise DomainError("quotient is not finite-dimensional (no pure power in the leading terms)")
    monos = gb.monomials
    lead_set = set(gb._packed_leads)
    levels: list[tuple[Exponents, ...]] = []
    total = 0
    level = [e for e in [monos.one] if e not in lead_set]
    while level:
        total += len(level)
        if total > MAX_QUOTIENT_DIM:
            raise ResourceBudgetError(f"quotient dimension exceeds the budget {MAX_QUOTIENT_DIM}")
        levels.append(tuple(map(monos.unpack, level)))
        level = [e for e in monos.successors(level) if e not in lead_set]
    return tuple(levels)


def hilbert_series(qb: QuotientBasis) -> SparsePoly:
    """Sum over degrees of (number of standard monomials) q^d."""
    out = SparsePoly.zero()
    for d, level in enumerate(qb):
        if level:
            out = out + SparsePoly.monomial(d, 0, len(level))
    return out


def buchberger(gens: list[Generator]) -> GroebnerBasis:
    """Reduced monic grevlex Groebner basis of the ideal that nonzero generators of
    one ring span; ``verify_presentation`` runs it on the stated generators.

    Each element is kept once, as its lead exponent L and negated monic tail T, so
    x^L = T modulo it.  Pairs leave a heap in ascending grevlex order of their lcm
    (the normal strategy).  Buchberger's first criterion skips a pair with coprime
    leads; his second, the chain criterion, one whose lcm a third lead divides when
    that lead's pairs with both have left the queue (Buchberger, EUROSAM 1979;
    Gebauer and Moller, J. Symb. Comput. 6, 1988).  Each other S-polynomial is built
    from the two tails and reduced by ``_reduce``; a nonzero remainder joins the
    basis.  Last, elements whose lead another lead divides are dropped, the other
    tails reduced.  A zero generator is refused, as ``GroebnerBasis`` refuses it.
    """
    if not all(gens):
        raise DomainError("zero polynomial has no leading term")
    e0, c0 = next(iter(gens[0].items()))
    field, nvars = c0.field, len(e0)
    one = field.one
    leads: list[Exponents] = []
    tails: list[list[tuple[Exponents, CycloElement]]] = []
    done: list[set[int]] = []  # per element, those whose pair with it has left the queue
    heap: list[tuple] = []

    def admit(lead: Exponents, terms, lc: CycloElement) -> None:
        """Add the element with lead x^lead, coefficient lc and the other terms."""
        j = len(leads)
        for i, other in enumerate(leads):
            gamma = tuple(map(max, other, lead))
            heappush(heap, (grevlex_key(gamma), gamma, i, j))
        inv = None if lc == one else lc.inverse()
        leads.append(lead)
        tails.append([(e, -c) if inv is None else (e, -c * inv) for e, c in terms])
        done.append(set())

    for g in gens:
        lead = max(g, key=grevlex_key)
        admit(lead, [(e, c) for e, c in g.items() if e != lead], g[lead])
    while heap:
        _, gamma, i, j = heappop(heap)
        done[i].add(j)
        done[j].add(i)
        if not any(map(min, leads[i], leads[j])):
            continue  # coprime leads: the S-polynomial reduces to zero
        if any(all(map(operator.ge, gamma, leads[k])) for k in done[i] & done[j]):
            continue  # chain criterion
        # S = x^(gamma - L_j) T_j - x^(gamma - L_i) T_i, its cancelled terms left zero.
        si, sj = (tuple(map(operator.sub, gamma, leads[x])) for x in (i, j))
        spoly = {tuple(map(operator.add, e, sj)): c for e, c in tails[j]}
        for e, c in tails[i]:
            m = tuple(map(operator.add, e, si))
            spoly[m] = spoly[m] - c if m in spoly else -c
        rem = _reduce(spoly, leads, tails)
        if rem:
            lead = next(iter(rem))
            lc = rem.pop(lead)
            admit(lead, rem.items(), lc)

    minimal = [
        i for i, a in enumerate(leads)
        if not any(j != i and all(map(operator.ge, a, b)) and (a != b or j < i) for j, b in enumerate(leads))
    ]
    leads, tails = [leads[i] for i in minimal], [tails[i] for i in minimal]
    # x^L = T = NF(T) modulo the ideal, so x^L - NF(T) is the reduced element.
    reduced = (
        {lead: one} | {e: -c for e, c in _reduce(dict(tail), leads, tails).items()}
        for lead, tail in zip(leads, tails)
    )
    return GroebnerBasis(field, nvars, reduced)


def _reduce(terms: dict, leads: list[Exponents], tails: list) -> dict:
    """Normal form of ``terms`` (exponent to coefficient) modulo the elements x^L - T
    of ``leads`` and ``tails``, by long division in place.  The exponents wait on a
    max-heap of grevlex keys; the largest left is either divisible by a lead L, and
    replaced by its multiple of T, or a remainder term, unless it cancelled to zero.
    The remainder comes in descending grevlex order, so its first key is its lead.
    """
    heap = [(-sum(e), e[::-1]) for e in terms]
    heapify(heap)
    rem = {}
    while heap:
        e = heappop(heap)[1][::-1]
        c = terms.pop(e)
        if not c:
            continue
        for lead, tail in zip(leads, tails):
            if all(map(operator.ge, e, lead)):
                break
        else:
            rem[e] = c
            continue
        shift = tuple(map(operator.sub, e, lead))
        for te, tc in tail:
            m = tuple(map(operator.add, te, shift))
            if m in terms:
                terms[m] += c * tc
            else:
                terms[m] = c * tc
                heappush(heap, (-sum(m), m[::-1]))
    return rem


def associated_graded(gb: GroebnerBasis) -> GroebnerBasis:
    """Reduced Groebner basis of the graded ideal: the top-degree components of gb.

    Grevlex refines total degree, so each top component keeps its generator's
    monic leading term and its tail stays standard; the components therefore form
    the reduced basis of the graded ideal without a second Buchberger pass.  With
    the same leads, both bases have the same standard monomials, so gb's quotient
    basis, if already enumerated, is passed on.
    """
    tops = (
        {e: c for e, c in g.items() if sum(e) == d} for g, d in zip(gb.gens, map(sum, gb.leading_exponents()))
    )
    gb_t = GroebnerBasis(gb.field, gb.nvars, tops)
    gb_t._qb = gb._qb
    return gb_t


# -- vanishing ideals of loci (Buchberger-Moller) -----------------------------------


def check_budget(value: int, name: str) -> None:
    """Refuse a negative budget: a usage error (DomainError), not an exceeded budget."""
    if value < 0:
        raise DomainError(f"the {name} budget must be nonnegative, not {value}")


def _check_locus(locus: Locus, max_points: int, max_vars: int) -> None:
    """Refuse negative budgets, empty loci and loci beyond the point or variable
    budget; the ``Locus`` constructor has refused n < 1."""
    check_budget(max_points, "point")
    check_budget(max_vars, "variable")
    if locus.size == 0:
        raise DomainError("vanishing ideal of an empty locus")
    if locus.size > max_points:
        raise ResourceBudgetError(f"|X| = {locus.size} exceeds the point budget {max_points}")
    if locus.n > max_vars:
        raise ResourceBudgetError(f"n = {locus.n} exceeds the variable budget {max_vars}")


def vanishing_ideal(
    locus: Locus,
    *,
    max_points: int = DEFAULT_MAX_POINTS,
    max_vars: int = DEFAULT_MAX_VARS,
) -> GroebnerBasis:
    """Reduced grevlex Groebner basis of the ideal of the embedded locus.

    On a cube ``enumerate_locus`` built (``loci._is_cube``), the candidate is
    ``_cube_basis``, built from n and k alone.  On any other locus, one handed the
    words of a cube included, or if that candidate failed, Buchberger-Moller per
    eigenspace of the value-shift action (see ``interpolation``), over F_p for split
    primes, proposes the candidates.  Each is returned only if it passes the exact
    certificate.  Raises ResourceBudgetError if none of at most
    ``interpolation.MODULAR_PRIMES`` primes yields one.
    """
    _check_locus(locus, max_points, max_vars)
    field = cyclo_field(locus.k)
    reps = interpolation.orbit_representatives(locus)
    if loci._is_cube(locus):
        gb = _cube_basis(field, locus.n)
        if _certified(locus, gb, reps):
            return gb
    for layout, coords in modular_lifts(locus, reps):
        gb = _basis(field, locus.n, layout, coords)
        if _certified(locus, gb, reps):
            return gb
    raise ResourceBudgetError(
        f"no certified basis within the prime budget of {interpolation.MODULAR_PRIMES} split primes"
    )


def _cube_basis(field: CycloField, n: int) -> GroebnerBasis:
    """x_i^k - 1 for i < n, k the field order.  The cube {1..k}^n embeds as the
    product of n copies of the k-th roots of unity, and the ideal of a product of
    finite sets has these univariate products as its reduced Groebner basis in
    every monomial order (Alon, Combinatorial Nullstellensatz, CPC 8, 1999)."""
    k, zero = field.order, (0,) * n
    gens = ({tuple(k if j == i else 0 for j in range(n)): field.one, zero: -field.one} for i in range(n))
    return GroebnerBasis(field, n, gens)


def _basis(field: CycloField, n: int, layout, coords) -> GroebnerBasis:
    """Generators x^e + tail, the tails read from flat power-basis coordinates and
    their zero coefficients dropped."""
    it = iter(coords)
    gens = []
    for e, stds in layout:
        terms = {e: field.one}
        for s in stds:
            c = field.element([next(it) for _ in range(field.degree)])
            if c:
                terms[s] = c
        gens.append(terms)
    return GroebnerBasis(field, n, gens)


def _certified(locus: Locus, gb: GroebnerBasis, reps) -> bool:
    """Exact check that gb, lifted from modular data, is the reduced basis of I(X).

    Generators that vanish on X put LT(gb) inside LT(I(X)); both leave |X|
    standard monomials, so they are equal and gb is a Groebner basis of I(X).
    Monic generators (checked by GroebnerBasis), standard tails and antichain
    leads make it the reduced one.  Each lead is its generator's grevlex-largest
    term, so tails lie below their leads.

    The value shift x -> zeta^step x fixes I(X) and so its reduced basis: all
    terms of a generator g have degrees congruent to its lead's mod the shift
    order, which is checked.  Then g(zeta^step x) = zeta^(step deg) g(x), so g
    vanishes on X once it vanishes at the orbit representatives ``reps``.
    """
    leads = gb.leading_exponents()
    korder = locus.scaling_order
    for g, lt in zip(gb.gens, leads):
        if any(e != lt and not gb.is_standard(e) for e in g):
            return False
        if any((sum(e) - sum(lt)) % korder for e in g):
            return False
    for i, a in enumerate(leads):
        if any(j != i and all(x >= y for x, y in zip(a, b)) for j, b in enumerate(leads)):
            return False
    if sum(map(len, gb.quotient_basis())) != locus.size:
        return False
    return _vanishes_on(gb, reps)


def _vanishes_on(gb: GroebnerBasis, words) -> bool:
    """Whether every generator is zero at every embedded word, exactly.

    Each generator is scaled by the lcm of its coordinate denominators, so the
    sums run over integers.  At each word, power-basis coordinate i of the
    coefficient of x^e lands on zeta^(i + e.w), so the integer coefficients of
    each power of zeta are gathered first; the generator vanishes there when
    every power-basis column of the power table is orthogonal to them.  The dot
    products e.w with all the words are built once per monomial, shared by the
    generators: those of its predecessor at its first nonzero variable plus that
    variable's column of letters.
    """
    field = gb.field
    order = field.order
    columns = list(zip(*map(field.power_vector, range(order))))
    letters = list(zip(*words))
    dots = {(0,) * gb.nvars: [0] * len(words)}

    def dot(e: Exponents) -> list[int]:
        out = dots.get(e)
        if out is None:
            i = next(i for i, x in enumerate(e) if x)
            prev = dot(e[:i] + (e[i] - 1,) + e[i + 1:])
            out = dots[e] = list(map(operator.add, prev, letters[i]))
        return out

    for g in gb.gens:
        den = math.lcm(*(x.denominator for c in g.values() for x in c.coords))
        coords = [[(i, int(x * den)) for i, x in enumerate(c.coords) if x] for c in g.values()]
        for js in zip(*map(dot, g)):
            at = [0] * order
            for j, term in zip(js, coords):
                for i, x in term:
                    at[(i + j) % order] += x
            if any(sum(map(operator.mul, at, col)) for col in columns):
                return False
    return True


# -- graded characters and Frobenius image ------------------------------------------


def graded_character(gb_t: GroebnerBasis, w: tuple[int, ...]) -> SparsePoly:
    """Trace of the variable permutation x_i -> x_{w(i)} on each graded piece.

    Each trace is taken modulo a split prime p above twice the largest piece
    dimension (``GroebnerBasis.trace_prime``) and lifted to the residue of least
    absolute value.  That lift is the exact trace when S_n preserves the ideal:
    each piece is then an S_n-module, whose traces are integers of absolute value
    at most its dimension.  A lift beyond the piece dimension raises
    InternalCheckError; ``graded_frobenius`` checks the stability before and the
    fixed-word sums after.  A monomial whose image under w is itself or standard
    adds 1 or 0 with no normal form; only the others are walked.
    """
    if sorted(w) != list(range(gb_t.nvars)):
        raise DomainError("w must be a permutation of 0..n-1")
    qb = gb_t.quotient_basis()
    p = gb_t.trace_prime(2 * max(map(len, qb), default=0))
    pack = gb_t.monomials.pack
    w_inv = sorted(range(gb_t.nvars), key=w.__getitem__)
    terms = {}
    for d, level in enumerate(qb):
        std_here = set(level)
        tr = 0
        for e in level:
            pe = tuple(map(e.__getitem__, w_inv))  # pe[w[i]] = e[i]
            if pe == e:
                tr += 1
            elif pe not in std_here:
                tr += gb_t._normal_form_walk(pack(pe), p).get(pack(e), 0)
        value = tr % p
        if value > p // 2:
            value -= p
        if abs(value) > len(level):
            raise InternalCheckError(
                "graded trace exceeds its piece's dimension; S_n does not preserve the ideal"
            )
        terms[(d, 0)] = value
    return SparsePoly(terms)


def _perm_of_cycle_type(ct: tuple[int, ...]) -> tuple[int, ...]:
    """A permutation of cycle type ``ct``, its cycles on the last variables.

    The cycles of ``ct`` are laid on 0..n-1 as i -> i + 1 and the result is conjugated
    by the reversal i -> n - 1 - i, so the first cycle sits on the top variables and
    each runs i -> i - 1.  A trace is a class function, so any representative gives
    the same traces.  Variable n - 1 is the most significant in the packed grevlex
    order, and with the cycles there more permuted standard monomials stay standard
    and need no normal form: 296 class-monomial pairs of tanisaki 1^5 where the
    first-cycles representative had 126, and 2,922 of Y(6,6) where it had 1,386.
    """
    first = []
    for c in ct:
        offset = len(first)
        first.extend(offset + (i + 1) % c for i in range(c))
    n = len(first)
    return tuple(n - 1 - first[n - 1 - j] for j in range(n))


# Graded Frobenius images, each kept while its locus lives.
_FROBENIUS_CACHE: WeakKeyDictionary[Locus, FrobeniusImage] = WeakKeyDictionary()


def graded_frobenius(
    locus: Locus,
    *,
    max_points: int = DEFAULT_MAX_POINTS,
    max_vars: int = DEFAULT_MAX_VARS,
) -> FrobeniusImage:
    """Schur expansion of the graded quotient as a symmetric-group module: a read-only
    mapping from each shape of n to its nonzero coefficient, in ``partitions(n)`` order.

    c_lambda(q) = sum over conjugacy classes of (|class|/n!) chi^lambda(class)
    times the class' graded trace.  The traces are read modulo a prime
    (``graded_character``), which is exact because S_n preserves the locus: that
    is checked by brute force first, and a locus it fails raises DomainError.
    Since R/gr I(X) and C[X] are isomorphic S_n-modules, each class' traces must
    sum over all degrees to the number of words its permutation fixes; for the
    identity that is |X|, and by column orthogonality the dimensions of the Schur
    coefficients add up to the identity's trace sum.  Coefficients are checked to
    be nonnegative integers.  Budgets are checked before the memo is consulted,
    so a remembered result never escapes a tighter budget.
    """
    _check_locus(locus, max_points, max_vars)
    cached = _FROBENIUS_CACHE.get(locus)
    if cached is not None:
        return cached

    n, codes = locus.n, locus.codes
    words = set(codes)
    generators = [Action.position_rotation(n)]
    if n > 1:
        generators.append(Action.permutation((1, 0, *range(2, n))))
    if not all(words.issuperset(act_on_words(g, codes, n)) for g in generators):
        raise DomainError("the symmetric group does not preserve the locus")
    gb_t = associated_graded(_point_basis(locus, max_points, max_vars))
    traces = {}
    for ct, _ in conjugacy_classes(n):
        perm = _perm_of_cycle_type(ct)
        traces[ct] = graded_character(gb_t, perm)
        fixed = fixed_words(perm, codes)
        if sum(traces[ct].terms.values()) != fixed:
            raise InternalCheckError(
                f"graded traces of class {ct} do not sum to the {fixed} words its permutation fixes"
            )
    n_fact = math.factorial(n)
    out: dict[tuple[int, ...], SparsePoly] = {}
    for lam in partitions(n):
        acc: dict[tuple[int, int], int] = {}
        for ct, size in conjugacy_classes(n):
            chi = sn_character(lam, ct)
            if not chi:
                continue
            for te, tc in traces[ct].terms.items():
                acc[te] = acc.get(te, 0) + size * chi * tc
        poly_terms = {}
        for te, val in acc.items():
            if val % n_fact:
                raise InternalCheckError("graded multiplicity is not an integer")
            c = val // n_fact
            if c < 0:
                raise InternalCheckError("graded multiplicity is negative")
            if c:
                poly_terms[te] = c
        if poly_terms:
            out[lam] = SparsePoly(poly_terms)

    frob = MappingProxyType(out)
    _FROBENIUS_CACHE[locus] = frob
    return frob


# Reduced point-ideal bases, each kept while its locus lives.  The graded bases are
# rebuilt on each use, so their mod-p tables are not kept.
_BASIS_CACHE: WeakKeyDictionary[Locus, GroebnerBasis] = WeakKeyDictionary()


def _point_basis(locus: Locus, max_points: int, max_vars: int) -> GroebnerBasis:
    """``vanishing_ideal(locus)``, computed once per locus.  The budgets are checked
    before the lookup, so a remembered basis never escapes a tighter budget."""
    _check_locus(locus, max_points, max_vars)
    gb_i = _BASIS_CACHE.get(locus)
    if gb_i is None:
        gb_i = vanishing_ideal(locus, max_points=max_points, max_vars=max_vars)
        _BASIS_CACHE[locus] = gb_i
    return gb_i


# -- stated presentations ------------------------------------------------------------

def stated_generators(locus: Locus) -> list[Generator]:
    """Closed-form generating sets of the graded ideal for the three word families.

    X: the pure powers x_i^k.  Y: complete homogeneous h_{k-n+1}, ..., h_k.
    Z: the pure powers together with elementary symmetrics e_{n-k+1}, ..., e_n.
    """
    field = cyclo_field(locus.k)
    n, k = locus.n, locus.k
    if (locus.family == "Y" and k < n) or (locus.family == "Z" and k > n):
        raise DomainError("no stated presentation: the locus is empty")
    if locus.family in ("X", "Z"):
        gens = [{(0,) * i + (k,) + (0,) * (n - 1 - i): field.one} for i in range(n)]
        if locus.family == "Z":
            gens.extend(elementary_symmetric(field, n, d) for d in range(n - k + 1, n + 1))
        return gens
    if locus.family == "Y":
        return [complete_homogeneous(field, n, d) for d in range(k - n + 1, k + 1)]
    raise DomainError(f"no stated presentation for family {locus.family!r}")


def verify_presentation(
    locus: Locus,
    *,
    max_points: int = DEFAULT_MAX_POINTS,
    max_vars: int = DEFAULT_MAX_VARS,
) -> bool:
    """True iff the family's stated generators span the same ideal as the top
    components of the computed point-ideal basis.  Buchberger's algorithm reduces
    the stated generators; both sides are then reduced, monic grevlex bases, and an
    ideal has exactly one such basis.  A family without a stated presentation is
    refused before any elimination; the point and variable budgets bound the
    elimination, and Buchberger's run has no budget of its own."""
    stated = stated_generators(locus)
    gb_i = _point_basis(locus, max_points, max_vars)
    return buchberger(stated) == associated_graded(gb_i)


def harmonics_json(locus: Locus, gb_i: GroebnerBasis, gb_t: GroebnerBasis) -> dict:
    """JSON-ready dump of both bases and the standard monomials."""
    qb = gb_t.quotient_basis()
    return {
        "locus": locus.describe(),
        "point_ideal": gb_i.to_json_dict(),
        "graded_ideal": gb_t.to_json_dict(),
        "standard_monomials_by_degree": [[list(e) for e in level] for level in qb],
        "hilbert_series": hilbert_series(qb).pretty(),
    }
