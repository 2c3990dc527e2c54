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
yields a certified basis, ResourceBudgetError names that prime budget.

Under grevlex the top-degree components of the reduced basis of I(X) are already
the reduced basis of the associated graded ideal T(X), so no second Groebner
pass is needed; the standard monomials of T(X) give the Hilbert series and its
permutation traces give the graded Frobenius image.  The traces are read modulo
a split prime: S_n preserves the locus (checked), so each is an integer no larger
than its piece's dimension, and every class' traces must add up to the words its
permutation fixes.  The normal forms behind them (``GroebnerBasis``) walk the
packed exponents of ``interpolation.PackedMonomials``, at a width each basis
fixes when it is built.  Buchberger's algorithm remains for the stated
presentations, which are given by generators rather than by points.  It takes
pairs by the normal strategy, least lcm first, and skips those that Buchberger's
criteria, coprime leads and the chain criterion, prove redundant (Buchberger,
EUROSAM 1979; Gebauer and Moller, J. Symb. Comput. 6, 1988).

``graded_frobenius`` and ``verify_presentation`` share one bounded cache of
point-ideal bases keyed by locus, so each locus is eliminated once however many
checks read its quotient; both check their budgets before the lookup.
``vanishing_ideal`` itself is not cached: every call eliminates afresh.

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

from . import interpolation
from .characters import SchurVector, conjugacy_classes, sn_character
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
from .loci import Action, Locus, act_on_words
from .qpoly import SparsePoly
from .tableaux import partitions

DEFAULT_MAX_POINTS = 720
DEFAULT_MAX_VARS = 5
DEFAULT_MAX_PAIRS = 20000
MAX_QUOTIENT_DIM = 100000


class MultiPoly:
    """Multivariate polynomial with CycloElement coefficients, zero terms dropped."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: CycloField, nvars: int, terms: dict[Exponents, CycloElement]):
        self.field = field
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def zero(cls, field: CycloField, nvars: int) -> "MultiPoly":
        return cls(field, nvars, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def leading_term(self) -> tuple[Exponents, CycloElement]:
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        e = max(self.terms, key=grevlex_key)
        return e, self.terms[e]

    def sorted_terms(self) -> list[tuple[Exponents, CycloElement]]:
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def _merge(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            val = (cur + c if sign > 0 else cur - c) if cur is not None else (c if sign > 0 else -c)
            if val:
                out[e] = val
            elif cur is not None:
                del out[e]
        return MultiPoly(self.field, self.nvars, out)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._merge(other, +1)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._merge(other, -1)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.field, self.nvars, {e: -c for e, c in self.terms.items()})

    def scale(self, c: CycloElement) -> "MultiPoly":
        if not c:
            return MultiPoly.zero(self.field, self.nvars)
        return MultiPoly(self.field, self.nvars, {e: ce * c for e, ce in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict[Exponents, CycloElement] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = c1 * c2
                cur = out.get(e)
                val = cur + v if cur is not None else v
                if val:
                    out[e] = val
                elif cur is not None:
                    del out[e]
        return MultiPoly(self.field, self.nvars, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def top_component(self) -> "MultiPoly":
        """Homogeneous part of highest total degree."""
        if not self.terms:
            return self
        d = self.degree
        return MultiPoly(self.field, self.nvars, {e: c for e, c in self.terms.items() if sum(e) == d})

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
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

    def __repr__(self) -> str:
        return f"MultiPoly({self.pretty()})"


def elementary_symmetric(field: CycloField, nvars: int, d: int) -> MultiPoly:
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
    return MultiPoly(field, nvars, terms)


def complete_homogeneous(field: CycloField, nvars: int, d: int) -> MultiPoly:
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
    return MultiPoly(field, nvars, terms)


# -- Groebner bases ------------------------------------------------------------------


class GroebnerBasis:
    """A reduced, monic Groebner basis under grevlex, with normal forms mod p cached.

    Every generator must be monic; reductions rely on it and never invert a
    leading coefficient.

    Normal forms walk packed exponents in one ``interpolation.PackedMonomials``
    format, ``monomials``, fixed at construction: a product of monomials is one
    addition and a divisibility test one subtraction and one mask.  Its fields hold
    every exponent up to the highest lead degree, which bounds every generator
    term, and, when each variable has a pure power x_i^a_i among the leads, up to
    sum(a_i - 1), the top degree of a standard monomial.  Tails lie below their
    grevlex leads, so reducing x^e meets no monomial of degree above deg e, and
    every walk from a graded trace stays within the fields.
    """

    def __init__(self, field: CycloField, nvars: int, gens: tuple[MultiPoly, ...]):
        self.field = field
        self.nvars = nvars
        self.gens = tuple(sorted(gens, key=lambda g: grevlex_key(g.leading_term()[0])))
        self._leads = leads = tuple(g.leading_term()[0] for g in self.gens)
        if any(g.terms[lt] != field.one for g, lt in zip(self.gens, leads)):
            raise InternalCheckError("Groebner basis generator is not monic")
        # The least a_i with x_i^a_i a lead, per variable, or None where a variable has none.
        self._pure_powers = [min((lt[i] for lt in leads if sum(lt) == lt[i]), default=None) for i in range(nvars)]
        width = max(map(sum, leads), default=0)
        if None not in self._pure_powers:
            width = max(width, sum(self._pure_powers) - nvars)
        self.monomials = monos = PackedMonomials(nvars, width)
        self._packed_leads = tuple(map(monos.pack, leads))
        self._packed_tails = tuple(
            tuple((monos.pack(e), c) for e, c in g.terms.items() if e != lt) for g, lt in zip(self.gens, leads)
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
        walk mod p gives the image of the exact normal form.
        """
        tails, cache = self._nf_mod[p]
        leads, divisor = self._packed_leads, self.monomials.divisor
        stack = [e]
        while stack:
            cur = stack[-1]
            if cur in cache:
                stack.pop()
                continue
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

    def quotient_basis(self) -> "QuotientBasis":
        if self._qb is None:
            self._qb = _enumerate_standard(self)
        return self._qb

    def _canonical(self):
        return tuple(
            tuple((e, tuple(c.coords)) for e, c in g.sorted_terms()) for g in self.gens
        )

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
                        for e, c in g.sorted_terms()
                    ]
                }
                for g in self.gens
            ],
        }


class QuotientBasis:
    """Standard monomials of a zero-dimensional monomial quotient, grouped by degree."""

    def __init__(self, nvars: int, by_degree: tuple[tuple[Exponents, ...], ...]):
        self.nvars = nvars
        self.by_degree = by_degree

    @property
    def total(self) -> int:
        return sum(len(level) for level in self.by_degree)

    def __repr__(self) -> str:
        return f"QuotientBasis(dim {self.total}, top degree {len(self.by_degree) - 1})"


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
    return QuotientBasis(gb.nvars, tuple(levels))


def hilbert_series(qb: QuotientBasis) -> SparsePoly:
    """Sum over degrees of (number of standard monomials) q^d."""
    out = SparsePoly.zero()
    for d, level in enumerate(qb.by_degree):
        if level:
            out = out + SparsePoly.monomial(d, 0, len(level))
    return out


def buchberger(gens: list[MultiPoly], *, max_pairs: int = DEFAULT_MAX_PAIRS) -> GroebnerBasis:
    """Reduced monic grevlex Groebner basis of the ideal the generators span.

    Each element is kept once, as its lead exponent L and negated monic tail T, so
    x^L = T modulo it.  Pairs leave a heap in ascending grevlex order of their lcm
    (the normal strategy).  Buchberger's first criterion skips a pair with coprime
    leads; his second, the chain criterion, one whose lcm a third lead divides when
    that lead's pairs with both have left the queue (Buchberger, EUROSAM 1979;
    Gebauer and Moller, J. Symb. Comput. 6, 1988).  Each other S-polynomial is built
    from the two tails and reduced by ``_reduce``; a nonzero remainder joins the
    basis.  Every pair taken from the queue counts against ``max_pairs``.  Last,
    elements whose lead another lead divides are dropped, the other tails reduced.
    """
    check_budget(max_pairs, "Buchberger pair")
    nonzero = [g for g in gens if g.terms]
    if not nonzero:
        raise DomainError("no nonzero generators")
    field, nvars = nonzero[0].field, nonzero[0].nvars
    for g in nonzero:
        if g.field != field or g.nvars != nvars:
            raise DomainError("generators live in different rings")
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

    for g in nonzero:
        lead = max(g.terms, key=grevlex_key)
        admit(lead, [(e, c) for e, c in g.terms.items() if e != lead], g.terms[lead])
    processed = 0
    while heap:
        _, gamma, i, j = heappop(heap)
        processed += 1
        if processed > max_pairs:
            raise ResourceBudgetError(f"Buchberger pair budget {max_pairs} exceeded")
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
        MultiPoly(field, nvars, {lead: one} | {e: -c for e, c in _reduce(dict(tail), leads, tails).items()})
        for lead, tail in zip(leads, tails)
    )
    return GroebnerBasis(field, nvars, tuple(reduced))


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
    gb_t = GroebnerBasis(gb.field, gb.nvars, tuple(g.top_component() for g in gb.gens))
    gb_t._qb = gb._qb
    return gb_t


# -- vanishing ideals of loci (Buchberger-Moller) -----------------------------------


def check_budget(value: int, name: str) -> None:
    """Refuse a negative budget: a usage error (DomainError), not an exceeded budget."""
    if value < 0:
        raise DomainError(f"the {name} budget must be nonnegative, not {value}")


def _check_locus(locus: Locus, max_points: int, max_vars: int) -> None:
    """Refuse negative budgets, empty loci and loci beyond the point or variable budget."""
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

    Buchberger-Moller per eigenspace of the value-shift action (see
    ``interpolation``), over F_p for split primes; each lifted candidate is
    returned only if it passes the exact certificate.  Raises
    ResourceBudgetError if none of at most ``interpolation.MODULAR_PRIMES``
    primes yields one.
    """
    _check_locus(locus, max_points, max_vars)
    field = cyclo_field(locus.k)
    reps = interpolation.orbit_representatives(locus)
    for layout, coords in modular_lifts(locus, reps):
        gb = _basis(field, locus.n, layout, coords)
        if _certified(locus, gb, reps):
            return gb
    raise ResourceBudgetError(
        f"no certified basis within the prime budget of {interpolation.MODULAR_PRIMES} split primes"
    )


def _basis(field: CycloField, n: int, layout, coords) -> GroebnerBasis:
    """Generators x^e + tail, the tails read from flat power-basis coordinates."""
    it = iter(coords)
    gens = []
    for e, stds in layout:
        terms = {e: field.one}
        for s in stds:
            terms[s] = field.element([next(it) for _ in range(field.degree)])
        gens.append(MultiPoly(field, n, terms))
    return GroebnerBasis(field, n, tuple(gens))


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
        if any(e != lt and not gb.is_standard(e) for e in g.terms):
            return False
        if any((sum(e) - sum(lt)) % korder for e in g.terms):
            return False
    for i, a in enumerate(leads):
        if any(j != i and all(x >= y for x, y in zip(a, b)) for j, b in enumerate(leads)):
            return False
    if gb.quotient_basis().total != locus.size:
        return False
    return _vanishes_on(gb, reps)


def _vanishes_on(gb: GroebnerBasis, words) -> bool:
    """Whether every generator is zero at every embedded word, exactly.

    Each generator is scaled by the lcm of its coordinate denominators, so the
    sums run over integers.  At each word, power-basis coordinate i of the
    coefficient of x^e lands on zeta^(i + e.w), so the integer coefficients of
    each power of zeta are gathered first; the generator vanishes there when
    every power-basis column of the power table is orthogonal to them.
    """
    field = gb.field
    order = field.order
    columns = list(zip(*map(field.power_vector, range(order))))
    for g in gb.gens:
        den = math.lcm(*(x.denominator for c in g.terms.values() for x in c.coords))
        terms = [
            (e, [(i, int(x * den)) for i, x in enumerate(c.coords) if x]) for e, c in g.terms.items()
        ]
        for w in words:
            at = [0] * order
            for e, coords in terms:
                j = sum(map(operator.mul, e, w))
                for i, x in coords:
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
    fixed-word sums after.
    """
    if sorted(w) != list(range(gb_t.nvars)):
        raise DomainError("w must be a permutation of 0..n-1")
    qb = gb_t.quotient_basis()
    p = gb_t.trace_prime(2 * max(map(len, qb.by_degree), default=0))
    pack = gb_t.monomials.pack
    w_inv = sorted(range(gb_t.nvars), key=w.__getitem__)
    terms = {}
    for d, level in enumerate(qb.by_degree):
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
    perm = []
    offset = 0
    for c in ct:
        perm.extend(offset + (i + 1) % c for i in range(c))
        offset += c
    return tuple(perm)


# Graded Frobenius images by locus, oldest first; the oldest is evicted at the bound.
_FROBENIUS_CACHE: dict[Locus, SchurVector] = {}
_FROBENIUS_CACHE_SIZE = 256


def graded_frobenius(
    locus: Locus,
    *,
    max_points: int = DEFAULT_MAX_POINTS,
    max_vars: int = DEFAULT_MAX_VARS,
) -> SchurVector:
    """Schur expansion of the graded quotient as a symmetric-group module.

    c_lambda(q) = sum over conjugacy classes of (|class|/n!) chi^lambda(class)
    times the class' graded trace.  The traces are read modulo a prime
    (``graded_character``), which is exact because S_n preserves the locus: that
    is checked by brute force first, and a locus it fails raises DomainError.
    Since R/gr I(X) and C[X] are isomorphic S_n-modules, each class' traces must
    sum over all degrees to the number of words its permutation fixes; for the
    identity that is |X|, and by column orthogonality the dimensions of the Schur
    coefficients add up to the identity's trace sum.  Coefficients are checked to
    be nonnegative integers.  Budgets are checked before the cache is consulted,
    so a cached result never escapes a tighter budget.
    """
    _check_locus(locus, max_points, max_vars)
    cached = _FROBENIUS_CACHE.get(locus)
    if cached is not None:
        return cached

    n = locus.n
    words = set(locus.words)
    for w in locus.words:
        if w[1:] + w[:1] not in words or (n > 1 and (w[1], w[0]) + w[2:] not in words):
            raise DomainError("the symmetric group does not preserve the locus")
    gb_t = associated_graded(_point_basis(locus, max_points, max_vars))
    traces = {}
    for ct, _ in conjugacy_classes(n):
        perm = _perm_of_cycle_type(ct)
        traces[ct] = graded_character(gb_t, perm)
        fixed = sum(map(operator.eq, act_on_words(Action.permutation(perm), locus.words), locus.words))
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

    frob = SchurVector(n, out)
    _remember(_FROBENIUS_CACHE, locus, frob)
    return frob


# Reduced point-ideal bases by locus, bounded and evicted like _FROBENIUS_CACHE.  The
# graded bases are rebuilt from them on each use, so their mod-p tables are not kept.
_BASIS_CACHE: dict[Locus, GroebnerBasis] = {}


def _remember(cache: dict, locus: Locus, value) -> None:
    if len(cache) >= _FROBENIUS_CACHE_SIZE:
        del cache[next(iter(cache))]
    cache[locus] = value


def _point_basis(locus: Locus, max_points: int, max_vars: int) -> GroebnerBasis:
    """``vanishing_ideal(locus)``, computed once per locus.  The budgets are checked
    before the lookup, so a cached basis never escapes a tighter budget."""
    _check_locus(locus, max_points, max_vars)
    gb_i = _BASIS_CACHE.get(locus)
    if gb_i is None:
        gb_i = vanishing_ideal(locus, max_points=max_points, max_vars=max_vars)
        _remember(_BASIS_CACHE, locus, gb_i)
    return gb_i


# -- stated presentations ------------------------------------------------------------

def stated_generators(locus: Locus) -> list[MultiPoly]:
    """Closed-form generating sets of the graded ideal for the three word families.

    X: the pure powers x_i^k.  Y: complete homogeneous h_{k-n+1}, ..., h_k.
    Z: the pure powers together with elementary symmetrics e_{n-k+1}, ..., e_n.
    """
    field = cyclo_field(locus.k)
    n, k = locus.n, locus.k
    if (locus.family == "Y" and k < n) or (locus.family == "Z" and k > n):
        raise DomainError("no stated presentation: the locus is empty")
    if locus.family == "X":
        gens = []
        for i in range(n):
            e = [0] * n
            e[i] = k
            gens.append(MultiPoly(field, n, {tuple(e): field.one}))
        return gens
    if locus.family == "Y":
        return [complete_homogeneous(field, n, d) for d in range(k - n + 1, k + 1)]
    if locus.family == "Z":
        gens = []
        for i in range(n):
            e = [0] * n
            e[i] = k
            gens.append(MultiPoly(field, n, {tuple(e): field.one}))
        gens.extend(elementary_symmetric(field, n, d) for d in range(n - k + 1, n + 1))
        return gens
    raise DomainError(f"no stated presentation for family {locus.family!r}")


def verify_presentation(
    locus: Locus,
    *,
    max_points: int = DEFAULT_MAX_POINTS,
    max_vars: int = DEFAULT_MAX_VARS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> bool:
    """True iff the family's stated generators span the same ideal as the top
    components of the computed point-ideal basis.  Both sides are reduced, monic
    grevlex bases, and an ideal has exactly one such basis.  A negative pair budget
    and a family without a stated presentation are refused before any elimination."""
    check_budget(max_pairs, "Buchberger pair")
    if locus.family not in ("X", "Y", "Z"):
        raise DomainError(f"family {locus.family!r} has no stated presentation")
    gb_i = _point_basis(locus, max_points, max_vars)
    return buchberger(stated_generators(locus), max_pairs=max_pairs) == associated_graded(gb_i)


def harmonics_json(locus: Locus, gb_i: GroebnerBasis, gb_t: GroebnerBasis) -> dict:
    """JSON-ready dump of both bases and the standard monomials."""
    qb = gb_t.quotient_basis()
    return {
        "locus": locus.describe(),
        "point_ideal": gb_i.to_json_dict(),
        "graded_ideal": gb_t.to_json_dict(),
        "standard_monomials_by_degree": [[list(e) for e in level] for level in qb.by_degree],
        "hilbert_series": hilbert_series(qb).pretty(),
    }
