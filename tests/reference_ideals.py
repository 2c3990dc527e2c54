"""Reference constructions of vanishing ideals, for the tests only.

``exact_vanishing_ideal`` runs the eigenspace Buchberger-Moller of
``orbitsieve.interpolation`` over Q instead of modulo split primes: each
eigenclass vector is flattened to phi(k) rational rows, one per power of zeta,
so the elimination is exact, and the result is checked to vanish at every word
of the locus.  ``point_ideal_product`` builds I(X) as an iterated product of
the points' maximal ideals, with Buchberger's algorithm after each factor.  Both
are slow and independent of the modular path that ``harmonics.vanishing_ideal``
takes; reduced monic Groebner bases are unique, so every construction must agree
exactly.

``list_elimination`` is the modular elimination with each row a list of
residues, one entry per orbit representative, and each monomial's row built from
its exponent dot products directly; ``interpolation.modular_elimination`` packs
rows into integers and builds them incrementally, and must return the same.

Both eliminations here walk the staircase on exponent tuples (``successors``),
so they share no staircase code with the packed walk of ``interpolation``.

``pairwise_buchberger`` is Buchberger's algorithm on whole polynomials:
it skips only the pairs with coprime leads and reduces every other S-polynomial by
``reduce_poly``, long division that recomputes the leading term at each step.
``harmonics.buchberger`` also applies the chain criterion and divides in place, and
must return the same reduced basis.  ``reduce_poly`` is also the tests' exact normal
form, the reference for graded traces.

A polynomial here is what the library builds, a ``harmonics.Generator``: a mapping
from exponent tuples to nonzero ``CycloElement`` coefficients, so two polynomials are
equal when their mappings are and zero when empty.  The library builds and reads
these but never combines them, so ``leading_term`` and their arithmetic (``add``,
``sub``, ``scale``, ``mul``) live here, as plain functions for these references and
the tests; the arithmetic returns new dicts with the zero terms dropped.
"""

from __future__ import annotations

from heapq import heappop, heappush

from orbitsieve.cyclotomic import CycloElement, CycloField, cyclo_field
from orbitsieve.errors import DomainError, InternalCheckError, ResourceBudgetError
from orbitsieve.harmonics import Generator, GroebnerBasis, _basis, buchberger
from orbitsieve.interpolation import Exponents, _tail_coefficients, grevlex_key, orbit_representatives
from orbitsieve.loci import Locus
from orbitsieve.rat import RAT


# -- polynomial arithmetic --------------------------------------------------------------

def nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def leading_term(p: Generator) -> tuple[Exponents, CycloElement]:
    e = max(p, key=grevlex_key)
    return e, p[e]


def _merge(p: Generator, q: Generator, sign: int) -> dict:
    """p + q or p - q, the terms that cancel dropped."""
    out = dict(p)
    for e, c in q.items():
        c = c if sign > 0 else -c
        out[e] = out[e] + c if e in out else c
    return nonzero(out)


def add(p: Generator, q: Generator) -> dict:
    return _merge(p, q, +1)


def sub(p: Generator, q: Generator) -> dict:
    return _merge(p, q, -1)


def scale(p: Generator, c: CycloElement) -> dict:
    return nonzero({e: pc * c for e, pc in p.items()})


def mul(p: Generator, q: Generator) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return nonzero(out)


def successors(level: list[Exponents], n: int) -> list[Exponents]:
    """Exponents of degree d + 1 whose one-step predecessors all lie in ``level``, on
    tuples: with ``level`` the standard exponents of degree d, the degree-(d + 1)
    exponents that no leading exponent of degree <= d divides, ascending grevlex."""
    members = set(level)
    out = []
    for s in level:
        first = next((i for i, x in enumerate(s) if x), n - 1)
        for i in range(first + 1):
            m = s[:i] + (s[i] + 1,) + s[i + 1 :]
            if all(m[:j] + (m[j] - 1,) + m[j + 1 :] in members for j in range(first, n) if j != i and m[j]):
                out.append(m)
    out.sort(key=grevlex_key)
    return out


def variable(field: CycloField, n: int, i: int) -> dict:
    """The polynomial x_(i+1) in n variables."""
    return {tuple(int(j == i) for j in range(n)): field.one}


def evaluate_at_word(field: CycloField, p: Generator, w) -> CycloElement:
    """Value of p, over ``field``, at the embedded point (zeta^w_1, ..., zeta^w_n)."""
    total = field.zero
    for e, c in p.items():
        total = total + c * field.root_power(sum(a * b for a, b in zip(e, w)))
    return total


# -- elimination over Q ----------------------------------------------------------------


class _EchelonRow:
    __slots__ = ("vec", "pivot", "tag", "uses", "scale")

    def __init__(self, vec, pivot, tag, uses, scale):
        self.vec = vec
        self.pivot = pivot
        self.tag = tag  # (standard-monomial index in class, zeta power)
        self.uses = uses  # [(coefficient, earlier row index)]
        self.scale = scale


class _EigenClass:
    """Elimination state for one eigenvalue of the value-shift scaling action."""

    __slots__ = ("rows", "stds")

    def __init__(self):
        self.rows: list[_EchelonRow] = []
        self.stds: list[Exponents] = []

    def reduce(self, vec):
        """Eliminate pivots in place; returns the reduction trail."""
        uses = []
        for r_idx, row in enumerate(self.rows):
            c = vec[row.pivot]
            if c:
                rv = row.vec
                for i, b in enumerate(rv):
                    if b:
                        vec[i] -= c * b
                vec[row.pivot] = 0
                uses.append((c, r_idx))
        return uses

    def insert(self, vec, uses, tag):
        pivot = next((i for i, x in enumerate(vec) if x), None)
        if pivot is None:
            raise InternalCheckError("eigenclass row collapsed during insertion")
        scale = vec[pivot]
        if scale != 1:
            inv = RAT(1) / RAT(scale)
            vec = [x * inv if x else 0 for x in vec]
        self.rows.append(_EchelonRow(vec, pivot, tag, uses, scale))

    def combos(self, needed: set[int]) -> dict[int, dict]:
        """Expansion of the requested rows over the original (monomial, power) vectors."""
        closure: set[int] = set()
        stack = list(needed)
        while stack:
            idx = stack.pop()
            if idx in closure:
                continue
            closure.add(idx)
            stack.extend(r for _, r in self.rows[idx].uses)
        memo: dict[int, dict] = {}
        for idx in sorted(closure):
            row = self.rows[idx]
            combo = {row.tag: RAT(1)}
            for c, r in row.uses:
                for key, val in memo[r].items():
                    cur = combo.get(key, RAT(0)) - c * val
                    if cur:
                        combo[key] = cur
                    elif key in combo:
                        del combo[key]
            if row.scale != 1:
                inv = RAT(1) / RAT(row.scale)
                combo = {key: val * inv for key, val in combo.items()}
            memo[idx] = combo
        return memo

    def tail_coordinates(self, uses, phi: int) -> list:
        """Power-basis coordinates of the tail of a monomial whose vector reduced to zero."""
        memo = self.combos({r for _, r in uses})
        total: dict = {}
        for c, r in uses:
            for key, val in memo[r].items():
                cur = total.get(key, RAT(0)) + c * val
                if cur:
                    total[key] = cur
                elif key in total:
                    del total[key]
        return [-total.get((local, j), RAT(0)) for local in range(len(self.stds)) for j in range(phi)]


def rational_elimination(locus: Locus):
    """The exact (layout, coordinates) of the reduced basis, by elimination over Q."""
    field = cyclo_field(locus.k)
    n, kk = locus.n, locus.k
    korder = locus.scaling_order
    phi = field.degree
    reps = orbit_representatives(locus)

    power_rows = [field.power_vector(j) for j in range(kk)]

    def flat_vector(e: Exponents, power_offset: int):
        vec: list = []
        for w in reps:
            t = (sum(a * b for a, b in zip(e, w)) + power_offset) % kk
            vec.extend(power_rows[t])
        return vec

    classes = [_EigenClass() for _ in range(korder)]
    layout: list[tuple] = []
    coords: list = []
    total_std = 0

    level = [(0,) * n]
    d = 0
    while level:
        cls = classes[d % korder]
        found = []
        for e in level:
            vec = flat_vector(e, 0)
            uses = cls.reduce(vec)
            if any(vec):
                local = len(cls.stds)
                cls.insert(vec, uses, (local, 0))
                for j in range(1, phi):
                    vj = flat_vector(e, j)
                    uj = cls.reduce(vj)
                    cls.insert(vj, uj, (local, j))
                cls.stds.append(e)
                found.append(e)
            else:
                layout.append((e, tuple(cls.stds)))
                coords.extend(cls.tail_coordinates(uses, phi))
        total_std += len(found)
        level = successors(found, n)
        d += 1
        if d > locus.size + n * kk:
            raise InternalCheckError("point-ideal elimination failed to terminate")

    if total_std != locus.size:
        raise InternalCheckError(
            f"standard monomial count {total_std} differs from |X| = {locus.size}"
        )
    return layout, coords


def exact_vanishing_ideal(locus: Locus) -> GroebnerBasis:
    """The reduced basis of I(X) by elimination over Q, checked to vanish on the locus."""
    field = cyclo_field(locus.k)
    gb = _basis(field, locus.n, *rational_elimination(locus))
    for g in gb.gens:
        for w in locus.words:
            if evaluate_at_word(field, g, w):
                raise InternalCheckError(f"basis element does not vanish at {w}")
    return gb


# -- elimination over F_p on lists -------------------------------------------------------


def list_elimination(locus: Locus, reps, p: int, roots: list[int]):
    """``interpolation.modular_elimination`` with list rows: (stds, gens) or None."""
    n, kk, korder = locus.n, locus.k, locus.scaling_order
    powers = [[pow(omega, j, p) for j in range(kk)] for omega in roots]
    # Per root and eigenclass: echelon rows (pivot, negated vector with pivot 1,
    # trail, 1/scale), one per standard monomial of the class.
    rows_by_root = [[[] for _ in range(korder)] for _ in roots]
    cls_stds: list[list[Exponents]] = [[] for _ in range(korder)]
    stds: list[Exponents] = []
    gens: list[tuple] = []
    level = [(0,) * n]
    d = 0
    while level:
        found = []
        for e in level:
            t = [sum(a * b for a, b in zip(e, w)) % kk for w in reps]
            tails = []
            for pw, by_class in zip(powers, rows_by_root):
                rows = by_class[d % korder]
                vec = [pw[j] for j in t]
                uses = []
                for r, (pivot, neg, _, _) in enumerate(rows):
                    c = vec[pivot] % p
                    if c:
                        vec = [a + c * b for a, b in zip(vec, neg)]
                        uses.append((c, r))
                vec = [x % p for x in vec]
                pivot = next((i for i, x in enumerate(vec) if x), None)
                if pivot is None:
                    tails.append(_tail_coefficients(rows, uses, p))
                else:
                    inv = pow(vec[pivot], -1, p)
                    rows.append((pivot, [-x * inv % p for x in vec], uses, inv))
            if len(tails) == len(roots):
                gens.append((e, tuple(cls_stds[d % korder]), tails))
            elif tails:
                return None
            else:
                cls_stds[d % korder].append(e)
                found.append(e)
        stds.extend(found)
        level = successors(found, n)
        d += 1
        if d > locus.size + n * kk:
            raise InternalCheckError("point-ideal elimination failed to terminate")
    return stds, gens


def point_ideal_product(locus: Locus, *, max_points: int = 8) -> GroebnerBasis:
    """I(X) as an iterated product of the points' maximal ideals (tiny loci only)."""
    if locus.size == 0:
        raise DomainError("empty locus")
    if locus.size > max_points:
        raise ResourceBudgetError(f"product construction capped at {max_points} points")
    field = cyclo_field(locus.k)
    n = locus.n
    basis: GroebnerBasis | None = None
    for w in locus.words:
        origin = {(0,) * n: field.one}
        linear = [sub(variable(field, n, i), scale(origin, field.root_power(w[i]))) for i in range(n)]
        if basis is None:
            gens = linear
        else:
            gens = [mul(f, g) for f in basis.gens for g in linear]
        basis = buchberger(gens)
    return basis


# -- pairwise Buchberger ----------------------------------------------------------------


def monomial_shift(p: Generator, shift: Exponents, coeff: CycloElement) -> dict:
    """Multiply by coeff * x^shift."""
    out = {}
    for e, c in p.items():
        out[tuple(a + b for a, b in zip(e, shift))] = c * coeff
    return nonzero(out)


def reduce_poly(p: Generator, basis: list[Generator]) -> dict:
    """Full normal form of p against a list of (monic) polynomials; long division."""
    remainder = {}
    work = p
    leads = [leading_term(g)[0] for g in basis]
    while work:
        le, lc = leading_term(work)
        hit = None
        for idx, lt in enumerate(leads):
            if all(a >= b for a, b in zip(le, lt)):
                hit = idx
                break
        if hit is None:
            remainder[le] = lc
            work = {e: c for e, c in work.items() if e != le}
            continue
        shift = tuple(a - b for a, b in zip(le, leads[hit]))
        work = sub(work, monomial_shift(basis[hit], shift, lc))
    return nonzero(remainder)


def spoly(f: Generator, g: Generator) -> dict:
    """S-polynomial of two monic polynomials."""
    ltf = leading_term(f)[0]
    ltg = leading_term(g)[0]
    gamma = tuple(max(a, b) for a, b in zip(ltf, ltg))
    one = next(iter(f.values())).field.one
    lhs = monomial_shift(f, tuple(a - b for a, b in zip(gamma, ltf)), one)
    rhs = monomial_shift(g, tuple(a - b for a, b in zip(gamma, ltg)), one)
    return sub(lhs, rhs)


# A cap on the pairs of one reference run, so that a runaway input fails a test
# rather than hanging it.
PAIRWISE_MAX_PAIRS = 20000


def pairwise_buchberger(gens: list[Generator]) -> GroebnerBasis:
    """Reduced monic grevlex Groebner basis of the ideal that nonzero generators of
    one ring span.

    Classic pair processing with the coprime-criterion skip; every pair whose leads
    are not coprime is reduced.
    """
    e0, c0 = next(iter(gens[0].items()))
    field, nvars = c0.field, len(e0)
    basis = [scale(g, leading_term(g)[1].inverse()) for g in gens]

    heap: list[tuple] = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push_pair(heap, basis, i, j)
    processed = 0
    while heap:
        _, gamma, i, j = heappop(heap)
        processed += 1
        if processed > PAIRWISE_MAX_PAIRS:
            raise ResourceBudgetError(f"reference pair cap {PAIRWISE_MAX_PAIRS} exceeded")
        lti = leading_term(basis[i])[0]
        ltj = leading_term(basis[j])[0]
        if tuple(a + b for a, b in zip(lti, ltj)) == gamma:
            continue  # coprime leading terms: s-polynomial reduces to zero
        r = reduce_poly(spoly(basis[i], basis[j]), basis)
        if r:
            r = scale(r, leading_term(r)[1].inverse())
            new_idx = len(basis)
            basis.append(r)
            for idx in range(new_idx):
                push_pair(heap, basis, idx, new_idx)

    return GroebnerBasis(field, nvars, tuple(interreduce(basis)))


def push_pair(heap, basis, i, j):
    lti = leading_term(basis[i])[0]
    ltj = leading_term(basis[j])[0]
    gamma = tuple(max(a, b) for a, b in zip(lti, ltj))
    heappush(heap, (grevlex_key(gamma), gamma, i, j))


def interreduce(basis: list[Generator]) -> list[Generator]:
    # Minimalize: drop generators whose leading term another one divides.
    kept: list[Generator] = []
    leads = [leading_term(g)[0] for g in basis]
    for i, g in enumerate(basis):
        lt = leads[i]
        redundant = False
        for j, other in enumerate(leads):
            if i == j:
                continue
            if all(a >= b for a, b in zip(lt, other)) and (lt != other or j < i):
                redundant = True
                break
        if not redundant:
            kept.append(g)
    # Tail-reduce each against the rest; leading terms are now pairwise non-divisible.
    reduced = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        reduced.append(reduce_poly(g, others) if others else g)
    return reduced
