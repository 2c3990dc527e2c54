"""Buchberger-Moller interpolation of embedded word loci, as raw linear algebra.

Letter j of a word becomes zeta_k^j, so the value-shift action scales embedded
points and evaluation vectors split into eigenspaces indexed by degree mod the
shift order; each eigenspace is determined by the values at orbit
representatives.  Monomials are visited degree by degree in ascending grevlex
order; the candidates of degree d + 1 are the monomials whose one-step
predecessors were all standard at degree d, so no multiple of a leading exponent
is visited.  A monomial whose eigenclass vector depends on the earlier standard
ones is a leading exponent, and the dependency gives its generator's tail.

The walk runs on packed monomials (``PackedMonomials``; Monagan and Pearce,
2007), the one packed format of the package: x^e is one int with deg e in its
top field and M - e_i in field i below it, each b bits wide with M = 2^b - 1
under one guard bit that is zero in every monomial, variable n - 1 most
significant.  Ascending ints are then ascending grevlex, and since packing is
affine, multiplying by x_i adds a constant and x^e / x^l * x^t packs as
pack(e) - pack(l) + pack(t).  With G the guard bits, x^l divides x^e exactly
when ((pack(l) | G) - pack(e)) & G == G: field i computes 2^b + e_i - l_i, which
never borrows from the next and keeps its guard bit iff e_i >= l_i.  The first
variable with e_i > 0 holds the lowest zero bit of pack(e) | G.  The fields
hold every exponent visited: until the walk ends, every degree it has passed
holds a standard monomial, and past #reps in one eigenclass the elimination
stops, so there are at most |X| of them and no exponent exceeds |X|
(``walk_monomials``).  Exponent tuples appear only in the layout.

The elimination produces a layout, listing for each generator its leading
exponent and the standard monomials of its eigenclass found before it, and the
power-basis coordinates in Q(zeta_k) of every tail coefficient on them, flattened
in layout order.

``modular_lifts`` eliminates over F_p for primes p = 1 mod k (Abbott, Bigatti,
Kreuzer and Robbiano, "Computing ideals of points", 2000; Arnold, "Modular
algorithms for computing Groebner bases", 2003).  Phi_k splits into linear factors
mod p, so a primitive k-th root omega mod p stands in for zeta_k and a monomial
gives one scalar row per omega.  When scaling every letter by each unit u mod k
maps the locus to itself, each Galois map zeta -> zeta^u fixes I(X), so the
reduced basis is rational and one root per prime gives all of it.  Otherwise the
elimination runs once for each primitive root and the coefficients are
interpolated at the roots.  CRT over at most MODULAR_PRIMES primes and rational
reconstruction lift them.  A lift is a candidate only: the caller must certify it.

The rows over F_p are packed (Kronecker substitution; Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", 2009): each echelon row,
and the vector being reduced, is one Python int with one byte-aligned slot per
orbit representative, so a row operation is one big-int multiply-add and a
multiplier is one shift and mask.  A stored row is the negated reduced vector,
not normalised: its multiplier is the slot read at its pivot times the stored
inverse of the pivot, mod p.  Stored rows have entries in (0, p] and the vector
being reduced starts below p; each operation adds less than p^2 and a class has
at most #reps rows, so every entry stays below (#reps + 1) p^2, which fixes the
slot width per prime and keeps slots from carrying.  A finished vector is
reduced mod p in every slot at once, without unpacking it, by folds and
guard-bit subtractions (``_slot_reducer``; Lamport, "Multiple byte processing
with full-word instructions", 1975): the split primes lie just below 2^30, so
three folds and one subtraction suffice there.

The split primes lie below PRIME_CEILING = 2^30 because the slot width grows
with log p: for up to 1,100 representatives a slot takes 9 bytes, against 17
below 2^62, and every residue, multiplier and pivot inverse fits in one 30-bit
CPython digit.  The coefficient height, not the prime size, sets how many
primes a lift needs (Arnold 2003): reconstruction mod one such prime recovers
numerators and denominators up to sqrt(p/2), about 2^14.5, while the X, Y, Z
and tanisaki bases with n <= 6 and at most 1,100 points have integer
coefficients of absolute value at most 4, so one prime lifts each of them.

Rows are built incrementally: a monomial's exponent dot products with the
representatives are those of its predecessor at its first nonzero position,
which is standard, plus one column of the representatives, so only the previous
degree's table is kept.

No polynomial type appears here; ``harmonics`` assembles and certifies the bases.
"""

from __future__ import annotations

import math
import operator
from itertools import islice

from .cyclotomic import cyclo_field
from .errors import DomainError, InternalCheckError
from .loci import Action, Locus, act_on_words, map_letters
from .rat import RAT

Exponents = tuple[int, ...]

PRIME_CEILING = 2**30
MODULAR_PRIMES = 4
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SPLIT_PRIMES: dict[tuple[int, int], list[int]] = {}


def grevlex_key(e: Exponents):
    """Sort key realizing graded reverse lexicographic order (larger key = larger)."""
    return (sum(e), tuple(-x for x in reversed(e)))


class PackedMonomials:
    """Monomials in n variables with exponents at most ``bound``, as packed grevlex
    ints with guard bits (see the module docstring)."""

    def __init__(self, n: int, bound: int):
        self.n = n
        self.bits = bits = max(bound, 1).bit_length()
        self.full = (1 << bits) - 1
        self.shifts = tuple(range(0, n * (bits + 1), bits + 1))
        self.guard = sum(1 << (s + bits) for s in self.shifts)
        # x_i times a monomial adds steps[i]: one to the degree, minus one to field i.
        self.steps = tuple((1 << n * (bits + 1)) - (1 << s) for s in self.shifts)
        self.one = sum(self.full << s for s in self.shifts)

    def pack(self, e: Exponents) -> int:
        return self.one + sum(map(operator.mul, e, self.steps))

    def unpack(self, m: int) -> Exponents:
        full = self.full
        return tuple([full - (m >> s & full) for s in self.shifts])

    def first(self, m: int) -> int:
        """The first variable with a nonzero exponent, or n - 1 for x^0."""
        m |= self.guard
        return min((((m + 1) & ~m).bit_length() - 1) // (self.bits + 1), self.n - 1)

    def divisor(self, leads: tuple[int, ...], m: int) -> int | None:
        """The index of the first of the packed ``leads`` that divides m, or None."""
        guard = self.guard
        low = m - guard  # lead - low is (lead | guard) - m: a lead's guard bits are zero
        for idx, lead in enumerate(leads):
            if (lead - low) & guard == guard:
                return idx
        return None

    def successors(self, level: list[int]) -> list[int]:
        """Monomials of degree d + 1 whose one-step predecessors all lie in ``level``.

        With ``level`` the standard monomials of degree d, these are the degree-(d + 1)
        monomials that no leading monomial of degree <= d divides, ascending.  Each is
        built once, from its predecessor at its first nonzero variable.
        """
        members = set(level)
        full, shifts, steps = self.full, self.shifts, self.steps
        out = []
        for s in level:
            first = self.first(s)
            # The variables j >= first with e_j > 0, each giving m's predecessor
            # m - steps[j] for every m = s + steps[i], i <= first.
            down = [steps[j] for j in range(first, self.n) if (s >> shifts[j] & full) != full]
            for i in range(first + 1):
                m = s + steps[i]
                for step in down:
                    if m - step not in members:
                        break
                else:
                    out.append(m)
        out.sort()
        return out


def unit_stable(locus: Locus) -> bool:
    """Whether scaling every letter by each unit u mod k maps the locus to itself.

    Brute force on the codes of the locus: for each unit, one ``map_letters`` pass
    scales every letter and the images are checked against the set of codes.  Where
    it holds, each Galois map zeta -> zeta^u sends I(X) to itself and so fixes its
    reduced basis, whose coefficients are therefore rational.
    """
    kk, codes = locus.k, locus.codes
    words = set(codes)
    units = (u for u in range(2, kk) if math.gcd(u, kk) == 1)
    return all(words.issuperset(map_letters(codes, kk, scale=u)) for u in units)


def orbit_representatives(locus: Locus) -> list[tuple[int, ...]]:
    """Sorted least words of the value-shift orbits, as tuples; a locus the shift does
    not preserve is refused.

    Closure is one pass over the codes: every shifted code is a code of the locus.  The
    shift is free on words of length >= 1, and the first letter of an orbit runs
    through one residue class mod g = k // scaling_order, so each orbit has exactly
    one word whose first letter is at most g, and that word is its least.
    """
    codes = locus.codes
    if not set(codes).issuperset(act_on_words(Action.value_shift(locus.scaling_step, locus.k), codes, locus.n)):
        raise DomainError(f"the value shift by {locus.scaling_step} does not preserve the locus")
    g = locus.k // locus.scaling_order
    return sorted(tuple(w) for w in codes if w[0] <= g)


# -- arithmetic mod split primes -----------------------------------------------------


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve primes as bases: deterministic for n < 3.18e23."""
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def split_primes(k: int):
    """Primes p < PRIME_CEILING with p = 1 mod k, largest first, found on demand.

    Found primes are cached per (ceiling, k), so no search happens at import.
    """
    found = _SPLIT_PRIMES.setdefault((PRIME_CEILING, k), [])
    step = k if k % 2 == 0 else 2 * k  # odd p = 1 mod k means p = 1 mod lcm(2, k)
    i = 0
    while True:
        if i == len(found):
            cand = found[-1] - step if found else (PRIME_CEILING - 2) // step * step + 1
            while not is_prime(cand):
                cand -= step
                if cand < 3:
                    return
            found.append(cand)
        yield found[i]
        i += 1


def primitive_roots(k: int, p: int) -> list[int]:
    """The primitive k-th roots of unity mod p = 1 mod k: omega^u for the units u mod k, ascending."""
    factors = [q for q in range(2, k + 1) if k % q == 0 and all(q % r for r in range(2, q))]
    for g in range(2, p):
        omega = pow(g, (p - 1) // k, p)
        if all(pow(omega, k // q, p) != 1 for q in factors):
            break
    return [pow(omega, u, p) for u in range(k) if math.gcd(u, k) == 1]


def inverse_mod(matrix: list[list[int]], p: int) -> list[list[int]]:
    """Inverse of an invertible square matrix over F_p, by Gauss-Jordan."""
    m = len(matrix)
    aug = [[x % p for x in row] + [int(i == j) for j in range(m)] for i, row in enumerate(matrix)]
    for col in range(m):
        piv = next(r for r in range(col, m) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(m):
            c = aug[r][col]
            if r != col and c:
                aug[r] = [(x - c * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


def rational_reconstruction(r: int, m: int):
    """The fraction a/b with a = b r (mod m) and |a|, b <= sqrt(m/2), or None (Wang).

    An integer a/1 is returned as the int a, so integral lifts make no rationals."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, r % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return r1 * s1 if abs(s1) == 1 else RAT(r1, s1)


# -- elimination over F_p --------------------------------------------------------------


def _tail_coefficients(rows: list[tuple], uses: list[tuple[int, int]], p: int) -> list[int]:
    """Coefficients mod p, on the class' standard monomials, of the tail of x^e.

    x^e's vector plus the sum of c * row r over its trail ``uses`` is zero.  Row q
    is -(v_q + sum of c * row r over its own trail) / pivot_q, where v_q is the
    vector of the q-th standard monomial and 1/pivot_q is the row's last entry, so
    unwinding the trails from the last row down rewrites the sum over rows as
    -sum b_q v_q; x^e's vector is sum b_q v_q and the tail coefficients are -b_q.
    """
    b = [0] * len(rows)
    for c, r in uses:
        b[r] = c
    for q in range(len(rows) - 1, -1, -1):
        if b[q]:
            bq = b[q] = b[q] * rows[q][3] % p
            for c, r in rows[q][2]:
                b[r] = (b[r] - bq * c) % p
    return [-x % p for x in b]


def fold_chain(p: int, top: int) -> tuple[int, int]:
    """Folds and conditional subtractions of p that take slots of values <= top into [0, p).

    With a = p.bit_length() and c = 2^a - p, a fold maps values at most B to values
    at most (2^a - 1) + c floor(B / 2^a); folds are counted while that bound falls.
    Once it stops falling, floor(B / 2^a) p <= 2^a - 1 < 2 p, so B <= p + 2 c - 1,
    which is below 3 p as p > 2^(a - 1) > c: at most two subtractions follow.
    """
    a = p.bit_length()
    c = (1 << a) - p
    folds = 0
    while (nxt := (1 << a) - 1 + c * (top >> a)) < top:
        top = nxt
        folds += 1
    return folds, top // p


def _slot_reducer(p: int, width: int, m: int):
    """Reduction mod p of every slot of packed vectors of m slots with entries below (m + 1) p^2.

    With a = p.bit_length() and c = 2^a - p = 2^a mod p, each fold maps every slot
    x = q 2^a + r to r + c q, congruent and never larger; each subtraction adds
    2^g - p to every slot, reads which slots reached the guard bit g, and
    subtracts p from those.  No slot value grows, so slots never carry.
    """
    bits = 8 * width
    a = p.bit_length()
    c = (1 << a) - p
    folds, subtractions = fold_chain(p, (m + 1) * p * p - 1)
    guard = ((subtractions + 1) * p - 1).bit_length()
    ones = int.from_bytes((1).to_bytes(width, "little") * m, "little")
    low, high = ones * ((1 << a) - 1), ones * ((1 << (bits - a)) - 1)
    offset = ones * ((1 << guard) - p)

    def reduce(v: int) -> int:
        for _ in range(folds):
            v = (v & low) + c * ((v >> a) & high)
        for _ in range(subtractions):
            v -= (((v + offset) >> guard) & ones) * p
        return v

    return reduce


def walk_monomials(locus: Locus) -> PackedMonomials:
    """The packing of the elimination's walk, whose exponents stay at most |X|."""
    return PackedMonomials(locus.n, locus.size)


def modular_elimination(locus: Locus, reps, p: int, roots: list[int]):
    """Buchberger-Moller over F_p, run side by side for each zeta_k -> omega in roots.

    Each monomial gives one scalar row of length #reps per root.  Returns None as
    soon as the roots disagree on whether a monomial is standard.  Otherwise
    returns the standard monomials in the order found and, for every leading
    exponent e in the order found, (e, the standard monomials of e's eigenclass
    found before it, per root the tail coefficients mod p on them), every
    monomial packed by ``walk_monomials(locus)``.
    """
    n, kk, korder = locus.n, locus.k, locus.scaling_order
    m = len(reps)
    # Every entry stays below (m + 1) p^2 (see the module docstring), so slots of
    # this many bytes never carry into each other.
    width = (((m + 1) * p * p).bit_length() + 7) // 8
    bits = 8 * width
    mask = (1 << bits) - 1
    reduce = _slot_reducer(p, width, m)
    full = int.from_bytes(p.to_bytes(width, "little") * m, "little")
    slots = [[pow(omega, j, p).to_bytes(width, "little") for j in range(kk)] for omega in roots]
    columns = [[w[i] for w in reps] for i in range(n)]
    # Per root and eigenclass: echelon rows (pivot slot's bit offset, packed
    # -vector with entries in (0, p], trail, 1/pivot), one per standard monomial
    # of the class.  The rows are not normalised: a row's multiplier is the slot
    # read at its pivot times 1/pivot, so the trails record the slots read, as
    # for the rows -vector / pivot of ``_tail_coefficients``.  Row operations add
    # without reducing mod p; only the slot read as the next multiplier is
    # reduced, and the vector once at the end, all slots at once.
    rows_by_root = [[[] for _ in range(korder)] for _ in roots]
    cls_stds: list[list[int]] = [[] for _ in range(korder)]
    stds: list[int] = []
    gens: list[tuple] = []
    monos = walk_monomials(locus)
    level = [monos.one]
    # Exponent-word dot products mod k, per standard monomial of the last degree.
    dots = {monos.one: [0] * m}
    d = 0
    while level:
        found = []
        next_dots = {}
        for e in level:
            if d:
                i = monos.first(e)
                pred = dots[e - monos.steps[i]]
                t = [(a + b) % kk for a, b in zip(pred, columns[i])]
            else:
                t = dots[e]
            tails = []
            for sl, by_class in zip(slots, rows_by_root):
                rows = by_class[d % korder]
                vec = int.from_bytes(b"".join([sl[j] for j in t]), "little")
                uses = []
                for r, (shift, neg, _, inv) in enumerate(rows):
                    c = (vec >> shift & mask) % p
                    if c:
                        vec += c * inv % p * neg
                        uses.append((c, r))
                vec = reduce(vec)
                if not vec:
                    tails.append(_tail_coefficients(rows, uses, p))
                else:
                    shift = ((vec & -vec).bit_length() - 1) // bits * bits
                    rows.append((shift, full - vec, uses, pow(vec >> shift & mask, -1, p)))
            if len(tails) == len(roots):
                gens.append((e, tuple(cls_stds[d % korder]), tails))
            elif tails:
                return None
            else:
                cls_stds[d % korder].append(e)
                # A class's rows are independent vectors of length m, so a correct
                # run stays within this count, which also bounds the degrees.
                if len(cls_stds[d % korder]) > m:
                    raise InternalCheckError("point-ideal elimination failed to terminate")
                found.append(e)
                next_dots[e] = t
        stds.extend(found)
        level = monos.successors(found)
        dots = next_dots
        d += 1
    return stds, gens


def modular_lifts(locus: Locus, reps):
    """Candidate (layout, coordinates) lifts from at most MODULAR_PRIMES split primes.

    A unit-stable locus (see ``unit_stable``) is eliminated at one primitive root
    per prime, and each tail coefficient c becomes the coordinates (c, 0, ..., 0).
    Any other locus is eliminated at all phi(k) roots: a prime whose roots
    disagree on the staircase is skipped, and the tail coefficients at the roots
    are interpolated to power-basis coordinates mod p.  Coordinates are combined
    over primes with the same staircase by CRT; every prime after which all of
    them lift by rational reconstruction yields a candidate.  ``reps`` are the
    locus' orbit representatives (``orbit_representatives``).
    """
    phi = cyclo_field(locus.k).degree
    rational = unit_stable(locus)
    unpack = walk_monomials(locus).unpack
    staircase = None  # (packed standard monomials, layout)
    residues: list[int] = []
    modulus = 1
    for p in islice(split_primes(locus.k), MODULAR_PRIMES):
        roots = primitive_roots(locus.k, p)
        if rational:
            roots = roots[:1]
        run = modular_elimination(locus, reps, p, roots)
        if run is None:
            continue
        stds, gens = run
        if rational:
            zeros = (0,) * (phi - 1)  # c -> (c, 0, ..., 0)
            coords = [x for _, _, (tail,) in gens for c in tail for x in (c % p, *zeros)]
        else:
            vinv = inverse_mod([[pow(omega, j, p) for j in range(phi)] for omega in roots], p)
            at_roots = (values for _, _, tails in gens for values in zip(*tails))
            coords = [sum(a * v for a, v in zip(row, values)) % p for values in at_roots for row in vinv]
        if staircase is None or stds < staircase[0]:
            # Independence mod p implies independence over Q(zeta_k), so the true
            # staircase is the least one any prime shows: a smaller one restarts.
            exps = dict(zip(stds, map(unpack, stds)))
            layout = [(unpack(e), tuple(map(exps.__getitem__, cls_stds))) for e, cls_stds, _ in gens]
            staircase = (stds, layout)
            residues, modulus = coords, p
        elif stds == staircase[0]:
            inv = pow(modulus, -1, p)
            residues = [r + modulus * ((c - r) * inv % p) for r, c in zip(residues, coords)]
            modulus *= p
        else:
            continue
        lifted = [rational_reconstruction(r, modulus) for r in residues]
        if all(c is not None for c in lifted):
            yield staircase[1], lifted
