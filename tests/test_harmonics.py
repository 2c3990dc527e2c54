"""Vanishing ideals, Groebner machinery, and graded Frobenius images.

``vanishing_ideal`` eliminates over F_p for split primes p = 1 mod k, one
scalar row per monomial and primitive root (one root only for loci closed under
scaling letters by units), and lifts the coefficients to Q(zeta_k) under an
exact certificate, within a budget of split primes.  Its references are the
rational eigenclass elimination and the iterated product of maximal ideals in
``reference_ideals``, and, here, a deliberately naive Buchberger-Moller: dense
evaluation vectors over the cyclotomic field, no eigenspace splitting, no
modular arithmetic.  Reduced monic Groebner bases are unique, so all of them
must agree exactly.  Standard monomials are compared with a filter of every weak
composition, and graded traces read modulo a prime with traces summed in exact
Q(zeta_k).
"""

import ast
import math
import pathlib
import re
import sys
import time
from itertools import chain, islice
from math import isqrt
from weakref import WeakKeyDictionary

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitsieve import harmonics, interpolation
from orbitsieve.characters import conjugacy_classes, sn_character
from orbitsieve.cyclotomic import cyclo_field
from orbitsieve.errors import DomainError, InternalCheckError, ResourceBudgetError
from orbitsieve.harmonics import (
    GroebnerBasis,
    associated_graded,
    buchberger,
    complete_homogeneous,
    elementary_symmetric,
    generator_text,
    graded_character,
    graded_frobenius,
    grevlex_key,
    harmonics_json,
    hilbert_series,
    stated_generators,
    vanishing_ideal,
    verify_presentation,
)
from orbitsieve.loci import Locus, enumerate_locus
from orbitsieve.qpoly import SparsePoly
from orbitsieve.rat import RAT
from orbitsieve.tableaux import partitions, weak_compositions

import reference_ideals
from locus_strategies import shift_stable_loci, tuple_built
from q_analogues import evaluate, q_int
from reference_ideals import (
    add,
    evaluate_at_word,
    exact_vanishing_ideal,
    leading_term,
    list_elimination,
    mul,
    pairwise_buchberger,
    point_ideal_product,
    reduce_poly,
    scale,
    sub,
    successors,
    variable,
)
from test_characters import cycle_type_of


def alive_monomials(d, n, lead_exps):
    """Reference staircase: degree-d exponents no leading exponent divides, ascending grevlex."""
    return [
        e
        for e in sorted(weak_compositions(d, n), key=grevlex_key)
        if not any(all(a >= b for a, b in zip(e, lt)) for lt in lead_exps)
    ]


def exact_graded_character(gb_t, w):
    """Reference graded trace: normal forms by long division, every coefficient summed
    in exact Q(zeta_k)."""
    out = SparsePoly.zero()
    field, gens = gb_t.field, list(gb_t.gens)
    for d, level in enumerate(gb_t.quotient_basis()):
        tr = field.zero
        for e in level:
            permuted = [0] * len(e)
            for i, exp in enumerate(e):
                permuted[w[i]] = exp
            coeff = reduce_poly({tuple(permuted): field.one}, gens).get(e)
            if coeff is not None:
                tr = tr + coeff
        assert tr.is_integer()
        out = out + SparsePoly.monomial(d, 0, tr.as_int())
    return out


def naive_vanishing_ideal(locus):
    """Dense reference Buchberger-Moller over the cyclotomic field."""
    field = cyclo_field(locus.k)
    points = locus.words
    n = locus.n

    def ev(e):
        return [field.root_power(sum(a * b for a, b in zip(e, w))) for w in points]

    rows = []  # (vector with pivot scaled to 1, pivot index, expansion over stds)
    stds, lead_exps, gens = [], [], []
    d = 0
    while True:
        alive = alive_monomials(d, n, lead_exps)
        if not alive:
            break
        for e in alive:
            v = ev(e)
            used = []
            for vec, piv, expr in rows:
                c = v[piv]
                if c:
                    v = [a - c * b for a, b in zip(v, vec)]
                    used.append((c, expr))
            pivot = next((i for i, x in enumerate(v) if x), None)
            if pivot is None:
                tail = {}
                for c, expr in used:
                    for s_idx, val in expr.items():
                        tail[s_idx] = tail.get(s_idx, field.zero) + c * val
                terms = {e: field.one}
                for s_idx, val in tail.items():
                    if val:
                        terms[stds[s_idx]] = -val
                gens.append(terms)
                lead_exps.append(e)
            else:
                inv = v[pivot].inverse()
                expr = {len(stds): field.one}
                for c, prev in used:
                    for s_idx, val in prev.items():
                        expr[s_idx] = expr.get(s_idx, field.zero) - c * val
                rows.append(
                    (
                        [x * inv for x in v],
                        pivot,
                        {s: val * inv for s, val in expr.items() if val},
                    )
                )
                stds.append(e)
        d += 1
    assert len(stds) == locus.size
    return GroebnerBasis(field, n, tuple(gens))


SMALL_LOCI = [
    ("X", 2, 3, None),
    ("X", 3, 2, None),
    ("Y", 2, 3, None),
    ("Y", 3, 3, None),
    ("Z", 3, 2, None),
    ("Z", 4, 2, None),
    ("tanisaki", 3, 2, (2, 1)),
    ("tanisaki", 3, 3, (1, 1, 1)),
    ("tanisaki", 4, 2, (2, 2)),
    ("springer", 3, None, None),
]

# Every locus of the benchmark's oracle-mid pool.
ORACLE_MID_LOCI = [
    ("X", 3, 5, None),
    ("X", 3, 6, None),
    ("tanisaki", 5, 5, (1, 1, 1, 1, 1)),
    ("Y", 5, 5, None),
    ("Z", 5, 3, None),
    ("Y", 3, 6, None),
    ("Y", 3, 5, None),
    ("X", 4, 3, None),
    ("Z", 4, 3, None),
    ("Y", 4, 4, None),
]

# Loci built directly.  Family "tanisaki" gives a value-shift step of ``a``, the
# others a step of 1.  Two shift orbits in {1..4}^3; the basis has coordinates 1/2.
HALF_LOCUS = Locus(
    "X", 3, 4, ((1, 3, 4), (1, 4, 3), (2, 1, 4), (2, 4, 1), (3, 1, 2), (3, 2, 1), (4, 2, 3), (4, 3, 2))
)
# Five orbits of the shift by 3 in {1..6}^3; coordinates such as -96/49 need a
# modulus above 2 * 96^2, more than one prime below 2^8 gives.
RATIONAL_LOCUS = Locus(
    "tanisaki",
    3,
    6,
    (
        (1, 1, 5), (1, 3, 5), (1, 5, 4), (3, 2, 4), (3, 3, 3),
        (4, 2, 1), (4, 4, 2), (4, 6, 2), (6, 5, 1), (6, 6, 6),
    ),
    a=3,
)

# Shift by 2 in {1..6}^4: mod 13 the staircase is wrong at both primitive roots.
UNLUCKY_13_LOCUS = Locus(
    "tanisaki",
    4,
    6,
    (
        (1, 1, 3, 6), (1, 2, 6, 1), (1, 6, 6, 3), (2, 2, 1, 6), (2, 4, 3, 5),
        (3, 2, 2, 5), (3, 3, 5, 2), (3, 4, 2, 3), (4, 4, 3, 2), (4, 6, 5, 1),
        (5, 4, 4, 1), (5, 5, 1, 4), (5, 6, 4, 5), (6, 2, 1, 3), (6, 6, 5, 4),
    ),
    a=2,
)

# Three orbits of the shift by 1 in {1..10}^3: mod 11 the four primitive tenth
# roots disagree on whether a monomial is standard.
DISAGREE_11_LOCUS = Locus(
    "X",
    3,
    10,
    tuple(
        sorted(
            tuple((x - 1 + j) % 10 + 1 for x in w)
            for w in [(1, 4, 5), (1, 8, 2), (1, 9, 1)]
            for j in range(10)
        )
    ),
)


def _coords(gb):
    return [x for g in gb.gens for c in g.values() for x in c.coords]


def _root_counts(monkeypatch):
    """Record how many roots each modular elimination runs at."""
    counts = []
    eliminate = interpolation.modular_elimination

    def spy(locus, reps, p, roots):
        counts.append(len(roots))
        return eliminate(locus, reps, p, roots)

    monkeypatch.setattr(interpolation, "modular_elimination", spy)
    return counts


# The tanisaki loci of ``suite --max-k 4`` whose content is not invariant under
# scaling letters by the units mod k, so their bases are not rational.
NON_UNIT_STABLE_LOCI = [(4, (2, 1, 1)), (5, (3, 1, 1)), (5, (2, 1, 1, 1)), (4, (1, 2, 1))]

STOCK_LOCI = (
    SMALL_LOCI
    + ORACLE_MID_LOCI
    + [("tanisaki", n, None, mu) for n, mu in NON_UNIT_STABLE_LOCI]
    # The largest cells that budgets of 1,024 points and 6 variables admit.
    + [("X", 4, 5, None), ("X", 5, 4, None), ("Y", 6, 6, None)]
)


class TestVanishingIdeal:
    def test_single_point(self):
        gb = vanishing_ideal(enumerate_locus("X", 1, 1))
        field = cyclo_field(1)
        (g,) = gb.gens
        assert g == sub(variable(field, 1, 0), {(0,): field.one})

    def test_full_root_line(self):
        for k in (1, 2, 3, 4, 5):
            gb = vanishing_ideal(enumerate_locus("X", 1, k))
            (g,) = gb.gens
            field = cyclo_field(k)
            assert g == {(k,): field.one, (0,): -field.one}

    def test_grid_standard_monomials(self):
        gb = vanishing_ideal(enumerate_locus("X", 2, 2))
        # ascending grevlex within each degree: x2 precedes x1
        assert gb.quotient_basis() == (((0, 0),), ((0, 1), (1, 0)), ((1, 1),))

    @pytest.mark.parametrize("family,n,k,mu", SMALL_LOCI)
    def test_matches_naive_elimination(self, family, n, k, mu):
        locus = enumerate_locus(family, n, k, mu=mu)
        gb = vanishing_ideal(locus)
        assert gb == naive_vanishing_ideal(locus)
        assert gb == exact_vanishing_ideal(locus)

    @pytest.mark.parametrize(
        "family,n,k,mu",
        [("X", 2, 2, None), ("Y", 2, 3, None), ("Z", 3, 2, None), ("tanisaki", 3, 2, (2, 1))],
    )
    def test_matches_maximal_ideal_product(self, family, n, k, mu):
        locus = enumerate_locus(family, n, k, mu=mu)
        assert vanishing_ideal(locus) == point_ideal_product(locus)

    @settings(max_examples=30, deadline=None)
    @given(shift_stable_loci())
    @example(HALF_LOCUS)
    def test_matches_maximal_ideal_product_on_random_sets(self, locus):
        assert vanishing_ideal(locus) == point_ideal_product(locus)

    def test_generators_vanish_on_points(self):
        locus = enumerate_locus("Y", 3, 4)
        gb = vanishing_ideal(locus)
        for g in gb.gens:
            for w in locus.words:
                assert not evaluate_at_word(gb.field, g, w)

    def test_budgets_and_domain(self):
        with pytest.raises(ResourceBudgetError):
            vanishing_ideal(enumerate_locus("X", 3, 3), max_points=20)
        with pytest.raises(ResourceBudgetError):
            vanishing_ideal(enumerate_locus("X", 3, 2), max_vars=2)
        with pytest.raises(DomainError, match="^vanishing ideal of an empty locus$"):
            vanishing_ideal(enumerate_locus("Y", 3, 2))
        with pytest.raises(ResourceBudgetError):
            point_ideal_product(enumerate_locus("X", 2, 3))

    @pytest.mark.parametrize(
        "budgets,message",
        [
            ({"max_points": -5}, "the point budget must be nonnegative, not -5"),
            ({"max_vars": -1}, "the variable budget must be nonnegative, not -1"),
        ],
    )
    def test_negative_budget_is_a_domain_error(self, budgets, message):
        locus = enumerate_locus("X", 2, 2)
        for call in (verify_presentation, vanishing_ideal, graded_frobenius):
            with pytest.raises(DomainError, match=f"^{message}$"):
                call(locus, **budgets)


class TestModularElimination:
    @pytest.mark.parametrize("family,n,k,mu", ORACLE_MID_LOCI + [("Y", 4, 5, None), ("X", 4, 4, None)])
    def test_matches_exact_elimination(self, family, n, k, mu):
        locus = enumerate_locus(family, n, k, mu=mu)
        assert vanishing_ideal(locus) == exact_vanishing_ideal(locus)

    def test_full_grid_is_the_power_ideal(self):
        # X(4, 5), 625 points: compared with <x_i^5 - 1> directly, since the
        # exact elimination takes minutes.
        field = cyclo_field(5)
        gens = []
        for i in range(4):
            e = tuple(5 if j == i else 0 for j in range(4))
            gens.append({e: field.one, (0, 0, 0, 0): -field.one})
        assert vanishing_ideal(enumerate_locus("X", 4, 5)) == GroebnerBasis(field, 4, tuple(gens))

    def test_non_integer_coordinates(self):
        assert any(x.denominator == 2 for x in _coords(vanishing_ideal(HALF_LOCUS)))
        assert RAT(-96, 49) in _coords(vanishing_ideal(RATIONAL_LOCUS))

    def test_small_primes_combine_by_crt(self, monkeypatch):
        exact = exact_vanishing_ideal(RATIONAL_LOCUS)
        moduli = []
        reconstruct = interpolation.rational_reconstruction

        def spy(r, m):
            moduli.append(m)
            return reconstruct(r, m)

        monkeypatch.setattr(interpolation, "PRIME_CEILING", 2**8)
        monkeypatch.setattr(interpolation, "rational_reconstruction", spy)
        assert vanishing_ideal(RATIONAL_LOCUS) == exact
        assert max(moduli) > 2**8  # a product of several primes

    @pytest.mark.parametrize("order", [(13, 19, 31, 37), (19, 13, 31, 37)])
    def test_unlucky_prime_is_outvoted(self, order, monkeypatch):
        # Mod 13 both primitive sixth roots agree on a staircase that is not the
        # true one; whether 13 comes first or later, the least staircase wins.
        exact = exact_vanishing_ideal(UNLUCKY_13_LOCUS)
        reps = interpolation.orbit_representatives(UNLUCKY_13_LOCUS)
        roots = interpolation.primitive_roots(6, 13)
        stds, _ = _unpacked(UNLUCKY_13_LOCUS, interpolation.modular_elimination(UNLUCKY_13_LOCUS, reps, 13, roots))
        assert sorted(stds) != sorted(chain.from_iterable(exact.quotient_basis()))

        monkeypatch.setattr(interpolation, "split_primes", lambda k: iter(order))
        assert vanishing_ideal(UNLUCKY_13_LOCUS) == exact

    @settings(max_examples=40, deadline=None)
    @given(shift_stable_loci())
    def test_tiny_primes_still_give_the_exact_basis(self, locus):
        # Below 2^8 some primes are too small to reconstruct with, or their
        # roots disagree on the staircase; the rest of the prime budget still
        # gives the exact basis.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(interpolation, "PRIME_CEILING", 2**8)
            assert vanishing_ideal(locus) == exact_vanishing_ideal(locus)

    def test_orbit_representatives_once_per_call(self, monkeypatch):
        calls = []
        represent = interpolation.orbit_representatives

        def spy(locus):
            calls.append(locus)
            return represent(locus)

        monkeypatch.setattr(interpolation, "orbit_representatives", spy)
        locus = enumerate_locus("Z", 3, 2)
        vanishing_ideal(locus)
        assert calls == [locus]

    def test_prime_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(interpolation, "MODULAR_PRIMES", 0)
        with pytest.raises(ResourceBudgetError, match="prime budget"):
            vanishing_ideal(enumerate_locus("Z", 4, 3))

    @pytest.mark.parametrize("family,n,k,mu", STOCK_LOCI)
    def test_stock_loci_certify_at_the_first_prime(self, family, n, k, mu, monkeypatch):
        # The first prime's lift passes the certificate, so these loci never
        # come near the prime budget.  Handed over as tuples, cubes are eliminated too.
        counts = _root_counts(monkeypatch)
        vanishing_ideal(tuple_built(enumerate_locus(family, n, k, mu=mu)), max_points=1024, max_vars=6)
        assert len(counts) == 1

    @pytest.mark.parametrize("family,n,k,mu", SMALL_LOCI + ORACLE_MID_LOCI)
    def test_one_root_matches_all_roots(self, family, n, k, mu, monkeypatch):
        locus = tuple_built(enumerate_locus(family, n, k, mu=mu))  # a cube is eliminated too
        assert interpolation.unit_stable(locus)
        counts = _root_counts(monkeypatch)
        one_root = vanishing_ideal(locus)
        assert set(counts) == {1}
        monkeypatch.setattr(interpolation, "unit_stable", lambda lc: False)
        counts.clear()
        assert vanishing_ideal(locus) == one_root
        assert set(counts) == {cyclo_field(locus.k).degree}

    @pytest.mark.parametrize("family,n,k,mu", STOCK_LOCI)
    def test_built_loci_scale_as_their_tuple_built_twins(self, family, n, k, mu):
        # X, Y, Z and springer are unit-stable, and so is a tanisaki locus exactly
        # when scaling by each unit permutes its content.
        locus = enumerate_locus(family, n, k, mu=mu)
        kk = locus.k
        units = [u for u in range(2, kk) if math.gcd(u, kk) == 1]
        stable = family != "tanisaki" or all(mu[u * x % kk - 1] == mu[x - 1] for u in units for x in range(1, kk + 1))
        assert interpolation.unit_stable(locus) == interpolation.unit_stable(tuple_built(locus)) == stable

    @pytest.mark.parametrize("n,mu", NON_UNIT_STABLE_LOCI)
    def test_non_stable_loci_take_every_root(self, n, mu, monkeypatch):
        locus = enumerate_locus("tanisaki", n, mu=mu)
        assert not interpolation.unit_stable(locus)
        counts = _root_counts(monkeypatch)
        gb = vanishing_ideal(locus)
        assert counts and set(counts) == {cyclo_field(locus.k).degree}
        assert any(not c.is_rational() for g in gb.gens for c in g.values())

    def test_root_count_reads_the_words_not_the_family(self, monkeypatch):
        # The shift orbit of (1, 2, 3), named "X": scaling by the unit 2 mod 3
        # swaps letters 1 and 2, and (2, 1, 3) is not in the set.
        locus = Locus("X", 3, 3, ((1, 2, 3), (2, 3, 1), (3, 1, 2)))
        assert not interpolation.unit_stable(locus)
        counts = _root_counts(monkeypatch)
        gb = vanishing_ideal(locus)
        assert set(counts) == {2}
        assert gb == naive_vanishing_ideal(locus)

    @pytest.mark.parametrize("n,k", [(n, k) for family, n, k, _ in STOCK_LOCI if family == "X"])
    def test_cube_basis_is_the_modular_basis(self, n, k, monkeypatch):
        locus = enumerate_locus("X", n, k)
        counts = _root_counts(monkeypatch)
        cube = vanishing_ideal(locus, max_points=1024, max_vars=6)
        assert counts == []
        assert cube == harmonics._cube_basis(cyclo_field(k), n)
        assert vanishing_ideal(tuple_built(locus), max_points=1024, max_vars=6) == cube
        assert counts == [1]

    def test_only_the_built_cube_skips_elimination(self, monkeypatch):
        # The whole cube handed over in lex order, or reversed, is eliminated at one
        # prime and gives the cube basis.
        counts = _root_counts(monkeypatch)
        cube = enumerate_locus("X", 2, 3)
        assert vanishing_ideal(cube) == harmonics._cube_basis(cyclo_field(3), 2) and counts == []
        for listed in (cube.words, cube.words[::-1]):
            counts.clear()
            assert vanishing_ideal(Locus("X", 2, 3, listed)) == harmonics._cube_basis(cyclo_field(3), 2)
            assert counts == [1]

    def test_rational_reconstruction(self):
        m = 1000003 * 998244353
        for a, b in [(0, 1), (1, 1), (-1, 1), (-7, 1), (1, 2), (-96, 49), (12345, 678)]:
            lifted = interpolation.rational_reconstruction(a * pow(b, -1, m) % m, m)
            # An int exactly when the denominator is 1.
            assert lifted == RAT(a, b) and type(lifted) is (int if b == 1 else RAT)
        # Modulo 7 only 0 and +-1 have numerator and denominator within sqrt(7/2).
        lifted = [interpolation.rational_reconstruction(r, 7) for r in range(7)]
        assert lifted == [0, 1, None, None, None, None, -1]

    @pytest.mark.parametrize("family,n,k,mu", [c for c in SMALL_LOCI + ORACLE_MID_LOCI if c[0] in ("X", "Y", "Z")])
    def test_integral_bases_keep_int_coordinates(self, family, n, k, mu):
        gb = vanishing_ideal(enumerate_locus(family, n, k, mu=mu))
        assert all(type(x) is int for x in _coords(gb))

    def test_miller_rabin_matches_a_sieve(self):
        limit = 20000
        sieve = bytearray([1]) * limit
        sieve[0] = sieve[1] = 0
        for i in range(2, isqrt(limit) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(range(i * i, limit, i)))
        assert [n for n in range(limit) if interpolation.is_prime(n)] == [n for n in range(limit) if sieve[n]]
        # Strong pseudoprimes to the bases 2..7 and 2..23, and numbers near the
        # prime ceilings the tests run at.
        assert not interpolation.is_prime(3825123056546413051)
        assert not interpolation.is_prime(3215031751)
        assert interpolation.is_prime(2**61 - 1)
        assert not interpolation.is_prime(2**62 - 1)
        assert interpolation.is_prime(2**31 - 1)
        assert not interpolation.is_prime(2**30 - 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 12])
    def test_split_primes_and_their_roots(self, k):
        primes = list(islice(interpolation.split_primes(k), 3))
        assert primes == sorted(primes, reverse=True)
        ceiling = interpolation.PRIME_CEILING
        assert ceiling // 2 < primes[-1] < primes[0] < ceiling
        for p in primes:
            assert interpolation.is_prime(p) and (p - 1) % k == 0
            roots = interpolation.primitive_roots(k, p)
            assert len(set(roots)) == cyclo_field(k).degree
            for omega in roots:
                assert pow(omega, k, p) == 1
                assert all(pow(omega, j, p) != 1 for j in range(1, k))


def _unpacked(locus, run):
    """A ``modular_elimination`` run with its packed monomials as exponent tuples."""
    if run is None:
        return None
    unpack = interpolation.walk_monomials(locus).unpack
    stds, gens = run
    return [unpack(e) for e in stds], [(unpack(e), tuple(map(unpack, c)), t) for e, c, t in gens]


def _same_as_list_rows(locus, p):
    """Packed rows and the list reference give the same run at one root and at all."""
    reps = interpolation.orbit_representatives(locus)
    roots = interpolation.primitive_roots(locus.k, p)
    for some in (roots[:1], roots):
        run = interpolation.modular_elimination(locus, reps, p, some)
        assert _unpacked(locus, run) == list_elimination(locus, reps, p, some)


def _first_split_prime(ceiling, k):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interpolation, "PRIME_CEILING", ceiling)
        return next(interpolation.split_primes(k))


# The default prime ceiling; 2^62, whose split primes have the widest slots
# the kernel is still checked at; and 2^8, whose primes are too small for some
# lifts.
CEILINGS = (interpolation.PRIME_CEILING, 2**62, 2**8)

# The first split primes below each ceiling, and primes whose c = 2^a - p lies
# just below 2^(a - 1), where the fold chain is longest (131: c = 125).
FOLD_PRIMES = [_first_split_prime(ceiling, 1) for ceiling in CEILINGS] + [3, 5, 17, 131, 257, 65537]


def _slot_width(m, p):
    """Bytes per slot in ``modular_elimination``: entries stay below (m + 1) p^2."""
    return (((m + 1) * p * p).bit_length() + 7) // 8


def _pack(values, width):
    return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in values), "little")


def _unpack(v, width, m):
    raw = v.to_bytes(m * width, "little")
    return [int.from_bytes(raw[j : j + width], "little") for j in range(0, m * width, width)]


class TestSlotReduction:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fold_matches_slotwise_reduction(self, data):
        p = data.draw(st.sampled_from(FOLD_PRIMES))
        m = data.draw(st.integers(1, 40))
        top = (m + 1) * p * p - 1
        width = _slot_width(m, p)
        reduce = interpolation._slot_reducer(p, width, m)
        drawn = data.draw(st.lists(st.integers(0, top), min_size=m, max_size=m))
        for values in (drawn, [top] * m, [p] * m, [0] * m):
            packed = _pack(values, width)
            assert _unpack(reduce(packed), width, m) == [x % p for x in _unpack(packed, width, m)]
        assert interpolation.fold_chain(p, top)[1] <= 2

    @settings(max_examples=30, deadline=None)
    @given(shift_stable_loci())
    @example(UNLUCKY_13_LOCUS)
    def test_stored_rows_lie_in_zero_to_p(self, locus):
        # Every class that gets a generator hands its echelon rows to
        # _tail_coefficients.  A stored row is the negated reduced vector, not
        # normalised: its slots lie in (0, p], and its pivot slot times its
        # stored inverse is -1 mod p.
        reps = interpolation.orbit_representatives(locus)
        m = len(reps)
        seen = []
        tail_coefficients = interpolation._tail_coefficients

        def spy(rows, uses, p):
            seen.append((rows, p))
            return tail_coefficients(rows, uses, p)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(interpolation, "_tail_coefficients", spy)
            for ceiling in CEILINGS:
                mp.setattr(interpolation, "PRIME_CEILING", ceiling)
                p = next(interpolation.split_primes(locus.k))
                interpolation.modular_elimination(locus, reps, p, interpolation.primitive_roots(locus.k, p))
        assert len({p for _, p in seen}) == len(CEILINGS)
        for rows, p in seen:
            width = _slot_width(m, p)
            for shift, neg, _, inv in rows:
                slots = _unpack(neg, width, m)
                assert all(0 < x <= p for x in slots)
                assert slots[shift // (8 * width)] * inv % p == p - 1

    @pytest.mark.parametrize("k", range(1, 13))
    def test_split_primes_need_three_folds_and_one_subtraction(self, k):
        # At 1,100 orbit representatives, beyond the default point budget; a
        # prime ceiling far from a power of two would lengthen the chain.
        for p in islice(interpolation.split_primes(k), interpolation.MODULAR_PRIMES):
            folds, subtractions = interpolation.fold_chain(p, 1101 * p * p - 1)
            assert folds <= 3 and subtractions <= 1


class TestPackedRows:
    @settings(max_examples=40, deadline=None)
    @given(shift_stable_loci())
    @example(DISAGREE_11_LOCUS)
    @example(UNLUCKY_13_LOCUS)
    def test_packed_rows_match_list_rows(self, locus):
        with pytest.MonkeyPatch.context() as mp:
            for ceiling in CEILINGS:
                mp.setattr(interpolation, "PRIME_CEILING", ceiling)
                _same_as_list_rows(locus, next(interpolation.split_primes(locus.k)))

    def test_prime_whose_roots_disagree_is_skipped(self, monkeypatch):
        locus = DISAGREE_11_LOCUS
        assert locus.size == 30 and not interpolation.unit_stable(locus)
        reps = interpolation.orbit_representatives(locus)
        roots = interpolation.primitive_roots(10, 11)
        assert interpolation.modular_elimination(locus, reps, 11, roots) is None
        assert list_elimination(locus, reps, 11, roots) is None

        primes = interpolation.split_primes
        monkeypatch.setattr(interpolation, "split_primes", lambda k: chain([11], primes(k)))
        counts = _root_counts(monkeypatch)
        assert vanishing_ideal(locus) == exact_vanishing_ideal(locus)
        assert counts == [4, 4]  # 11 skipped, the next prime certified

    def test_step_not_dividing_k(self):
        # The shift by 2 in {1..5} has order 5, not 5 // 2: one orbit of five words.
        locus = Locus("tanisaki", 2, 5, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1)), a=2)
        assert locus.scaling_order == 5
        assert interpolation.orbit_representatives(locus) == [(1, 2)]
        assert vanishing_ideal(locus) == point_ideal_product(locus)

    def test_shift_that_does_not_preserve_the_locus(self):
        # The shift by 1 takes (1, 1) to (2, 2) and then to (3, 3), which is missing.
        locus = Locus("X", 2, 3, ((1, 1), (2, 2)))
        with pytest.raises(DomainError, match="^the value shift by 1 does not preserve the locus$"):
            interpolation.orbit_representatives(locus)
        with pytest.raises(DomainError, match="^the value shift by 1 does not preserve the locus$"):
            vanishing_ideal(locus)

    def test_elimination_past_its_count_bound_is_an_internal_error(self, monkeypatch):
        # With every stored pivot inverse read as 0 no row reduces anything, so every
        # monomial looks standard; the walk stops once a class has more standard
        # monomials than the five orbit representatives.
        reps = interpolation.orbit_representatives(UNLUCKY_13_LOCUS)
        p = next(interpolation.split_primes(6))
        roots = interpolation.primitive_roots(6, p)
        monkeypatch.setattr(interpolation, "pow", lambda b, e, m: 0 if e == -1 else pow(b, e, m), raising=False)
        start = time.perf_counter()
        with pytest.raises(InternalCheckError, match="^point-ideal elimination failed to terminate$"):
            interpolation.modular_elimination(UNLUCKY_13_LOCUS, reps, p, roots)
        assert time.perf_counter() - start < 5


def _tuple_staircase(locus, leads):
    """(standard monomials in the order found, layout) of the elimination's walk, on
    tuples: each degree's candidates come from ``reference_ideals.successors``, each
    is a lead or standard, and each lead is laid out with the standard monomials of
    its eigenclass found before it."""
    korder, lead_set = locus.scaling_order, set(leads)
    cls_stds = [[] for _ in range(korder)]
    stds, layout = [], []
    level, d = [(0,) * locus.n], 0
    while level:
        found = []
        for e in level:
            if e in lead_set:
                layout.append((e, tuple(cls_stds[d % korder])))
            else:
                cls_stds[d % korder].append(e)
                found.append(e)
        stds.extend(found)
        level = successors(found, locus.n)
        d += 1
    return stds, layout


class TestPackedWalk:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_successors_match_the_tuple_walk(self, data):
        # An order ideal: the monomials no lead divides, with a pure power of every
        # variable among the leads so that it is finite.  Its exponents stay below
        # 4, and any field width that holds 3 must give the same walk.
        n = data.draw(st.integers(1, 6))
        powers = data.draw(st.tuples(*[st.integers(1, 3)] * n))
        leads = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=6))
        leads += [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(powers)]
        monos = interpolation.PackedMonomials(n, data.draw(st.integers(3, 2**12)))

        def standard(e):
            return not any(all(a >= b for a, b in zip(e, lt)) for lt in leads)

        level = [e for e in [(0,) * n] if standard(e)]
        while level:
            assert [monos.unpack(m) for m in monos.successors(list(map(monos.pack, level)))] == (
                expected := successors(level, n)
            )
            level = list(filter(standard, expected))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_packed_divisibility_is_componentwise(self, data):
        # Exponents up to the field maximum, where the guard bits are closest to a
        # borrow; leading zero exponents put the first nonzero variable past field 0.
        n = data.draw(st.integers(1, 6))
        monos = interpolation.PackedMonomials(n, data.draw(st.integers(1, 2**12)))
        exponents = st.tuples(*[st.integers(0, monos.full)] * n)
        lead, e = data.draw(exponents), data.draw(exponents)
        divides = monos.divisor((monos.pack(lead),), monos.pack(e)) == 0
        assert divides == all(a >= b for a, b in zip(e, lead))
        assert monos.divisor((monos.pack(e),), monos.pack(e)) == 0
        zeros = data.draw(st.integers(0, n - 1))
        e = (0,) * zeros + e[zeros:]
        assert monos.first(monos.pack(e)) == next((i for i, a in enumerate(e) if a), n - 1)

    @pytest.mark.parametrize("family,n,k,mu", STOCK_LOCI)
    def test_staircase_is_the_tuple_walk(self, family, n, k, mu):
        locus = enumerate_locus(family, n, k, mu=mu)
        reps = interpolation.orbit_representatives(locus)
        p = next(interpolation.split_primes(locus.k))
        roots = interpolation.primitive_roots(locus.k, p)
        if interpolation.unit_stable(locus):
            roots = roots[:1]
        stds, gens = _unpacked(locus, interpolation.modular_elimination(locus, reps, p, roots))
        gb = vanishing_ideal(locus, max_points=1024, max_vars=6)
        expected = _tuple_staircase(locus, gb.leading_exponents())
        assert (stds, [(e, c) for e, c, _ in gens]) == expected
        assert next(interpolation.modular_lifts(locus, reps))[0] == expected[1]
        assert list(chain.from_iterable(gb.quotient_basis())) == stds

    @pytest.mark.parametrize("k", [256, 300])
    def test_walk_reaches_the_degree_bound(self, k):
        # One variable and one orbit: the walk ends at degree |X| = k, the width
        # bound itself; 256 needs a ninth bit.
        gb = vanishing_ideal(enumerate_locus("X", 1, k), max_points=k)
        field = cyclo_field(k)
        (g,) = gb.gens
        assert g == {(k,): field.one, (0,): -field.one}
        assert gb.quotient_basis() == tuple(((d,),) for d in range(k))


# Z(3, 2): six points, shift order 2, three orbit representatives, and the
# leads x3^2, x2^2, x1 x2, x1^2, each generator with rational tails.
CERTIFIED_LOCUS = enumerate_locus("Z", 3, 2)
CERTIFIED_REPS = interpolation.orbit_representatives(CERTIFIED_LOCUS)


def _lift_terms(layout, coords, phi):
    """A lift as {lead: {tail monomial: power-basis coordinates}}."""
    it = iter(coords)
    return {e: {s: [next(it) for _ in range(phi)] for s in stds} for e, stds in layout}


def _flatten(terms):
    """The (layout, coordinates) that ``harmonics._basis`` reads, from lift terms."""
    layout = [(e, tuple(tail)) for e, tail in terms.items()]
    return layout, [x for tail in terms.values() for c in tail.values() for x in c]


def _tail_divisible_by_a_lead(terms):
    tail = terms[(1, 1, 0)]
    tail[(0, 2, 0)] = tail.pop((0, 1, 1))  # x2 x3 becomes the lead x2^2, still below x1 x2


def _lead_divisible_by_a_lead(terms):
    terms[(0, 0, 3)] = {(0, 0, 1): [RAT(-1)]}  # x3^3 - x3 lies in I(X); x3^2 divides its lead


def _dropped_generator(terms):
    del terms[(1, 1, 0)]  # x1 x2 becomes standard: eight standard monomials


def _changed_coordinate(terms):
    terms[(2, 0, 0)][(0, 0, 0)][0] += 1


def _tail_from_another_class(terms):
    # x1 = zeta = -1 at every orbit representative, so adding x1 + 1 to x3^2 - 1
    # keeps it zero there; x1 has odd degree and x3^2 even.
    tail = terms[(0, 0, 2)]
    tail[(0, 0, 0)][0] += 1
    tail[(1, 0, 0)] = [RAT(1)]


CORRUPTIONS = [
    _tail_divisible_by_a_lead,
    _lead_divisible_by_a_lead,
    _dropped_generator,
    _changed_coordinate,
    _tail_from_another_class,
]


def _rejection_lines() -> set[tuple[str, int]]:
    """(function, line) of every ``return False`` in ``_certified`` and ``_vanishes_on``."""
    tree = ast.parse(pathlib.Path(harmonics.__file__).read_text(encoding="utf-8"))
    return {
        (node.name, sub.lineno)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ("_certified", "_vanishes_on")
        for sub in ast.walk(node)
        if isinstance(sub, ast.Return) and isinstance(sub.value, ast.Constant) and sub.value.value is False
    }


def _rejections_hit(call) -> set[tuple[str, int]]:
    """The ``_rejection_lines`` that ``call()`` executes, traced line by line."""
    watched = {harmonics._certified.__code__, harmonics._vanishes_on.__code__}
    hit = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_name, frame.f_lineno))
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code in watched else None)
    try:
        call()
    finally:
        sys.settrace(previous)
    return hit & _rejection_lines()


def _pure_power(n, i, a):
    return tuple(a if j == i else 0 for j in range(n))


def _cube_with_other_constant(field, n):
    """x_i^k - zeta: the leads of the cube basis, vanishing at no word."""
    k, zeta = field.order, field.root_power(1)
    gens = [{_pure_power(n, i, k): field.one, (0,) * n: -zeta} for i in range(n)]
    return GroebnerBasis(field, n, tuple(gens))


def _cube_with_a_higher_power(field, n):
    """x_1^(k+1) - x_1 in place of x_1^k - 1: it vanishes on the cube, but leaves
    k^(n-1) standard monomials too many."""
    k, one = field.order, field.one
    gens = [{_pure_power(n, i, k): one, (0,) * n: -one} for i in range(1, n)]
    gens.append({_pure_power(n, 0, k + 1): one, _pure_power(n, 0, 1): -one})
    return GroebnerBasis(field, n, tuple(gens))


def _candidate(corrupt):
    """The basis ``_basis`` assembles from the first lift of CERTIFIED_LOCUS, corrupted."""
    field = cyclo_field(CERTIFIED_LOCUS.k)
    layout, coords = next(interpolation.modular_lifts(CERTIFIED_LOCUS, CERTIFIED_REPS))
    terms = _lift_terms(layout, coords, field.degree)
    if corrupt is not None:
        corrupt(terms)
    return harmonics._basis(field, CERTIFIED_LOCUS.n, *_flatten(terms))


class TestCertificate:
    def test_the_true_lift_passes(self):
        gb = _candidate(None)
        assert harmonics._certified(CERTIFIED_LOCUS, gb, CERTIFIED_REPS)
        assert gb == exact_vanishing_ideal(CERTIFIED_LOCUS)

    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_corrupted_lift_is_rejected(self, corrupt):
        assert not harmonics._certified(CERTIFIED_LOCUS, _candidate(corrupt), CERTIFIED_REPS)

    def test_tail_not_standard_is_its_only_fault(self):
        gb = _candidate(_tail_divisible_by_a_lead)
        assert gb.leading_exponents() == _candidate(None).leading_exponents()
        assert any((0, 2, 0) in g for g in gb.gens) and not gb.is_standard((0, 2, 0))

    def test_extra_lead_is_its_only_fault(self):
        gb = _candidate(_lead_divisible_by_a_lead)
        assert sum(map(len, gb.quotient_basis())) == CERTIFIED_LOCUS.size
        assert harmonics._vanishes_on(gb, CERTIFIED_LOCUS.words)

    def test_dropped_generator_changes_the_standard_count(self):
        assert sum(map(len, _candidate(_dropped_generator).quotient_basis())) == 8

    def test_changed_coordinate_fails_at_an_orbit_representative(self):
        assert not harmonics._vanishes_on(_candidate(_changed_coordinate), CERTIFIED_REPS)

    def test_changed_irrational_coordinate_is_rejected(self):
        # Over Q(i), the tail coordinates at index 1 are rotated by each word's
        # exponent dot products before the power table reduces them.
        locus = enumerate_locus("tanisaki", 5, mu=(2, 1, 1, 1))
        assert not interpolation.unit_stable(locus)
        field = cyclo_field(locus.k)
        assert field.degree == 2
        reps = interpolation.orbit_representatives(locus)
        layout, coords = next(interpolation.modular_lifts(locus, reps))
        terms = _lift_terms(layout, coords, field.degree)
        gb = harmonics._basis(field, locus.n, *_flatten(terms))
        assert harmonics._vanishes_on(gb, reps)
        assert harmonics._certified(locus, gb, reps)
        tail = next(c for tail in terms.values() for c in tail.values() if c[1])
        tail[1] += 1
        changed = harmonics._basis(field, locus.n, *_flatten(terms))
        assert changed.leading_exponents() == gb.leading_exponents()
        assert not harmonics._vanishes_on(changed, reps)
        assert not harmonics._certified(locus, changed, reps)

    def test_other_class_tail_vanishes_at_the_representatives_only(self):
        # Only the eigenclass clause tells this candidate from I(X): evaluating at
        # the orbit representatives alone would accept it.
        gb = _candidate(_tail_from_another_class)
        assert {w[0] for w in CERTIFIED_REPS} == {1}
        assert harmonics._vanishes_on(gb, CERTIFIED_REPS)
        assert not harmonics._vanishes_on(gb, CERTIFIED_LOCUS.words)
        assert sum(map(len, gb.quotient_basis())) == CERTIFIED_LOCUS.size

    def test_each_rejection_has_its_corruption(self):
        # Each corruption trips exactly one ``return False`` of the certificate,
        # and together they trip all five.
        rejections = _rejection_lines()
        assert len(rejections) == 5
        tripped = []
        for corrupt in [None, *CORRUPTIONS]:
            gb = _candidate(corrupt)
            tripped.append(_rejections_hit(lambda: harmonics._certified(CERTIFIED_LOCUS, gb, CERTIFIED_REPS)))
        assert tripped[0] == set() and all(len(hit) == 1 for hit in tripped[1:])
        assert set().union(*tripped) == rejections

    @pytest.mark.parametrize("wrong", [_cube_with_other_constant, _cube_with_a_higher_power])
    def test_wrong_cube_basis_falls_back_to_elimination(self, wrong, monkeypatch):
        locus = enumerate_locus("X", 2, 3)
        certify = harmonics._certified
        verdicts = []

        def spy(locus, gb, reps):
            verdicts.append(certify(locus, gb, reps))
            return verdicts[-1]

        monkeypatch.setattr(harmonics, "_cube_basis", wrong)
        monkeypatch.setattr(harmonics, "_certified", spy)
        counts = _root_counts(monkeypatch)
        assert vanishing_ideal(locus) == exact_vanishing_ideal(locus)
        assert verdicts == [False, True]
        assert counts == [1]

    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_corrupt_lifts_exhaust_the_prime_budget(self, corrupt, monkeypatch):
        assemble = harmonics._basis
        candidates = []

        def corrupted(field, n, layout, coords):
            terms = _lift_terms(layout, coords, field.degree)
            corrupt(terms)
            candidates.append(layout)
            return assemble(field, n, *_flatten(terms))

        monkeypatch.setattr(harmonics, "_basis", corrupted)
        with pytest.raises(ResourceBudgetError, match="prime budget"):
            vanishing_ideal(CERTIFIED_LOCUS)
        assert len(candidates) == interpolation.MODULAR_PRIMES


class TestAssociatedGraded:
    def test_top_components(self):
        gb = vanishing_ideal(enumerate_locus("X", 1, 3))
        (tau,) = associated_graded(gb).gens
        assert tau == {(3,): cyclo_field(3).one}

    def test_grid_leading_terms_and_dimension(self):
        gb = vanishing_ideal(enumerate_locus("X", 2, 2))
        taus = associated_graded(gb).gens
        assert sorted(leading_term(t)[0] for t in taus) == [(0, 2), (2, 0)]
        gb_t = buchberger(list(taus))
        assert sum(map(len, gb_t.quotient_basis())) == 4

    def test_springer_two_letters(self):
        gb = vanishing_ideal(enumerate_locus("springer", 2))
        taus = associated_graded(gb).gens
        pretty = sorted(map(generator_text, taus))
        assert pretty[0] == "x1 + x2"  # the linear relation survives as its own top part

    @pytest.mark.parametrize("family,n,k,mu", SMALL_LOCI)
    def test_top_components_are_the_reduced_graded_basis(self, family, n, k, mu):
        gb_i = vanishing_ideal(enumerate_locus(family, n, k, mu=mu))
        gb_t = associated_graded(gb_i)
        assert buchberger(list(gb_t.gens)) == gb_t
        assert gb_t.leading_exponents() == gb_i.leading_exponents()

    @pytest.mark.parametrize("family,n,k,mu", SMALL_LOCI)
    def test_a_basis_reads_each_leading_term_once(self, family, n, k, mu, monkeypatch):
        # Each term is ranked once, when its generator's lead is picked, and each
        # lead once more, when the generators are put in order.
        gb = vanishing_ideal(enumerate_locus(family, n, k, mu=mu))
        calls = []
        monkeypatch.setattr(harmonics, "grevlex_key", counted(grevlex_key, calls, "grevlex_key"))
        rebuilt = GroebnerBasis(gb.field, gb.nvars, gb.gens[::-1])
        assert len(calls) == sum(map(len, gb.gens)) + len(gb.gens)
        assert rebuilt.gens == gb.gens and rebuilt.leading_exponents() == gb.leading_exponents()

    def test_non_monic_generator_rejected(self):
        field = cyclo_field(3)
        x = variable(field, 2, 0)
        with pytest.raises(InternalCheckError, match="^Groebner basis generator is not monic$"):
            GroebnerBasis(field, 2, (scale(x, field.from_int(2)),))
        with pytest.raises(InternalCheckError, match="^Groebner basis generator is not monic$"):
            GroebnerBasis(field, 2, (scale(x, field.root_power(1)),))


class TestPolynomials:
    def test_a_generator_is_a_read_only_mapping_of_its_terms(self):
        gb = vanishing_ideal(enumerate_locus("X", 2, 2))
        field = gb.field
        with pytest.raises(TypeError):
            gb.gens[0][(0, 0)] = field.one
        assert gb.gens[0] == {(0, 2): field.one, (0, 0): -field.one}
        with pytest.raises(DomainError, match="^zero polynomial has no leading term$"):
            GroebnerBasis(field, 2, ({},))

    def test_symmetric_degrees_out_of_range(self):
        field = cyclo_field(1)
        for d in (-1, 3):
            with pytest.raises(DomainError, match="^elementary symmetric degree out of range$"):
                elementary_symmetric(field, 2, d)
        with pytest.raises(DomainError, match="^negative degree$"):
            complete_homogeneous(field, 2, -1)


def counted(function, calls: list, name: str):
    """``function``, appending ``name`` to ``calls`` on every call."""

    def wrapper(*args, **kwargs):
        calls.append(name)
        return function(*args, **kwargs)

    return wrapper


class TestBuchberger:
    def test_a_zero_generator_is_refused(self):
        one = cyclo_field(1).one
        for gens in ([{}], [{(1, 0): one}, {}]):
            with pytest.raises(DomainError, match="^zero polynomial has no leading term$"):
                buchberger(gens)

    def test_monomial_ideal_idempotent(self):
        field = cyclo_field(1)
        gens = [{(2, 0): field.one}, {(0, 2): field.one}]
        gb = buchberger(gens)
        assert list(gb.gens) == [{(0, 2): field.one}, {(2, 0): field.one}]
        assert buchberger(list(gb.gens)) == gb

    def test_regular_sequence_dimension(self):
        field = cyclo_field(1)
        gens = [complete_homogeneous(field, 2, 1), complete_homogeneous(field, 2, 2)]
        gb = buchberger(gens)
        assert sum(map(len, gb.quotient_basis())) == 2

    def test_stated_surjective_generators_dimension(self):
        gb = buchberger(stated_generators(enumerate_locus("Z", 3, 2)))
        assert sum(map(len, gb.quotient_basis())) == 6

    def test_reduced_invariants(self):
        field = cyclo_field(1)
        gens = [
            complete_homogeneous(field, 3, 2),
            complete_homogeneous(field, 3, 3),
            complete_homogeneous(field, 3, 4),
        ]
        gb = buchberger(gens)
        leads = gb.leading_exponents()
        for i, a in enumerate(leads):
            for j, b in enumerate(leads):
                if i != j:
                    assert not all(x >= y for x, y in zip(a, b))
        for i, g in enumerate(gb.gens):
            assert reduce_poly(g, list(gb.gens[:i] + gb.gens[i + 1 :])) == g
        assert sum(map(len, gb.quotient_basis())) == 24  # [2]_q[3]_q[4]_q at q=1

    def test_quotient_dimension_budget(self, monkeypatch):
        field = cyclo_field(1)
        gb = buchberger([complete_homogeneous(field, 2, 1), complete_homogeneous(field, 2, 2)])
        monkeypatch.setattr(harmonics, "MAX_QUOTIENT_DIM", 1)
        with pytest.raises(ResourceBudgetError):
            gb.quotient_basis()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_standard_monomials_match_the_composition_filter(self, data):
        # Random lead sets: the pure powers plus a few mixed exponents, reduced
        # to their minimal elements.
        n = data.draw(st.integers(1, 4))
        exps = st.tuples(*[st.integers(0, 4)] * n)
        leads = [tuple(data.draw(st.integers(1, 5)) if j == i else 0 for j in range(n)) for i in range(n)]
        leads += data.draw(st.lists(exps.filter(any), max_size=6))
        antichain = {
            a for a in leads if not any(b != a and all(x >= y for x, y in zip(a, b)) for b in leads)
        }
        field = cyclo_field(1)
        gb = GroebnerBasis(field, n, tuple({e: field.one} for e in antichain))
        expected = []
        for d in range(5 * n + 1):
            level = alive_monomials(d, n, antichain)
            if not level:
                break
            expected.append(tuple(level))
        assert gb.quotient_basis() == tuple(expected)
        assert not alive_monomials(len(expected), n, antichain)

    def test_non_artinian_quotient_rejected(self):
        field = cyclo_field(1)
        gb = buchberger([variable(field, 2, 0)])
        message = "quotient is not finite-dimensional (no pure power in the leading terms)"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            gb.quotient_basis()

    def test_non_monic_inputs(self):
        # 2 x1 + 1 and (1 + zeta) x2 - x1 over Q(zeta_3): both leads need an inverse.
        field = cyclo_field(3)
        x1, x2 = variable(field, 2, 0), variable(field, 2, 1)
        one = {(0, 0): field.one}
        gens = [add(scale(x1, field.from_int(2)), one), sub(scale(x2, field.element((1, 1))), x1)]
        gb = buchberger(gens)
        assert gb == pairwise_buchberger(gens)
        # x1 = -1/2 and x2 = -1 / (2 (1 + zeta)) = zeta / 2, since 1 + zeta = -zeta^2.
        assert list(gb.gens) == [
            {(0, 1): field.one, (0, 0): field.element((0, RAT(-1, 2)))},
            {(1, 0): field.one, (0, 0): field.element((RAT(1, 2), 0))},
        ]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_pairwise_reference(self, data):
        # Non-homogeneous generators whose leading coefficients need not be one, so
        # that both make them monic by a field inverse.
        field = cyclo_field(data.draw(st.sampled_from([1, 3]), label="order"))
        n = data.draw(st.integers(1, 3), label="n")
        exps = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
        coeffs = st.lists(st.integers(-3, 3), min_size=field.degree, max_size=field.degree).filter(any)
        poly = st.dictionaries(exps, coeffs.map(field.element), min_size=1, max_size=4)
        gens = data.draw(st.lists(poly, min_size=1, max_size=3))
        assert buchberger(gens) == pairwise_buchberger(gens)

    def test_stated_bases_match_the_pairwise_reference(self):
        cells = [(f, n, k) for f in "XYZ" for n in range(1, 5) for k in range(1, 5)] + [("Y", 5, 6), ("Z", 5, 4)]
        for family, n, k in cells:
            locus = enumerate_locus(family, n, k)
            if locus.size:
                gens = stated_generators(locus)
                assert buchberger(gens) == pairwise_buchberger(gens), (family, n, k)

    def test_chain_criterion_spares_reductions(self, monkeypatch):
        # Z(4, 4): the reference reduces 23 S-polynomials, the chain criterion leaves 6.
        # Either run ends with one reduction per element of the reduced basis, so the
        # long divisions are 27 and 10.
        gens = stated_generators(enumerate_locus("Z", 4, 4))
        calls = []
        for module, name in ((harmonics, "_reduce"), (reference_ideals, "reduce_poly")):
            monkeypatch.setattr(module, name, counted(getattr(module, name), calls, name))
        gb = buchberger(gens)
        assert gb == pairwise_buchberger(gens)
        assert (calls.count("_reduce") - len(gb.gens), calls.count("reduce_poly") - len(gb.gens)) == (6, 23)

    def test_pairs_skipped_by_a_criterion_are_not_reduced(self, monkeypatch):
        # <x1 x2, x2 x3, x1 x3>: three pairs with lcm x1 x2 x3.  The first two reduce
        # to zero, and the chain criterion skips the third through the other two.
        field = cyclo_field(1)
        x = [variable(field, 3, i) for i in range(3)]
        gens = [mul(x[0], x[1]), mul(x[1], x[2]), mul(x[0], x[2])]
        calls = []
        monkeypatch.setattr(harmonics, "_reduce", counted(harmonics._reduce, calls, "_reduce"))
        gb = buchberger(gens)
        assert gb == pairwise_buchberger(gens)
        assert len(calls) == 2 + len(gb.gens)
        # Pure powers: every pair is skipped as coprime, so only the final
        # reductions run.
        powers = [mul(g, g) for g in x]
        calls.clear()
        assert buchberger(powers) == pairwise_buchberger(powers)
        assert len(calls) == len(powers)


class TestNormalForms:
    """Long division (``reference_ideals.reduce_poly``), the reference for graded traces."""

    def test_standard_monomial_fixed(self):
        gb = vanishing_ideal(enumerate_locus("X", 2, 2))
        field = gb.field
        m = {(1, 1): field.one}
        assert reduce_poly(m, list(gb.gens)) == m

    def test_ideal_members_reduce_to_zero(self):
        locus = enumerate_locus("Y", 3, 3)
        gb = vanishing_ideal(locus)
        # products of generators stay in the ideal
        assert not reduce_poly(mul(gb.gens[0], gb.gens[-1]), list(gb.gens))

    def test_reduction_matches_evaluation(self):
        # The normal form is the unique standard-monomial combination agreeing
        # with the original polynomial as a function on the locus.
        locus = enumerate_locus("Z", 3, 2)
        gb = vanishing_ideal(locus)
        field = gb.field
        p = mul(complete_homogeneous(field, 3, 2), elementary_symmetric(field, 3, 1))
        nf = reduce_poly(p, list(gb.gens))
        assert all(gb.is_standard(e) for e in nf)
        for w in locus.words:
            assert evaluate_at_word(field, p, w) == evaluate_at_word(field, nf, w)

    @pytest.mark.parametrize("family,n,k,mu", SMALL_LOCI)
    def test_generators_reduce_to_zero(self, family, n, k, mu):
        gb = vanishing_ideal(enumerate_locus(family, n, k, mu=mu))
        for basis in (gb, associated_graded(gb)):
            assert not any(reduce_poly(g, list(basis.gens)) for g in basis.gens)

    def test_malformed_exponents_rejected(self):
        gb = vanishing_ideal(enumerate_locus("X", 2, 2))
        for e in [(1,), (1, 0, 0), (2, -1)]:
            with pytest.raises(DomainError, match="^exponents do not name a monomial of this basis' ring$"):
                gb.is_standard(e)

    def test_is_standard_past_the_field_width_is_tuple_divisibility(self):
        # X(2, 3): leads x1^3, x2^3 and the top standard degree 4 fit 3-bit fields,
        # and exponents past them must still answer as componentwise divisibility.
        gb = vanishing_ideal(enumerate_locus("X", 2, 3))
        assert gb.monomials.full == 7
        leads = gb.leading_exponents()
        for e in [(2, 2), (3, 0), (2, 7), (2, 8), (8, 2), (2, 1000), (1000, 2), (2**70, 0), (1, 2**70)]:
            assert gb.is_standard(e) == (not any(all(a >= b for a, b in zip(e, lt)) for lt in leads)), e

    def test_every_monomial_to_the_top_standard_degree_walks_to_its_normal_form(self):
        # Y(3, 5): leads of degree at most 5, pure powers x1^3, x2^4, x3^5, so the
        # fields hold sum(a_i - 1) = 9, the top standard degree, and every monomial
        # up to it walks to its exact normal form mapped to F_p.
        gb = vanishing_ideal(enumerate_locus("Y", 3, 5))
        top = len(gb.quotient_basis()) - 1
        assert max(map(sum, gb.leading_exponents())) < top == 9 <= gb.monomials.full
        p = gb.trace_prime(0)
        for d in range(top + 1):
            for e in weak_compositions(d, 3):
                assert modular_normal_form(gb, e, p) == exact_normal_form_mod(gb, e, p), e

    @pytest.mark.parametrize("family,n,k,mu", [("X", 6, 2, None), ("tanisaki", 6, None, (3, 2, 1))])
    def test_modular_normal_forms_are_the_exact_ones_mapped(self, family, n, k, mu):
        gb = vanishing_ideal(enumerate_locus(family, n, k, mu=mu), max_points=100, max_vars=6)
        p = gb.trace_prime(0)
        for d in range(5):
            for e in weak_compositions(d, 6):
                assert modular_normal_form(gb, e, p) == exact_normal_form_mod(gb, e, p)


def modular_normal_form(gb, e, p):
    """``_normal_form_walk`` of x^e mod p, keyed by standard exponents instead of packed ints."""
    pack = gb.monomials.pack
    walk = gb._normal_form_walk(pack(e), p)
    unpacked = {pack(s): s for s in chain.from_iterable(gb.quotient_basis())}
    return {unpacked[s]: c for s, c in walk.items()}


def exact_normal_form_mod(gb, e, p):
    """The normal form of x^e by long division, its nonzero coefficients mapped to F_p
    through the first primitive root, as ``trace_prime`` maps them."""
    omega = interpolation.primitive_roots(gb.field.order, p)[0]
    out = {}
    for s, c in reduce_poly({e: gb.field.one}, list(gb.gens)).items():
        image = sum(
            int(x.numerator) * pow(int(x.denominator), -1, p) * pow(omega, i, p) for i, x in enumerate(c.coords)
        ) % p
        if image:
            out[s] = image
    return out


class TestHilbertSeries:
    def test_grid_product_formula(self):
        for n in range(1, 4):
            for k in range(1, 4):
                gb = vanishing_ideal(enumerate_locus("X", n, k))
                assert hilbert_series(gb.quotient_basis()) == q_int(k) ** n

    def test_distinct_letters_factorization(self):
        for n in range(1, 4):
            for k in range(n, 6):
                gb = vanishing_ideal(enumerate_locus("Y", n, k))
                expected = SparsePoly.one()
                for j in range(k - n + 1, k + 1):
                    expected = expected * q_int(j)
                assert hilbert_series(gb.quotient_basis()) == expected

    def test_single_point(self):
        gb = vanishing_ideal(enumerate_locus("X", 1, 1))
        assert hilbert_series(gb.quotient_basis()) == SparsePoly.one()


def first_cycles(ct):
    """The representative with the cycles of ``ct`` on the first variables, as i -> i + 1."""
    perm = []
    for c in ct:
        offset = len(perm)
        perm.extend(offset + (i + 1) % c for i in range(c))
    return tuple(perm)


def conjugate(w, s):
    """s w s^-1 in one-line form: it sends s(i) to s(w(i))."""
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[s[i]] = s[x]
    return tuple(out)


class TestGradedCharacter:
    def test_identity_is_hilbert(self):
        for family, n, k, mu in [("X", 2, 2, None), ("Z", 3, 2, None), ("springer", 3, None, None)]:
            locus = enumerate_locus(family, n, k, mu=mu)
            gb_t = associated_graded(vanishing_ideal(locus))
            ident = tuple(range(locus.n))
            assert graded_character(gb_t, ident) == hilbert_series(gb_t.quotient_basis())

    def test_transposition_on_grid(self):
        gb_t = associated_graded(vanishing_ideal(enumerate_locus("X", 2, 2)))
        assert graded_character(gb_t, (1, 0)) == SparsePoly({(0, 0): 1, (2, 0): 1})

    def test_rejects_non_permutation(self):
        gb_t = associated_graded(vanishing_ideal(enumerate_locus("X", 2, 2)))
        with pytest.raises(DomainError, match=r"^w must be a permutation of 0\.\.n-1$"):
            graded_character(gb_t, (0, 0))

    # The tanisaki locus has coefficients outside Q, which map to F_p through omega.
    @pytest.mark.parametrize("family,n,k,mu", SMALL_LOCI + ORACLE_MID_LOCI + [("tanisaki", 4, None, (2, 1, 1))])
    def test_modular_traces_are_the_exact_ones(self, family, n, k, mu):
        locus = enumerate_locus(family, n, k, mu=mu)
        gb_t = associated_graded(vanishing_ideal(locus))
        for ct, _ in conjugacy_classes(locus.n):
            w = harmonics._perm_of_cycle_type(ct)
            assert graded_character(gb_t, w) == exact_graded_character(gb_t, w), ct

    def test_class_representative_has_its_cycle_type(self):
        for n in range(1, 8):
            for ct in partitions(n):
                w = harmonics._perm_of_cycle_type(ct)
                assert sorted(w) == list(range(n))
                assert cycle_type_of(w) == ct

    # A trace is a class function: the mirrored representative, the one with its
    # cycles on the first variables, and a third conjugate give the same traces.
    @pytest.mark.parametrize("family,n,k,mu", SMALL_LOCI + ORACLE_MID_LOCI)
    def test_traces_agree_at_conjugate_representatives(self, family, n, k, mu):
        locus = enumerate_locus(family, n, k, mu=mu)
        gb_t = associated_graded(vanishing_ideal(locus))
        shuffle = tuple(range(0, locus.n, 2)) + tuple(range(1, locus.n, 2))
        for ct, _ in conjugacy_classes(locus.n):
            w = harmonics._perm_of_cycle_type(ct)
            first = first_cycles(ct)
            expected = graded_character(gb_t, w)
            assert graded_character(gb_t, first) == expected, ct
            assert graded_character(gb_t, conjugate(first, shuffle)) == expected, ct

    def test_the_walk_reduces_each_monomial_once(self, monkeypatch):
        gb_t = associated_graded(vanishing_ideal(enumerate_locus("tanisaki", mu=(1, 1, 1, 1, 1))))
        monos, seen = gb_t.monomials, []
        divisor = monos.divisor

        def counted(leads, m):
            seen.append(m)
            return divisor(leads, m)

        monkeypatch.setattr(monos, "divisor", counted)
        for ct, _ in conjugacy_classes(5):
            graded_character(gb_t, harmonics._perm_of_cycle_type(ct))
        ((_, cache),) = [entry for entry in gb_t._nf_mod.values() if entry is not None]
        assert sorted(seen) == sorted(cache)
        # The first-cycles representative needed 1,059 normal forms here.
        assert len(cache) == 584

    def test_traces_past_the_lead_degree(self):
        # Y(3, 5): leads of degree at most 5, but the top standard monomial has
        # degree 9; the fields fixed at construction hold it.
        gb_t = associated_graded(vanishing_ideal(enumerate_locus("Y", 3, 5)))
        top = len(gb_t.quotient_basis()) - 1
        assert max(map(sum, gb_t.leading_exponents())) < top <= gb_t.monomials.full
        for w in [(1, 0, 2), (1, 2, 0)]:
            assert graded_character(gb_t, w) == exact_graded_character(gb_t, w)

    def test_residue_beyond_the_piece_dimension_rejected(self):
        # <x1 + 5 x2, x2^2> is not S_2-stable: the swap has trace -5 on the
        # one-dimensional degree-1 piece spanned by x2.
        field = cyclo_field(1)
        gens = ({(1, 0): field.one, (0, 1): field.from_int(5)}, {(0, 2): field.one})
        gb_t = GroebnerBasis(field, 2, gens)
        assert exact_graded_character(gb_t, (1, 0)) == SparsePoly({(0, 0): 1, (1, 0): -5})
        message = "graded trace exceeds its piece's dimension; S_n does not preserve the ideal"
        with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
            graded_character(gb_t, (1, 0))


class TestTracePrime:
    """The split prime for graded traces skips denominators and can run out."""

    @staticmethod
    def basis_with_denominator(p):
        # <x1 + x2 / p, x2^2> over Q(zeta_3): x2 / p has no image mod p.
        field = cyclo_field(3)
        gens = ({(1, 0): field.one, (0, 1): field.element((RAT(1, p), 0))}, {(0, 2): field.one})
        return GroebnerBasis(field, 2, gens)

    def test_prime_dividing_a_denominator_is_skipped(self):
        largest, second = islice(interpolation.split_primes(3), 2)
        gb = self.basis_with_denominator(largest)
        assert gb.trace_prime(0) == second
        assert gb._nf_mod[largest] is None
        pack = gb.monomials.pack
        walk = gb._normal_form_walk(pack((1, 0)), second)
        assert walk == {pack((0, 1)): -pow(largest, -1, second) % second}

    def test_running_out_of_primes_raises(self, monkeypatch):
        largest = next(interpolation.split_primes(3))
        gb = self.basis_with_denominator(largest)
        monkeypatch.setattr(harmonics, "split_primes", lambda k: iter([largest]))
        with pytest.raises(InternalCheckError, match=r"^no split prime above 0 for the field of order 3$"):
            gb.trace_prime(0)
        monkeypatch.setattr(harmonics, "split_primes", lambda k: iter(()))
        with pytest.raises(InternalCheckError, match="no split prime above 0"):
            associated_graded(vanishing_ideal(enumerate_locus("X", 2, 3))).trace_prime(0)


def frobenius_dimension(frob):
    """The dimension of the module a Schur expansion names: each coefficient at q = 1
    times the dimension f^lambda of its irreducible."""
    return sum(evaluate(c) * sn_character(lam, (1,) * sum(lam)) for lam, c in frob.items())


class TestGradedFrobenius:
    def test_grid_two_two(self):
        fr = graded_frobenius(enumerate_locus("X", 2, 2))
        assert fr[(2,)] == SparsePoly({(0, 0): 1, (1, 0): 1, (2, 0): 1})
        assert fr[(1, 1)] == SparsePoly.monomial(1, 0)

    def test_distinct_letters_two_two(self):
        fr = graded_frobenius(enumerate_locus("Y", 2, 2))
        assert fr[(2,)] == SparsePoly.one()
        assert fr[(1, 1)] == SparsePoly.monomial(1, 0)

    def test_fixed_content_pair(self):
        fr = graded_frobenius(enumerate_locus("tanisaki", 2, 2, mu=(1, 1)))
        assert fr[(2,)] == SparsePoly.one()
        assert fr[(1, 1)] == SparsePoly.monomial(1, 0)

    def test_permutation_words_give_fake_degrees(self):
        from orbitsieve.tableaux import fake_degree, partitions

        for n in (2, 3, 4):
            fr = graded_frobenius(enumerate_locus("springer", n))
            for lam in partitions(n):
                assert fr[lam] == fake_degree(lam)

    def test_dimensions_add_to_locus_size(self):
        for family, n, k, mu in SMALL_LOCI:
            locus = enumerate_locus(family, n, k, mu=mu)
            assert frobenius_dimension(graded_frobenius(locus)) == locus.size

    def test_budgets_checked_before_the_cache(self):
        locus = enumerate_locus("X", 2, 3)
        graded_frobenius(locus)  # warm the cache
        with pytest.raises(ResourceBudgetError):
            graded_frobenius(locus, max_points=5)
        with pytest.raises(ResourceBudgetError):
            graded_frobenius(locus, max_vars=1)
        assert graded_frobenius(locus, max_points=9) is graded_frobenius(locus)

    def test_an_image_goes_with_its_locus(self, monkeypatch):
        monkeypatch.setattr(harmonics, "_FROBENIUS_CACHE", WeakKeyDictionary())
        locus = enumerate_locus("X", 2, 3)
        image = graded_frobenius(locus)
        assert list(harmonics._FROBENIUS_CACHE.items()) == [(locus, image)]
        del locus
        assert len(harmonics._FROBENIUS_CACHE) == 0

    def test_a_locus_built_separately_is_computed_afresh(self, monkeypatch):
        # The memo is keyed by the locus object: equal parameters are not the same key.
        monkeypatch.setattr(harmonics, "_FROBENIUS_CACHE", WeakKeyDictionary())
        first, second = enumerate_locus("X", 2, 3), enumerate_locus("X", 2, 3)
        image = graded_frobenius(first)
        assert graded_frobenius(first) is image
        assert graded_frobenius(second) is not image and graded_frobenius(second) == image
        assert len(harmonics._FROBENIUS_CACHE) == 2

    def test_cache_keyed_by_the_words(self, monkeypatch):
        monkeypatch.setattr(harmonics, "_FROBENIUS_CACHE", WeakKeyDictionary())
        graded_frobenius(enumerate_locus("X", 2, 2))
        diagonal = Locus("X", 2, 2, ((1, 1), (2, 2)))
        assert frobenius_dimension(graded_frobenius(diagonal)) == 2

    def test_locus_not_preserved_by_the_symmetric_group(self, monkeypatch):
        # Closed under the value shift, but not under the 3-cycle of positions.
        locus = Locus("X", 3, 2, ((1, 1, 2), (2, 2, 1)))
        def no_ideal(*args, **kwargs):
            raise AssertionError("vanishing_ideal ran before the symmetry check")

        monkeypatch.setattr(harmonics, "vanishing_ideal", no_ideal)
        with pytest.raises(DomainError, match="^the symmetric group does not preserve the locus$"):
            graded_frobenius(locus)

    @pytest.mark.parametrize(
        "family,n,k,mu,message",
        [
            ("X", 2, 2, None, "graded traces of class (2,) do not sum to the 2 words its permutation fixes"),
            ("Z", 3, 2, None, "graded traces of class (3,) do not sum to the 0 words its permutation fixes"),
            ("springer", 3, None, None,
             "graded traces of class (3,) do not sum to the 0 words its permutation fixes"),
        ],
    )
    def test_corrupted_trace_trips_the_fixed_word_sum(self, family, n, k, mu, message, monkeypatch):
        # Every permutation given the identity's trace: the multiplicities stay
        # nonnegative integers and the dimension stays |X|, so only the fixed
        # words catch it.
        locus = enumerate_locus(family, n, k, mu=mu)
        trace = harmonics.graded_character

        def corrupted(gb_t, w):
            return trace(gb_t, tuple(range(len(w))))

        monkeypatch.setattr(harmonics, "_FROBENIUS_CACHE", WeakKeyDictionary())
        monkeypatch.setattr(harmonics, "graded_character", corrupted)
        with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
            graded_frobenius(locus)

    def test_uneven_trace_trips_the_integrality_check(self, monkeypatch):
        # One unit of the identity's degree-0 trace moved to degree 1: every
        # class still sums to its fixed words, but the trivial module's degree-0
        # multiplicity becomes 1/2.
        trace = harmonics.graded_character

        def moved(gb_t, w):
            out = trace(gb_t, w)
            if list(w) == sorted(w):
                out = out + SparsePoly({(0, 0): -1, (1, 0): 1})
            return out

        monkeypatch.setattr(harmonics, "_FROBENIUS_CACHE", WeakKeyDictionary())
        monkeypatch.setattr(harmonics, "graded_character", moved)
        with pytest.raises(InternalCheckError, match="^graded multiplicity is not an integer$"):
            graded_frobenius(enumerate_locus("X", 2, 2))

    def test_trace_with_a_negative_module_trips_the_sign_check(self, monkeypatch):
        # X(2,2) has no sign module in degree 0.  Moving the sign character's
        # values from degree 0 to degree 1 keeps every multiplicity an integer and
        # every fixed-word sum, but gives the sign module multiplicity -1 there.
        classes = {harmonics._perm_of_cycle_type(ct): ct for ct, _ in conjugacy_classes(2)}
        trace = harmonics.graded_character

        def moved(gb_t, w):
            chi = sn_character((1, 1), classes[tuple(w)])
            return trace(gb_t, w) + SparsePoly({(0, 0): -chi, (1, 0): chi})

        monkeypatch.setattr(harmonics, "_FROBENIUS_CACHE", WeakKeyDictionary())
        monkeypatch.setattr(harmonics, "graded_character", moved)
        with pytest.raises(InternalCheckError, match="^graded multiplicity is negative$"):
            graded_frobenius(enumerate_locus("X", 2, 2))

    def test_trivial_multiplicity_counts_orbits(self):
        from orbitsieve.loci import orbit_set

        for family, n, k, mu in [("X", 3, 2, None), ("Z", 4, 2, None), ("tanisaki", 4, 2, (2, 2))]:
            locus = enumerate_locus(family, n, k, mu=mu)
            fr = graded_frobenius(locus)
            assert evaluate(fr[(locus.n,)]) == orbit_set(locus, "Sn").size


class TestBasisCache:
    def test_budgets_checked_before_the_lookup(self):
        locus = enumerate_locus("Y", 2, 4)
        assert verify_presentation(locus)  # caches the basis
        assert locus in harmonics._BASIS_CACHE
        with pytest.raises(ResourceBudgetError):
            verify_presentation(locus, max_points=locus.size - 1)
        with pytest.raises(ResourceBudgetError):
            verify_presentation(locus, max_vars=locus.n - 1)
        assert verify_presentation(locus, max_points=locus.size)

    def test_vanishing_ideal_eliminates_on_every_call(self, monkeypatch):
        lifts = []
        modular_lifts = harmonics.modular_lifts

        def spy(locus, reps):
            lifts.append(locus)
            return modular_lifts(locus, reps)

        monkeypatch.setattr(harmonics, "modular_lifts", spy)
        locus = enumerate_locus("Z", 3, 2)
        assert vanishing_ideal(locus) == vanishing_ideal(locus)
        assert lifts == [locus, locus]

    def test_a_basis_goes_with_its_locus(self, monkeypatch):
        monkeypatch.setattr(harmonics, "_BASIS_CACHE", WeakKeyDictionary())
        locus = enumerate_locus("Y", 2, 4)
        assert verify_presentation(locus)
        assert list(harmonics._BASIS_CACHE) == [locus]
        del locus
        assert len(harmonics._BASIS_CACHE) == 0

    def test_a_locus_built_separately_is_eliminated_afresh(self, monkeypatch):
        monkeypatch.setattr(harmonics, "_BASIS_CACHE", WeakKeyDictionary())
        eliminated = []
        compute = harmonics.vanishing_ideal

        def spy(locus, **budgets):
            eliminated.append(locus)
            return compute(locus, **budgets)

        monkeypatch.setattr(harmonics, "vanishing_ideal", spy)
        first, second = enumerate_locus("Y", 2, 4), enumerate_locus("Y", 2, 4)
        assert verify_presentation(first) and verify_presentation(first) and verify_presentation(second)
        assert len(eliminated) == 2 and eliminated[0] is first and eliminated[1] is second


class TestPresentations:
    def test_stated_presentations_verify(self):
        assert verify_presentation(enumerate_locus("X", 2, 3))
        assert verify_presentation(enumerate_locus("Y", 2, 3))
        assert verify_presentation(enumerate_locus("Z", 3, 2))

    @pytest.mark.parametrize("family, n, k", [("X", 2, 3), ("Y", 2, 3), ("Z", 3, 2)])
    def test_wrong_generators_are_rejected(self, monkeypatch, family, n, k):
        # Dropping a generator shrinks the stated ideal and appending x_1 enlarges it.
        # Z(3,2)'s last generator e_3 lies in the ideal of the others, so the first goes.
        stated = harmonics.stated_generators
        locus = enumerate_locus(family, n, k)
        monkeypatch.setattr(harmonics, "stated_generators", lambda loc: stated(loc)[1:])
        assert not verify_presentation(locus)
        x1 = variable(cyclo_field(k), n, 0)
        monkeypatch.setattr(harmonics, "stated_generators", lambda loc: stated(loc) + [x1])
        assert not verify_presentation(locus)

    def test_families_without_a_presentation_rejected_before_elimination(self, monkeypatch):
        def no_elimination(*args, **kwargs):
            raise AssertionError("vanishing_ideal ran before the family was refused")

        monkeypatch.setattr(harmonics, "_BASIS_CACHE", WeakKeyDictionary())
        monkeypatch.setattr(harmonics, "vanishing_ideal", no_elimination)
        for locus, message in [
            (enumerate_locus("springer", 3), "no stated presentation for family 'springer'"),
            (enumerate_locus("tanisaki", 3, mu=(2, 1)), "no stated presentation for family 'tanisaki'"),
        ]:
            with pytest.raises(DomainError, match=f"^{message}$"):
                verify_presentation(locus)

    def test_the_pair_budget_is_gone(self):
        with pytest.raises(TypeError, match="max_pairs"):
            verify_presentation(enumerate_locus("X", 2, 2), max_pairs=1)

    @pytest.mark.parametrize(
        "family,n,k,mu,message",
        [
            ("Y", 3, 2, None, "no stated presentation: the locus is empty"),
            ("Z", 2, 3, None, "no stated presentation: the locus is empty"),
            ("springer", 3, None, None, "no stated presentation for family 'springer'"),
            ("tanisaki", 3, None, (2, 1), "no stated presentation for family 'tanisaki'"),
        ],
    )
    def test_stated_generators_refuse_loci_without_a_presentation(self, family, n, k, mu, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            stated_generators(enumerate_locus(family, n, k, mu=mu))

    @pytest.mark.parametrize("family,n,k", [("Y", 5, 6), ("Z", 5, 4), ("Y", 6, 6)])
    def test_larger_presentations_verify(self, family, n, k):
        assert verify_presentation(enumerate_locus(family, n, k), max_points=720, max_vars=6)


class TestDumps:
    def test_json_shape(self):
        locus = enumerate_locus("X", 2, 2)
        gb_i = vanishing_ideal(locus)
        gb_t = associated_graded(gb_i)
        blob = harmonics_json(locus, gb_i, gb_t)
        assert blob["locus"] == {"family": "X", "n": 2, "k": 2}
        assert blob["hilbert_series"] == "1 + 2*q + q^2"
        assert len(blob["point_ideal"]["generators"]) == 2
        assert blob["standard_monomials_by_degree"][1] == [[0, 1], [1, 0]]

    def test_grevlex_order(self):
        # x^2 > xy > y^2 within a degree; degree dominates.
        assert grevlex_key((2, 0)) > grevlex_key((1, 1)) > grevlex_key((0, 2))
        assert grevlex_key((3, 0)) > grevlex_key((2, 0))
