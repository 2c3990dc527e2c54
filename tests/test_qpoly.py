"""SparsePoly and q-analogue tests.

Oracle values come from independent brute-force statistics (inversions and major
index over explicitly enumerated words), not from the package's own formulas.
"""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitsieve import qpoly
from orbitsieve.errors import DomainError, InternalCheckError
from orbitsieve.qpoly import SparsePoly, q_binomial, q_multinomial
from orbitsieve.tableaux import partitions

from q_analogues import evaluate, q_factorial, q_int


def words_with_content(counts):
    letters = []
    for letter, c in enumerate(counts, start=1):
        letters.extend([letter] * c)
    return set(itertools.permutations(letters))


def inv_stat(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def maj_stat(w):
    return sum(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def gf(values):
    poly = SparsePoly.zero()
    for v in values:
        poly = poly + SparsePoly.monomial(v)
    return poly


def test_q_multinomial_frozen_small_values():
    q = SparsePoly.monomial(1)
    assert q_multinomial(3, (2, 1)) == 1 + q + q**2
    assert q_multinomial(4, (2, 2)) == 1 + q + 2 * q**2 + q**3 + q**4
    assert q_multinomial(5, (5,)) == SparsePoly.one()
    assert q_multinomial(0, ()) == SparsePoly.one()


def test_q_binomial_matches_inversion_oracle():
    # [n over k]_q is the inversion generating function over 0/1 words
    for n in range(7):
        for k in range(n + 1):
            oracle = gf(inv_stat(w) for w in words_with_content((n - k, k)))
            assert q_binomial(n, k) == oracle


def test_q_multinomial_matches_maj_oracle():
    for counts in [(2, 1), (2, 2), (1, 1, 1), (3, 2), (2, 2, 1), (1, 1, 1, 1), (3, 1, 1)]:
        n = sum(counts)
        oracle = gf(maj_stat(w) for w in words_with_content(counts))
        assert q_multinomial(n, counts) == oracle


def test_q_multinomial_part_order_irrelevant():
    assert q_multinomial(5, (3, 2)) == q_multinomial(5, (2, 3))
    assert q_multinomial(6, (3, 2, 1)) == q_multinomial(6, (1, 3, 2))
    assert len({q_multinomial(6, parts) for parts in itertools.permutations((3, 2, 1, 0))}) == 1


def test_a_constant_hashes_as_the_int_it_equals():
    for n in (0, 1, 3, -2):
        assert SparsePoly.from_int(n) == n and hash(SparsePoly.from_int(n)) == hash(n)
    assert 3 in {SparsePoly.from_int(3)} and SparsePoly.from_int(3) in {3}
    assert 0 in {SparsePoly.zero()} and len({SparsePoly.one(), 1}) == 1
    assert SparsePoly.monomial(1) not in {1} and SparsePoly({(0, 1): 1}) not in {1}


def test_q_binomial_out_of_range_is_zero():
    assert q_binomial(3, 5).is_zero()
    assert q_binomial(3, -1).is_zero()


def test_q_analogues_at_one_count_objects():
    import math

    for n in range(8):
        for k in range(n + 1):
            assert evaluate(q_binomial(n, k)) == math.comb(n, k)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: SparsePoly({(0, -1): 1}), "negative exponent in SparsePoly"),
        (lambda: SparsePoly({(0, 0): 1.7}), "term 1.7 * q^0 t^0 of SparsePoly is not integral"),
        (lambda: SparsePoly({(0, 0): Fraction(1, 2)}), "term 1/2 * q^0 t^0 of SparsePoly is not integral"),
        (lambda: SparsePoly({(1.9, 0): 1}), "term 1 * q^1.9 t^0 of SparsePoly is not integral"),
        (lambda: SparsePoly({(0, Fraction(3, 2)): 0}), "term 0 * q^0 t^3/2 of SparsePoly is not integral"),
        (lambda: SparsePoly.monomial(1) ** -1, "negative power of a polynomial"),
        (lambda: SparsePoly.monomial(1, 1).swap_q_to_t(), "swap_q_to_t needs a polynomial univariate in q"),
        (lambda: SparsePoly.monomial(2, 1).div_exact_q(SparsePoly.monomial(1)), "expected a polynomial univariate in q"),
        (lambda: SparsePoly.one().div_exact_q(SparsePoly.zero()), "division by the zero polynomial"),
        (lambda: q_binomial(-1, 0), "q_binomial with negative n"),
        (lambda: q_multinomial(3, (4, -1)), "q_multinomial with a negative part"),
        (lambda: q_multinomial(4, (2, 1)), "q_multinomial parts (2, 1) do not sum to 4"),
    ],
)
def test_each_refusal_spells_out_its_reason(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_exact_division_rejects_inexact():
    with pytest.raises(InternalCheckError, match=r"^inexact polynomial division \(degree too small\)$"):
        q_int(2).div_exact_q(q_int(3))
    with pytest.raises(InternalCheckError, match="^inexact polynomial division$"):
        SparsePoly.monomial(1).div_exact_q(SparsePoly.monomial(1, coeff=2))
    with pytest.raises(InternalCheckError, match=r"^inexact polynomial division \(nonzero remainder\)$"):
        q_int(3).div_exact_q(q_int(2))


def test_q_product_quotient_rejects_inexact():
    assert qpoly.q_product_quotient([2, 4], [1, 2]) == q_int(4)
    assert qpoly.q_product_quotient([2, 4], [1, 1]) == q_int(2) * q_int(4)
    for tops, bottoms in [([3], [2]), ([1], [2]), ([], [1]), ([2, 2], [1, 3])]:
        with pytest.raises(InternalCheckError, match="^inexact q-product quotient$"):
            qpoly.q_product_quotient(tops, bottoms)


def q_binomial_by_division(n, k):
    return q_factorial(n).div_exact_q(q_factorial(k) * q_factorial(n - k))


def q_multinomial_by_division(n, parts):
    out = q_factorial(n)
    for p in parts:
        out = out.div_exact_q(q_factorial(p))
    return out


def test_q_binomial_matches_the_long_division_formula():
    for n in range(13):
        assert q_binomial(n, -1).is_zero() and q_binomial(n, n + 1).is_zero()
        for k in range(n + 1):
            assert q_binomial(n, k) == q_binomial_by_division(n, k)


def test_q_multinomial_matches_the_long_division_formula():
    for n in range(13):
        for parts in partitions(n):
            assert q_multinomial(n, parts) == q_multinomial_by_division(n, parts)
            rearranged = (0,) + parts[::-1]
            assert q_multinomial(n, rearranged) == q_multinomial_by_division(n, rearranged)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.integers(-9, 9),
    max_size=6,
).map(SparsePoly)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + SparsePoly.zero() == a
    assert a * SparsePoly.one() == a
    assert a - a == SparsePoly.zero()


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys, st.integers(-3, 3), st.integers(-3, 3))
def test_evaluation_is_ring_hom(a, b, q0, t0):
    assert evaluate(a * b, q0, t0) == evaluate(a, q0, t0) * evaluate(b, q0, t0)
    assert evaluate(a + b, q0, t0) == evaluate(a, q0, t0) + evaluate(b, q0, t0)


def validated(terms):
    """The result rebuilt through the public, validating constructor."""
    return SparsePoly(terms)


def summed(*term_maps):
    out = {}
    for terms in term_maps:
        for key, c in terms.items():
            out[key] = out.get(key, 0) + c
    return out


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, st.integers(-3, 3))
def test_arithmetic_results_equal_the_validating_path(a, b, c):
    # Arithmetic between valid polynomials skips re-validation; the results must not change.
    pairs = itertools.product(a.terms.items(), b.terms.items())
    product = summed(*({(aq + bq, at + bt): ac * bc} for ((aq, at), ac), ((bq, bt), bc) in pairs))
    cases = [
        (a + b, summed(a.terms, b.terms)),
        (-a, {key: -v for key, v in a.terms.items()}),
        (a - b, summed(a.terms, {key: -v for key, v in b.terms.items()})),
        (a * c, {key: v * c for key, v in a.terms.items()}),
        (a * b, product),
    ]
    for result, naive in cases:
        assert result.terms == validated(naive).terms
        assert 0 not in result.terms.values()
        assert all(type(x) is int for key, v in result.terms.items() for x in (*key, v))


def test_public_constructor_still_validates():
    with pytest.raises(DomainError, match="negative exponent"):
        SparsePoly({(-1, 0): 1})
    with pytest.raises(DomainError, match="negative exponent"):
        SparsePoly({(0, -2): 3})
    assert SparsePoly({(1, 0): 2, (2, 0): 0}).terms == {(1, 0): 2}
    assert SparsePoly({(True, 0): 2.0}).terms == {(1, 0): 2}


def test_pretty_and_latex_rendering():
    q, t = SparsePoly.monomial(1), SparsePoly.monomial(0, 1)
    assert (1 + q + q**2).pretty() == "1 + q + q^2"
    assert (1 + q * t).pretty() == "1 + q*t"
    assert (2 * q**2 * t - t**3).pretty() == "-t^3 + 2*q^2*t"
    assert SparsePoly.zero().pretty() == "0"
    assert (1 + q**2).latex() == "1 + q^{2}"


def test_swap_q_to_t():
    q, t = SparsePoly.monomial(1), SparsePoly.monomial(0, 1)
    assert (1 + q + q**3).swap_q_to_t() == 1 + t + t**3
    with pytest.raises(DomainError):
        (q * t).swap_q_to_t()
