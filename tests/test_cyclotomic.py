"""Cyclotomic field tests: frozen small polynomials, product identities, exact evaluation."""

import operator
import re
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitsieve import cyclotomic
from orbitsieve.cyclotomic import (
    CycloElement,
    CycloField,
    cyclo_field,
    cyclotomic_polynomial,
    eval_at_unity,
)
from orbitsieve.errors import DomainError, InternalCheckError
from orbitsieve.qpoly import SparsePoly
from orbitsieve.rat import RAT, rat_as_int


def int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_cyclotomic_polynomials_frozen():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_identity_up_to_30():
    # prod_{d | L} Phi_d(x) = x^L - 1, multiplied out independently here
    for L in range(1, 31):
        prod = [1]
        for d in range(1, L + 1):
            if L % d == 0:
                prod = int_poly_mul(prod, list(cyclotomic_polynomial(d)))
        expected = [0] * (L + 1)
        expected[0] = -1
        expected[L] = 1
        assert prod == expected


def test_degree_is_euler_phi():
    from math import gcd

    for L in range(1, 31):
        phi = sum(1 for j in range(1, L + 1) if gcd(j, L) == 1)
        assert cyclo_field(L).degree == phi


def test_period_sum_vanishes():
    for L in range(2, 16):
        field = cyclo_field(L)
        total = field.zero
        for j in range(L):
            total = total + field.root_power(j)
        assert total.is_zero()
    assert cyclo_field(1).root_power(0) == cyclo_field(1).one


def test_root_power_wraps_mod_order():
    field = cyclo_field(5)
    assert field.root_power(7) == field.root_power(2)
    assert field.root_power(5) == field.one


def test_element_arithmetic_known_relations():
    f4 = cyclo_field(4)
    i = f4.root_power(1)
    assert i * i == f4.from_int(-1)
    assert (i * i * i * i) == f4.one
    f3 = cyclo_field(3)
    w = f3.root_power(1)
    assert w * w == f3.root_power(2)
    assert w * w * w == f3.one


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_inverse_round_trip(data):
    rationals = st.builds(RAT, st.integers(-81, 81), st.integers(1, 9))
    for L in range(1, 31):
        field = cyclo_field(L)
        coords = st.lists(rationals, min_size=field.degree, max_size=field.degree)
        a, b = field.element(data.draw(coords)), field.element(data.draw(coords))
        zeta = field.root_power(1)
        for e in (a, zeta, field.from_int(7)):
            if e:
                assert e * e.inverse() == field.one
        j = data.draw(st.sampled_from([j for j in range(1, L + 1) if gcd(j, L) == 1]))
        # sigma_j is a ring map sending zeta to zeta^j
        assert (a * b).conjugate(j) == a.conjugate(j) * b.conjugate(j)
        assert zeta.conjugate(j) == field.root_power(j)


def test_integral_inverses_keep_int_coordinates():
    # -1 and zeta_6 are units whose norms are +-1, so their inverses make no rational.
    for e in (cyclo_field(3).from_int(-1), cyclo_field(6).root_power(1), cyclo_field(1).from_int(-1)):
        inv = e.inverse()
        assert e * inv == e.field.one
        assert all(type(x) is int for x in inv.coords), inv
    assert cyclo_field(3).from_int(2).inverse().coords == (RAT(1, 2), 0)


def test_inverse_rejects_a_norm_that_is_not_rational(monkeypatch):
    # With every conjugate replaced by the element itself, the "norm" of zeta_3 is
    # zeta_3^2 = -1 - zeta_3, which is not rational.
    zeta = cyclo_field(3).root_power(1)
    monkeypatch.setattr(CycloElement, "conjugate", lambda self, j: self)
    with pytest.raises(InternalCheckError, match="^cyclotomic norm is not a nonzero rational$"):
        zeta.inverse()


def test_inverse_is_verified_by_its_product(monkeypatch):
    # Dividing 2 instead of 1 by the norm gives twice the inverse.
    zeta = cyclo_field(3).root_power(1)
    monkeypatch.setattr(cyclotomic, "RAT_ONE", RAT(2))
    with pytest.raises(InternalCheckError, match="^cyclotomic inverse failed verification$"):
        zeta.inverse()


def test_elements_of_different_fields_do_not_mix():
    a, b = cyclo_field(3).one, cyclo_field(4).one
    for combine in (operator.add, operator.sub, operator.mul, operator.eq):
        with pytest.raises(DomainError, match="^cyclotomic elements from different fields$"):
            combine(a, b)
    # A field built apart from cyclo_field equals the shared one of its order.
    twin = CycloField(3).one
    assert twin.field is not a.field
    assert twin == a and (twin + a) * a == cyclo_field(3).from_int(2)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: cyclotomic_polynomial(0), "cyclotomic polynomial needs L >= 1"),
        (lambda: CycloField(0), "field order must be >= 1"),
        (lambda: cyclo_field(3).element([1]), "wrong coordinate length for this field"),
        (lambda: cyclo_field(3).one + cyclo_field(4).one, "cyclotomic elements from different fields"),
        (
            lambda: cyclo_field(6).root_power(1).conjugate(2),
            "Galois conjugation needs an exponent coprime to the field order",
        ),
        (lambda: cyclo_field(3).zero.inverse(), "inverse of zero"),
        (lambda: cyclo_field(3).root_power(1).as_rational(), "not rational: CycloElement(L=3, [0, 1])"),
        (lambda: eval_at_unity(SparsePoly.one(), 4, order_q=3), "evaluation orders must divide the field order"),
    ],
)
def test_each_refusal_spells_out_its_reason(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_eval_at_unity_small_cases():
    q = SparsePoly.monomial(1)
    t = SparsePoly.monomial(0, 1)
    # [3]_q at q = -1 is 1
    v = eval_at_unity(1 + q + q**2, L=2, r=1, order_q=2)
    assert v == 1
    # 1 + qt at q = t = -1 is 2
    v = eval_at_unity(1 + q * t, L=2, r=1, s=1, order_q=2, order_t=2)
    assert v == 2
    # [3]_q at a primitive cube root is 0
    v = eval_at_unity(1 + q + q**2, L=3, r=1, order_q=3)
    assert v.is_zero() and v == 0
    # mixed orders land in the lcm field
    v = eval_at_unity(q * t, L=6, r=1, s=1, order_q=2, order_t=3)
    assert v == cyclo_field(6).root_power(3 + 2)


def test_eval_periodicity():
    poly = 2 + 3 * SparsePoly.monomial(4) + SparsePoly.monomial(1, 2)
    for L, oq, ot in [(6, 2, 3), (12, 4, 6), (4, 4, 2)]:
        for r in range(oq):
            for s in range(ot):
                a = eval_at_unity(poly, L, r, s, oq, ot)
                b = eval_at_unity(poly, L, r + oq, s + 2 * ot, oq, ot)
                assert a == b


def test_integer_equality_detects_non_integers():
    f5 = cyclo_field(5)
    z = f5.root_power(1)
    assert z != 1
    half = f5.element([RAT(1, 2), RAT(0), RAT(0), RAT(0)])
    assert half != 0
    assert f5.from_int(-3) == -3


def termwise_eval(p, L, r, s, order_q, order_t):
    """One power-table row per term of p: the evaluation before bucketing."""
    step_q, step_t = (L // order_q) * r, (L // order_t) * s
    return cyclo_field(L).power_combination((c, step_q * eq + step_t * et) for (eq, et), c in p.terms.items())


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 24),
    st.dictionaries(st.tuples(st.integers(0, 60), st.integers(0, 60)), st.integers(-40, 40), max_size=25),
)
def test_eval_at_unity_matches_termwise_reference(L, terms):
    p = SparsePoly(terms)
    divisors = [d for d in range(1, L + 1) if L % d == 0]
    for order_q in divisors:
        for order_t in divisors:
            for r in range(order_q):
                for s in range(order_t):
                    expected = termwise_eval(p, L, r, s, order_q, order_t)
                    assert eval_at_unity(p, L, r=r, s=s, order_q=order_q, order_t=order_t) == expected
    for order in range(L + 2):
        if order not in divisors:
            with pytest.raises(DomainError):
                eval_at_unity(p, L, r=1, order_q=order)
            with pytest.raises(DomainError):
                eval_at_unity(p, L, s=1, order_t=order)


def test_integral_coordinates_are_ints():
    # Roots of unity and their integer combinations keep int coordinates; only a
    # division makes a rational.
    f6 = cyclo_field(6)
    values = [f6.zero, f6.one, f6.from_int(-4), f6.root_power(5), f6.power_combination([(3, 1), (-2, 4)])]
    values.append(values[3] * values[4] + values[2] - values[1])
    for value in values:
        assert all(type(x) is int for x in value.coords), value
    eval_coords = eval_at_unity(SparsePoly({(0, 0): 2, (3, 0): 5, (7, 0): -1}), 12, r=5, order_q=12).coords
    assert all(type(x) is int for x in eval_coords)
    assert f6.from_int(2).inverse() == f6.element([RAT(1, 2), 0])


def test_int_and_rational_coordinates_are_equal_and_hash_equal():
    f5 = cyclo_field(5)
    for ints in [(0, 0, 0, 0), (1, 0, 0, 0), (2, -1, 0, 7), (0, 0, 0, -3)]:
        as_int = f5.element(ints)
        as_rat = f5.element([RAT(x) for x in ints])
        assert all(type(x) is int for x in as_int.coords)
        assert not any(type(x) is int for x in as_rat.coords)
        assert as_int == as_rat
        assert hash(as_int) == hash(as_rat)
        assert repr(as_int) == repr(as_rat)
        assert as_int.is_integer() == as_rat.is_integer() == (ints[1:] == (0, 0, 0))
    assert len({f5.one, f5.element([RAT(1), 0, 0, 0])}) == 1


def test_an_integral_element_hashes_as_the_int_it_equals():
    for order in (1, 3, 4, 5):
        field = cyclo_field(order)
        for n in (0, 1, -2):
            for element in (field.from_int(n), field.element([RAT(n)] + [0] * (field.degree - 1))):
                assert element == n and hash(element) == hash(n)
    assert 1 in {cyclo_field(3).one} and cyclo_field(3).one in {1}
    assert len({cyclo_field(4).from_int(2), 2}) == 1
    assert cyclo_field(3).root_power(1) not in {1} and cyclo_field(3).element([RAT(1, 2), 0]) not in {0, 1}


def test_repr_prints_each_coordinate_with_str():
    f4 = cyclo_field(4)
    assert repr(f4.root_power(1)) == "CycloElement(L=4, [0, 1])"
    assert repr(f4.element([RAT(1, 2), RAT(-3)])) == "CycloElement(L=4, [1/2, -3])"


def test_rat_as_int_rejects_a_non_integral_rational():
    assert rat_as_int(RAT(6, 3)) == 2
    with pytest.raises(ValueError, match="^not an integer: 1/2$"):
        rat_as_int(RAT(1, 2))
