"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Elements are exact rational coordinate vectors on the power basis 1, x, ..., x^(phi(L)-1)
modulo the L-th cyclotomic polynomial.  No floating point anywhere: evaluating a sieving
polynomial at roots of unity sums its coefficients by exponent mod L and combines the
power-basis vectors of the nonzero sums.

Integral coordinates are plain Python ints: zero, one, the roots of unity and every
integer combination of them stay ints, and a rational (``rat.RAT``) appears only where
a division makes one.  Equality and hashing do not see the difference, since an
integral rational equals and hashes as its int.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import DomainError, InternalCheckError
from .qpoly import SparsePoly
from .rat import RAT, RAT_ONE, rat_as_int


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the L-th cyclotomic polynomial, monic over Z.

    Phi_L(x) = (x^L - 1) / prod_{d | L, d < L} Phi_d(x), computed by exact division.
    """
    if L < 1:
        raise DomainError("cyclotomic polynomial needs L >= 1")
    den = SparsePoly.one()
    for d in range(1, L):
        if L % d == 0:
            den = den * SparsePoly({(i, 0): c for i, c in enumerate(cyclotomic_polynomial(d))})
    quot = SparsePoly({(0, 0): -1, (L, 0): 1}).div_exact_q(den)
    return tuple(quot.coeff(i) for i in range(quot.degree_q() + 1))


# -- the field and its elements -----------------------------------------------------


class CycloField:
    """Q(zeta_L) on the power basis modulo Phi_L.

    Carries a table of x^j mod Phi_L for every exponent needed by element products,
    root-of-unity evaluation and Galois conjugation, so reductions are table lookups.
    """

    def __init__(self, order: int):
        if order < 1:
            raise DomainError("field order must be >= 1")
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = len(self.modulus) - 1
        self._powers = self._build_powers()
        self.zero = CycloElement(self, (0,) * self.degree)
        self.one = self.from_int(1)

    def _build_powers(self) -> list[tuple[int, ...]]:
        d = self.degree
        top = max(self.order - 1, 2 * d - 2)
        rows: list[tuple[int, ...]] = []
        current = [0] * d
        current[0] = 1
        rows.append(tuple(current))
        for _ in range(top):
            shifted = [0] + current[:]
            if shifted[d]:
                c = shifted.pop()
                # x^d = -(modulus without leading term), Phi_L monic
                for i in range(d):
                    shifted[i] -= c * self.modulus[i]
            else:
                shifted.pop()
            current = shifted
            rows.append(tuple(current))
        return rows

    def power_vector(self, j: int) -> tuple[int, ...]:
        """Integer coordinates of x^j mod Phi_L (j taken mod L)."""
        return self._powers[j % self.order]

    def root_power(self, j: int) -> "CycloElement":
        """zeta_L^j as a field element."""
        return CycloElement(self, self.power_vector(j))

    def power_combination(self, pairs) -> "CycloElement":
        """Sum of c * zeta_L^j over the (c, j) pairs, each zeta_L^j read from the power table."""
        acc = [0] * self.degree
        for c, j in pairs:
            if c:
                for i, v in enumerate(self._powers[j % self.order]):
                    if v:
                        acc[i] += c * v
        return CycloElement(self, tuple(acc))

    def element(self, coords) -> "CycloElement":
        coords = tuple(c if isinstance(c, int) else RAT(c) for c in coords)
        if len(coords) != self.degree:
            raise DomainError("wrong coordinate length for this field")
        return CycloElement(self, coords)

    def from_int(self, n: int) -> "CycloElement":
        return CycloElement(self, (n,) + (0,) * (self.degree - 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, CycloField) and other.order == self.order

    def __hash__(self):
        return hash(("CycloField", self.order))

    def __repr__(self) -> str:
        return f"CycloField({self.order})"


@lru_cache(maxsize=None)
def cyclo_field(order: int) -> CycloField:
    """Shared per-order field instance (the power tables are worth caching)."""
    return CycloField(order)


class CycloElement:
    """Immutable element of a CycloField."""

    __slots__ = ("field", "coords")

    def __init__(self, field: CycloField, coords: tuple):
        self.field = field
        self.coords = coords

    def _check(self, other: "CycloElement"):
        # cyclo_field hands out one field per order, so identity settles almost every call
        if self.field is not other.field and self.field != other.field:
            raise DomainError("cyclotomic elements from different fields")

    def is_zero(self) -> bool:
        return all(not c for c in self.coords)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_integer() and self.as_int() == other
        if not isinstance(other, CycloElement):
            return NotImplemented
        self._check(other)
        return self.coords == other.coords

    def __hash__(self):
        # An integral element equals its int, so it hashes as that int.
        if self.is_integer():
            return hash(self.as_int())
        return hash((self.field.order, self.coords))

    def __add__(self, other: "CycloElement") -> "CycloElement":
        self._check(other)
        return CycloElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "CycloElement") -> "CycloElement":
        self._check(other)
        return CycloElement(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "CycloElement":
        return CycloElement(self.field, tuple(-a for a in self.coords))

    def scale(self, r) -> "CycloElement":
        return CycloElement(self.field, tuple(a * r for a in self.coords))

    def __mul__(self, other) -> "CycloElement":
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        d = self.field.degree
        conv = [0] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        conv[i + j] += a * b
        out = conv[:d]
        for idx in range(d, 2 * d - 1):
            c = conv[idx]
            if c:
                row = self.field._powers[idx]
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
        return CycloElement(self.field, tuple(out))

    __rmul__ = __mul__

    def conjugate(self, j: int) -> "CycloElement":
        """The Galois conjugate sigma_j(self): zeta_L -> zeta_L^j, for j coprime to L."""
        if gcd(j, self.field.order) != 1:
            raise DomainError("Galois conjugation needs an exponent coprime to the field order")
        return self.field.power_combination((c, i * j) for i, c in enumerate(self.coords))

    def inverse(self) -> "CycloElement":
        """Field inverse: the product of the other Galois conjugates over the rational norm."""
        if self.is_zero():
            raise DomainError("inverse of zero")
        order = self.field.order
        others = self.field.one
        for j in range(2, order):
            if gcd(j, order) == 1:
                others = others * self.conjugate(j)
        norm = others * self
        if norm.is_zero() or not norm.is_rational():
            raise InternalCheckError("cyclotomic norm is not a nonzero rational")
        scale = RAT_ONE / norm.coords[0]  # an integral scale stays an int, as in products
        inv = others.scale(int(scale) if scale.denominator == 1 else scale)
        if (inv * self) != self.field.one:
            raise InternalCheckError("cyclotomic inverse failed verification")
        return inv

    def is_rational(self) -> bool:
        return all(not c for c in self.coords[1:])

    def as_rational(self):
        if not self.is_rational():
            raise DomainError(f"not rational: {self}")
        return self.coords[0]

    def is_integer(self) -> bool:
        return self.is_rational() and self.coords[0].denominator == 1

    def as_int(self) -> int:
        return rat_as_int(self.as_rational())

    def __repr__(self) -> str:
        return f"CycloElement(L={self.field.order}, [{', '.join(map(str, self.coords))}])"


# -- root-of-unity evaluation --------------------------------------------------------


def eval_at_unity(
    p: SparsePoly,
    L: int,
    r: int = 0,
    s: int = 0,
    order_q: int = 1,
    order_t: int = 1,
) -> CycloElement:
    """Evaluate p at q = zeta_L^((L/order_q) r), t = zeta_L^((L/order_t) s), exactly.

    order_q and order_t must divide L.  The integer coefficients are first summed into
    L buckets by exponent mod L, so the rational work is one power-table row per
    nonzero bucket, however many terms p has.
    """
    if order_q < 1 or order_t < 1 or L % order_q or L % order_t:
        raise DomainError("evaluation orders must divide the field order")
    step_q = (L // order_q) * r
    step_t = (L // order_t) * s
    buckets = [0] * L
    for (eq, et), c in p.terms.items():
        buckets[(step_q * eq + step_t * et) % L] += c
    return cyclo_field(L).power_combination(zip(buckets, range(L)))
