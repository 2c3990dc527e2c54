"""Sparse bivariate polynomials over the integers, plus the classical q-analogues.

SparsePoly is the carrier for every closed-form sieving polynomial in the package:
coefficients are arbitrary-precision ints, exponents live in the two grading variables
q and t.  Univariate polynomials are simply polynomials that never touch t (or q).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import DomainError, InternalCheckError

Term = tuple[int, int]  # (exponent of q, exponent of t)


class SparsePoly:
    """Polynomial in Z[q, t], stored as {(e_q, e_t): coeff} with no zero entries.

    Treat instances as immutable; every operation returns a fresh object.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Term, int] | None = None):
        clean: dict[Term, int] = {}
        if terms:
            for (eq, et), c in terms.items():
                if eq < 0 or et < 0:
                    raise DomainError("negative exponent in SparsePoly")
                key, c_int = (int(eq), int(et)), int(c)
                if key != (eq, et) or c_int != c:
                    raise DomainError(f"term {c} * q^{eq} t^{et} of SparsePoly is not integral")
                if c_int:
                    clean[key] = clean.get(key, 0) + c_int
                    if not clean[key]:
                        del clean[key]
        self._terms = clean

    @classmethod
    def _valid(cls, terms: dict[Term, int]) -> "SparsePoly":
        """A polynomial from keys and coefficients already known to be valid ints, such as
        the result of arithmetic on two polynomials; only zero entries are dropped."""
        poly = cls.__new__(cls)
        poly._terms = {key: c for key, c in terms.items() if c}
        return poly

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls()

    @classmethod
    def one(cls) -> "SparsePoly":
        return cls({(0, 0): 1})

    @classmethod
    def from_int(cls, n: int) -> "SparsePoly":
        return cls({(0, 0): n})

    @classmethod
    def monomial(cls, eq: int, et: int = 0, coeff: int = 1) -> "SparsePoly":
        return cls({(eq, et): coeff})

    # -- inspection ------------------------------------------------------------

    @property
    def terms(self) -> dict[Term, int]:
        return dict(self._terms)

    def coeff(self, eq: int, et: int = 0) -> int:
        return self._terms.get((eq, et), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_univariate_q(self) -> bool:
        return all(et == 0 for _, et in self._terms)

    def degree_q(self) -> int:
        return max((eq for eq, _ in self._terms), default=0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = SparsePoly.from_int(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # A constant equals its int, so it hashes as that int.
        if self._terms.keys() <= {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "SparsePoly":
        if isinstance(other, int):
            other = SparsePoly.from_int(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0) + c
        return SparsePoly._valid(out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._valid({key: -c for key, c in self._terms.items()})

    def __sub__(self, other) -> "SparsePoly":
        return self + (-other if isinstance(other, SparsePoly) else SparsePoly.from_int(-other))

    def __rsub__(self, other) -> "SparsePoly":
        return (-self) + other

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, int):
            if not other:
                return SparsePoly()
            return SparsePoly._valid({key: c * other for key, c in self._terms.items()})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        out: dict[Term, int] = {}
        for (aq, at), ac in self._terms.items():
            for (bq, bt), bc in other._terms.items():
                key = (aq + bq, at + bt)
                out[key] = out.get(key, 0) + ac * bc
        return SparsePoly._valid(out)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "SparsePoly":
        if exp < 0:
            raise DomainError("negative power of a polynomial")
        result = SparsePoly.one()
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def swap_q_to_t(self) -> "SparsePoly":
        """Rename the variable of a q-univariate polynomial to t."""
        if not self.is_univariate_q():
            raise DomainError("swap_q_to_t needs a polynomial univariate in q")
        return SparsePoly({(0, eq): c for (eq, _), c in self._terms.items()})

    # -- exact division (univariate in q) ---------------------------------------

    def _q_coeff_list(self) -> list[int]:
        out = [0] * (self.degree_q() + 1)
        for (eq, et), c in self._terms.items():
            if et:
                raise DomainError("expected a polynomial univariate in q")
            out[eq] = c
        return out

    def div_exact_q(self, other: "SparsePoly") -> "SparsePoly":
        """Exact quotient self/other for q-univariate arguments.

        A nonzero remainder means a broken caller-side identity, so it raises
        InternalCheckError rather than returning anything.
        """
        if other.is_zero():
            raise DomainError("division by the zero polynomial")
        num, den = self._q_coeff_list(), other._q_coeff_list()
        if self.is_zero():
            return SparsePoly()
        if len(num) < len(den):
            raise InternalCheckError("inexact polynomial division (degree too small)")
        quot = [0] * (len(num) - len(den) + 1)
        lead = den[-1]
        for i in range(len(quot) - 1, -1, -1):
            head = num[i + len(den) - 1]
            if head % lead:
                raise InternalCheckError("inexact polynomial division")
            quot[i] = head // lead
            if quot[i]:
                for j, d in enumerate(den):
                    num[i + j] -= quot[i] * d
        if any(num):
            raise InternalCheckError("inexact polynomial division (nonzero remainder)")
        return SparsePoly({(i, 0): c for i, c in enumerate(quot) if c})

    # -- rendering ---------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Term, int]]:
        return sorted(self._terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0]))

    def _render(self, times: str, power: str) -> str:
        """Terms in ascending total degree; ``times`` joins factors and ``power``
        formats a variable ``v`` raised to an exponent ``e`` > 1."""
        if not self._terms:
            return "0"
        pieces = []
        for (eq, et), c in self.sorted_terms():
            factors = [v if e == 1 else power.format(v=v, e=e) for v, e in (("q", eq), ("t", et)) if e]
            body = times.join(factors)
            if not body:
                mono = str(abs(c))
            elif abs(c) == 1:
                mono = body
            else:
                mono = f"{abs(c)}{times}{body}"
            if not pieces:
                pieces.append(mono if c > 0 else f"-{mono}")
            else:
                pieces.append(f"+ {mono}" if c > 0 else f"- {mono}")
        return " ".join(pieces)

    def pretty(self) -> str:
        return self._render("*", "{v}^{e}")

    def latex(self) -> str:
        return self._render(" ", "{v}^{{{e}}}")

    def __repr__(self) -> str:
        return f"SparsePoly({self.pretty()})"


# -- q-analogues ------------------------------------------------------------------


def q_product_quotient(tops: Iterable[int], bottoms: Iterable[int]) -> SparsePoly:
    """Prod (1 - q^a) over tops divided by prod (1 - q^b) over bottoms, exactly.

    Common factors cancel; then a dense int list is multiplied by each (1 - q^a) and by
    each 1/(1 - q^b) as a power series up to the numerator's degree.  The division is
    exact iff no coefficient past the expected degree is nonzero, else InternalCheckError.
    """
    tops, bottoms = Counter(tops), Counter(bottoms)
    common = tops & bottoms
    tops, bottoms = tops - common, bottoms - common
    size = sum(a * m for a, m in tops.items()) + 1
    degree = size - 1 - sum(b * m for b, m in bottoms.items())
    coeffs = [1] + [0] * (size - 1)
    for a in tops.elements():
        for i in range(size - 1, a - 1, -1):
            coeffs[i] -= coeffs[i - a]
    for b in bottoms.elements():
        for i in range(b, size):
            coeffs[i] += coeffs[i - b]
    if any(coeffs[max(degree + 1, 0) :]):
        raise InternalCheckError("inexact q-product quotient")
    return SparsePoly._valid({(i, 0): c for i, c in enumerate(coeffs)})


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> SparsePoly:
    """Gaussian binomial [n over k]_q; zero when k is out of range."""
    if n < 0:
        raise DomainError("q_binomial with negative n")
    if k < 0 or k > n:
        return SparsePoly.zero()
    return q_product_quotient(range(n - k + 1, n + 1), range(1, k + 1))


def q_multinomial(n: int, parts: Iterable[int]) -> SparsePoly:
    """[n over parts]_q, the maj generating function of words with these multiplicities."""
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise DomainError("q_multinomial with a negative part")
    if sum(parts) != n:
        raise DomainError(f"q_multinomial parts {parts} do not sum to {n}")
    return q_product_quotient(range(1, n + 1), (b for p in parts for b in range(1, p + 1)))
