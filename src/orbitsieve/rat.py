"""Exact rational scalar type.

gmpy2.mpq when available, with fractions.Fraction as a drop-in fallback.  Both
expose numerator/denominator and exact field arithmetic; everything downstream
relies only on that surface.  The linear-algebra kernels run on ints mod p, and
integral coordinates stay ints, so a rational appears only where one is not.
"""

try:
    from gmpy2 import mpq as RAT
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as RAT

RAT_ZERO = RAT(0)
RAT_ONE = RAT(1)


def rat_as_int(x) -> int:
    """Integer value of an exact rational; raises if it is not integral."""
    if x.denominator != 1:
        raise ValueError(f"not an integer: {x}")
    return int(x.numerator)
