"""Exact rational scalar type.

``fractions.Fraction``, under the one name ``RAT`` that the package and its
benchmark use.  The linear-algebra kernels run on ints mod p, and integral
coordinates stay ints, so a rational appears only where one is not.
"""

from fractions import Fraction as RAT

RAT_ONE = RAT(1)


def rat_as_int(x) -> int:
    """Integer value of an exact rational; raises if it is not integral."""
    if x.denominator != 1:
        raise ValueError(f"not an integer: {x}")
    return x.numerator
