"""Reference q-analogues built by multiplication, for the tests only."""

from orbitsieve.qpoly import SparsePoly


def q_int(n: int) -> SparsePoly:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    return SparsePoly({(i, 0): 1 for i in range(n)})


def q_factorial(n: int) -> SparsePoly:
    """[n]!_q = [1]_q [2]_q ... [n]_q."""
    out = SparsePoly.one()
    for i in range(1, n + 1):
        out = out * q_int(i)
    return out


def evaluate(p: SparsePoly, q: int = 1, t: int = 1) -> int:
    """Exact evaluation at integer arguments."""
    return sum(c * q**eq * t**et for (eq, et), c in p.terms.items())
