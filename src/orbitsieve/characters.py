"""Symmetric group characters and invariant dimensions.

Irreducible characters come from the Murnaghan-Nakayama rule on beta-sets.  The three
subgroup families whose invariants drive orbit counting are the full symmetric group,
the cyclic group generated by the long cycle, and the stabilizer of a perfect matching
(for even n).  Fixed-space dimensions have closed forms.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations, product
from typing import Iterator

from .errors import DomainError
from .qpoly import SparsePoly
from .tableaux import (
    Partition,
    check_partition,
    count_maj_divisible,
    fake_degree,
    is_even_partition,
    partitions,
)

CycleType = Partition

SUBGROUPS = ("Sn", "Cn", "Hr")


def check_subgroup(group: str, n: int) -> str:
    """The one check of a position subgroup of S_n: one of ``SUBGROUPS``, and Hr only
    for even n."""
    if group not in SUBGROUPS:
        raise DomainError(f"unknown subgroup {group!r}; expected one of {SUBGROUPS}")
    if group == "Hr" and n % 2:
        raise DomainError("matching stabilizer needs even n")
    return group


# -- conjugacy data -------------------------------------------------------------------


def centralizer_order(mu: CycleType) -> int:
    mu = check_partition(mu)
    z = 1
    for part in set(mu):
        m = mu.count(part)
        z *= part**m * math.factorial(m)
    return z


def conjugacy_classes(n: int) -> list[tuple[CycleType, int]]:
    """(cycle type, class size) pairs for the symmetric group on n letters."""
    if n < 0:
        raise DomainError("negative n")
    fact = math.factorial(n)
    return [(mu, fact // centralizer_order(mu)) for mu in partitions(n)]


@lru_cache(maxsize=None)
def sn_character(shape: Partition, cycle_type: CycleType) -> int:
    """Murnaghan-Nakayama: recursive border-strip removal via beta-sets."""
    shape = check_partition(shape)
    cycle_type = check_partition(cycle_type)
    if sum(shape) != sum(cycle_type):
        raise DomainError("shape and cycle type must have equal size")
    if not shape:
        return 1
    strip = cycle_type[0]
    rest = cycle_type[1:]
    ell = len(shape)
    beta = [shape[i] + (ell - 1 - i) for i in range(ell)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - strip
        if nb >= 0 and nb not in bset:
            height = sum(1 for c in beta if nb < c < b)
            new_beta = sorted((nb if c == b else c for c in beta), reverse=True)
            lam = tuple(
                p for p in (new_beta[j] - (ell - 1 - j) for j in range(ell)) if p > 0
            )
            total += (-1) ** height * sn_character(lam, rest)
    return total


# -- the three subgroup families -------------------------------------------------------


def matching_group_elements(r: int) -> Iterator[tuple[int, ...]]:
    """The 2^r r! permutations of 0..2r-1 preserving the matching {{0,1},{2,3},...}.

    Elements permute the r blocks and optionally flip within each block.
    """
    if r < 0:
        raise DomainError("negative r")
    for sigma in permutations(range(r)):
        for bits in product((0, 1), repeat=r):
            w = [0] * (2 * r)
            for i in range(r):
                a, b = 2 * sigma[i], 2 * sigma[i] + 1
                if bits[i]:
                    a, b = b, a
                w[2 * i], w[2 * i + 1] = a, b
            yield tuple(w)


def subgroup_elements(group: str, n: int) -> list[tuple[int, ...]]:
    """One-line permutations of 0..n-1 for the subgroup (for brute-force counts)."""
    check_subgroup(group, n)
    if group == "Sn":
        return [tuple(p) for p in permutations(range(n))]
    if group == "Cn":
        return [tuple((i + j) % n for i in range(n)) for j in range(n)]
    return list(matching_group_elements(n // 2))


def fixed_space_dim(shape: Partition, group: str) -> int:
    """dim of the subgroup-invariant subspace of the irreducible indexed by shape.

    Closed forms: Sn sees only the trivial shape; Cn counts standard tableaux with
    maj divisible by n; the matching stabilizer sees exactly the even-part shapes.
    """
    shape = check_partition(shape)
    n = sum(shape)
    check_subgroup(group, n)
    if group == "Sn":
        return 1 if shape == (n,) else 0
    if group == "Cn":
        return count_maj_divisible(n, fake_degree(shape))
    return 1 if is_even_partition(shape) else 0


# -- Schur expansions -------------------------------------------------------------------


class SchurVector:
    """A graded virtual character: Schur expansion with SparsePoly coefficients."""

    __slots__ = ("n", "_coeffs")

    def __init__(self, n: int, coeffs: dict[Partition, SparsePoly]):
        self.n = n
        clean = {}
        for lam, poly in coeffs.items():
            lam = check_partition(lam)
            if sum(lam) != n:
                raise DomainError(f"shape {lam} is not a partition of {n}")
            if not poly.is_zero():
                clean[lam] = poly
        self._coeffs = clean

    def coeff(self, lam: Partition) -> SparsePoly:
        return self._coeffs.get(tuple(lam), SparsePoly.zero())

    def items(self) -> list[tuple[Partition, SparsePoly]]:
        return sorted(self._coeffs.items(), key=lambda kv: kv[0], reverse=True)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SchurVector)
            and self.n == other.n
            and self._coeffs == other._coeffs
        )

    def pretty(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for lam, poly in self.items():
            shape = ",".join(map(str, lam))
            parts.append(f"({poly.pretty()}) * s[{shape}]")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SchurVector({self.pretty()})"


def invariant_hilbert(frob: SchurVector, group: str) -> SparsePoly:
    """Hilbert series of the subgroup invariants of a module with this graded Frobenius."""
    check_subgroup(group, frob.n)
    out = SparsePoly.zero()
    for lam, poly in frob.items():
        d = fixed_space_dim(lam, group)
        if d:
            out = out + poly * d
    return out
