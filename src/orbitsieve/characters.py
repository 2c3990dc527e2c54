"""Symmetric group characters and invariant dimensions.

Irreducible characters come from the Murnaghan-Nakayama rule on beta-sets.  The three
subgroup families whose invariants drive orbit counting are the full symmetric group,
the cyclic group generated by the long cycle, and the stabilizer of a perfect matching
(for even n).  Fixed-space dimensions have closed forms.  A graded Frobenius image is
a read-only mapping from shapes to their nonzero Schur coefficients
(``FrobeniusImage``); ``invariant_hilbert`` restricts one to a subgroup's invariants.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations, product
from typing import Iterator, Mapping

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


# -- graded Frobenius images ------------------------------------------------------------

# A graded Frobenius image: each shape of n to its nonzero Schur coefficient, a
# polynomial in q, in ``partitions(n)`` order, behind a read-only mapping proxy.
FrobeniusImage = Mapping[Partition, SparsePoly]


def invariant_hilbert(image: FrobeniusImage, group: str, n: int) -> SparsePoly:
    """Hilbert series of the subgroup invariants of a module of S_n with this graded
    Frobenius image.  n is given, since an image of the zero module names no shape."""
    check_subgroup(group, n)
    out = SparsePoly.zero()
    for lam, poly in image.items():
        d = fixed_space_dim(lam, group)
        if d:
            out = out + poly * d
    return out
