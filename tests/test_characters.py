"""Character and invariant-dimension tests.

Character values are checked against structural identities (dimension, sign,
orthogonality) computed independently, and fixed-space dimensions against
brute-force averaging over explicitly enumerated subgroup elements, whose cycle types
and group orders are computed here.
"""

import math
import re
from itertools import permutations

import pytest

from orbitsieve.characters import (
    check_subgroup,
    conjugacy_classes,
    fixed_space_dim,
    invariant_hilbert,
    matching_group_elements,
    sn_character,
    subgroup_elements,
)
from orbitsieve.errors import DomainError
from orbitsieve.qpoly import SparsePoly
from orbitsieve.tableaux import generate_syt, partitions

Q = SparsePoly.monomial(1)


def cycle_type_of(perm):
    """Cycle type of a permutation given in one-line form on 0..n-1."""
    seen, lengths = set(), []
    for start in range(len(perm)):
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def subgroup_order(group, n):
    """|Sn| = n!, |Cn| = n, and the matching stabilizer of 2r points has 2^r r! elements."""
    return {"Sn": math.factorial(n), "Cn": n, "Hr": 2 ** (n // 2) * math.factorial(n // 2)}[group]


def fixed_space_dim_by_averaging(shape, group):
    """(1/|G|) times the sum of the character over the subgroup's elements."""
    elements = subgroup_elements(group, sum(shape))
    total = sum(sn_character(shape, cycle_type_of(w)) for w in elements)
    assert total % len(elements) == 0
    return total // len(elements)


def test_class_sizes_sum_to_group_order():
    for n in range(1, 8):
        assert sum(size for _, size in conjugacy_classes(n)) == math.factorial(n)


def test_cycle_type_of():
    assert cycle_type_of((1, 0, 2, 3)) == (2, 1, 1)
    assert cycle_type_of((1, 2, 0)) == (3,)
    assert cycle_type_of(tuple(range(5))) == (1, 1, 1, 1, 1)


def test_character_dimension_and_sign():
    for n in range(1, 7):
        one = (1,) * n
        for lam in partitions(n):
            dim = sn_character(lam, one)
            assert dim == len(generate_syt(lam))
        for mu in partitions(n):
            assert sn_character((n,), mu) == 1
            assert sn_character((1,) * n, mu) == (-1) ** (n - len(mu))


def test_character_small_values():
    assert sn_character((2, 1), (1, 1, 1)) == 2
    assert sn_character((2, 1), (2, 1)) == 0
    assert sn_character((2, 1), (3,)) == -1
    assert sn_character((2, 2), (2, 2)) == 2
    assert sn_character((3, 1), (2, 2)) == -1


def test_character_orthogonality():
    for n in range(1, 6):
        shapes = list(partitions(n))
        classes = conjugacy_classes(n)
        fact = math.factorial(n)
        for a in shapes:
            for b in shapes:
                dot = sum(size * sn_character(a, mu) * sn_character(b, mu) for mu, size in classes)
                assert dot == (fact if a == b else 0)


def test_cyclic_cycle_types():
    # subgroup_elements("Cn", n) lists the powers c^0, c^1, ... of the long cycle in order
    assert [cycle_type_of(w) for w in subgroup_elements("Cn", 4)] == [(1, 1, 1, 1), (4,), (2, 2), (4,)]
    six = [cycle_type_of(w) for w in subgroup_elements("Cn", 6)]
    assert six[2] == (3, 3)
    assert six[3] == (2, 2, 2)


def test_matching_group_is_the_matching_stabilizer():
    # the enumerated elements are exactly the permutations preserving {{0,1},{2,3},...}
    for r in (1, 2, 3):
        n = 2 * r
        matching = {frozenset((2 * i, 2 * i + 1)) for i in range(r)}
        stabilizer = {
            w
            for w in permutations(range(n))
            if {frozenset((w[2 * i], w[2 * i + 1])) for i in range(r)} == matching
        }
        listed = set(matching_group_elements(r))
        assert listed == stabilizer
        assert len(listed) == subgroup_order("Hr", n)


def test_matching_group_closure_of_generators():
    # within-block flip + adjacent block swap + block cycle generate the stabilizer
    for r in (2, 3):
        n = 2 * r
        flip = tuple([1, 0] + list(range(2, n)))
        block_swap = tuple([2, 3, 0, 1] + list(range(4, n)))
        block_cycle = tuple(list(range(2, n)) + [0, 1])
        frontier = {tuple(range(n))}
        group = set(frontier)
        while frontier:
            new = set()
            for g in frontier:
                for h in (flip, block_swap, block_cycle):
                    prod = tuple(h[g[i]] for i in range(n))
                    if prod not in group:
                        group.add(prod)
                        new.add(prod)
            frontier = new
        assert group == set(matching_group_elements(r))


def test_fixed_space_dims_closed_forms():
    assert fixed_space_dim((3,), "Sn") == 1
    assert fixed_space_dim((2, 1), "Sn") == 0
    assert fixed_space_dim((1, 1), "Cn") == 0
    assert fixed_space_dim((2,), "Cn") == 1
    assert fixed_space_dim((2, 2), "Hr") == 1
    assert fixed_space_dim((2, 1, 1), "Hr") == 0
    with pytest.raises(DomainError):
        fixed_space_dim((2, 1), "Hr")
    with pytest.raises(DomainError):
        fixed_space_dim((2,), "Dn")


def test_fixed_space_dims_match_averaging():
    for n in range(1, 7):
        for lam in partitions(n):
            assert fixed_space_dim(lam, "Sn") == fixed_space_dim_by_averaging(lam, "Sn")
            assert fixed_space_dim(lam, "Cn") == fixed_space_dim_by_averaging(lam, "Cn")
            if n % 2 == 0:
                assert fixed_space_dim(lam, "Hr") == fixed_space_dim_by_averaging(lam, "Hr")


def test_subgroup_elements_are_permutation_groups():
    for group, n in [("Sn", 3), ("Cn", 5), ("Hr", 4)]:
        elems = set(subgroup_elements(group, n))
        assert len(elems) == subgroup_order(group, n)
        assert tuple(range(n)) in elems
        for g in elems:
            inv = tuple(sorted(range(n), key=lambda i: g[i]))
            assert inv in elems


def test_invariant_hilbert():
    frob = {(2,): 1 + Q + Q**2, (1, 1): Q}
    assert invariant_hilbert(frob, "Sn", 2) == 1 + Q + Q**2
    assert invariant_hilbert(frob, "Cn", 2) == 1 + Q + Q**2
    assert invariant_hilbert(frob, "Hr", 2) == 1 + Q + Q**2
    assert invariant_hilbert({(1, 1): SparsePoly.one()}, "Sn", 2).is_zero()
    assert invariant_hilbert({}, "Cn", 3).is_zero()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: subgroup_elements("Dn", 3), "unknown subgroup 'Dn'; expected one of ('Sn', 'Cn', 'Hr')"),
        (lambda: conjugacy_classes(-1), "negative n"),
        (lambda: sn_character((2, 1), (2,)), "shape and cycle type must have equal size"),
        (lambda: list(matching_group_elements(-1)), "negative r"),
        (lambda: subgroup_elements("Hr", 3), "matching stabilizer needs even n"),
        (lambda: fixed_space_dim((2, 1), "Hr"), "matching stabilizer needs even n"),
        (lambda: check_subgroup("Hr", 5), "matching stabilizer needs even n"),
        (lambda: check_subgroup("hr", 4), "unknown subgroup 'hr'; expected one of ('Sn', 'Cn', 'Hr')"),
        (lambda: invariant_hilbert({}, "Hr", 3), "matching stabilizer needs even n"),
    ],
)
def test_each_refusal_spells_out_its_reason(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
