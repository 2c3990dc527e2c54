"""Tableau/word combinatorics tests.

Frozen values were derived by hand (charge runs, explicit SSYT lists) or by independent
counting identities (involutions, RSK pairing, maj enumeration), and are cross-checked
against the package's formula paths.
"""

import gc
import itertools
import re
from collections import Counter

import pytest

from orbitsieve import tableaux
from orbitsieve.errors import DomainError
from orbitsieve.qpoly import SparsePoly, q_multinomial
from orbitsieve.tableaux import (
    b_stat,
    charge,
    cocharge,
    compositions,
    conjugate,
    content_of_word,
    count_maj_divisible,
    fake_degree,
    generate_ssyt,
    generate_syt,
    hook_lengths,
    is_even_partition,
    kostka_foulkes,
    multiset_permutations,
    partitions,
    principal_specialization,
    rsk,
    syt_maj_des,
    tableau_maj_des,
    weak_compositions,
    word_maj_des,
)

from q_analogues import evaluate, q_factorial, q_int

Q = SparsePoly.monomial(1)


def is_semistandard(t):
    """Rows weakly increase left to right and columns strictly increase downwards."""
    cells = [(i, j, x) for i, row in enumerate(t) for j, x in enumerate(row)]
    return all((not j or t[i][j - 1] <= x) and (not i or t[i - 1][j] < x) for i, j, x in cells)


def is_standard(t):
    """Semistandard with the entries 1..n, each once."""
    entries = sorted(itertools.chain.from_iterable(t))
    return entries == list(range(1, len(entries) + 1)) and is_semistandard(t)


def shape_of(t):
    return tuple(map(len, t))


def content_of(t, k):
    """How often each letter 1..k fills a cell of t."""
    return content_of_word(tuple(itertools.chain.from_iterable(t)), k)


def test_word_maj_des():
    assert word_maj_des((2, 1, 1)) == (1, 1)
    assert word_maj_des((1, 2, 1)) == (2, 1)
    assert word_maj_des((3, 2, 1)) == (3, 2)
    assert word_maj_des(()) == (0, 0)
    assert word_maj_des((5,)) == (0, 0)


def test_tableau_maj_des_seven_cell_example():
    t = ((1, 2, 5), (3, 6), (4, 7))
    assert is_standard(t)
    assert tableau_maj_des(t) == (16, 4)


def test_partition_generators():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert sum(1 for _ in partitions(8)) == 22
    assert list(weak_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]


def test_conjugate_and_hooks():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert sorted(hook_lengths((2, 2))) == [1, 2, 2, 3]
    assert sorted(hook_lengths((3, 1))) == [1, 1, 2, 4]


def test_syt_counts_match_involutions():
    # sum over shapes of #SYT(shape) = #involutions in S_n, counted directly
    for n in range(1, 7):
        invol = sum(
            1
            for p in itertools.permutations(range(n))
            if all(p[p[i]] == i for i in range(n))
        )
        total = sum(len(generate_syt(lam)) for lam in partitions(n))
        assert total == invol


def test_syt_small_shapes():
    assert len(generate_syt((2, 1))) == 2
    assert len(generate_syt((2, 2))) == 2
    assert len(generate_syt((3, 2))) == 5
    assert [is_standard(t) for t in generate_syt((3, 1))] == [True] * 3


def test_fake_degrees():
    assert fake_degree((4,)) == SparsePoly.one()
    assert fake_degree((1, 1, 1)) == Q**3
    assert fake_degree((2, 1)) == Q + Q**2
    assert fake_degree((2, 2)) == Q**2 + Q**4


def test_fake_degree_matches_maj_enumeration():
    for n in range(1, 7):
        for lam in partitions(n):
            gf = SparsePoly.zero()
            for t in generate_syt(lam):
                gf = gf + SparsePoly.monomial(tableau_maj_des(t)[0])
            assert fake_degree(lam) == gf


def test_charge_pinned_values():
    assert charge((1, 2)) == 1
    assert charge((2, 1)) == 0
    assert charge(tuple(range(1, 6))) == 10
    assert charge(tuple(range(5, 0, -1))) == 0
    assert charge((1, 1, 2)) == 1
    assert charge((2, 1, 1)) == 0
    assert charge((1, 1, 2, 2)) == 2
    assert charge((2, 2, 1, 1)) == 0
    with pytest.raises(DomainError):
        charge((1, 3))  # content not a partition


def test_kostka_foulkes_frozen_tables():
    # mu = (1,1): modified Hall-Littlewood of the 2-element coinvariant ring
    assert kostka_foulkes((2,), (1, 1)) == SparsePoly.one()
    assert kostka_foulkes((1, 1), (1, 1)) == Q
    # mu = (2,1)
    assert kostka_foulkes((3,), (2, 1)) == SparsePoly.one()
    assert kostka_foulkes((2, 1), (2, 1)) == Q
    assert kostka_foulkes((1, 1, 1), (2, 1)).is_zero()
    # mu = (2,2)
    assert kostka_foulkes((4,), (2, 2)) == SparsePoly.one()
    assert kostka_foulkes((3, 1), (2, 2)) == Q
    assert kostka_foulkes((2, 2), (2, 2)) == Q**2
    assert kostka_foulkes((2, 1, 1), (2, 2)).is_zero()
    # mu = (2,1,1)
    assert kostka_foulkes((3, 1), (2, 1, 1)) == Q + Q**2
    assert kostka_foulkes((2, 2), (2, 1, 1)) == Q**2
    assert kostka_foulkes((2, 1, 1), (2, 1, 1)) == Q**3


def test_kostka_foulkes_specializations():
    for n in range(1, 6):
        for lam in partitions(n):
            assert kostka_foulkes(lam, (1,) * n) == fake_degree(lam)
            for mu in partitions(n):
                kf = kostka_foulkes(lam, mu)
                assert evaluate(kf) == len(generate_ssyt(lam, mu))
    # content sorted internally, zeros dropped
    assert kostka_foulkes((2, 1), (1, 0, 2)) == kostka_foulkes((2, 1), (2, 1))


def test_kostka_foulkes_caches_one_entry_per_content():
    tableaux._kostka_foulkes.cache_clear()
    for mu in [(2, 1, 1), (1, 2, 1), (1, 1, 2)]:
        assert kostka_foulkes((3, 1), mu) == Q + Q**2
    assert tableaux._kostka_foulkes.cache_info().currsize == 1


def test_rsk_small_example():
    p, q = rsk((2, 1, 1))
    assert p == ((1, 1), (2,))
    assert q == ((1, 3), (2,))


def test_rsk_bijection_and_maj():
    for n, k in [(3, 2), (4, 2), (3, 3), (4, 3)]:
        seen = set()
        for w in itertools.product(range(1, k + 1), repeat=n):
            p, q = rsk(w)
            assert shape_of(p) == shape_of(q)
            assert is_standard(q)
            assert is_semistandard(p)
            assert content_of(p, max(w)) == content_of_word(w, max(w))
            assert word_maj_des(w)[0] == tableau_maj_des(q)[0]
            seen.add((p, q))
        assert len(seen) == k**n


def test_rsk_degenerate_words():
    assert rsk(()) == ((), ())
    p, q = rsk((1, 1, 1))
    assert p == ((1, 1, 1),) and q == ((1, 2, 3),)


def test_count_maj_divisible():
    assert count_maj_divisible(2, fake_degree((2,))) == 1
    assert count_maj_divisible(2, fake_degree((1, 1))) == 0
    assert count_maj_divisible(2, q_multinomial(2, (1, 1))) == 1
    assert count_maj_divisible(3, q_multinomial(3, (2, 1))) == 1  # words 112, 121, 211: maj 0, 2, 1


def words_maj_divisible(d, content):
    """The words of this content whose maj d divides, read off MacMahon's q-multinomial."""
    return count_maj_divisible(d, q_multinomial(sum(content), content))


def maj_walk_counts(content, divisors):
    """Words of the content with maj divisible by each d, counted one word at a time."""
    majs = [word_maj_des(w)[0] for w in multiset_permutations(content)]
    return {d: sum(1 for m in majs if m % d == 0) for d in divisors}


def test_content_maj_counts_match_the_word_walk():
    divisors = range(1, 10)
    for n in range(9):
        for parts in range(1, 5):
            for content in weak_compositions(n, parts):
                expected = maj_walk_counts(content, divisors)
                assert {d: words_maj_divisible(d, content) for d in divisors} == expected



def test_shape_maj_counts_match_the_tableau_walk():
    divisors = range(1, 10)
    for n in range(8):
        for lam in partitions(n):
            majs = [tableau_maj_des(t)[0] for t in generate_syt(lam)]
            expected = {d: sum(1 for m in majs if m % d == 0) for d in divisors}
            assert {d: count_maj_divisible(d, fake_degree(lam)) for d in divisors} == expected

def test_content_maj_counts_edge_contents():
    # zero parts change nothing: words 112, 121, 211 have maj 0, 2, 1
    assert words_maj_divisible(3, (0, 2, 0, 1)) == words_maj_divisible(3, (2, 1)) == 1
    for d in range(1, 5):
        assert words_maj_divisible(d, ()) == 1
        assert words_maj_divisible(d, (0, 0)) == 1
    for content in [(2, -1), (-1,), (0, -2, 3)]:
        with pytest.raises(DomainError):
            words_maj_divisible(2, content)


def test_maj_divisible_rsk_identity():
    # words with content alpha and maj divisible by n match the RSK split
    for alpha in [(2, 1), (1, 1, 1), (2, 2), (2, 1, 1), (3, 2)]:
        n = sum(alpha)
        lhs = words_maj_divisible(n, alpha)
        rhs = sum(
            len(generate_ssyt(lam, alpha)) * count_maj_divisible(n, fake_degree(lam))
            for lam in partitions(n)
        )
        assert lhs == rhs


def recursive_multiset_permutations(counts):
    """Reference: the words of a content by choosing each next letter in turn."""
    counts = list(counts)
    if any(c < 0 for c in counts):
        raise DomainError("negative multiplicity")
    total = sum(counts)
    word = []

    def rec():
        if len(word) == total:
            yield tuple(word)
            return
        for letter in range(len(counts)):
            if counts[letter]:
                counts[letter] -= 1
                word.append(letter + 1)
                yield from rec()
                word.pop()
                counts[letter] += 1

    yield from rec()


def test_multiset_permutations_match_the_recursive_walk():
    # Every content with n <= 7 and k <= 4, zero parts and the empty content
    # included; both walks are in lex order.
    for k in range(5):
        for n in range(8):
            for content in weak_compositions(n, k):
                words = list(multiset_permutations(content))
                assert words == list(recursive_multiset_permutations(content)), content
    assert list(multiset_permutations(())) == [()]
    assert list(multiset_permutations([0, 2, 0])) == [(2, 2)]
    for content in [(2, -1), (-1,), (0, -2, 3)]:
        with pytest.raises(DomainError, match="negative multiplicity"):
            list(recursive_multiset_permutations(content))
        with pytest.raises(DomainError, match="negative multiplicity"):
            list(multiset_permutations(content))


def test_maj_gf_is_q_multinomial():
    for alpha in [(2, 1), (2, 2), (1, 1, 1), (3, 1)]:
        gf = SparsePoly.zero()
        for w in multiset_permutations(alpha):
            gf = gf + SparsePoly.monomial(word_maj_des(w)[0])
        assert gf == q_multinomial(sum(alpha), alpha)


def test_even_partitions():
    assert is_even_partition((4, 2, 2))
    assert not is_even_partition((3, 1))
    assert is_even_partition(())


def test_ssyt_leaves_no_reference_cycle():
    # With cyclic GC paused, everything a call allocates must be freed by
    # reference counting alone.
    gc.collect()
    gc.disable()
    try:
        assert len(generate_ssyt((3, 2, 1), (2, 2, 2))) == 2
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_ssyt_respects_content_and_shape():
    for t in generate_ssyt((3, 2), (2, 2, 1)):
        assert is_semistandard(t)
        assert shape_of(t) == (3, 2)
        assert content_of(t, 3) == (2, 2, 1)


# -- closed forms by recursion against the enumerations they replace -----------------


def test_principal_specialization_matches_the_tableau_sum():
    # s_lambda(1, q, ..., q^(k-1)) by its definition: a semistandard tableau of content
    # c has weight q^(sum (i-1) c_i), so each content contributes its tableau count.
    for n in range(7):
        for k in range(5):
            for lam in partitions(n):
                by_tableaux = SparsePoly.zero()
                for c in weak_compositions(n, k):
                    weight = sum(i * ci for i, ci in enumerate(c))
                    by_tableaux = by_tableaux + SparsePoly.monomial(weight, 0, len(generate_ssyt(lam, c)))
                assert principal_specialization(lam, k) == by_tableaux, (lam, k)


def test_principal_specialization_of_too_many_rows_is_zero():
    # k + j - i reaches 0 in row k + 1, so the quotient is never formed there.
    assert principal_specialization((1, 1, 1), 2).is_zero()
    assert principal_specialization((1,), 0).is_zero()
    assert principal_specialization((), 0) == SparsePoly.one()


def test_principal_specialization_is_palindromic_from_b_to_its_mirror():
    # Reversing the alphabet 1..k sends weight w to n(k-1) - w; the least weight is
    # b(lambda), from the tableau whose row i holds only the letter i.
    for n in range(1, 9):
        for k in range(1, 7):
            for lam in partitions(n):
                if len(lam) > k:
                    continue
                poly = principal_specialization(lam, k)
                top = n * (k - 1)
                coeffs = [poly.coeff(d) for d in range(top + 1)]
                assert coeffs == coeffs[::-1], (lam, k)
                assert poly.degree_q() == top - b_stat(lam), (lam, k)
                assert coeffs[b_stat(lam)] == 1 and not any(coeffs[: b_stat(lam)]), (lam, k)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: tableaux.check_partition((1, 2)), "not a partition: (1, 2)"),
        (lambda: partitions(-1), "partitions of a negative integer"),
        (lambda: content_of_word((1, 3), 2), "letter 3 outside 1..2"),
        (lambda: list(multiset_permutations((1, -1))), "negative multiplicity"),
        (lambda: generate_ssyt((1,), (-1, 2)), "negative content entry"),
        (lambda: charge((1, 3)), "charge needs partition content"),
        (lambda: rsk((0, 1)), "letters must be positive"),
        (lambda: count_maj_divisible(0, fake_degree((1,))), "divisor must be positive"),
    ],
)
def test_each_refusal_spells_out_its_reason(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_syt_maj_des_matches_enumeration():
    for n in range(9):
        for lam in partitions(n):
            assert dict(syt_maj_des(lam)) == Counter(map(tableau_maj_des, generate_syt(lam))), lam


def test_fake_degree_matches_the_long_division_formula():
    for n in range(13):
        for lam in partitions(n):
            by_division = SparsePoly.monomial(b_stat(lam)) * q_factorial(n)
            for h in hook_lengths(lam):
                by_division = by_division.div_exact_q(q_int(h))
            assert fake_degree(lam) == by_division, lam


def test_partitions_match_sorted_compositions():
    for n in range(9):
        found = {tuple(sorted(c, reverse=True)) for k in range(n + 1) for c in compositions(n, k)}
        assert list(partitions(n)) == sorted(found, reverse=True)
    with pytest.raises(DomainError):
        partitions(-1)
