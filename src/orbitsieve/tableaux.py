"""Partitions, tableaux and word combinatorics.

Everything here is finite and exact.  The counts that feed the closed forms, but for
the Kostka-Foulkes polynomials, visit no tableau: the (maj, des) distribution of
standard tableaux comes from removing the corner that holds n, fake degrees from
Stanley's q-hook length formula, and principal specialisations of Schur functions
from his hook-content formula; all are cached by shape.  The backtracking
enumerations (``generate_ssyt``, ``generate_syt``) stay as the independent oracles for
those identities, and the cocharge sum over ``generate_ssyt`` is the Kostka-Foulkes
polynomial.

A tableau is a plain tuple of row tuples, longest row first, as a partition is a
tuple of parts.  Only ``generate_ssyt`` and ``rsk`` build one, and both keep the rows
weakly decreasing in length, so no tableau is checked on the way in.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from typing import Iterator

from .errors import DomainError
from .qpoly import SparsePoly, q_product_quotient

Partition = tuple[int, ...]  # weakly decreasing positive parts
WeakComposition = tuple[int, ...]  # nonnegative parts, order significant
Word = tuple[int, ...]  # letters from {1, ..., k}
Tableau = tuple[tuple[int, ...], ...]  # rows, longest first

# -- partitions and compositions ---------------------------------------------------


def check_partition(lam) -> Partition:
    """``lam`` as ints, refused unless non-increasing with a positive last part."""
    lam = tuple(map(int, lam))
    if lam and (lam[-1] <= 0 or not all(map(operator.ge, lam, lam[1:]))):
        raise DomainError(f"not a partition: {lam}")
    return lam


def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, largest part first."""
    if n < 0:
        raise DomainError("partitions of a negative integer")
    return _partitions(n, n, n)


@lru_cache(maxsize=None)
def _partitions(n: int, max_len: int, max_part: int) -> tuple[Partition, ...]:
    """Partitions of n into at most max_len parts, each at most max_part, largest first."""
    if n == 0 or max_len == 0:
        return ((),) if n == 0 else ()
    firsts = range(min(n, max_part), 0, -1)
    return tuple((first,) + rest for first in firsts for rest in _partitions(n - first, max_len - 1, first))


def weak_compositions(n: int, k: int) -> Iterator[WeakComposition]:
    """Length-k tuples of nonnegative integers summing to n."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in weak_compositions(n - first, k - 1):
            yield (first,) + rest


def compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Length-k tuples of positive integers summing to n."""
    for weak in weak_compositions(n - k, k):
        yield tuple(p + 1 for p in weak)


def conjugate(lam: Partition) -> Partition:
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def b_stat(lam: Partition) -> int:
    """b(lambda) = sum_i (i-1) lambda_i, the minimal degree shift in fake degrees."""
    return sum(i * p for i, p in enumerate(check_partition(lam)))


def hook_lengths(lam: Partition) -> list[int]:
    lam = check_partition(lam)
    conj = conjugate(lam)
    return [lam[i] - j + conj[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])]


def is_even_partition(lam: Partition) -> bool:
    return all(p % 2 == 0 for p in check_partition(lam))


# -- words --------------------------------------------------------------------------


def word_maj_des(w: Word) -> tuple[int, int]:
    descents = [i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1]]
    return sum(descents), len(descents)


def content_of_word(w: Word, k: int) -> WeakComposition:
    counts = [0] * k
    for letter in w:
        if not 1 <= letter <= k:
            raise DomainError(f"letter {letter} outside 1..{k}")
        counts[letter - 1] += 1
    return tuple(counts)


def multiset_permutations(counts) -> Iterator[Word]:
    """All words over 1..len(counts) in which letter i appears counts[i-1] times, in lex order.

    Starts from the sorted word and steps to the next permutation in place: the
    longest non-increasing suffix is passed over, the letter before it is swapped
    with the last larger letter of the suffix, and the suffix is reversed.
    """
    counts = list(counts)
    if any(c < 0 for c in counts):
        raise DomainError("negative multiplicity")
    word = [letter for letter, c in enumerate(counts, start=1) for _ in range(c)]
    n = len(word)
    while True:
        yield tuple(word)
        i = n - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = word[:i:-1]


# -- tableaux -----------------------------------------------------------------------


def tableau_maj_des(t: Tableau) -> tuple[int, int]:
    """Descents of a standard tableau: i with i+1 in a lower row; maj sums them."""
    row_index = {}
    for i, row in enumerate(t):
        for x in row:
            row_index[x] = i
    n = sum(map(len, t))
    descents = [i for i in range(1, n) if row_index[i] < row_index[i + 1]]
    return sum(descents), len(descents)


def generate_ssyt(shape: Partition, content: WeakComposition) -> list[Tableau]:
    """All semistandard tableaux of the given shape and content, by backtracking."""
    shape = check_partition(shape)
    content = tuple(int(c) for c in content)
    if any(c < 0 for c in content):
        raise DomainError("negative content entry")
    if sum(content) != sum(shape):
        return []
    rows = [list(row_fill) for row_fill in ([0] * p for p in shape)]
    remaining = list(content)
    cells = [(i, j) for i, p in enumerate(shape) for j in range(p)]
    found: list[Tableau] = []

    def rec(idx: int):
        if idx == len(cells):
            found.append(tuple(map(tuple, rows)))
            return
        i, j = cells[idx]
        lo = rows[i][j - 1] if j else 1
        if i:
            lo = max(lo, rows[i - 1][j] + 1)
        for letter in range(lo, len(remaining) + 1):
            if remaining[letter - 1]:
                remaining[letter - 1] -= 1
                rows[i][j] = letter
                rec(idx + 1)
                remaining[letter - 1] += 1
        rows[i][j] = 0

    rec(0)
    del rec  # rec reaches itself through its closure cell; free it without the cyclic GC
    return found


def generate_syt(shape: Partition) -> list[Tableau]:
    n = sum(check_partition(shape))
    return generate_ssyt(shape, (1,) * n)


@lru_cache(maxsize=None)
def syt_maj_des(shape: Partition) -> tuple[tuple[tuple[int, int], int], ...]:
    """((maj, des), count) over the standard tableaux of this shape, none listed."""
    counts = Counter()
    for (_, maj, des), c in _syt_row_maj_des(check_partition(shape)).items():
        counts[maj, des] += c
    return tuple(counts.items())


@lru_cache(maxsize=None)
def _syt_row_maj_des(shape: Partition) -> Counter:
    """Standard tableaux counted by (row of n, maj, des).  n sits in a corner; without
    it the rest is a standard tableau of the smaller shape, and n - 1 is a descent
    exactly when n sits in a strictly lower row than n - 1."""
    if not shape:
        return Counter({(0, 0, 0): 1})
    n, counts = sum(shape), Counter()
    for row, p in enumerate(shape):
        if row + 1 < len(shape) and shape[row + 1] == p:
            continue  # not a corner
        smaller = shape[:row] + ((p - 1,) if p > 1 else ()) + shape[row + 1 :]
        for (below, maj, des), c in _syt_row_maj_des(smaller).items():
            counts[(row, maj + n - 1, des + 1) if row > below else (row, maj, des)] += c
    return counts


@lru_cache(maxsize=None)
def fake_degree(shape: Partition) -> SparsePoly:
    """f^lambda(q) = q^b(lambda) [n]!_q / prod of hook q-integers: Stanley's q-hook
    length formula, as a quotient of products of (1 - q^a)."""
    shape = check_partition(shape)
    quotient = q_product_quotient(range(1, sum(shape) + 1), hook_lengths(shape))
    return SparsePoly.monomial(b_stat(shape)) * quotient


@lru_cache(maxsize=None)
def principal_specialization(shape: Partition, k: int) -> SparsePoly:
    """s_lambda(1, q, ..., q^(k-1)) = q^b(lambda) prod over cells (i, j) of
    [k + j - i]_q / [hook]_q: Stanley's hook-content formula, as a quotient of
    products of (1 - q^a).  Zero for more than k rows, checked first: k + j - i
    reaches 0 there."""
    shape = check_partition(shape)
    if len(shape) > k:
        return SparsePoly.zero()
    contents = [k + j - i for i, p in enumerate(shape) for j in range(p)]
    return SparsePoly.monomial(b_stat(shape)) * q_product_quotient(contents, hook_lengths(shape))


# -- charge, cocharge and Kostka-Foulkes ---------------------------------------------


def charge(word: Word) -> int:
    """Lascoux-Schutzenberger charge of a word with weakly decreasing content.

    Standard subwords are extracted scanning right to left with cyclic wraparound;
    within a subword the index of the next letter grows exactly when it sits to the
    right of the previous one, so charge(12...n) = n(n-1)/2 and charge(n...21) = 0.
    """
    w = list(word)
    counts = content_of_word(tuple(w), max(w)) if w else ()
    if any(counts[i] < counts[i + 1] for i in range(len(counts) - 1)):
        raise DomainError("charge needs partition content")
    total = 0
    while w:
        biggest = max(w)
        pos = len(w) - 1
        index = 0
        picked = []
        for letter in range(1, biggest + 1):
            while w[pos] != letter:
                pos -= 1
                if pos < 0:
                    pos = len(w) - 1
                    index += 1
            picked.append(pos)
            total += index
            pos -= 1
            if pos < 0 and letter < biggest:
                pos = len(w) - 1
                index += 1
        picked_set = set(picked)
        w = [c for i, c in enumerate(w) if i not in picked_set]
    return total


def cocharge(t: Tableau) -> int:
    """b(content) - charge(reading word); the statistic behind modified Kostka-Foulkes."""
    word = tuple(x for row in reversed(t) for x in row)  # rows left to right, bottom row first
    content = tuple(filter(None, content_of_word(word, max(word, default=0))))
    return b_stat(content) - charge(word)


def kostka_foulkes(shape: Partition, content: tuple[int, ...]) -> SparsePoly:
    """Modified Kostka-Foulkes polynomial: cocharge generating function over SSYT.

    Normalized so that kostka_foulkes(lambda, (1,...,1)) equals fake_degree(lambda).
    Content is sorted decreasingly (zero parts dropped) before the cache lookup,
    so every rearrangement of one content shares a cache entry.
    """
    return _kostka_foulkes(shape, tuple(sorted((c for c in content if c), reverse=True)))


@lru_cache(maxsize=None)
def _kostka_foulkes(shape: Partition, content: Partition) -> SparsePoly:
    shape = check_partition(shape)
    out = SparsePoly.zero()
    for t in generate_ssyt(shape, content):
        out = out + SparsePoly.monomial(cocharge(t))
    return out


# -- RSK ------------------------------------------------------------------------------


def rsk(word: Word) -> tuple[Tableau, Tableau]:
    """Row-insertion RSK: word -> (semistandard P, standard Q), maj-preserving into Q."""
    word = tuple(word)
    if any(x < 1 for x in word):
        raise DomainError("letters must be positive")
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, letter in enumerate(word, start=1):
        x = letter
        placed = False
        for r, row in enumerate(p_rows):
            idx = bisect_right(row, x)
            if idx == len(row):
                row.append(x)
                q_rows[r].append(step)
                placed = True
                break
            row[idx], x = x, row[idx]
        if not placed:
            p_rows.append([x])
            q_rows.append([step])
    return tuple(map(tuple, p_rows)), tuple(map(tuple, q_rows))


# -- maj divisibility counts -----------------------------------------------------------


def count_maj_divisible(d: int, maj: SparsePoly) -> int:
    """The sum of the coefficients of q^e with d | e in a maj generating function.

    No tableau or word is visited: the library passes ``fake_degree(shape)``, the maj
    generating function of the standard tableaux of that shape; MacMahon's
    ``qpoly.q_multinomial(n, content)`` is that of the words of a content.
    """
    if d < 1:
        raise DomainError("divisor must be positive")
    return sum(c for (e, _), c in maj.terms.items() if e % d == 0)
