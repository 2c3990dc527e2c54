"""Word loci and the actions whose fixed points the sieving reports count.

A locus is a finite set of length-n words over {1..k}, closed under value shifts and
position permutations.  Five families exist: all words (X), words with distinct letters
(Y), surjective words (Z), fixed-content words (tanisaki), and permutation words
(springer).  Orbit sets quotient a locus by one of the three position subgroups and
carry the induced value-shift action on canonical labels.

Every bulk pass reads a locus' ``codes`` (``Code``): its words as byte strings, or as
word tuples over an alphabet above 255 letters.  Codes are compared only with codes;
the passes slice both kinds alike, and only a letter map and a permuted word tell them
apart.  The tuple ``words`` are the public form.

Every locus ``enumerate_locus`` builds knows its parameters: it counts its size from
them, and builds its codes, in lex order, only when first read; they then pass the
word check every locus passes, and its ``words`` are read off them only when read.  On
a built locus the orbit labels under Sn, and under Cn off tanisaki, are generated from
the parameters, each with the least word of its orbit, so no word is read.  On the
built X cube (``_is_cube``: built, and of family X) the Hr labels are generated too,
and the value shift and the rotation permute word indices by base-k digit arithmetic
(``cube_index_permutations``).  Any other locus is checked once, when it is made: n,
k >= 1, and distinct words of length n over 1..k; its codes are encoded from its words
once, when first read.  A locus handed the words of a built locus passes that check
but is not built: it takes the general paths, with the same results.  On those the
per-word passes stay at C level: ``act_on_words`` moves a whole list of codes, and the
orbit labels of codes are read in bulk (``_labels``).

Within ``_shared_loci`` (the suite runs in it), ``enumerate_locus`` builds each
completed parameter set once and returns that same ``Locus`` to every later call; the
loci go when the block ends.  Outside it, every call builds its locus anew.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, combinations, combinations_with_replacement, permutations, product, repeat
from operator import add, eq, itemgetter
from typing import Iterator, Sequence

from .characters import check_subgroup
from .errors import DomainError
from .tableaux import Word, multiset_permutations

FAMILIES = ("X", "Y", "Z", "tanisaki", "springer")

# A word as the bulk passes read it: one byte per letter, or the word tuple itself
# over an alphabet above 255 letters.
Code = bytes | Word


def symmetry_steps(mu: tuple[int, ...]) -> list[int]:
    """Divisors a of len(mu) with mu invariant under the index shift i -> i + a."""
    k = len(mu)
    return [a for a in range(1, k + 1) if k % a == 0 and all(mu[i] == mu[(i + a) % k] for i in range(k))]


@dataclass(frozen=True, eq=False)
class Locus:
    """A finite set of words, with the value-shift step that preserves it.

    The constructor is the one check of the locus, in C-level passes: n and k are at
    least 1, every word has length n and letters in 1..k (``_check_words``, which a
    built locus runs on its codes when it builds them), no word is listed twice, and
    a tanisaki locus names its step a.  Every path after it relies on that.  A locus
    compares and hashes by identity, so the harmonics memos keep each result exactly
    as long as its locus.
    """

    family: str
    n: int
    k: int
    words: tuple[Word, ...]
    mu: tuple[int, ...] | None = None
    a: int | None = None

    def __post_init__(self):
        _check_family(self.family, self.mu, self.a)
        _check_sizes(self.n, self.k)
        if self.family == "tanisaki" and self.a is None:
            raise DomainError("a tanisaki locus needs its value-shift step a")
        _check_words(self.words, self.n, self.k)

    @cached_property
    def codes(self) -> tuple[Code, ...]:
        """The words as the bulk passes read them (``Code``), encoded once, when first read."""
        return tuple(map(_word_type(self.k), self.words))

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def infeasible(self) -> bool:
        """Whether the locus holds no word, as Y with k < n and Z with k > n do."""
        return self.size == 0

    @property
    def scaling_step(self) -> int:
        """Smallest declared value shift preserving the locus (a for tanisaki, else 1)."""
        return self.a if self.family == "tanisaki" else 1

    @property
    def scaling_order(self) -> int:
        """Order of the declared value shift: k / gcd(k, step)."""
        return self.k // math.gcd(self.k, self.scaling_step)

    def describe(self) -> dict:
        out = {"family": self.family, "n": self.n, "k": self.k}
        if self.mu is not None:
            out["mu"] = list(self.mu)
        if self.a is not None:
            out["a"] = self.a
        return out


class _Built(Locus):
    """A locus ``enumerate_locus`` built from its completed parameters.

    Its ``size`` is counted from them: k^n, k!/(k-n)!, k! S(n, k) by inclusion-exclusion,
    the multinomial of mu, or n!.  It holds no word until ``codes`` or ``words`` is
    first read; its codes are then built in lex order, once, and pass the word check of
    the constructor, and its word tuples are read off them once, when ``words`` is
    first read.  Only Y with k < n and Z with k > n hold no word (``infeasible``).
    """

    def __init__(self, family: str, n: int, k: int, mu: tuple[int, ...] | None, a: int | None):
        vars(self).update(family=family, n=n, k=k, mu=mu, a=a)

    @cached_property
    def codes(self) -> tuple[Code, ...]:
        family, n, letters = self.family, self.n, range(1, self.k + 1)
        if self.infeasible:
            words = ()
        elif family == "X":
            words = product(letters, repeat=n)
        elif family in ("Y", "springer"):
            words = permutations(letters, n)  # of an ascending range: lex order
        elif family == "Z":
            words = filter(frozenset(letters).issubset, product(letters, repeat=n))
        else:
            words = multiset_permutations(self.mu)  # already in lex order
        codes = tuple(map(_word_type(self.k), words))
        _check_words(codes, n, self.k)
        return codes

    @cached_property
    def words(self) -> tuple[Word, ...]:
        return tuple(map(tuple, self.codes))

    @cached_property
    def size(self) -> int:
        n, k = self.n, self.k
        if self.family == "X":
            return k**n
        if self.family == "Y":
            return math.perm(k, n)
        if self.family == "Z":
            return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
        if self.family == "tanisaki":
            return math.factorial(n) // math.prod(map(math.factorial, self.mu))
        return math.factorial(n)


def _word_type(k: int) -> type:
    """The type of the codes over 1..k: bytes, or tuple if a byte cannot hold k."""
    return bytes if k < 256 else tuple


def _check_words(words: Sequence[Code], n: int, k: int) -> None:
    """Refuse a word whose length is not n, a letter outside 1..k and a word listed
    twice, in C-level passes: the check of the words of every locus, tuples or codes."""
    if not set(map(len, words)) <= {n}:
        raise DomainError(f"every word must have length n={n}")
    alphabet = range(1, k + 1)
    try:
        in_alphabet = set(chain.from_iterable(words)) <= set(alphabet)
    except TypeError:  # an unhashable letter
        in_alphabet = False
    if not in_alphabet:
        letter = next(x for x in chain.from_iterable(words) if x not in alphabet)
        raise DomainError(f"letter {letter} outside 1..{k}")
    if len(set(words)) != len(words):
        raise DomainError("a word is listed twice")


def _check_family(family: str, mu: tuple[int, ...] | None, a: int | None) -> None:
    """Refuse a family not in ``FAMILIES``, and mu or a on a family other than
    tanisaki: the check of both, for ``locus_parameters`` and the ``Locus`` constructor."""
    if family not in FAMILIES:
        raise DomainError(f"unknown locus family {family!r}")
    if family != "tanisaki" and (mu is not None or a is not None):
        raise DomainError(f"family {family!r} takes no mu or a")


def _check_sizes(n: int, k: int) -> None:
    """Refuse a word length or an alphabet size below 1: the check of both, for
    ``locus_parameters`` and the ``Locus`` constructor."""
    if n < 1:
        raise DomainError("word length n must be >= 1")
    if k < 1:
        raise DomainError("alphabet size k must be >= 1")


def locus_parameters(
    family: str,
    n: int | None = None,
    k: int | None = None,
    mu: tuple[int, ...] | None = None,
    a: int | None = None,
) -> tuple[int, int, tuple[int, ...] | None, int | None]:
    """The parameters (n, k, mu, a) of a locus family, checked and completed.

    This is their one check: every command and library call that takes them reaches
    it, so each refuses a bad input with the same message.  Only tanisaki takes mu
    and a: mu is a nonempty vector of nonnegative parts, zero parts allowed anywhere,
    n defaults to sum(mu), k to len(mu) and a to the least cyclic symmetry of mu.
    springer's k defaults to n; X, Y and Z need both n and k.
    """
    _check_family(family, mu, a)
    if family == "tanisaki":
        if mu is None:
            raise DomainError("tanisaki locus needs a content vector mu")
        mu = tuple(int(c) for c in mu)
        if not mu or any(c < 0 for c in mu):
            raise DomainError("mu must be a nonempty tuple of nonnegative integers")
        n = sum(mu) if n is None else n
    if n is None:
        raise DomainError(f"family {family!r} needs n")
    if k is None:  # springer's defaults to n and tanisaki's to len(mu); X, Y and Z need one
        k = n if family == "springer" else len(mu) if family == "tanisaki" else 0
    _check_sizes(n, k)
    if family == "springer":
        if k != n:
            raise DomainError("springer words use the alphabet of size n")
    elif family == "tanisaki":
        if k != len(mu):
            raise DomainError("alphabet size must equal the number of parts of mu")
        if sum(mu) != n:
            raise DomainError(f"mu {mu} does not sum to n={n}")
        steps = symmetry_steps(mu)
        if a is None:
            a = steps[0]
        elif a not in steps:
            raise DomainError(f"a={a} is not a cyclic symmetry of mu={mu} (valid: {steps})")
    return n, k, mu, a


# The loci of the running suite, by completed parameters; None outside a run.
_SHARED: ContextVar[dict[tuple, Locus] | None] = ContextVar("shared_loci", default=None)


@contextmanager
def _shared_loci() -> Iterator[None]:
    """Within the block, ``enumerate_locus`` builds each completed parameter set once
    and hands every later call the same ``Locus``.  A nested block shares the outer
    block's loci; the outermost drops them on exit, raised or not."""
    if _SHARED.get() is not None:
        yield
        return
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def enumerate_locus(
    family: str,
    n: int | None = None,
    k: int | None = None,
    mu: tuple[int, ...] | None = None,
    a: int | None = None,
) -> Locus:
    """Build a locus from parameters ``locus_parameters`` checks and completes (a
    tanisaki n may be left to sum(mu)); an infeasible range of Y or Z gives a locus
    with no word, which reads as ``infeasible``.  Inside ``_shared_loci`` a parameter
    set built before returns the same locus."""
    n, k, mu, a = locus_parameters(family, n, k, mu, a)
    shared = _SHARED.get()
    if shared is None:
        return _build_locus(family, n, k, mu, a)
    key = (family, n, k, mu, a)
    locus = shared.get(key)
    if locus is None:
        locus = shared[key] = _build_locus(family, n, k, mu, a)
    return locus


def _build_locus(family: str, n: int, k: int, mu: tuple[int, ...] | None, a: int | None) -> Locus:
    """The locus of completed parameters, built anew: it holds no word yet."""
    return _Built(family, n, k, mu, a)


# -- actions ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Action:
    """A bijection of words: value shift, position rotation or position permutation.

    ``order`` is computed from the action itself, never declared: it sizes the
    verification grids and the root-of-unity bindings."""

    kind: str
    step: int = 1
    modulus: int = 0
    perm: tuple[int, ...] | None = None

    @staticmethod
    def value_shift(step: int, k: int) -> "Action":
        if k < 1 or step < 0:
            raise DomainError("value shift needs k >= 1 and step >= 0")
        return Action("value_shift", step=step, modulus=k)

    @staticmethod
    def position_rotation(n: int) -> "Action":
        if n < 1:
            raise DomainError("rotation needs n >= 1")
        return Action("position_rotation", step=1, modulus=n)

    @staticmethod
    def permutation(perm: tuple[int, ...]) -> "Action":
        perm = tuple(perm)
        if sorted(perm) != list(range(len(perm))):
            raise DomainError("perm must be a permutation of 0..n-1")
        return Action("permutation", perm=perm)

    @property
    def order(self) -> int:
        """The least m >= 1 with action^m the identity; a rotation's is its n."""
        if self.kind != "permutation":
            return self.modulus // math.gcd(self.step, self.modulus)
        order, current, identity = 1, self.perm, tuple(range(len(self.perm)))
        while current != identity:
            current = tuple(self.perm[i] for i in current)
            order += 1
        return order


def act_on_words(action: Action, words: Sequence[Code], n: int) -> Iterator[Code]:
    """The image of every word of length n under the action, in order and of the same
    kind (codes or tuples), streamed from C-level passes: a value shift is one
    ``map_letters`` pass, a rotation two slices and a concatenation per word, and a
    permutation one ``itemgetter`` per word, whose letters a byte word re-encodes."""
    if action.kind == "value_shift":
        return map_letters(words, action.modulus, shift=action.step)
    if action.kind == "position_rotation":
        r = action.step % n
        return map(add, map(itemgetter(slice(r, None)), words), map(itemgetter(slice(r)), words))
    if action.kind == "permutation":
        if len(action.perm) != n:
            raise DomainError("permutation length does not match the word")
        if action.perm == tuple(range(n)):
            return iter(words)
        images = map(itemgetter(*action.perm), words)
        return map(bytes, images) if words and isinstance(words[0], bytes) else images
    raise DomainError(f"unknown action kind {action.kind!r}")


def map_letters(words: Sequence[Code], k: int, scale: int = 1, shift: int = 0) -> Iterator[Code]:
    """Every word with each letter x replaced by (scale x + shift - 1) mod k + 1: a value
    shift, or a scaling by a unit.  A byte word is one ``bytes.translate`` through a
    cached table, which keeps a byte outside 1..k; tuple words map each column of
    letters through the same images, and a letter outside 1..k raises KeyError."""
    images, table = _letter_tables(k, scale % k, shift % k)
    if words and isinstance(words[0], bytes):
        return map(bytes.translate, words, repeat(table))
    return zip(*map(map, repeat(images.__getitem__), zip(*words)))


@lru_cache(maxsize=None)
def _letter_tables(k: int, scale: int, shift: int) -> tuple[dict[int, int], bytes | None]:
    """The image of each letter 1..k under x -> scale x + shift (mod k), and the
    ``bytes.translate`` table of those images if a byte holds k."""
    images = {x: (scale * x + shift - 1) % k + 1 for x in range(1, k + 1)}
    return images, bytes.maketrans(bytes(images), bytes(images.values())) if k < 256 else None


def fixed_words(perm: tuple[int, ...], words: Sequence[Code]) -> int:
    """How many of the words (codes or tuples) the position permutation fixes.

    A word is fixed when it is constant on every cycle, so no word is moved: the
    letters at each cycle's first position are compared with those at its other
    positions, one ``itemgetter`` on each side per word.
    """
    heads, others = [], []
    for i, j in enumerate(perm):
        while j != i and i not in others:
            heads.append(i)
            others.append(j)
            j = perm[j]
    if not heads:
        return len(words)
    return sum(map(eq, map(itemgetter(*heads), words), map(itemgetter(*others), words)))


# -- the cube --------------------------------------------------------------------------


def _is_cube(locus: Locus) -> bool:
    """Whether the locus is the X cube ``enumerate_locus`` built: built, and of family X.
    A locus handed the same words is not one: it takes the general paths, which give
    the same results."""
    return isinstance(locus, _Built) and locus.family == "X"


def cube_index_permutations(locus: Locus, actions: Sequence[Action]) -> list[list[int]] | None:
    """The index of each word's image under each action, by base-k digit arithmetic,
    if the locus is a cube ``enumerate_locus`` built (``_is_cube``) and every action is
    a value shift mod k or a rotation; else None.

    The word w sits at its base-k value sum((w[i] - 1) k^(n-1-i)), so no word is built
    or looked up.  A rotation by r reads the index A k^(n-r) + B, A its first r
    digits, as B k^r + A: in index order the images are range(A, k^n, k^r) for each A.
    A value shift moves each digit d to t[d] = (d + step) mod k.  The indices whose
    top digit is d form block d, which goes to block t[d] while the digits below move
    as on one fewer position, so each digit's table is the one below it with t[d] k^m
    added, block by block, in C-level ``map(add, ...)`` passes.
    """
    n, k = locus.n, locus.k
    digit_wise = (a.kind == "position_rotation" or (a.kind == "value_shift" and a.modulus == k) for a in actions)
    if not (all(digit_wise) and _is_cube(locus)):
        return None
    out = []
    for action in actions:
        if action.kind == "position_rotation":
            m = k ** (action.step % n)
            out.append(list(chain.from_iterable(range(top, k**n, m) for top in range(m))))
            continue
        table = [0]
        for m in range(n):
            shifted = ((d + action.step) % k * k**m for d in range(k))
            table = list(chain.from_iterable(map(add, table, repeat(c)) for c in shifted))
        out.append(table)
    return out


# -- orbit sets --------------------------------------------------------------------------


def _labels(words: Sequence[Code], group: str, k: int, n: int) -> Iterator:
    """The orbit label under the group of every word of length n over 1..k, in order,
    in C-level passes over the words (codes or tuples).

    An Sn label counts each letter, one ``count`` pass per letter; a Cn label is the
    least of the word and the other n - 1 length-n slices of the doubled word (a word
    of length 1 is its own label); an Hr label sorts the (min, max) letter pairs of
    consecutive positions.
    """
    if not words:
        return iter(())
    if group == "Sn":
        count = type(words[0]).count
        return zip(*(map(count, words, repeat(x)) for x in range(1, k + 1)))
    if group == "Cn" and n == 1:
        return iter(words)
    if group == "Cn":
        doubled = list(map(add, words, words))
        return map(min, words, *(map(itemgetter(slice(j, j + n)), doubled) for j in range(1, n)))
    pairs = [itemgetter(i, i + 1) for i in range(0, n, 2)]
    columns = (zip(map(min, map(pair, words)), map(max, map(pair, words))) for pair in pairs)
    return map(tuple, map(sorted, zip(*columns)))


@dataclass(frozen=True)
class OrbitSet:
    """Orbit labels of a locus under a position subgroup, with orbit representatives.

    An Sn label is the content vector (the count of each letter 1..k), a Cn label the
    least rotation, a code, and an Hr label the sorted tuple of the (min, max) letter
    pairs at positions (0, 1), (2, 3), ...  Each representative is a code.
    """

    group: str
    n: int
    k: int
    labels: tuple
    _reps: dict = field(compare=False, hash=False, repr=False, default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.labels)

    def shift_permutation(self, shift: int) -> list[int]:
        """Index of each label's image under the value shift; checks closure, and refuses
        a hand-built orbit set that the shift does not preserve.

        The shift by s moves each count of a content vector s places on, so an Sn label
        is rotated as it stands.  Under Cn and Hr every representative is shifted in one
        ``act_on_words`` pass and relabelled in bulk (``_labels``).
        """
        position = dict(zip(self.labels, range(len(self.labels))))
        s = shift % self.k
        try:
            if self.group == "Sn":
                return [position[label[-s:] + label[:-s]] for label in self.labels]
            reps = list(map(self._reps.__getitem__, self.labels))
            shifted = list(act_on_words(Action.value_shift(s, self.k), reps, self.n))
            return list(map(position.__getitem__, _labels(shifted, self.group, self.k, self.n)))
        except KeyError:
            raise DomainError(f"the value shift by {shift % self.k} does not preserve the orbit set") from None


def _generated_necklace_labels(n: int, k: int) -> tuple[Code, ...]:
    """The necklace labels of the cube {1..k}^n, generated in lex order as codes.

    Prenecklaces of length n over 1..k come in lex order by the iterative
    Fredricksen-Kessler-Maiorana step: raise the last letter below k and repeat the
    prefix up to it.  That prefix is the last Lyndon prefix; the word is a necklace
    exactly when its length p divides n.  A necklace is the least word of its orbit,
    so it is its own first-met representative; no word of the locus is read.
    """
    labels, code = [], _word_type(k)
    a, p = [1] * n, 1
    while True:
        if n % p == 0:
            labels.append(code(a))
        i = n - 1
        while i >= 0 and a[i] == k:
            i -= 1
        if i < 0:
            return tuple(labels)
        a[i] += 1
        p = i + 1
        a = a[:p] * (n // p) + a[: n % p]


def _generated_representatives(locus: Locus, group: str) -> dict | None:
    """Each orbit label of a built locus with the code of its least word, generated
    from the parameters (an infeasible locus has none); None where the labels are read
    instead: tanisaki under Cn, and every family but X under Hr.

    Sn: the non-decreasing words, labelled by their content vectors.  Cn: the
    necklaces, each its own label; on Y and springer (distinct letters) the least
    letter first, then each arrangement of the rest.
    """
    family, n, letters, code = locus.family, locus.n, range(1, locus.k + 1), _word_type(locus.k)
    if locus.infeasible:
        return {}
    if group == "Sn":
        if family == "X":
            firsts = combinations_with_replacement(letters, n)
        elif family == "Z":
            firsts = filter(frozenset(letters).issubset, combinations_with_replacement(letters, n))
        elif family == "tanisaki":
            firsts = [tuple(chain.from_iterable(map(repeat, letters, locus.mu)))]
        else:
            firsts = combinations(letters, n)
        return {tuple(map(w.count, letters)): code(w) for w in firsts}
    if group == "Cn":
        if family == "X":
            necklaces = _generated_necklace_labels(n, locus.k)
        elif family == "Z":
            necklaces = filter(frozenset(letters).issubset, _generated_necklace_labels(n, locus.k))
        elif family == "tanisaki":
            return None
        else:
            firsts = combinations(letters, n)
            necklaces = (code((least, *rest)) for least, *others in firsts for rest in permutations(others))
        return {w: w for w in necklaces}
    if family != "X":
        return None
    pairs = combinations_with_replacement(tuple(combinations_with_replacement(letters, 2)), n // 2)
    return {label: code(chain.from_iterable(label)) for label in pairs}


def orbit_set(locus: Locus, group: str) -> OrbitSet:
    """Orbit labels of the locus under Sn, Cn or Hr, each with the code of its first
    word in locus order.

    On a locus ``enumerate_locus`` built, the labels and the first word of each orbit,
    the least of its orbit, are generated from the parameters under Sn, under Cn off
    tanisaki and, on the X cube, under Hr (``_generated_representatives``), so no word
    is built.  Any other locus, one handed the words of a built locus included, is
    read: the labels of its codes are read in bulk (``_labels``).  Each gives the
    labels and representatives of a word-by-word walk over the codes.
    """
    check_subgroup(group, locus.n)
    reps = _generated_representatives(locus, group) if isinstance(locus, _Built) else None
    if reps is None:
        backwards = locus.codes[::-1]  # so that each label keeps its first word
        reps = dict(zip(_labels(backwards, group, locus.k, locus.n), backwards))
    return OrbitSet(group, locus.n, locus.k, tuple(sorted(reps)), reps)
