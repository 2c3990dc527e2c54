"""Hypothesis strategies for small loci, the tuple-built twin of a locus, the image of
one word under an action and the canonical label of its orbit, shared by the test
modules."""

from hypothesis import strategies as st

from orbitsieve.characters import check_subgroup
from orbitsieve.loci import Action, Locus


@st.composite
def shift_stable_loci(draw):
    """Up to 8 words of length <= 3 over {1..k}, k <= 6, closed under a step-a value shift."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 3))
    a = draw(st.sampled_from([d for d in range(1, k + 1) if k % d == 0]))
    seeds = draw(st.lists(st.tuples(*[st.integers(1, k)] * n), min_size=1, max_size=4))
    words: set = set()
    for w in seeds:
        orbit = {tuple((x - 1 + a * j) % k + 1 for x in w) for j in range(k // a)}
        if len(words | orbit) <= 8:
            words |= orbit
    return Locus("tanisaki", n, k, tuple(sorted(words)), a=a)


def tuple_built(locus: Locus) -> Locus:
    """The locus handed its words as a tuple.  A locus ``enumerate_locus`` built becomes
    a plain locus with the same words, which takes the general paths."""
    return Locus(locus.family, locus.n, locus.k, tuple(locus.words), locus.mu, locus.a)


def image_of(action: Action, w: tuple[int, ...]) -> tuple[int, ...]:
    """The image of one word under the action, letter by letter: the reference for
    ``loci.act_on_words``, which moves a whole list of words in C-level passes."""
    if action.kind == "value_shift":
        return tuple((x - 1 + action.step) % action.modulus + 1 for x in w)
    if action.kind == "position_rotation":
        r = action.step % len(w)
        return w[r:] + w[:r]
    return tuple(w[i] for i in action.perm)


def canonical_form(w, group: str, k: int):
    """Canonical label of the orbit of the word w (a tuple, or a code) under the position
    subgroup, letter by letter: the reference for the labels ``loci.orbit_set`` reads in
    bulk.  Sn: the content vector.  Cn: the least rotation, of w's kind.  Hr: the multiset
    of unordered letter pairs read off consecutive disjoint position pairs."""
    check_subgroup(group, len(w))
    if group == "Sn":
        return tuple(sum(x == letter for x in w) for letter in range(1, k + 1))
    if group == "Cn":
        return min(w[i:] + w[:i] for i in range(len(w)))
    return tuple(sorted(tuple(sorted((w[i], w[i + 1]))) for i in range(0, len(w), 2)))


def tuple_label(group: str, label):
    """An orbit label read back as ``canonical_form`` gives it on word tuples: a Cn
    label is a code."""
    return tuple(label) if group == "Cn" else label


def read_back(orbits):
    """The labels of an orbit set and its representative of each, read back as tuples."""
    labels = tuple(tuple_label(orbits.group, label) for label in orbits.labels)
    return labels, {tuple_label(orbits.group, label): tuple(w) for label, w in orbits._reps.items()}
