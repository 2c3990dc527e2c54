"""Hypothesis strategies for small loci, the tuple-built twin of a locus, and the image
of one word under an action, shared by the test modules."""

from hypothesis import strategies as st

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
