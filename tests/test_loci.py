"""Locus enumeration, group actions, and orbit canonicalization.

Cardinality oracles are closed-form counts (k^n, falling factorials, surjection
counts, multinomials); orbit counts are cross-checked against Burnside averaging
over explicitly enumerated position subgroups.
"""

import builtins
import math
import operator
import re
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitsieve import harmonics, loci, sieving
from orbitsieve.characters import subgroup_elements
from orbitsieve.errors import DomainError
from locus_strategies import canonical_form, image_of, read_back, shift_stable_loci, tuple_built, tuple_label
from orbitsieve.loci import (
    Action,
    Locus,
    OrbitSet,
    act_on_words,
    enumerate_locus,
    orbit_set,
)
from orbitsieve.qpoly import SparsePoly
from orbitsieve.tableaux import partitions


def fixed_points(images):
    """Number of indices i whose image (the i-th entry) is i."""
    return sum(x == i for i, x in enumerate(images))


def surjection_count(n, k):
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))


class TestEnumeration:
    def test_x_small_explicit(self):
        l = enumerate_locus("X", 2, 2)
        assert l.words == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_x_cardinality(self):
        for n in range(1, 5):
            for k in range(1, 5):
                assert enumerate_locus("X", n, k).size == k**n

    def test_y_cardinality_and_infeasible(self):
        assert enumerate_locus("Y", 3, 5).size == 60
        assert enumerate_locus("Y", 2, 2).words == ((1, 2), (2, 1))
        empty = enumerate_locus("Y", 4, 3)
        assert empty.size == 0 and empty.infeasible
        assert Locus("Y", 4, 3, ()).infeasible and not Locus("Y", 2, 2, ((1, 2),)).infeasible

    def test_z_cardinality_and_infeasible(self):
        assert enumerate_locus("Z", 3, 2).size == 6
        for n in range(1, 6):
            for k in range(1, n + 1):
                assert enumerate_locus("Z", n, k).size == surjection_count(n, k)
        empty = enumerate_locus("Z", 2, 3)
        assert empty.size == 0 and empty.infeasible

    def test_z_words_are_the_surjective_words_in_order(self):
        for n in range(1, 7):
            for k in range(1, min(n, 4) + 1):
                full = set(range(1, k + 1))
                expected = tuple(w for w in product(range(1, k + 1), repeat=n) if set(w) == full)
                assert enumerate_locus("Z", n, k).words == expected

    def test_tanisaki_words_and_symmetry(self):
        l = enumerate_locus("tanisaki", 2, mu=(1, 1))
        assert l.words == ((1, 2), (2, 1))
        assert l.a == 1 and l.scaling_order == 2

        l = enumerate_locus("tanisaki", 4, mu=(2, 2))
        assert l.size == 6 and l.a == 1

        l = enumerate_locus("tanisaki", 6, mu=(2, 1, 2, 1), a=2)
        assert l.size == math.factorial(6) // (2 * 1 * 2 * 1)
        assert l.a == 2 and l.scaling_order == 2

    def test_tanisaki_default_step_is_smallest(self):
        assert enumerate_locus("tanisaki", 4, mu=(1, 1, 1, 1)).a == 1
        assert enumerate_locus("tanisaki", 6, mu=(2, 1, 2, 1)).a == 2
        assert enumerate_locus("tanisaki", 5, mu=(2, 1, 1, 1)).a == 4

    def test_tanisaki_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            enumerate_locus("tanisaki", 3, mu=(1, 1))
        with pytest.raises(DomainError):
            enumerate_locus("tanisaki", 6, mu=(2, 1, 2, 1), a=1)
        with pytest.raises(DomainError):
            enumerate_locus("tanisaki", 6, mu=(2, 1, 2, 1), a=3)
        with pytest.raises(DomainError):
            enumerate_locus("tanisaki", 2, mu=(1, 1), k=3)

    def test_springer_is_permutations(self):
        l = enumerate_locus("springer", 3)
        assert l.size == 6 and l.k == 3
        assert (2, 3, 1) in l.words
        with pytest.raises(DomainError):
            enumerate_locus("springer", 3, k=4)

    def test_rejects_bad_family_and_sizes(self):
        with pytest.raises(DomainError):
            enumerate_locus("W", 2, 2)
        with pytest.raises(DomainError):
            enumerate_locus("X", 0, 2)
        with pytest.raises(DomainError):
            enumerate_locus("X", 2, 0)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: enumerate_locus("W", 2, 2), "unknown locus family 'W'"),
        (lambda: enumerate_locus("X", 0, 2), "word length n must be >= 1"),
        (lambda: enumerate_locus("X", k=2), "family 'X' needs n"),
        (lambda: enumerate_locus("springer"), "family 'springer' needs n"),
        (lambda: enumerate_locus("tanisaki", mu=(0, 0)), "word length n must be >= 1"),
        (lambda: enumerate_locus("springer", 3, k=4), "springer words use the alphabet of size n"),
        (lambda: enumerate_locus("tanisaki", 2), "tanisaki locus needs a content vector mu"),
        (lambda: enumerate_locus("tanisaki", 2, mu=(3, -1)), "mu must be a nonempty tuple of nonnegative integers"),
        (lambda: enumerate_locus("tanisaki", 2, mu=()), "mu must be a nonempty tuple of nonnegative integers"),
        (lambda: enumerate_locus("tanisaki", 2, 3, mu=(1, 1)), "alphabet size must equal the number of parts of mu"),
        (lambda: enumerate_locus("tanisaki", 3, mu=(1, 1)), "mu (1, 1) does not sum to n=3"),
        (
            lambda: enumerate_locus("tanisaki", 6, mu=(2, 1, 2, 1), a=1),
            "a=1 is not a cyclic symmetry of mu=(2, 1, 2, 1) (valid: [2, 4])",
        ),
        (lambda: enumerate_locus("X", 2, 0), "alphabet size k must be >= 1"),
        (lambda: enumerate_locus("Y", 2), "alphabet size k must be >= 1"),
        (lambda: Action.value_shift(1, 0), "value shift needs k >= 1 and step >= 0"),
        (lambda: Action.value_shift(-1, 3), "value shift needs k >= 1 and step >= 0"),
        (lambda: Action.position_rotation(0), "rotation needs n >= 1"),
        (lambda: Action.permutation((0, 0, 1)), "perm must be a permutation of 0..n-1"),
        (lambda: act_on_words(Action("spin"), [(1, 2), (2, 1)], 2), "unknown action kind 'spin'"),
        (
            lambda: orbit_set(enumerate_locus("X", 2, 2), "Dn"),
            "unknown subgroup 'Dn'; expected one of ('Sn', 'Cn', 'Hr')",
        ),
        (lambda: orbit_set(enumerate_locus("X", 3, 2), "Hr"), "matching stabilizer needs even n"),
        # The constructor's one check of a hand-built locus.
        (lambda: Locus("X", 0, 1, ((),)), "word length n must be >= 1"),
        (lambda: Locus("X", 2, 0, ()), "alphabet size k must be >= 1"),
        (lambda: Locus("W", 2, 2, ((1, 2), (2, 1))), "unknown locus family 'W'"),
        (lambda: Locus("X", 2, 2, ((1, 2), (2, 1)), mu=(5,)), "family 'X' takes no mu or a"),
        (lambda: Locus("Y", 2, 2, ((1, 2), (2, 1)), a=1), "family 'Y' takes no mu or a"),
        (lambda: Locus("tanisaki", 2, 2, ((1, 2), (2, 1))), "a tanisaki locus needs its value-shift step a"),
        (lambda: Locus("X", 2, 2, ((1,), (1, 1), (1, 2), (2, 1))), "every word must have length n=2"),
        (lambda: Locus("X", 2, 2, ((1, 1), (1, 2), (2, 1), (2, 2, 1))), "every word must have length n=2"),
        (lambda: Locus("X", 2, 2, ((1, 1), (1, 2, 1))), "every word must have length n=2"),
        (lambda: Locus("X", 1, 3, ((1,), (2, 1), (3, 1, 2))), "every word must have length n=1"),
        (lambda: Locus("X", 1, 3, ((), ())), "every word must have length n=1"),
        (lambda: Locus("X", 2, 2, ((0, 1), (1, 0), (1, 1), (2, 2))), "letter 0 outside 1..2"),
        (lambda: Locus("X", 2, 2, ((1, 1), (1, 3), (2, 2), (3, 1))), "letter 3 outside 1..2"),
        (lambda: Locus("X", 2, 2, ((1, 1), (1, 3), (0, 2))), "letter 3 outside 1..2"),
        (lambda: Locus("X", 3, 2, ((1, 1, 1), (2, 3, 0))), "letter 3 outside 1..2"),
        (lambda: Locus("X", 3, 2, ((2, 2, 0), (1, 1, 1))), "letter 0 outside 1..2"),
        (lambda: Locus("X", 2, 2, ((1, 1), (0, 1), (2, 1))), "letter 0 outside 1..2"),
        (lambda: Locus("X", 2, 2, ((1, 1), (1, None), (2, 1))), "letter None outside 1..2"),
        (lambda: Locus("X", 2, 2, ((1, 1), (1, [2]), (2, 1))), "letter [2] outside 1..2"),
        (lambda: Locus("X", 2, 2, ((1, 1), (1, 2), (1, 2), (2, 2))), "a word is listed twice"),
        (lambda: Locus("X", 2, 2, ((1, 1), (1, 2), (1, 2), (2, 1), (2, 2))), "a word is listed twice"),
        (lambda: Locus("X", 3, 3, ((2, 1, 3), (1, 1, 1), (3, 2, 2), (1, 1, 1))), "a word is listed twice"),
    ],
)
def test_each_refusal_spells_out_its_reason(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


# Loci that are not sets of distinct points of C^n: before the constructor checked
# them, a repeated word ran out of primes in vanishing_ideal, and long words gave a
# wrong basis with no error.
MALFORMED = [
    (("X", 2, 2, ((1, 1), (1, 2), (1, 2), (2, 1), (2, 2))), {}),  # a repeated word
    (("X", 2, 3, ((1, 2, 3), (2, 3, 1), (3, 1, 2))), {}),  # words of length 3 with n = 2
    (("X", 2, 2, ((1, 1), (1, 3), (3, 1))), {}),  # a letter outside 1..k
    (("X", 0, 2, ((),)), {}),  # n < 1
    (("X", 2, 0, ()), {}),  # k < 1
    (("tanisaki", 2, 2, ((1, 2), (2, 1))), {"mu": (1, 1)}),  # no step a
]


@pytest.mark.parametrize("args,kwargs", MALFORMED)
def test_a_malformed_locus_is_refused_before_the_elimination_and_the_verifier(args, kwargs, monkeypatch):
    entered = []
    for module, name in ((harmonics, "vanishing_ideal"), (sieving, "word_bicsp_instance")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **kw: entered.append(name))
    rotation = Action.position_rotation(2)
    for reach in (
        lambda: harmonics.vanishing_ideal(Locus(*args, **kwargs)),
        lambda: sieving.word_bicsp_instance("custom", Locus(*args, **kwargs), rotation, SparsePoly.one()),
    ):
        with pytest.raises(DomainError) as caught:
            reach()
        assert "__post_init__" in [entry.name for entry in caught.traceback]
    assert entered == []


def test_a_locus_its_value_shift_does_not_preserve_is_an_input_fault():
    # The constructor does not check closure, which would cost every built locus a
    # pass; each path that moves the words refuses the locus where it finds a word
    # the shift takes outside it: (1, 1) goes to (2, 2).
    locus = Locus("X", 2, 2, ((1, 1), (1, 2)))
    instance = sieving.word_bicsp_instance("custom", locus, Action.position_rotation(2), SparsePoly.one())
    for reach, message in (
        (lambda: harmonics.vanishing_ideal(locus), "the value shift by 1 does not preserve the locus"),
        (lambda: sieving.verify_bicsp(instance), "the value shift by 1 does not preserve the locus"),
        (lambda: orbit_set(locus, "Cn").shift_permutation(1), "the value shift by 1 does not preserve the orbit set"),
        (lambda: harmonics.graded_frobenius(locus), "the symmetric group does not preserve the locus"),
    ):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            reach()


class TestSharedLoci:
    def test_outside_a_run_every_call_builds_anew(self):
        assert enumerate_locus("Y", 2, 3) is not enumerate_locus("Y", 2, 3)
        assert enumerate_locus("X", 2, 3) is not enumerate_locus("X", 2, 3)

    def test_inside_a_run_completed_parameters_share_one_locus(self):
        with loci._shared_loci():
            assert enumerate_locus("Y", 2, 3) is enumerate_locus("Y", 2, 3)
            tanisaki = enumerate_locus("tanisaki", mu=(1, 1))
            assert enumerate_locus("tanisaki", 2, 2, mu=[1, 1], a=1) is tanisaki
            assert enumerate_locus("Y", 3, 3) is not enumerate_locus("Y", 2, 3)
        assert loci._SHARED.get() is None

    def test_a_nested_run_shares_the_outer_loci_until_the_outer_ends(self):
        with loci._shared_loci():
            outer = enumerate_locus("Z", 3, 2)
            with loci._shared_loci():
                assert enumerate_locus("Z", 3, 2) is outer
            assert enumerate_locus("Z", 3, 2) is outer
        assert enumerate_locus("Z", 3, 2) is not outer

    def test_a_run_that_raises_drops_its_loci(self):
        with pytest.raises(DomainError, match="^unknown locus family 'W'$"):
            with loci._shared_loci():
                enumerate_locus("Y", 2, 3)
                enumerate_locus("W", 2, 3)
        assert loci._SHARED.get() is None


def assert_same_locus(locus, other):
    """Two loci with the same parameters, size, feasibility and words; a locus itself
    compares by identity."""
    assert locus.describe() == other.describe()
    assert (locus.size, locus.infeasible, locus.words) == (other.size, other.infeasible, other.words)


def test_every_built_locus_passes_the_check():
    for n in range(1, 6):
        for k in range(1, 5):
            for family in ("X", "Y", "Z"):
                assert_same_locus(tuple_built(enumerate_locus(family, n, k)), enumerate_locus(family, n, k))
        assert_same_locus(tuple_built(enumerate_locus("springer", n)), enumerate_locus("springer", n))
    for mu in ((2, 2, 2), (2, 1, 2, 1), (3, 0, 1), (1, 1, 1, 1, 1)):
        locus = enumerate_locus("tanisaki", mu=mu)
        assert_same_locus(tuple_built(locus), locus)


# Small loci of every family, with tanisaki contents that have zero parts and steps a
# other than the least.
BUILT_PARAMETERS = (
    [(family, n, k, None, None) for family in ("X", "Y", "Z") for n in range(1, 5) for k in range(1, 5)]
    + [("springer", n, n, None, None) for n in range(1, 6)]
    + [
        ("tanisaki", None, None, mu, a)
        for mu, a in [
            ((2, 2, 2), None),
            ((2, 2, 2), 3),
            ((2, 1, 2, 1), None),
            ((2, 1, 2, 1), 4),
            ((3, 0, 1), None),
            ((2, 0, 2, 0), None),
            ((2, 0, 2, 0), 4),
            ((0, 1, 0, 1, 0, 1), 2),
            ((1, 1, 1, 1, 1), None),
            ((4,), None),
        ]
    ]
)


class TestBuiltLoci:
    """Every locus enumerate_locus builds against its tuple-built twin, which reads."""

    @pytest.mark.parametrize("family,n,k,mu,a", BUILT_PARAMETERS)
    def test_built_locus_matches_its_tuple_built_twin(self, family, n, k, mu, a):
        built = enumerate_locus(family, n, k, mu=mu, a=a)
        groups = ("Sn", "Cn", "Hr") if built.n % 2 == 0 else ("Sn", "Cn")
        orbits = {group: orbit_set(built, group) for group in groups}
        size = built.size
        # Only a read label path builds codes (tanisaki under Cn, a nonempty locus off X
        # under Hr), and none builds word tuples.
        read = "Hr" in groups and family != "X" and size or family == "tanisaki"
        assert ("codes" in vars(built)) == bool(read) and "words" not in vars(built)
        twin = tuple_built(built)
        assert size == len(built.words) == twin.size
        assert_same_locus(built, twin)
        assert_same_locus(built, enumerate_locus(family, n, k, mu=mu, a=a))
        for group, generated in orbits.items():
            walked = orbit_set(twin, group)
            assert generated == walked and generated._reps == walked._reps
            for shift in range(0, built.k + 1, built.scaling_step):
                assert generated.shift_permutation(shift) == walked.shift_permutation(shift)

    def test_the_table_holds_every_family_and_the_empty_loci(self):
        families = {family for family, *_ in BUILT_PARAMETERS}
        assert families == set(loci.FAMILIES)
        empty = [(f, n, k) for f, n, k, mu, a in BUILT_PARAMETERS if enumerate_locus(f, n, k, mu=mu, a=a).infeasible]
        assert ("Y", 4, 3) in empty and ("Z", 3, 4) in empty

    def test_built_words_pass_the_word_check(self, monkeypatch):
        monkeypatch.setattr(loci, "multiset_permutations", lambda mu: [(1, 2), (1, 2)])
        locus = enumerate_locus("tanisaki", mu=(1, 1))
        assert locus.size == 2
        with pytest.raises(DomainError, match="^a word is listed twice$"):
            locus.words

    def test_counting_builds_no_word(self):
        for family, n, k, mu, a in BUILT_PARAMETERS + [("X", 40, 4, None, None), ("Z", 30, 20, None, None)]:
            locus = enumerate_locus(family, n, k, mu=mu, a=a)
            assert locus.size >= 0 and "words" not in vars(locus) and "codes" not in vars(locus)
        assert enumerate_locus("X", 40, 4).size == 4**40


def test_every_built_non_cube_locus_lists_its_words_strictly_ascending():
    # The builders rely on permutations of an ascending range coming in lex order.
    built = [enumerate_locus("springer", n) for n in range(1, 6)]
    for n in range(1, 6):
        for k in range(1, 7):
            built += [enumerate_locus("Y", n, k), enumerate_locus("Z", n, k)]
        for lam in partitions(n):
            for mu in set(permutations(lam + (0,))):
                built.append(enumerate_locus("tanisaki", mu=mu))
    assert sum(locus.size > 1 for locus in built) > 100
    for locus in built:
        assert all(map(operator.lt, locus.words, locus.words[1:])), locus.describe()


class TestActions:
    def test_value_shift_wraps(self):
        g = Action.value_shift(1, 3)
        assert list(act_on_words(g, [(1, 2, 3)], 3)) == [(2, 3, 1)]
        assert g.order == 3
        assert Action.value_shift(2, 4).order == 2
        assert Action.value_shift(0, 4).order == 1

    def test_rotation(self):
        g = Action.position_rotation(4)
        assert list(act_on_words(g, [(1, 2, 3, 4)], 4)) == [(2, 3, 4, 1)]
        assert g.order == 4

    def test_permutation_order(self):
        g = Action.permutation((1, 2, 0))
        assert g.order == 3
        assert list(act_on_words(g, [(5, 6, 7)], 3)) == [(6, 7, 5)]
        with pytest.raises(DomainError):
            Action.permutation((0, 0, 1))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 30), st.integers(1, 7), st.data())
    def test_orders_are_the_least_powers_returning_every_word(self, k, step, n, data):
        # A word of distinct letters returns only under the identity, so its orbit
        # length under each action is that action's order.
        perm = data.draw(st.permutations(range(n)))
        for action, w in [
            (Action.value_shift(step, k), tuple(range(1, k + 1))),
            (Action.position_rotation(n), tuple(range(n))),
            (Action.permutation(perm), tuple(range(n))),
        ]:
            image, length = image_of(action, w), 1
            while image != w:
                image, length = image_of(action, image), length + 1
            assert action.order == length


def actions_on(locus, data):
    """A value shift, the rotation and a permutation, for the locus."""
    shift = Action.value_shift(data.draw(st.integers(0, locus.k)), locus.k)
    perm = Action.permutation(data.draw(st.permutations(range(locus.n))))
    return [shift, Action.position_rotation(locus.n), perm]


def word_by_word(action, words):
    return [image_of(action, w) for w in words]


class TestBulkActions:
    """act_on_words against the one-word reference, one word at a time."""

    @settings(max_examples=100, deadline=None)
    @given(shift_stable_loci(), st.data())
    def test_images_equal_the_word_by_word_images(self, locus, data):
        for action in actions_on(locus, data):
            images = act_on_words(action, locus.words, locus.n)
            assert iter(images) is images
            assert list(images) == word_by_word(action, locus.words)
            assert list(act_on_words(action, [], locus.n)) == []

    @pytest.mark.parametrize(
        "words",
        [
            [(1,), (3,), (2,)],  # n = 1: a rotation or permutation moves nothing
            [(2, 1, 3), (1, 1, 1), (3, 2, 2)],  # unsorted
        ],
    )
    def test_special_word_lists(self, words):
        n = len(words[0])
        actions = [Action.value_shift(1, 3), Action.value_shift(5, 3), Action.position_rotation(n)]
        for action in actions + [Action.permutation(tuple(range(n))[::-1])]:
            assert list(act_on_words(action, words, n)) == word_by_word(action, words)

    @settings(max_examples=100, deadline=None)
    @given(shift_stable_loci(), st.data())
    def test_code_images_read_back_as_the_word_by_word_images(self, locus, data):
        for action in actions_on(locus, data):
            images = list(act_on_words(action, locus.codes, locus.n))
            assert all(type(image) is bytes for image in images)
            assert list(map(tuple, images)) == word_by_word(action, locus.words)

    def test_wrong_permutation_length_rejected(self):
        words = [(1, 2, 3), (3, 1, 2)]
        for perm in ((1, 0), (1, 0, 3, 2)):
            with pytest.raises(DomainError, match="^permutation length does not match the word$"):
                list(act_on_words(Action.permutation(perm), words, 3))


class TestCanonicalForms:
    def test_examples(self):
        assert canonical_form((1, 2, 1), "Sn", 3) == (2, 1, 0)
        assert canonical_form((2, 1, 1), "Cn", 2) == (1, 1, 2)
        assert canonical_form((2, 1, 1, 2), "Hr", 2) == ((1, 2), (1, 2))
        assert canonical_form((1, 2, 2, 1), "Hr", 2) == ((1, 2), (1, 2))

    def test_invariance_under_the_subgroup(self):
        for group in ("Sn", "Cn", "Hr"):
            for w in product(range(1, 3), repeat=4):
                label = canonical_form(w, group, 2)
                for perm in subgroup_elements(group, 4):
                    moved = tuple(w[perm[i]] for i in range(4))
                    assert canonical_form(moved, group, 2) == label

    def test_separates_distinct_orbits(self):
        # Two words with equal content but different necklaces.
        assert canonical_form((1, 1, 2, 2), "Cn", 2) != canonical_form((1, 2, 1, 2), "Cn", 2)

    def test_hr_needs_even_length(self):
        with pytest.raises(DomainError):
            canonical_form((1, 2, 1), "Hr", 2)


class TestOrbitSets:
    def burnside_count(self, locus, group):
        elements = subgroup_elements(group, locus.n)
        total = sum(image_of(Action.permutation(perm), w) == w for perm in elements for w in locus.words)
        assert total % len(elements) == 0
        return total // len(elements)

    @pytest.mark.parametrize("group", ["Sn", "Cn", "Hr"])
    def test_orbit_count_matches_burnside(self, group):
        for n in (2, 4):
            for k in (2, 3):
                for family in ("X", "Y", "Z"):
                    locus = enumerate_locus(family, n, k)
                    if locus.size == 0:
                        continue
                    orbits = orbit_set(locus, group)
                    assert orbits.size == self.burnside_count(locus, group)

    def test_multiset_count_closed_form(self):
        for n in range(1, 5):
            for k in range(1, 5):
                orbits = orbit_set(enumerate_locus("X", n, k), "Sn")
                assert orbits.size == math.comb(n + k - 1, n)

    def test_necklace_count_closed_form(self):
        def necklaces(n, k):
            return sum(
                (math.gcd(d, n) == d) * _phi(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0
            ) // n

        def _phi(d):
            return sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)

        for n in range(1, 6):
            for k in range(1, 4):
                orbits = orbit_set(enumerate_locus("X", n, k), "Cn")
                assert orbits.size == necklaces(n, k)

    def test_induced_shift_action(self):
        orbits = orbit_set(enumerate_locus("X", 2, 2), "Cn")
        assert orbits.labels == (b"\x01\x01", b"\x01\x02", b"\x02\x02")
        assert shifted_label(orbits, b"\x01\x01", 1) == (2, 2)
        assert shifted_label(orbits, b"\x01\x02", 1) == (1, 2)
        assert fixed_points(orbits.shift_permutation(1)) == 1
        assert fixed_points(orbits.shift_permutation(2)) == 3

    def test_shift_label_independent_of_representative(self):
        locus = enumerate_locus("X", 4, 3)
        for group in ("Sn", "Cn", "Hr"):
            orbits = orbit_set(locus, group)
            for w, code in zip(locus.words, locus.codes):
                shifted = tuple(x % 3 + 1 for x in w)
                assert canonical_form(shifted, group, 3) == shifted_label(orbits, canonical_form(code, group, 3), 1)

    def test_shift_permutation(self):
        orbits = orbit_set(enumerate_locus("X", 2, 2), "Cn")
        assert orbits.shift_permutation(1) == [2, 1, 0]
        assert orbits.shift_permutation(0) == orbits.shift_permutation(2) == [0, 1, 2]

    @pytest.mark.parametrize("group,label", [("Cn", (1, 1)), ("Sn", (2, 0))])
    def test_labels_not_closed_under_the_shift_rejected(self, group, label):
        orbits = OrbitSet(group, 2, 2, (label,), {label: (1, 1)})
        assert fixed_points(orbits.shift_permutation(0)) == 1
        with pytest.raises(DomainError, match="^the value shift by 1 does not preserve the orbit set$"):
            orbits.shift_permutation(1)

    def test_hr_requires_even_n(self):
        with pytest.raises(DomainError):
            orbit_set(enumerate_locus("X", 3, 2), "Hr")


def shifted_label(orbits, label, shift):
    """Reference: the label of the orbit after shifting every value of its representative,
    read back as a tuple."""
    shifted = image_of(Action.value_shift(shift % orbits.k, orbits.k), orbits._reps[label])
    return canonical_form(shifted, orbits.group, orbits.k)


def canonical_walk(locus, group):
    """Labels and first-met representatives from every word's canonical form (the reference)."""
    reps = {}
    for w in locus.words:
        reps.setdefault(canonical_form(w, group, locus.k), w)
    return tuple(sorted(reps)), reps


def assert_labels_match_the_walk(locus, group="Cn"):
    assert read_back(orbit_set(locus, group)) == canonical_walk(locus, group)


@st.composite
def hand_built_word_tuples(draw):
    """Distinct words of X(n, k), n <= 5, k <= 3: rotation-closed or not, sorted or shuffled.

    A closed set may lose one word, or swap it for another word of X(n, k), which
    keeps |X| and can keep the sum of the kept necklaces' periods equal to it.
    """
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    word = st.tuples(*[st.integers(1, k)] * n)
    words = set(draw(st.lists(word, max_size=10)))
    closure = draw(st.sampled_from(["none", "closed", "drop one", "swap one"]))
    if closure != "none":
        words = {w[i:] + w[:i] for w in words for i in range(n)}
        if words and closure != "closed":
            words.discard(draw(st.sampled_from(sorted(words))))
            if closure == "swap one":
                words.add(draw(word))
    words = sorted(words)
    if draw(st.booleans()):
        words = draw(st.permutations(words))
    return Locus("X", n, k, tuple(words))


@settings(max_examples=100, deadline=None)
@given(hand_built_word_tuples(), st.data())
def test_fixed_words_count_the_words_a_permutation_fixes(locus, data):
    perm = tuple(data.draw(st.permutations(range(locus.n))))
    fixed = sum(image_of(Action.permutation(perm), w) == w for w in locus.words)
    assert loci.fixed_words(perm, locus.codes) == loci.fixed_words(perm, locus.words) == fixed


class TestNecklaceLabels:
    """Necklace labels, generated on the cube and read in bulk elsewhere, against the
    canonical-form walk."""

    @pytest.mark.parametrize("family", ["X", "Y", "Z"])
    def test_families_match_the_walk(self, family, monkeypatch):
        for n in range(1, 7):
            for k in range(1, 5):
                # Every built X, Y and Z locus has its necklaces generated.
                assert word_paths_taken(enumerate_locus(family, n, k), "Cn", monkeypatch) == set()

    @pytest.mark.parametrize("mu,a", [((2, 2, 2, 2), None), ((2, 1, 2, 1), 2), ((1, 1, 1, 1, 1), None)])
    def test_tanisaki_matches_the_walk(self, mu, a, monkeypatch):
        locus = enumerate_locus("tanisaki", sum(mu), len(mu), mu=mu, a=a)
        assert word_paths_taken(locus, "Cn", monkeypatch) == {"_labels"}

    def test_missing_rotation_replaced_by_a_foreign_word(self):
        # (2, 1) is missing and (3, 2) stands in for it: not closed under rotation.
        locus = Locus("X", 2, 3, ((1, 2), (3, 2)))
        assert read_back(orbit_set(locus, "Cn"))[0] == ((1, 2), (2, 3))
        assert_labels_match_the_walk(locus)

    def test_unsorted_words_take_the_walk(self, monkeypatch):
        unsorted = Locus("X", 2, 2, ((2, 1), (1, 1), (1, 2), (2, 2)))
        assert word_paths_taken(unsorted, "Cn", monkeypatch) == {"_labels"}
        assert orbit_set(unsorted, "Cn")._reps[b"\x01\x02"] == b"\x02\x01"

    @settings(max_examples=150, deadline=None)
    @given(hand_built_word_tuples())
    @example(Locus("X", 3, 3, ((1, 1, 2), (1, 2, 1), (3, 1, 1))))
    def test_hand_built_loci_match_the_walk(self, locus):
        assert_labels_match_the_walk(locus)


def spy_on(monkeypatch, name):
    """Record the first argument of every call of ``loci.<name>`` (a builtin if loci binds none)."""
    calls = []
    real = getattr(loci, name, None) or getattr(builtins, name)

    def spy(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(loci, name, spy, raising=False)
    return calls


def word_paths_taken(locus, group, monkeypatch):
    """Check orbit_set against the walk and name the word-by-word label paths it took:
    the sorted-letter content keys (a sorted word; the labels are sorted from a dict)
    and the bulk canonical forms."""
    labels, reps = canonical_walk(locus, group)  # before the spies: the walk sorts letters too
    calls = {name: spy_on(monkeypatch, name) for name in ("sorted", "_labels")}
    orbits = orbit_set(locus, group)
    monkeypatch.undo()
    assert read_back(orbits) == (labels, reps)
    calls["sorted"] = [arg for arg in calls["sorted"] if not isinstance(arg, dict)]
    return {name for name, made in calls.items() if made}


class TestCubeLabels:
    """The cube enumerate_locus builds has its labels generated; any other locus, one
    handed all of {1..k}^n in lex order included, is read."""

    @pytest.mark.parametrize("group", ["Sn", "Cn", "Hr"])
    def test_cube_matches_the_walk_without_a_word_path(self, group, monkeypatch):
        for n in range(2, 7, 2) if group == "Hr" else range(1, 7):
            for k in range(1, 5):
                locus = enumerate_locus("X", n, k)
                assert loci._is_cube(locus)
                assert word_paths_taken(locus, group, monkeypatch) == set()

    @pytest.mark.parametrize("group", ["Sn", "Cn", "Hr"])
    def test_tuple_built_cube_is_read_to_the_cube_s_labels(self, group, monkeypatch):
        for n in range(2, 7, 2) if group == "Hr" else range(1, 7):
            for k in range(1, 5):
                cube = enumerate_locus("X", n, k)
                twin = tuple_built(cube)
                assert not loci._is_cube(twin)
                assert word_paths_taken(twin, group, monkeypatch) != set()
                assert orbit_set(twin, group) == orbit_set(cube, group)
                assert orbit_set(twin, group)._reps == orbit_set(cube, group)._reps

    @pytest.mark.parametrize("group", ["Sn", "Cn", "Hr"])
    @pytest.mark.parametrize(
        "locus",
        [
            # k^n distinct words of length n over 1..k that the constructor accepts are
            # the cube's words, so a near cube differs from the built cube only in the
            # order of its words or in its other fields.
            # the whole cube out of lex order
            Locus("X", 2, 2, ((1, 1), (2, 1), (1, 2), (2, 2))),
            # ... in reverse lex order
            Locus("X", 2, 3, tuple(product(range(3, 0, -1), repeat=2))),
            # the cube's words in lex order, under another family name
            Locus("Z", 2, 2, ((1, 1), (1, 2), (2, 1), (2, 2))),
            # ... under the one family that takes a value-shift step
            Locus("tanisaki", 2, 2, ((1, 1), (1, 2), (2, 1), (2, 2)), a=1),
        ],
    )
    def test_near_cubes_take_a_word_path(self, locus, group, monkeypatch):
        assert locus.size == locus.k**locus.n
        paths = word_paths_taken(locus, group, monkeypatch)
        assert paths != set()
        if group == "Cn" and list(locus.words) == sorted(locus.words):
            assert "_labels" in paths  # necklaces off the cube are read in bulk


def lookup_permutation(action, locus):
    """Each word's image located by a dictionary lookup: the reference for digit arithmetic."""
    index = {w: i for i, w in enumerate(locus.words)}
    return [index[image] for image in act_on_words(action, locus.words, locus.n)]


def digit_actions(n, k):
    """Value shifts mod k by steps 0, 1, k - 1 and k + 1, and rotations by 0..n."""
    shifts = [Action.value_shift(step, k) for step in sorted({0, 1, k - 1, k + 1})]
    return shifts + [Action("position_rotation", step=r, modulus=n) for r in range(n + 1)]


class TestCube:
    """X(n, k) as enumerate_locus builds it: the cube by construction, words built on demand."""

    CUBES = [(n, k) for n in range(1, 13) for k in range(1, 65) if k**n <= 4096]

    def test_index_permutations_equal_the_dictionary_lookup(self):
        assert (1, 64) in self.CUBES and (12, 2) in self.CUBES and (12, 1) in self.CUBES
        for n, k in self.CUBES:
            cube = enumerate_locus("X", n, k)
            twin = Locus("X", n, k, tuple(product(range(1, k + 1), repeat=n)))
            actions = digit_actions(n, k)
            expected = [lookup_permutation(action, twin) for action in actions]
            assert loci.cube_index_permutations(cube, actions) == expected
            assert loci.cube_index_permutations(twin, actions) is None  # only a built cube

    @pytest.mark.parametrize(
        "locus,action",
        [
            (enumerate_locus("X", 3, 2), Action.permutation((1, 0, 2))),  # not digit-wise
            (enumerate_locus("X", 3, 2), Action.value_shift(1, 3)),  # another alphabet
            (enumerate_locus("Y", 3, 4), Action.position_rotation(3)),  # not the cube
            (Locus("X", 2, 2, ((1, 1), (2, 1), (1, 2), (2, 2))), Action.value_shift(1, 2)),  # out of lex order
            (Locus("X", 2, 2, ((1, 1), (1, 2), (2, 1), (2, 2))), Action.value_shift(1, 2)),  # handed the cube
        ],
    )
    def test_other_actions_and_loci_get_none(self, locus, action):
        assert loci.cube_index_permutations(locus, [Action.position_rotation(locus.n), action]) is None

    def test_words_are_built_once_on_the_first_read(self, monkeypatch):
        products = spy_on(monkeypatch, "product")
        locus = enumerate_locus("X", 3, 2)
        assert locus.size == 8 and loci._is_cube(locus) and products == []
        words = locus.words
        assert words == tuple(product(range(1, 3), repeat=3)) and type(words) is tuple
        assert locus.words is words and len(products) == 1

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 4), (3, 1), (3, 2), (4, 3)])
    def test_matches_its_tuple_built_twin_and_hashes_by_identity(self, n, k, monkeypatch):
        cube = enumerate_locus("X", n, k)
        twin = Locus("X", n, k, tuple(product(range(1, k + 1), repeat=n)))
        products = spy_on(monkeypatch, "product")
        again = enumerate_locus("X", n, k)
        assert {cube: "basis"}.get(twin) is None and {cube: "basis"}.get(again) is None
        assert products == []  # hashing a cube builds no words
        assert_same_locus(cube, twin)
        assert_same_locus(cube, again)

    def test_differs_from_every_other_locus(self):
        cube = enumerate_locus("X", 2, 2)
        words = tuple(product(range(1, 3), repeat=2))
        others = [
            enumerate_locus("X", 2, 3),
            enumerate_locus("X", 3, 2),
            Locus("X", 2, 2, words[:-1]),
            Locus("X", 2, 2, words[::-1]),
            Locus("Z", 2, 2, words),
            Locus("tanisaki", 2, 2, words, a=1),
        ]
        for other in others:
            assert cube != other and other != cube
        assert cube != words and cube != "X"


class TestContentLabels:
    """Sn labels from sorted letters against the canonical-form (content vector) walk."""

    @pytest.mark.parametrize("family", ["X", "Y", "Z"])
    def test_families_match_the_walk(self, family):
        for n in range(1, 7):
            for k in range(1, 5):
                assert_labels_match_the_walk(enumerate_locus(family, n, k), "Sn")

    @pytest.mark.parametrize("mu,a", [((2, 2, 2, 2), None), ((2, 1, 2, 1), 2), ((3, 0, 1), None)])
    def test_tanisaki_and_springer_match_the_walk(self, mu, a):
        assert_labels_match_the_walk(enumerate_locus("tanisaki", sum(mu), len(mu), mu=mu, a=a), "Sn")
        assert_labels_match_the_walk(enumerate_locus("springer", len(mu)), "Sn")

    @settings(max_examples=150, deadline=None)
    @given(hand_built_word_tuples())
    def test_hand_built_loci_match_the_walk(self, locus):
        assert_labels_match_the_walk(locus, "Sn")


class TestBulkLabels:
    """Labels read in bulk (Hr, Cn off the necklace path, shifted representatives)
    against the canonical-form walk."""

    @pytest.mark.parametrize(
        "family,n,k,group",
        [(family, 6, k, group) for family, k in [("X", 4), ("Z", 3)] for group in ("Sn", "Cn", "Hr")]
        # tuple words: a byte holds no letter above 255
        + [("Y", 2, 257, "Cn"), ("Y", 2, 257, "Hr"), ("X", 1, 300, "Sn")],
    )
    def test_labels_of_codes_read_back_as_the_canonical_forms(self, family, n, k, group):
        locus = tuple_built(enumerate_locus(family, n, k))
        assert type(locus.codes[0]) is (bytes if k < 256 else tuple)
        labels = [tuple_label(group, label) for label in loci._labels(locus.codes, group, k, n)]
        assert labels == [canonical_form(w, group, k) for w in locus.words]

    @pytest.mark.parametrize("family", ["X", "Y", "Z"])
    def test_hr_families_match_the_walk(self, family):
        for n in (2, 4, 6):
            for k in range(1, 5):
                assert_labels_match_the_walk(enumerate_locus(family, n, k), "Hr")

    def test_hr_tanisaki_and_springer_match_the_walk(self):
        assert_labels_match_the_walk(enumerate_locus("tanisaki", 6, 4, mu=(2, 1, 2, 1), a=2), "Hr")
        assert_labels_match_the_walk(enumerate_locus("springer", 4), "Hr")

    @settings(max_examples=150, deadline=None)
    @given(hand_built_word_tuples().filter(lambda locus: locus.n % 2 == 0))
    def test_hr_hand_built_loci_match_the_walk(self, locus):
        assert_labels_match_the_walk(locus, "Hr")

    @pytest.mark.parametrize(
        "locus",
        [
            enumerate_locus("X", 4, 3),
            enumerate_locus("Y", 4, 5),
            enumerate_locus("Z", 4, 3),
            enumerate_locus("tanisaki", 6, 4, mu=(2, 1, 2, 1), a=2),
            enumerate_locus("X", 1, 3),
        ],
    )
    def test_shift_permutation_equals_the_shifted_label_walk(self, locus):
        step = locus.scaling_step
        for group in ("Sn", "Cn", "Hr") if locus.n % 2 == 0 else ("Sn", "Cn"):
            orbits = orbit_set(locus, group)
            position = {tuple_label(group, label): i for i, label in enumerate(orbits.labels)}
            for shift in range(-step, locus.k + 2 * step, step):
                walk = [position[shifted_label(orbits, label, shift)] for label in orbits.labels]
                assert orbits.shift_permutation(shift) == walk

    def test_representatives_outside_the_alphabet_are_not_closed_under_the_shift(self):
        orbits = OrbitSet("Cn", 2, 2, ((0, 1),), {(0, 1): (0, 1)})
        with pytest.raises(DomainError, match="^the value shift by 1 does not preserve the orbit set$"):
            orbits.shift_permutation(1)
