"""Sieving constructors and verifiers against hand-counted and independently derived values."""

import gc
import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitsieve import loci, sieving
from orbitsieve.cyclotomic import cyclo_field, eval_at_unity
from orbitsieve.errors import DomainError, InternalCheckError
from orbitsieve.harmonics import graded_frobenius
from orbitsieve.loci import (
    Action,
    Locus,
    act_on_words,
    enumerate_locus,
    orbit_set,
)
from orbitsieve.qpoly import SparsePoly, q_binomial, q_multinomial
from orbitsieve.rat import RAT
from orbitsieve.sieving import (
    SIEVING_FAMILIES,
    SievingInstance,
    build_instance,
    closed_frobenius,
    normalize_family,
    oracle_csp_poly,
    sieving_polynomial,
    verify_bicsp,
    verify_csp,
    verify_family,
    word_bicsp_instance,
)
from orbitsieve.tableaux import count_maj_divisible, generate_ssyt, generate_syt, partitions, weak_compositions

from locus_strategies import canonical_form, image_of, shift_stable_loci, tuple_built, tuple_label
from q_analogues import evaluate, q_int


def poly_dict(p):
    return dict(p.terms)


# -- constructors, pinned against hand computations --------------------------------------


def test_family_aliases():
    assert normalize_family("thm-word-bicsp-Y") == "word-bicsp-Y"
    assert normalize_family("springer-bicsp") == "springer-bicsp"
    with pytest.raises(DomainError):
        normalize_family("thm-unknown")
    with pytest.raises(DomainError):
        normalize_family("word-bicsp")


def test_word_bicsp_polynomials_small():
    # X_{2,2}: content strata give 1, q (1 + t), q^2
    assert poly_dict(sieving_polynomial("word-bicsp-X", n=2, k=2)) == {
        (0, 0): 1,
        (1, 0): 1,
        (1, 1): 1,
        (2, 0): 1,
    }
    assert poly_dict(sieving_polynomial("word-bicsp-Y", n=2, k=2)) == {(0, 0): 1, (1, 1): 1}
    assert poly_dict(sieving_polynomial("word-bicsp-Z", n=2, k=2)) == {(0, 0): 1, (1, 1): 1}
    assert poly_dict(sieving_polynomial("springer-bicsp", n=2)) == {(0, 0): 1, (1, 1): 1}


def test_orbit_csp_polynomials_are_gaussian_binomials():
    assert sieving_polynomial("wcomp-csp", n=2, k=2) == q_binomial(3, 2)
    assert sieving_polynomial("subset-csp", n=2, k=4) == q_binomial(4, 2)
    assert sieving_polynomial("comp-csp", n=4, k=2) == q_binomial(3, 1)
    assert poly_dict(sieving_polynomial("wcomp-csp", n=2, k=2)) == {(0, 0): 1, (1, 0): 1, (2, 0): 1}


def content_sum(n, k, value):
    """The sum over the contents c of {1..k}^n of q^(sum (i-1) c_i) times value(c), a
    polynomial in t or an int: the X results split the cube by content, and the value
    shift's weight of a word depends on its content alone."""
    total = SparsePoly.zero()
    for c in weak_compositions(n, k):
        total = total + SparsePoly.monomial(sum(i * ci for i, ci in enumerate(c))) * value(c)
    return total


def test_x_results_and_gaussian_binomials_match_their_counts():
    # References from enumeration and MacMahon's maj count, none through a Frobenius
    # image: words of content c by maj, necklaces by the words whose maj n divides,
    # matching-invariant orbits by the tableaux of even shape and content c.
    for n in range(1, 7):
        for k in range(1, 5):
            even = [lam for lam in partitions(n) if all(p % 2 == 0 for p in lam)]
            word_x = content_sum(n, k, lambda c: q_multinomial(n, c).swap_q_to_t())
            assert sieving_polynomial("word-bicsp-X", n=n, k=k) == word_x, (n, k)
            necklace_x = content_sum(n, k, lambda c: count_maj_divisible(n, q_multinomial(n, c)))
            assert sieving_polynomial("necklace-X", n=n, k=k) == necklace_x, (n, k)
            if n % 2 == 0:
                graph_x = content_sum(n, k, lambda c: sum(len(generate_ssyt(lam, c)) for lam in even))
                assert sieving_polynomial("graph-X", n=n, k=k) == graph_x, (n, k)
            assert sieving_polynomial("wcomp-csp", n=n, k=k) == q_binomial(n + k - 1, n), (n, k)
            assert sieving_polynomial("subset-csp", n=n, k=k) == q_binomial(k, n), (n, k)
            assert sieving_polynomial("comp-csp", n=n, k=k) == q_binomial(n - 1, k - 1), (n, k)
    with pytest.raises(DomainError):
        closed_frobenius("W", 2, 2)


def test_x_image_has_the_hilbert_series_of_the_cube_quotient():
    # R / <x_1^k, ..., x_n^k> has Hilbert series [k]_q^n, and each s_lambda of the
    # image stands for f^lambda dimensions, counted here by standard tableaux.
    for n in range(1, 8):
        for k in range(1, 6):
            frob = closed_frobenius("X", n, k)
            hilbert = SparsePoly.zero()
            for lam, poly in frob.items():
                hilbert = hilbert + poly * len(generate_syt(lam))
            assert hilbert == q_int(k) ** n, (n, k)


def test_necklace_and_graph_polynomials_small():
    # N^X_{2,2}: one necklace per content stratum of {1,2}^2
    assert poly_dict(sieving_polynomial("necklace-X", n=2, k=2)) == {(0, 0): 1, (1, 0): 1, (2, 0): 1}
    # Gr^X_{2,2}: single even shape (2) with K_{(2),alpha} = 1 for every stratum
    assert poly_dict(sieving_polynomial("graph-X", n=2, k=2)) == {(0, 0): 1, (1, 0): 1, (2, 0): 1}
    # N^Y_{2,4} = [4 2]_q since both shapes of 2 have one tableau with even maj
    assert sieving_polynomial("necklace-Y", n=2, k=4) == q_binomial(4, 2)
    # Gr^Y_{2,k} = [k 2]_q: only the even shape (2) survives, fake degree 1
    assert sieving_polynomial("graph-Y", n=2, k=3) == q_binomial(3, 2)


def test_tanisaki_polynomials_small():
    assert poly_dict(sieving_polynomial("tanisaki-bicsp", mu=(1, 1))) == {(0, 0): 1, (1, 1): 1}
    assert poly_dict(sieving_polynomial("tanisaki-trivial", mu=(2, 1))) == {(0, 0): 1}
    # W_(2,1): shape (2,1) has tableau majs 1 and 2, so only the trivial shape
    # contributes a C_3-fixed vector
    assert poly_dict(sieving_polynomial("tanisaki-necklace", mu=(2, 1))) == {(0, 0): 1}
    # W_(1,1,1): the column tableau has maj 3, giving 1 + q^3 over the 2 necklaces
    assert poly_dict(sieving_polynomial("tanisaki-necklace", mu=(1, 1, 1))) == {(0, 0): 1, (3, 0): 1}
    # W_(2,2): even shapes (4) and (2,2) contribute 1 and q^2
    assert poly_dict(sieving_polynomial("tanisaki-graph", mu=(2, 2))) == {(0, 0): 1, (2, 0): 1}


def test_polynomial_counts_cardinality_at_one():
    cases = [
        ("word-bicsp-X", dict(n=3, k=3)),
        ("word-bicsp-Y", dict(n=3, k=4)),
        ("word-bicsp-Z", dict(n=4, k=2)),
        ("springer-bicsp", dict(n=4)),
        ("tanisaki-bicsp", dict(mu=(2, 2, 1))),
        ("wcomp-csp", dict(n=3, k=3)),
        ("subset-csp", dict(n=2, k=5)),
        ("comp-csp", dict(n=4, k=2)),
        ("necklace-X", dict(n=4, k=2)),
        ("necklace-Y", dict(n=3, k=4)),
        ("necklace-Z", dict(n=4, k=3)),
        ("graph-X", dict(n=4, k=2)),
        ("graph-Y", dict(n=4, k=5)),
        ("graph-Z", dict(n=4, k=3)),
        ("tanisaki-trivial", dict(mu=(3, 1))),
        ("tanisaki-necklace", dict(mu=(2, 1, 1))),
        ("tanisaki-graph", dict(mu=(1, 1, 1, 1))),
    ]
    for family, kwargs in cases:
        inst = build_instance(family, **kwargs)
        assert evaluate(inst.polynomial) == inst.size, (family, kwargs)


@st.composite
def sieving_cases(draw):
    """A supported family with small parameters it accepts."""
    family = draw(st.sampled_from(SIEVING_FAMILIES))
    if family == "springer-bicsp":
        return family, {"n": draw(st.integers(1, 5))}
    if family.startswith("tanisaki"):
        mu = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
        assume(sum(mu) <= 7 and (family != "tanisaki-graph" or sum(mu) % 2 == 0))
        return family, {"mu": mu}
    n = draw(st.integers(1, 6))
    assume(not family.startswith("graph") or n % 2 == 0)
    return family, {"n": n, "k": draw(st.integers(1, 4))}


@settings(max_examples=60, deadline=None)
@given(sieving_cases())
def test_every_closed_form_counts_its_set_at_one(case):
    family, params = case
    inst = build_instance(family, **params)
    assert evaluate(inst.polynomial) == inst.size, case


def test_empty_parameter_ranges_give_zero_polynomials():
    assert sieving_polynomial("word-bicsp-Y", n=3, k=2) == SparsePoly.zero()
    assert sieving_polynomial("word-bicsp-Z", n=2, k=3) == SparsePoly.zero()
    inst = build_instance("word-bicsp-Y", n=3, k=2)
    assert inst.size == 0
    report = verify_bicsp(inst)
    assert report.all_ok
    assert any("no words" in note for note in report.notes)


def test_constructor_domain_errors():
    with pytest.raises(DomainError):
        sieving_polynomial("graph-X", n=3, k=2)  # odd n
    with pytest.raises(DomainError):
        sieving_polynomial("tanisaki-bicsp", mu=(2, 1), a=1)  # (2,1) not 1-symmetric
    with pytest.raises(DomainError):
        sieving_polynomial("tanisaki-bicsp", mu=())
    with pytest.raises(DomainError):
        sieving_polynomial("springer-bicsp", n=3, k=4)
    with pytest.raises(DomainError):
        sieving_polynomial("word-bicsp-X", n=3)  # missing k
    with pytest.raises(DomainError):
        sieving_polynomial("wcomp-csp", n=0, k=2)
    # mu and a belong to the tanisaki results only
    for family, kwargs in [
        ("wcomp-csp", dict(n=2, k=2, mu=(1, 2))),
        ("wcomp-csp", dict(n=2, k=2, a=3)),
        ("word-bicsp-X", dict(n=2, k=2, a=7)),
        ("springer-bicsp", dict(n=2, mu=(1, 1))),
    ]:
        with pytest.raises(DomainError, match="takes no mu or a"):
            sieving_polynomial(family, **kwargs)
    for family, kwargs in [
        ("X", dict(k=2, mu=(5, 5))),
        ("Y", dict(k=3, a=1)),
        ("Z", dict(k=2, a=1)),
        ("springer", dict(mu=(1, 1))),
    ]:
        with pytest.raises(DomainError, match="takes no mu or a"):
            enumerate_locus(family, 2, **kwargs)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: normalize_family("bogus"), "unknown sieving family 'bogus'"),
        (lambda: closed_frobenius("W", 2, 2), "no closed Frobenius image for family 'W'"),
        (lambda: sieving_polynomial("wcomp-csp", n=2), "alphabet size k must be >= 1"),
        (lambda: sieving_polynomial("wcomp-csp", k=2), "family 'X' needs n"),
        (lambda: sieving_polynomial("wcomp-csp", n=0, k=2), "word length n must be >= 1"),
        (lambda: sieving_polynomial("tanisaki-bicsp"), "tanisaki locus needs a content vector mu"),
        (
            lambda: sieving_polynomial("tanisaki-bicsp", mu=(2, -1)),
            "mu must be a nonempty tuple of nonnegative integers",
        ),
        (lambda: sieving_polynomial("tanisaki-bicsp", n=4, mu=(2, 1)), "mu (2, 1) does not sum to n=4"),
        (
            lambda: sieving_polynomial("tanisaki-bicsp", k=3, mu=(2, 1)),
            "alphabet size must equal the number of parts of mu",
        ),
        (
            lambda: sieving_polynomial("tanisaki-bicsp", mu=(2, 1), a=1),
            "a=1 is not a cyclic symmetry of mu=(2, 1) (valid: [2])",
        ),
        (lambda: sieving_polynomial("wcomp-csp", n=2, k=2, a=3), "family 'X' takes no mu or a"),
        (lambda: sieving_polynomial("springer-bicsp"), "family 'springer' needs n"),
        (lambda: sieving_polynomial("springer-bicsp", n=3, k=2), "springer words use the alphabet of size n"),
        (lambda: sieving_polynomial("graph-X", n=3, k=2), "matching stabilizer needs even n"),
        (lambda: sieving_polynomial("tanisaki-graph", mu=(2, 1)), "matching stabilizer needs even n"),
        (
            lambda: verify_csp(build_instance("word-bicsp-X", n=2, k=2)),
            "instance carries two actions; use verify_bicsp",
        ),
        (
            lambda: verify_bicsp(build_instance("wcomp-csp", n=2, k=2)),
            "instance carries a single action; use verify_csp",
        ),
    ],
)
def test_each_refusal_spells_out_its_reason(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


# -- verification grids -------------------------------------------------------------------


def test_x22_grid_hand_counted():
    # words 11,12,21,22; shift fixes none, rotation fixes 11,22,
    # shift-plus-rotation fixes 12 and 21
    report = verify_bicsp(build_instance("word-bicsp-X", n=2, k=2))
    grid = {(row["r"], row["s"]): row["fixed"] for row in report.rows}
    assert grid == {(0, 0): 4, (0, 1): 2, (1, 0): 0, (1, 1): 2}
    assert report.all_ok


def test_binding_orientation_is_asymmetric():
    # X(q,t) = 1 + q + qt + q^2 takes different values on the two axes, so a swapped
    # binding cannot pass: the verifier pins q to the value shift
    report = verify_bicsp(build_instance("word-bicsp-X", n=2, k=2))
    values = {(row["r"], row["s"]): row["value"] for row in report.rows}
    assert values[(1, 0)] == 0 and values[(0, 1)] == 2
    assert report.binding["q"]["action"] == "value-shift"
    assert report.binding["t"]["action"] == "position-rotation"


def test_word_bicsp_grids_pass():
    for family, kwargs in [
        ("word-bicsp-X", dict(n=3, k=2)),
        ("word-bicsp-X", dict(n=2, k=3)),
        ("word-bicsp-Y", dict(n=2, k=4)),
        ("word-bicsp-Y", dict(n=3, k=3)),
        ("word-bicsp-Z", dict(n=4, k=2)),
        ("word-bicsp-Z", dict(n=3, k=3)),
        ("springer-bicsp", dict(n=3)),
        ("springer-bicsp", dict(n=4)),
    ]:
        report = verify_family(family, **kwargs)
        assert report.all_ok, (family, kwargs, [r for r in report.rows if not r["ok"]])


def test_csp_grids_pass():
    for family, kwargs in [
        ("wcomp-csp", dict(n=3, k=4)),
        ("subset-csp", dict(n=3, k=5)),
        ("comp-csp", dict(n=5, k=3)),
        ("necklace-X", dict(n=4, k=3)),
        ("necklace-Y", dict(n=3, k=5)),
        ("necklace-Z", dict(n=4, k=2)),
        ("graph-X", dict(n=4, k=2)),
        ("graph-Y", dict(n=4, k=5)),
        ("graph-Z", dict(n=4, k=4)),
        ("tanisaki-trivial", dict(mu=(2, 2, 1))),
        ("tanisaki-necklace", dict(mu=(3, 2))),
        ("tanisaki-graph", dict(mu=(2, 1, 1))),
    ]:
        report = verify_family(family, **kwargs)
        assert report.all_ok, (family, kwargs, [r for r in report.rows if not r["ok"]])


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("family", ["necklace-X", "word-bicsp-Z", "no-such-family"])
def test_verify_family_pauses_cyclic_gc_and_restores_its_state(monkeypatch, family, enabled):
    seen = []
    build = sieving.build_instance

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return build(*args, **kwargs)

    monkeypatch.setattr(sieving, "build_instance", spy)
    if not enabled:
        gc.disable()
    try:
        if family == "no-such-family":
            with pytest.raises(DomainError):
                verify_family(family, n=3, k=2)
        else:
            assert verify_family(family, n=3, k=2).all_ok
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert seen == [False]


def test_subset_csp_row_with_zero_fixed_points():
    # 2-subsets of {1,2,3} under value rotation: no subset survives one step, and
    # [3 2]_q vanishes at the primitive third root
    report = verify_csp(build_instance("subset-csp", n=2, k=3))
    row = report.rows[1]
    assert row == {"r": 1, "s": None, "fixed": 0, "value": 0, "ok": True}


def test_tanisaki_bicsp_grids_pass():
    for mu, a in [((1, 1), None), ((2, 1), None), ((2, 1, 2, 1), 2), ((1, 1, 1), 1), ((2, 2), 1)]:
        report = verify_family("tanisaki-bicsp", mu=mu, a=a)
        assert report.all_ok, (mu, a, [r for r in report.rows if not r["ok"]])
        assert any("value shift advances" in note for note in report.notes)


def test_tanisaki_symmetric_content_nontrivial_shift():
    # mu = (2,1,2,1) with a = 2: the value shift has order 2 on the alphabet {1..4}
    report = verify_family("tanisaki-bicsp", mu=(2, 1, 2, 1), a=2)
    assert report.params["a"] == 2
    assert report.binding["q"] == {"action": "value-shift", "step": 2, "order": 2}
    assert len(report.rows) == 2 * 6


# Contents with zero parts, anywhere: the loci rule, which every result shares.
ZERO_PART_CONTENTS = [(2, 0), (0, 2), (2, 0, 2, 0), (1, 0, 1, 0), (3, 0, 0), (2, 1, 0), (1, 1, 0, 0)]


@pytest.mark.parametrize(
    "family,mu",
    [
        (family, mu)
        for family in SIEVING_FAMILIES
        if family.startswith("tanisaki")
        for mu in ZERO_PART_CONTENTS
        if family != "tanisaki-graph" or sum(mu) % 2 == 0
    ],
)
def test_zero_parts_of_mu_pass_every_tanisaki_result(family, mu):
    report = verify_family(family, mu=mu)
    assert report.all_ok, (family, mu, [r for r in report.rows if not r["ok"]])
    assert report.params["mu"] == list(mu) and report.params["n"] == sum(mu)
    assert evaluate(sieving_polynomial(family, mu=mu)) == report.rows[0]["fixed"] > 0


@pytest.mark.parametrize("mu", [(2, 0, 2, 0), (0, 1, 2)])
def test_oracle_equals_the_closed_form_on_zero_parts(mu):
    locus = enumerate_locus("tanisaki", mu=mu)
    assert graded_frobenius(locus) == closed_frobenius("tanisaki", locus.n, locus.k, mu)
    results = {"Sn": "tanisaki-trivial", "Cn": "tanisaki-necklace", "Hr": "tanisaki-graph"}
    for group, family in results.items():
        if group != "Hr" or locus.n % 2 == 0:
            assert oracle_csp_poly(locus, group) == sieving_polynomial(family, mu=mu), group


def test_a_bad_group_is_refused_before_any_elimination():
    # X(3, 10) has 1000 points, beyond the point budget: any work would raise
    # ResourceBudgetError before the group was looked at.
    with pytest.raises(DomainError, match="^matching stabilizer needs even n$"):
        oracle_csp_poly(enumerate_locus("X", 3, 10), "Hr")
    with pytest.raises(DomainError, match=re.escape("unknown subgroup 'Dn'; expected one of ('Sn', 'Cn', 'Hr')")):
        oracle_csp_poly(enumerate_locus("X", 3, 10), "Dn")


def test_springer_grid_values_against_fixed_counts():
    report = verify_family("springer-bicsp", n=3)
    grid = {(row["r"], row["s"]): row["fixed"] for row in report.rows}
    # shift by r and rotate by s: counted by hand on the six permutation words
    assert grid[(0, 0)] == 6
    assert grid[(1, 0)] == 0
    assert grid[(0, 1)] == 0
    assert grid[(1, 1)] == 3
    assert report.all_ok


def test_regular_position_elements_of_adjacent_order():
    # the position side also sieves along a cycle of length n - 1: pair the value
    # shift with an (n-1)-cycle instead of the long rotation
    for n, perm in [(3, (1, 0, 2)), (4, (1, 2, 0, 3))]:
        locus = enumerate_locus("springer", n)
        action = Action.permutation(perm)
        inst = word_bicsp_instance(
            "springer-bicsp", locus, action, sieving_polynomial("springer-bicsp", n=n)
        )
        report = verify_bicsp(inst)
        assert report.binding["t"]["action"] == "position-permutation"
        assert report.binding["t"]["order"] == n - 1
        assert report.all_ok, [r for r in report.rows if not r["ok"]]


# -- fixed-point grids against a brute-force scan -----------------------------------------


def power(action, w, times):
    """action applied `times` times to w, one step at a time."""
    for _ in range(times):
        w = image_of(action, w)
    return w


def brute_grid(words, shift, position, rs, ss):
    """Fixed points of shift^r position^s for every (r, s), each word moved by image_of;
    None if some image leaves the set."""
    members = set(words)
    grid = {}
    for r in rs:
        for s in ss:
            images = [power(shift, power(position, w, s), r) for w in words]
            if not members.issuperset(images):
                return None
            grid[(r, s)] = sum(image == w for image, w in zip(images, words))
    return grid


def verified_grid(inst):
    return {(row["r"], row["s"]): row["fixed"] for row in verify_bicsp(inst).rows}


def word_instance(locus, position):
    return word_bicsp_instance("custom", locus, position, SparsePoly.zero())


def shift_of(locus):
    return Action.value_shift(locus.scaling_step, locus.k)


@pytest.mark.parametrize(
    "family,kwargs,locus_args",
    [
        ("word-bicsp-X", dict(n=3, k=3), ("X", 3, 3)),
        ("word-bicsp-Y", dict(n=3, k=4), ("Y", 3, 4)),
        ("word-bicsp-Z", dict(n=4, k=3), ("Z", 4, 3)),
        ("tanisaki-bicsp", dict(mu=(2, 1, 2, 1), a=2), ("tanisaki", 6, 4)),
        ("tanisaki-bicsp", dict(mu=(2, 2, 1)), ("tanisaki", 5, 3)),
        ("springer-bicsp", dict(n=4), ("springer", 4, 4)),
        ("word-bicsp-Y", dict(n=4, k=3), ("Y", 4, 3)),
    ],
)
def test_word_grid_equals_brute_force(family, kwargs, locus_args):
    inst = build_instance(family, **kwargs)
    locus = enumerate_locus(*locus_args, mu=kwargs.get("mu"), a=kwargs.get("a"))
    rotation = Action.position_rotation(locus.n)
    expected = brute_grid(locus.words, shift_of(locus), rotation, range(inst.order_q), range(inst.order_t))
    assert verified_grid(inst) == expected
    if locus.infeasible:
        assert set(expected.values()) == {0}


def test_each_generator_moves_each_word_once(monkeypatch):
    moved = []

    def counting_act_on_words(action, words, n):
        moved.append(len(words))
        return act_on_words(action, words, n)

    monkeypatch.setattr(sieving, "act_on_words", counting_act_on_words)
    inst = build_instance("word-bicsp-Z", n=4, k=3)
    assert moved == []
    verify_bicsp(inst)
    assert moved == [inst.size] * 2


def tuple_built_twin(family, n=None, k=None, mu=None, a=None):
    """``enumerate_locus``, with the built locus handed over as a tuple of words."""
    return tuple_built(enumerate_locus(family, n, k, mu=mu, a=a))


@pytest.mark.parametrize("family", ["word-bicsp-X", "wcomp-csp", "necklace-X", "graph-X"])
@pytest.mark.parametrize("n,k", [(2, 1), (2, 3), (4, 2), (4, 3), (6, 2)])
def test_cube_reports_equal_those_on_the_tuple_built_twin(family, n, k, monkeypatch):
    expected = verify_family(family, n=n, k=k).to_json_dict()
    assert expected["all_ok"]
    monkeypatch.setattr(sieving, "enumerate_locus", tuple_built_twin)
    assert verify_family(family, n=n, k=k).to_json_dict() == expected  # dictionary lookups and label walks


@pytest.mark.parametrize(
    "family,params",
    [
        (family, {"n": n, "k": k})
        for family in ("subset-csp", "necklace-Y", "comp-csp", "necklace-Z")
        for n, k in [(1, 2), (2, 3), (4, 2), (4, 3), (3, 5), (5, 3)]
    ]
    + [("tanisaki-trivial", {"mu": mu, "a": a}) for mu, a in [((2, 2, 2), None), ((2, 0, 2, 0), 4), ((3, 0, 1), None)]],
)
def test_generated_orbit_reports_equal_those_on_the_tuple_built_twin(family, params, monkeypatch):
    expected = verify_family(family, **params).to_json_dict()
    assert expected["all_ok"]
    monkeypatch.setattr(sieving, "enumerate_locus", tuple_built_twin)
    assert verify_family(family, **params).to_json_dict() == expected  # labels read from the words


@pytest.mark.parametrize("family", ["word-bicsp-X", "necklace-X", "wcomp-csp", "graph-X"])
def test_cube_grids_build_no_word(family, monkeypatch):
    def unread(locus):
        raise AssertionError(f"the words of X({locus.n}, {locus.k}) were built")

    monkeypatch.setattr(loci._Built, "words", property(unread))
    monkeypatch.setattr(loci._Built, "codes", property(unread))
    report = verify_family(family, n=8, k=3 if family == "graph-X" else 4)
    assert report.all_ok
    with pytest.raises(AssertionError, match=r"^the words of X\(8, 4\) were built$"):
        enumerate_locus("X", 8, 4).codes


@pytest.mark.parametrize(
    "family,params",
    [
        ("word-bicsp-Z", {"n": 5, "k": 3}),
        ("word-bicsp-Y", {"n": 4, "k": 5}),
        ("springer-bicsp", {"n": 5}),
        ("tanisaki-bicsp", {"mu": (2, 1, 2, 1), "a": 2}),
        ("tanisaki-necklace", {"mu": (2, 2, 2)}),
        ("graph-Z", {"n": 4, "k": 3}),
    ],
)
def test_word_grids_off_the_cube_read_codes_and_build_no_word_tuple(family, params, monkeypatch):
    def unread(locus):
        raise AssertionError(f"the word tuples of {locus.describe()} were built")

    monkeypatch.setattr(loci._Built, "words", property(unread))
    assert verify_family(family, **params).all_ok


@pytest.mark.parametrize("family,n,k", [("word-bicsp-Y", 1, 300), ("necklace-Y", 2, 257)])
def test_alphabets_above_255_letters_keep_tuple_words(family, n, k):
    assert type(enumerate_locus("Y", n, k).codes[0]) is tuple
    assert verify_family(family, n=n, k=k).all_ok


@pytest.mark.parametrize(
    "family,params",
    [
        ("subset-csp", {"n": 5, "k": 8}),
        ("comp-csp", {"n": 7, "k": 4}),
        ("necklace-Y", {"n": 5, "k": 8}),
        ("necklace-Z", {"n": 6, "k": 3}),
        ("tanisaki-trivial", {"mu": (2, 0, 2, 0), "a": 4}),
    ],
)
def test_generated_orbit_grids_off_the_cube_build_no_word_tuple(family, params, monkeypatch):
    def unread(locus):
        raise AssertionError(f"the words of {locus.describe()} were built")

    monkeypatch.setattr(loci._Built, "words", property(unread))
    monkeypatch.setattr(loci._Built, "codes", property(unread))
    assert verify_family(family, **params).all_ok


@pytest.mark.parametrize(
    "n,position",
    [
        (4, Action.permutation((1, 2, 0, 3))),
        (5, Action.permutation((1, 2, 3, 0, 4))),
        (4, Action.permutation((2, 1, 3, 0))),
    ],
)
def test_springer_grid_under_other_position_actions(n, position):
    locus = enumerate_locus("springer", n)
    expected = brute_grid(locus.words, shift_of(locus), position, range(n), range(position.order))
    assert verified_grid(word_instance(locus, position)) == expected


def test_position_binding_carries_the_computed_order():
    # (2, 1, 3, 0) is a 3-cycle with one fixed point: the grid has three columns.
    locus = enumerate_locus("springer", 4)
    report = verify_bicsp(word_instance(locus, Action.permutation((2, 1, 3, 0))))
    assert report.binding["t"] == {"action": "position-permutation", "order": 3, "perm": [2, 1, 3, 0]}
    assert sorted({row["s"] for row in report.rows}) == [0, 1, 2]
    assert len(report.rows) == 3 * shift_of(locus).order


def test_fixed_count_is_exact_beyond_the_orders():
    locus = enumerate_locus("springer", 4)
    position = Action.permutation((1, 2, 0, 3))
    inst = word_instance(locus, position)
    grid = {(r, s): inst.fixed_count(r, s) for r in range(10) for s in range(8)}
    assert grid == brute_grid(locus.words, shift_of(locus), position, range(10), range(8))
    locus = enumerate_locus("X", 3, 2)
    inst = build_instance("word-bicsp-X", n=3, k=2)
    rotation = Action.position_rotation(3)
    for r, s in [(5, 0), (0, 7), (9, 11), (100, 301)]:
        assert inst.fixed_count(r, s) == brute_grid(locus.words, shift_of(locus), rotation, [r], [s])[(r, s)]


def test_negative_exponents_rejected():
    inst = build_instance("word-bicsp-X", n=2, k=2)
    for r, s in [(-1, 0), (0, -1), (-2, -3)]:
        with pytest.raises(DomainError):
            inst.fixed_count(r, s)
    with pytest.raises(DomainError):
        build_instance("necklace-X", n=3, k=2).fixed_count(-1, 0)


def index_powers(perm, count):
    """perm^0, ..., perm^(count - 1), each composed one step at a time."""
    powers = [list(range(len(perm)))]
    while len(powers) < count:
        powers.append([perm[i] for i in powers[-1]])
    return powers


def assert_table_composes(a, b, p, q):
    """Every cell of the tally, past p and q too, against b^s a^r composed directly."""
    fixed = sieving._fixed_table(a, b, p, q)
    for r, ar in enumerate(index_powers(a, 2 * p + 2)):
        for s, bs in enumerate(index_powers(b, 2 * q + 2)):
            assert fixed(r, s) == sum(bs[x] == i for i, x in enumerate(ar)), (r, s)


def index_order(perm):
    """The least m >= 1 with perm^m the identity."""
    m, current = 1, list(perm)
    while current != sorted(perm):
        m, current = m + 1, [perm[i] for i in current]
    return m


@st.composite
def commuting_pairs(draw):
    """Powers of one random permutation on each of up to three disjoint index blocks,
    so orbits with different stabilizers mix; p and q are multiples of the orders."""
    a, b = [], []
    for _ in range(draw(st.integers(1, 3))):
        powers = index_powers(draw(st.permutations(range(draw(st.integers(0, 6))))), 13)
        a += [len(a) + x for x in powers[draw(st.integers(0, 12))]]
        b += [len(b) + x for x in powers[draw(st.integers(0, 12))]]
    p, q = (index_order(perm) * draw(st.integers(1, 3)) for perm in (a, b))
    return a, b, p, q


@settings(max_examples=60, deadline=None)
@given(commuting_pairs())
def test_fixed_table_equals_direct_composition(pair):
    assert_table_composes(*pair)


def test_fixed_table_reduces_exponents_past_the_order():
    # (0 1 2)(3 4) has order 6 and commutes with (3 4); a declared order of 12 is a multiple.
    assert_table_composes([1, 2, 0, 4, 3], [0, 1, 2, 4, 3], 6, 2)
    assert_table_composes([1, 2, 0, 4, 3], [0, 1, 2, 4, 3], 12, 4)
    fixed = sieving._fixed_table([1, 2, 0, 4, 3], [0, 1, 2, 4, 3], 6, 2)
    assert [fixed(r, 0) for r in range(20)] == [5, 0, 2, 3, 2, 0] * 3 + [5, 0]
    assert sieving._fixed_table([], [], 1, 1)(3, 5) == 0
    for r, s in [(-1, 0), (0, -1)]:
        with pytest.raises(DomainError, match="^negative action power$"):
            fixed(r, s)


def test_negative_coefficient_is_an_internal_error():
    assert sieving._check_counting_poly(q_binomial(4, 2)) == q_binomial(4, 2)
    with pytest.raises(InternalCheckError, match="^sieving polynomial has a negative coefficient$"):
        sieving._check_counting_poly(SparsePoly({(0, 0): 2, (1, 1): -1}))


def test_locus_not_preserved_by_the_value_shift_is_refused():
    # {11} is closed under rotation, but the shift sends it to 22.
    inst = word_instance(Locus("X", 2, 2, ((1, 1),)), Action.position_rotation(2))
    with pytest.raises(DomainError, match="^the value shift by 1 does not preserve the locus$"):
        verify_bicsp(inst)


def test_locus_not_preserved_by_the_position_action_is_refused():
    # {112, 221} is closed under the shift, but the rotation sends 112 to 121, and
    # the transposition of the last two letters sends it to 121 too.
    locus = Locus("X", 3, 2, ((1, 1, 2), (2, 2, 1)))
    for action, message in (
        (Action.position_rotation(3), "the position rotation does not preserve the locus"),
        (Action.permutation((0, 2, 1)), "the position permutation does not preserve the locus"),
    ):
        with pytest.raises(DomainError, match=f"^{message}$"):
            verify_bicsp(word_instance(locus, action))


def close_under(words, position):
    closed = set(words)
    frontier = list(closed)
    while frontier:
        image = image_of(position, frontier.pop())
        if image not in closed:
            closed.add(image)
            frontier.append(image)
    return tuple(sorted(closed))


@settings(max_examples=40, deadline=None)
@given(shift_stable_loci(), st.data())
def test_grid_equals_brute_force_on_random_sets(locus, data):
    position = Action.permutation(data.draw(st.permutations(range(locus.n))))
    shift = shift_of(locus)
    grid = brute_grid(locus.words, shift, position, range(shift.order), range(position.order))
    if grid is None:
        with pytest.raises(DomainError, match="^the position permutation does not preserve the locus$"):
            verify_bicsp(word_instance(locus, position))
        locus = Locus(locus.family, locus.n, locus.k, close_under(locus.words, position), a=locus.a)
        grid = brute_grid(locus.words, shift, position, range(shift.order), range(position.order))
    assert verified_grid(word_instance(locus, position)) == grid


def recanonicalised_count(orbits, shift):
    """Labels whose representative, shifted and put in canonical form, gives the label back."""
    return sum(
        canonical_form(tuple((x - 1 + shift) % orbits.k + 1 for x in orbits._reps[label]), orbits.group, orbits.k)
        == tuple_label(orbits.group, label)
        for label in orbits.labels
    )


@pytest.mark.parametrize(
    "family,kwargs,locus_args",
    [
        ("wcomp-csp", dict(n=4, k=3), ("X", 4, 3)),
        ("necklace-X", dict(n=4, k=3), ("X", 4, 3)),
        ("graph-X", dict(n=4, k=3), ("X", 4, 3)),
        ("subset-csp", dict(n=3, k=6), ("Y", 3, 6)),
        ("necklace-Y", dict(n=3, k=6), ("Y", 3, 6)),
        ("graph-Z", dict(n=4, k=4), ("Z", 4, 4)),
        ("tanisaki-trivial", dict(mu=(2, 1, 2, 1), a=2), ("tanisaki", 6, 4)),
        ("tanisaki-necklace", dict(mu=(2, 1, 2, 1), a=2), ("tanisaki", 6, 4)),
        ("tanisaki-graph", dict(mu=(2, 1, 2, 1), a=2), ("tanisaki", 6, 4)),
        ("tanisaki-necklace", dict(mu=(2, 2, 2)), ("tanisaki", 6, 3)),
    ],
)
def test_orbit_counts_equal_recanonicalised_counts(family, kwargs, locus_args):
    inst = build_instance(family, **kwargs)
    locus = enumerate_locus(*locus_args, mu=kwargs.get("mu"), a=kwargs.get("a"))
    orbits = orbit_set(locus, inst.params["group"])
    for shift in range(0, locus.k, locus.scaling_step):
        images = orbits.shift_permutation(shift)
        assert sum(x == i for i, x in enumerate(images)) == recanonicalised_count(orbits, shift)
    for r in range(2 * inst.order_q + 1):
        assert inst.fixed_count(r, 0) == recanonicalised_count(orbits, locus.scaling_step * r % locus.k)


# -- report structure ---------------------------------------------------------------------


def test_report_json_schema_and_roundtrip():
    report = verify_family("word-bicsp-Y", n=2, k=2)
    data = report.to_json_dict()
    assert set(data) == {"family", "params", "binding", "rows", "all_ok", "notes"}
    assert all(set(row) == {"r", "s", "fixed", "value", "ok"} for row in data["rows"])
    assert data["all_ok"] is True
    assert data == json.loads(json.dumps(data))
    assert any("binding" in note for note in data["notes"])
    assert any("fake degree" in note for note in data["notes"])


def test_report_first_row_is_cardinality():
    for family, kwargs in [
        ("word-bicsp-X", dict(n=2, k=3)),
        ("necklace-X", dict(n=3, k=2)),
        ("tanisaki-bicsp", dict(mu=(2, 1))),
    ]:
        inst = build_instance(family, **kwargs)
        report = verify_bicsp(inst) if inst.bivariate else verify_csp(inst)
        first = report.rows[0]
        assert first["fixed"] == inst.size == evaluate(inst.polynomial)
        assert first["ok"]


def test_wrong_polynomial_is_flagged():
    inst = build_instance("wcomp-csp", n=2, k=2)
    inst.polynomial = inst.polynomial + SparsePoly.monomial(3)
    report = verify_csp(inst)
    assert not report.all_ok
    assert not report.rows[0]["ok"]


def test_non_integer_value_is_flagged_not_crashed():
    inst = build_instance("subset-csp", n=1, k=3)
    inst.polynomial = SparsePoly.monomial(1)  # q alone: non-integer at primitive roots
    report = verify_csp(inst)
    row = report.rows[1]
    assert not row["ok"]
    assert isinstance(row["value"], str) and row["value"].startswith("non-integer")


def test_non_integer_value_text_does_not_depend_on_the_backend():
    # Each coordinate prints with str: an int as itself, a Fraction as p/q.
    value = eval_at_unity(SparsePoly.monomial(1), 4, r=1, order_q=4)
    assert sieving._value_field(value) == "non-integer: CycloElement(L=4, [0, 1])"
    half = cyclo_field(4).element([RAT(1, 2), 1])
    assert sieving._value_field(half) == "non-integer: CycloElement(L=4, [1/2, 1])"


def test_closed_frobenius_reads_mu_as_a_tuple():
    listed = closed_frobenius("tanisaki", 4, 2, [3, 1])
    assert listed is closed_frobenius("tanisaki", 4, 2, (3, 1))
    assert closed_frobenius("X", 2, 3) is closed_frobenius("X", 2, 3, None)


def test_frobenius_images_are_read_only():
    locus = enumerate_locus("X", 3, 2)
    for image_of_locus in (lambda: closed_frobenius("X", 3, 2), lambda: graded_frobenius(locus)):
        image = image_of_locus()
        before = dict(image)
        with pytest.raises(TypeError):
            image[(3,)] = SparsePoly.zero()
        assert image_of_locus() == before


def test_frobenius_images_list_only_nonzero_coefficients_in_partition_order():
    for image in (closed_frobenius("X", 3, 2), graded_frobenius(enumerate_locus("X", 3, 2))):
        assert list(image) == [(3,), (2, 1)]
    assert list(closed_frobenius("X", 3, 3)) == list(partitions(3))
    assert closed_frobenius("Y", 3, 2) == {}
    with pytest.raises(DomainError, match="^vanishing ideal of an empty locus$"):
        graded_frobenius(enumerate_locus("Y", 3, 2))


def test_verifier_dispatch_mismatch():
    with pytest.raises(DomainError):
        verify_csp(build_instance("word-bicsp-X", n=2, k=2))
    with pytest.raises(DomainError):
        verify_bicsp(build_instance("wcomp-csp", n=2, k=2))


def test_non_commuting_actions_rejected():
    # On X(3, 2) the swap of the first two positions does not commute with the rotation.
    locus = enumerate_locus("X", 3, 2)
    index = {w: i for i, w in enumerate(locus.words)}
    swap, rotation = Action.permutation((1, 0, 2)), Action.position_rotation(3)
    a, b = ([index[image_of(g, w)] for w in locus.words] for g in (swap, rotation))
    counted = []

    def fixed(r, s):
        counted.append((r, s))
        return sieving._fixed_table(a, b, swap.order, rotation.order)(r, s)

    inst = SievingInstance("custom", {"n": 3, "k": 2}, SparsePoly.one(), swap.order, fixed, {}, order_t=rotation.order)
    with pytest.raises(DomainError, match="^the two actions do not commute on this set$"):
        verify_bicsp(inst)
    assert counted == [(0, 0)]


# -- independent derivation ---------------------------------------------------------------


def test_oracle_examples():
    assert poly_dict(oracle_csp_poly(enumerate_locus("X", 2, 2), "Sn")) == {(0, 0): 1, (1, 0): 1, (2, 0): 1}
    assert poly_dict(oracle_csp_poly(enumerate_locus("Y", 2, 2), "Hr")) == {(0, 0): 1}
    assert poly_dict(oracle_csp_poly(enumerate_locus("Z", 3, 2), "Sn")) == {(0, 0): 1, (1, 0): 1}


def test_oracle_matches_closed_forms_small():
    cases = [
        (enumerate_locus("X", 2, 3), "Sn", sieving_polynomial("wcomp-csp", n=2, k=3)),
        (enumerate_locus("X", 3, 2), "Cn", sieving_polynomial("necklace-X", n=3, k=2)),
        (enumerate_locus("X", 2, 2), "Hr", sieving_polynomial("graph-X", n=2, k=2)),
        (enumerate_locus("Y", 2, 4), "Sn", sieving_polynomial("subset-csp", n=2, k=4)),
        (enumerate_locus("Y", 3, 3), "Cn", sieving_polynomial("necklace-Y", n=3, k=3)),
        (enumerate_locus("Z", 3, 2), "Cn", sieving_polynomial("necklace-Z", n=3, k=2)),
        (enumerate_locus("tanisaki", 3, mu=(2, 1)), "Sn", sieving_polynomial("tanisaki-trivial", mu=(2, 1))),
        (enumerate_locus("tanisaki", 3, mu=(2, 1)), "Cn", sieving_polynomial("tanisaki-necklace", mu=(2, 1))),
        (enumerate_locus("tanisaki", 4, mu=(2, 2)), "Hr", sieving_polynomial("tanisaki-graph", mu=(2, 2))),
    ]
    for locus, group, closed in cases:
        assert oracle_csp_poly(locus, group) == closed, (locus.describe(), group)


def test_all_families_are_buildable():
    kwargs_by_family = {
        "word-bicsp-X": dict(n=2, k=2),
        "word-bicsp-Y": dict(n=2, k=3),
        "word-bicsp-Z": dict(n=3, k=2),
        "tanisaki-bicsp": dict(mu=(2, 1)),
        "springer-bicsp": dict(n=3),
        "wcomp-csp": dict(n=2, k=2),
        "subset-csp": dict(n=2, k=3),
        "comp-csp": dict(n=3, k=2),
        "necklace-X": dict(n=3, k=2),
        "necklace-Y": dict(n=2, k=3),
        "necklace-Z": dict(n=3, k=2),
        "graph-X": dict(n=2, k=2),
        "graph-Y": dict(n=2, k=3),
        "graph-Z": dict(n=4, k=2),
        "tanisaki-trivial": dict(mu=(2, 1)),
        "tanisaki-necklace": dict(mu=(2, 1)),
        "tanisaki-graph": dict(mu=(2, 2)),
    }
    assert set(kwargs_by_family) == set(SIEVING_FAMILIES)
    for family, kwargs in kwargs_by_family.items():
        report = verify_family(family, **kwargs)
        assert report.all_ok, family
