import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from injlog.core import CategoryError, wide_pushout
from injlog.lattice import (
    LatticeCategory,
    LatticeError,
    LatticePresentation,
    presentation_from_pairs,
    random_hypotheses,
    random_lattice,
    validate,
)


def diamond() -> LatticeCategory:
    return LatticeCategory(
        presentation_from_pairs(
            "diamond",
            ["0", "a", "b", "1"],
            [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
        )
    )


def test_closure_fills_transitive_pairs():
    p = presentation_from_pairs("chain", ["0", "1", "2"], [("0", "1"), ("1", "2")])
    assert p.leq[0, 2]
    assert not p.leq[2, 0]
    assert p.is_complete_lattice


def test_duplicate_and_unknown_elements_are_rejected():
    with pytest.raises(LatticeError) as err:
        presentation_from_pairs("L", ["a", "a"], [])
    assert err.value.kind == "duplicate-element"
    assert err.value.witness == ("a",)
    with pytest.raises(LatticeError) as err:
        presentation_from_pairs("L", ["a"], [("a", "zz")])
    assert err.value.kind == "unknown-element"


def test_validate_reports_broken_axioms_with_witnesses():
    bad = LatticePresentation("L", ("a", "b"), np.array([[False, False], [False, True]]))
    with pytest.raises(LatticeError) as err:
        validate(bad)
    assert err.value.kind == "not-reflexive"
    assert err.value.witness == ("a",)

    cyc = LatticePresentation("L", ("a", "b"), np.array([[True, True], [True, True]]))
    with pytest.raises(LatticeError) as err:
        validate(cyc)
    assert err.value.kind == "not-antisymmetric"

    ntr = LatticePresentation(
        "L",
        ("a", "b", "c"),
        np.array(
            [[True, True, False], [False, True, True], [False, False, True]]
        ),
    )
    with pytest.raises(LatticeError) as err:
        validate(ntr)
    assert err.value.kind == "not-transitive"
    assert err.value.witness == ("a", "b", "c")


def test_antichain_with_bounds_missing_middle_joins():
    # bottom, two incomparable middles, no top: b|c has no join
    p = presentation_from_pairs("vee", ["bot", "b", "c"], [("bot", "b"), ("bot", "c")])
    assert not p.is_complete_lattice
    assert p.missing_join == (1, 2)
    with pytest.raises(LatticeError) as err:
        validate(p, require_lattice=True)
    assert err.value.kind == "no-join"
    assert err.value.witness == ("b", "c")


def test_poset_without_lattice_structure_refuses_pushouts():
    p = presentation_from_pairs("vee", ["bot", "b", "c"], [("bot", "b"), ("bot", "c")])
    cat = LatticeCategory(p)
    with pytest.raises(LatticeError) as err:
        cat.pushout(cat.mor("bot", "b"), cat.mor("bot", "c"))
    assert err.value.kind == "no-join"
    assert err.value.witness == ("b", "c")
    # injectivity queries still work on the plain poset
    assert cat.is_injective(cat.obj("b"), cat.mor("bot", "b")).holds


def test_missing_joins_are_named_by_their_elements():
    antichain = LatticeCategory(presentation_from_pairs("P", ["a", "b"], []))
    for query in (
        antichain.validate_for_colimits,
        lambda: antichain.coproduct([]),
        lambda: wide_pushout(antichain, [antichain.mor("a", "a")]),
    ):
        with pytest.raises(LatticeError) as err:
            query()
        assert err.value.kind == "no-join"
        assert err.value.witness == ("a", "b")
    # every pair has a join, but the join of no elements, the bottom, is missing
    roof = LatticeCategory(presentation_from_pairs("R", ["a", "b", "t"], [("a", "t"), ("b", "t")]))
    with pytest.raises(LatticeError) as err:
        roof.validate_for_colimits()
    assert (err.value.kind, err.value.witness) == ("no-join", ())
    with pytest.raises(LatticeError) as err:
        validate(roof.p, require_lattice=True)
    assert (err.value.kind, err.value.witness) == ("no-join", ())


def test_morphism_existence_follows_leq():
    cat = diamond()
    assert cat.mor("0", "1").dom == cat.obj("0")
    with pytest.raises(CategoryError):
        cat.mor("a", "b")
    assert cat.enumerate_homs(cat.obj("a"), cat.obj("1")) == [cat.mor("a", "1")]
    assert cat.enumerate_homs(cat.obj("a"), cat.obj("b")) == []
    for a, x in ((cat.obj("a"), cat.obj("1")), (cat.obj("a"), cat.obj("b"))):
        homs = cat.enumerate_homs(a, x)
        for k in range(3):
            assert cat.enumerate_homs(a, x, limit=k) == homs[:k]


def test_morphism_count_of_diamond_and_chain():
    assert len(diamond().all_morphisms()) == 9
    chain = LatticeCategory(
        presentation_from_pairs("chain", ["0", "1", "2"], [("0", "1"), ("1", "2")])
    )
    assert len(chain.all_morphisms()) == 6


def test_pushout_is_join_with_opposite_legs():
    cat = diamond()
    h_prime, f_prime = cat.pushout(cat.mor("0", "a"), cat.mor("0", "b"))
    assert h_prime == cat.mor("b", "1")
    assert f_prime == cat.mor("a", "1")


def test_coproduct_is_join_and_empty_coproduct_is_bottom():
    cat = diamond()
    apex, injections = cat.coproduct([cat.obj("a"), cat.obj("b")])
    assert apex == cat.obj("1")
    assert injections == [cat.mor("a", "1"), cat.mor("b", "1")]
    bottom, none = cat.coproduct([])
    assert bottom == cat.obj("0")
    assert none == []


def test_injectives_of_principal_hypothesis():
    cat = diamond()
    from injlog.core import MorphismSet

    h = MorphismSet.of([("p", cat.mor("0", "a"))])
    assert cat.injectives(h) == [cat.obj("a"), cat.obj("1")]
    res = cat.is_injective(cat.obj("b"), cat.mor("0", "a"))
    assert not res.holds
    assert res.counterexample == cat.mor("0", "b")


def test_labels_round_trip_elements():
    cat = diamond()
    assert [cat.object_label(x) for x in cat.objects()] == ["0", "a", "b", "1"]
    assert cat.morphism_label(cat.mor("0", "1")) == "0->1"


@given(st.integers(0, 10**6))
def test_random_lattice_is_complete_with_forced_bounds(seed):
    rng = random.Random(seed)
    cat = random_lattice(rng, max_size=7)
    p = cat.p
    assert p.is_complete_lattice
    bottom = next(i for i in range(p.size) if p.leq[i].all())
    top = next(i for i in range(p.size) if p.leq[:, i].all())
    assert bottom == 0
    assert top == p.size - 1


@given(st.integers(0, 10**6))
def test_random_hypotheses_live_in_their_lattice(seed):
    rng = random.Random(seed)
    cat = random_lattice(rng, max_size=6)
    hyps = random_hypotheses(rng, cat, max_count=6)
    assert len(hyps) <= 6
    for _, m in hyps:
        assert m.dom.cat_id == cat.cat_id
        assert cat.p.leq[m.dom.index, m.cod.index]


@given(st.integers(0, 10**6))
def test_join_and_meet_tables_are_lattice_operations(seed):
    rng = random.Random(seed)
    p = random_lattice(rng, max_size=6).p
    n = p.size
    for a in range(n):
        for b in range(n):
            j = p.join[a, b]
            assert p.leq[a, j] and p.leq[b, j]
            m = p.meet[a, b]
            assert p.leq[m, a] and p.leq[m, b]
            assert p.join[a, a] == a and p.meet[a, a] == a
            assert p.join[a, b] == p.join[b, a]
