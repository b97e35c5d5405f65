import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from injlog.core import CategoryError, MorphismSet, MorRef, ObjRef
from injlog.lattice import (
    LatticeCategory,
    LatticeError,
    LatticePresentation,
    presentation_from_pairs,
    random_lattice,
    validate,
)
from injlog.proofs import Cancel, Hyp, RefusedReference, check_proof
import oracles
from oracles import random_hypotheses, wide_pushout


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
    # validate refuses repeated names too: the second "a" could never be named
    with pytest.raises(LatticeError) as err:
        validate(LatticePresentation("L", ("a", "b", "a"), np.eye(3, dtype=bool)))
    assert (err.value.kind, err.value.witness) == ("duplicate-element", ("a",))


def test_a_category_needs_a_validated_presentation():
    p = LatticePresentation("L", ("a",), np.ones((1, 1), dtype=bool))
    with pytest.raises(LatticeError) as err:
        LatticeCategory(p)
    assert (err.value.kind, err.value.witness) == ("not-validated", ("L",))
    assert len(LatticeCategory(validate(p)).objects()) == 1


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


def test_obj_refuses_an_index_out_of_range_and_an_unknown_name():
    cat = diamond()
    for i in (4, -1):
        with pytest.raises(CategoryError, match=f"^no element with index {i}$"):
            cat.obj(i)
    with pytest.raises(LatticeError) as err:
        cat.obj("c")
    assert (err.value.kind, err.value.witness, str(err.value)) == ("unknown-element", ("c",), "unknown-element at ('c',)")


def test_integer_arguments_name_elements_through_operator_index():
    cat = diamond()
    for one in (np.int64(1), True):
        assert cat.obj(one) is cat.obj(1)
        assert type(cat.obj(one).index) is int
        m = cat.mor(0, one)
        assert m is cat.mor("0", "a")
        assert [type(i) for i in m.payload] == [int, int]
    assert cat.obj("1").index == 3  # a str is still an element name
    with pytest.raises(LatticeError) as err:
        cat.obj(1.0)
    assert (err.value.kind, err.value.witness) == ("unknown-element", (1.0,))
    with pytest.raises(CategoryError, match="^no element with index 4$"):
        cat.obj(np.int64(4))


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


def test_attachment_squares_of_the_wrong_shape_are_refused():
    cat = diamond()
    # cod f is not x, and dom h is not dom f
    for x, squares in (
        (cat.obj("a"), [(cat.mor("0", "a"), cat.mor("0", "b"))]),
        (cat.obj("1"), [(cat.mor("a", "1"), cat.mor("0", "1"))]),
        (cat.obj("1"), [(cat.mor("0", "a"), cat.mor("0", "1")), (cat.mor("a", "1"), cat.mor("0", "1"))]),
    ):
        with pytest.raises(CategoryError, match="^attachment squares need dom h = dom f and cod f = x$"):
            cat.attach(x, squares)


def test_cotuple_legs_must_share_the_target():
    cat = diamond()
    for legs in ([cat.mor("0", "a")], [cat.mor("0", "1"), cat.mor("b", "b")]):
        with pytest.raises(CategoryError, match="^cotuple legs must share the target$"):
            cat.cotuple(legs, cat.obj("1"))


def test_cotuple_composed_with_each_injection_is_its_leg():
    rng = random.Random(41)
    lengths = set()
    for _ in range(60):
        cat = random_lattice(rng, max_size=7)
        objs = cat.objects()
        bottom = next(b for b in objs if all(cat.enumerate_homs(b, x) for x in objs))
        for target in objs:
            assert cat.cotuple([], target) == cat.mor(bottom.index, target.index)
            into = [m for m in cat.all_morphisms() if m.cod == target]
            legs = [rng.choice(into) for _ in range(rng.randint(1, 4))]
            lengths.add(len(legs))
            mediator = cat.cotuple(legs, target)
            src, injections = cat.coproduct([m.dom for m in legs])
            assert (mediator.dom, mediator.cod) == (src, target)
            assert [cat.compose(mediator, inj) for inj in injections] == legs
    assert lengths == {1, 2, 3, 4}


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
            j = p.join[a][b]
            assert p.leq[a, j] and p.leq[b, j]
            assert all(p.leq[j, c] for c in range(n) if p.leq[a, c] and p.leq[b, c])
            assert p.join[a][a] == a
            assert p.join[a][b] == p.join[b][a]


# --- the constructors against brute force and the numpy body ---------------


def _closure(n: int, pairs) -> list[list[bool]]:
    """Reflexive-transitive closure by relaxing to a fixpoint."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        leq[a][b] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if not leq[i][j] and any(leq[i][k] and leq[k][j] for k in range(n)):
                    leq[i][j] = changed = True
    return leq


def _bound(leq, a: int, b: int) -> int | None:
    """The least upper bound of a and b, if any."""
    n = len(leq)
    bounds = [c for c in range(n) if leq[a][c] and leq[b][c]]
    return next((c for c in bounds if all(leq[c][d] for d in bounds)), None)


def _reference_presentation(elements, pairs):
    """What presentation_from_pairs must give, worked out by brute force:
    ("error", kind, witness) or (leq, complete, missing_join, join)."""
    for i, e in enumerate(elements):
        if e in elements[:i]:
            return ("error", "duplicate-element", (e,))
    idx = {e: i for i, e in enumerate(elements)}
    for pair in pairs:
        for e in pair:
            if e not in idx:
                return ("error", "unknown-element", (e,))
    n = len(elements)
    leq = _closure(n, [(idx[a], idx[b]) for a, b in pairs])
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return ("error", "not-antisymmetric", (elements[i], elements[j]))
    missing = next(
        ((a, b) for a in range(n) for b in range(a, n) if _bound(leq, a, b) is None), None
    )
    has_bottom = any(all(row) for row in leq)
    if n == 0 or missing is not None or not has_bottom:
        return (leq, False, missing, None)
    join = [[_bound(leq, a, b) for b in range(n)] for a in range(n)]
    return (leq, True, None, join)


def test_presentation_from_pairs_matches_a_brute_force_closure():
    rng = random.Random(20261019)
    pool = ["a", "b", "c", "d", "e", "f", "g"]
    seen = set()
    for _ in range(600):
        elements = rng.sample(pool, rng.randint(0, 7))
        if elements and rng.random() < 0.1:
            elements.insert(rng.randrange(len(elements) + 1), rng.choice(elements))
        names = elements + ["zz"] if rng.random() < 0.1 else elements
        pairs = (
            [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 10))]
            if names
            else []
        )
        want = _reference_presentation(elements, pairs)
        try:
            p = presentation_from_pairs("R", elements, pairs)
        except LatticeError as err:
            got = ("error", err.kind, err.witness)
        else:
            n = len(elements)
            assert p.leq.shape == (n, n) and p.leq.dtype == bool
            got = (
                p.leq.tolist(),
                p.is_complete_lattice,
                p.missing_join,
                None if p.join is None else [list(row) for row in p.join],
            )
        assert got == want, (elements, pairs)
        seen.add(got[1] if got[0] == "error" else ("complete", got[1]))
    # every outcome occurs, the empty presentation among them
    assert seen == {
        "duplicate-element", "unknown-element", "not-antisymmetric", ("complete", True), ("complete", False)
    }
    assert presentation_from_pairs("E", [], []).leq.shape == (0, 0)


def test_pairs_and_matrix_presentations_agree():
    """presentation_from_pairs and validate on the closed matrix read the
    same order, so they must fill the same tables or raise the same error."""
    rng = random.Random(20261020)
    seen = set()
    for _ in range(500):
        n = rng.randint(0, 7)
        elements = [f"e{i}" for i in range(n)]
        if n and rng.random() < 0.1:
            elements[rng.randrange(n)] = rng.choice(elements)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        if n > 1 and rng.random() < 0.2:
            pairs.append((rng.randrange(1, n), 0))  # a cycle when 0 <= the first
        leq = np.array(_closure(n, pairs), dtype=bool).reshape(n, n)
        outcomes = []
        for build in (
            lambda: presentation_from_pairs("A", elements, [(elements[i], elements[j]) for i, j in pairs]),
            lambda: validate(LatticePresentation("A", tuple(elements), leq)),
        ):
            try:
                p = build()
            except LatticeError as err:
                outcomes.append(("error", err.kind, err.witness))
            else:
                outcomes.append((p.up, p.join, p.is_complete_lattice, p.missing_join, LatticeCategory(p).cat_id))
        assert outcomes[0] == outcomes[1], (elements, pairs)
        seen.add(outcomes[0][1] if outcomes[0][0] == "error" else ("complete", outcomes[0][2]))
    assert seen == {"duplicate-element", "not-antisymmetric", ("complete", True), ("complete", False)}


def _numpy_random_lattice(rng: random.Random, max_size: int, name: str) -> LatticeCategory:
    """random_lattice as first written, closing a numpy matrix: the draws
    seeded fixtures and benchmarks rest on."""
    while True:
        n = rng.randint(1, max_size)
        leq = np.eye(n, dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if i == 0 or j == n - 1 or rng.random() < 0.4:
                    leq[i, j] = True
        for k in range(n):
            leq |= np.outer(leq[:, k], leq[k, :])
        p = LatticePresentation(name, tuple(f"e{i}" for i in range(n)), leq)
        validate(p)
        if p.is_complete_lattice:
            return LatticeCategory(p)


def test_random_lattice_draws_as_the_numpy_body():
    for seed in range(500):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = random_lattice(rng, max_size=8, name=f"L{seed}")
        want = _numpy_random_lattice(ref_rng, 8, f"L{seed}")
        assert got.p.elements == want.p.elements
        assert got.p.leq.tolist() == want.p.leq.tolist()
        assert got.p.up == want.p.up
        assert got.p.join == want.p.join
        assert got.cat_id == want.cat_id
        assert rng.getstate() == ref_rng.getstate()


# --- oracles for the int-table fast paths -----------------------------------


def brute_validate(elements, leq):
    """The cubic reference for validate: the kind and witness of the first
    broken order axiom, else (join, meet, complete, missing) with the
    tables as lists, None unless complete."""
    n = len(elements)
    for i in range(n):
        if not leq[i][i]:
            return "not-reflexive", (elements[i],)
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return "not-antisymmetric", (elements[i], elements[j])
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        return "not-transitive", (elements[i], elements[j], elements[k])
    join = [[-1] * n for _ in range(n)]
    meet = [[-1] * n for _ in range(n)]
    missing = None
    for a in range(n):
        for b in range(n):
            uppers = [c for c in range(n) if leq[a][c] and leq[b][c]]
            least = [c for c in uppers if all(leq[c][d] for d in uppers)]
            if len(least) == 1:
                join[a][b] = least[0]
            elif missing is None:
                missing = (a, b)
            lowers = [c for c in range(n) if leq[c][a] and leq[c][b]]
            greatest = [c for c in lowers if all(leq[d][c] for d in lowers)]
            if len(greatest) == 1:
                meet[a][b] = greatest[0]
    has_bottom = any(all(row) for row in leq)
    complete = n > 0 and missing is None and has_bottom and all(m >= 0 for row in meet for m in row)
    return (join, meet, True, missing) if complete else (None, None, False, missing)


@st.composite
def orders(draw, flips: int = 3):
    """A square bool matrix near a partial order: the closure of a random
    relation along a random linear order (with a forced bottom and top
    sometimes), then up to `flips` flipped entries, which may break
    reflexivity, antisymmetry or transitivity."""
    n = draw(st.integers(0, 7))
    perm = draw(st.permutations(range(n)))
    bounded = draw(st.booleans())
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    leq = [
        [i == j or (i < j and (bits[i * n + j] or (bounded and (i == 0 or j == n - 1)))) for j in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    leq[i][j] = leq[i][j] or leq[k][j]
    leq = [[leq[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    if n:
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=flips)):
            leq[i][j] = not leq[i][j]
    return leq


def presented(leq, name="V") -> LatticePresentation:
    n = len(leq)
    matrix = np.zeros((n, n), dtype=bool)
    for i in range(n):
        matrix[i] = leq[i]
    return LatticePresentation(name, tuple(f"x{i}" for i in range(n)), matrix)


@given(orders(), st.booleans())
@settings(max_examples=400)
def test_validate_matches_the_cubic_reference(leq, require_lattice):
    p = presented(leq)
    want = brute_validate(p.elements, leq)
    if isinstance(want[0], str):
        with pytest.raises(LatticeError) as err:
            validate(p, require_lattice)
        assert (err.value.kind, err.value.witness) == want
        return
    join, _, complete, missing = want
    if require_lattice and not complete:
        with pytest.raises(LatticeError) as err:
            validate(p, require_lattice)
        witness = () if missing is None else (p.elements[missing[0]], p.elements[missing[1]])
        assert (err.value.kind, err.value.witness) == ("no-join", witness)
        return
    assert validate(p, require_lattice) is p
    assert (p.is_complete_lattice, p.missing_join) == (complete, missing)
    assert (None if p.join is None else [list(row) for row in p.join]) == join
    assert p.up == tuple(sum(1 << b for b in range(len(leq)) if leq[a][b]) for a in range(len(leq)))


def test_validate_rejects_a_matrix_of_the_wrong_shape():
    p = LatticePresentation("L", ("a", "b"), np.ones((2, 3), dtype=bool))
    with pytest.raises(LatticeError) as err:
        validate(p)
    assert (err.value.kind, err.value.witness) == ("bad-shape", (2, 3))


def poset_category(leq) -> LatticeCategory:
    return LatticeCategory(validate(presented(leq)))


@given(orders(flips=0))
def test_thin_shortcuts_match_the_generic_searches(leq):
    cat = poset_category(leq)
    mors = cat.all_morphisms()
    for h in mors:
        for x in cat.objects():
            assert cat.is_injective(x, h) == oracles.generic_is_injective(cat, x, h)
        for f in mors:
            if h.dom == f.dom:
                assert cat.find_factorization(h, f) == oracles.generic_find_factorization(cat, h, f)
            else:
                with pytest.raises(CategoryError):
                    cat.find_factorization(h, f)


@given(st.integers(0, 10**6))
def test_pushout_and_attach_read_the_join_table(seed):
    rng = random.Random(seed)
    cat = random_lattice(rng, max_size=7)
    join = cat.p.join
    mors = cat.all_morphisms()

    def mor(a, b):
        return MorRef(ObjRef(cat.cat_id, a), ObjRef(cat.cat_id, b), (a, b))

    for h in mors:
        for f in mors:
            if h.dom == f.dom:
                top = join[f.cod.index][h.cod.index]
                assert cat.pushout(h, f) == (mor(f.cod.index, top), mor(h.cod.index, top))
    for x in cat.objects():
        squares = [(h, f) for h in mors for f in cat.enumerate_homs(h.dom, x) if rng.random() < 0.3]
        top = x.index
        for h, _ in squares:
            top = join[top][h.cod.index]
        result = cat.attach(x, squares)
        assert result.composite == mor(x.index, top)
        assert result.injections == tuple(mor(h.cod.index, top) for h, _ in squares)


@given(st.integers(0, 10**6))
def test_every_ref_an_operation_answers_with_is_the_tables_entry(seed):
    rng = random.Random(seed)
    cat = random_lattice(rng, max_size=7)
    objs, hom = cat._objs, cat._hom

    def entry(x):
        assert x is objs[x.index]
        assert x == ObjRef(cat.cat_id, x.index)

    def interned(m):
        i, j = m.dom.index, m.cod.index
        assert m is hom[i][j]
        assert m == MorRef(ObjRef(cat.cat_id, i), ObjRef(cat.cat_id, j), (i, j))
        entry(m.dom)
        entry(m.cod)

    def answers(it):
        for answer in it:
            if answer is not None:
                for m in answer:
                    interned(m)

    els = cat.p.elements
    for x in cat.objects() + cat.search_universe() + [cat.obj(i) for i in range(len(els))]:
        entry(x)
    for x in els:
        entry(cat.obj(x))
    mors = cat.all_morphisms()
    for m in mors + [cat.identity(x) for x in objs]:
        interned(m)
    for m in mors:
        interned(cat.mor(m.dom.index, m.cod.index))
        interned(cat.mor(els[m.dom.index], els[m.cod.index]))
        held = {f for f in mors if rng.random() < 0.3}
        some = [x for x in objs if rng.random() < 0.5]
        for objects in (None, some):
            for limit in (None, 0, 1, 2):
                answers(cat.cancellations(m, objects, limit, held))
                answers(cat.pushouts(m, objects, limit, held))
        for x in objs:
            for h in cat.enumerate_homs(m.dom, x):
                interned(h)
            witness = cat.is_injective(x, m).counterexample
            if witness is not None:
                interned(witness)
        for f in mors:
            if f.cod == m.dom:
                interned(cat.compose(m, f))
            if f.dom == m.dom:
                g = cat.find_factorization(m, f)
                if g is not None:
                    interned(g)
                for leg in cat.pushout(m, f):
                    interned(leg)
    for x in objs:
        squares = [(h, f) for h in mors for f in cat.enumerate_homs(h.dom, x) if rng.random() < 0.3]
        result = cat.attach(x, squares)
        for m in (result.composite, *result.injections):
            interned(m)
    for k in range(3):
        parts = rng.choices(objs, k=k)
        apex, injections = cat.coproduct(parts)
        entry(apex)
        for m in injections:
            interned(m)
        legs = rng.choices(mors, k=k)
        interned(cat.coproduct_morphism(legs))
        target = objs[-1]
        interned(cat.cotuple([h for h in mors if h.cod == target][:k], target))


# --- every public operation checks the refs it is handed --------------------


def twin_of_diamond() -> LatticeCategory:
    p = diamond().p
    return LatticeCategory(validate(LatticePresentation("twin", p.elements, p.leq.copy())))


def chain_named_diamond() -> LatticeCategory:
    """diamond's name and elements, ordered as the chain 0 < a < b < 1."""
    return LatticeCategory(
        presentation_from_pairs("diamond", ["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "1")])
    )


def forged_objects(cat):
    """Foreign objects, one from a same-named lattice, two out-of-range
    indices, and two indices that are no integer."""
    return [
        twin_of_diamond().obj("a"),
        chain_named_diamond().obj("a"),
        ObjRef(cat.cat_id, cat.p.size),
        ObjRef(cat.cat_id, -1),
        ObjRef(cat.cat_id, 1.0),
        ObjRef(cat.cat_id, "1"),
    ]


def forged_morphisms(cat):
    """Foreign morphisms, one from a same-named lattice, one into an
    out-of-range index, two with an end whose index is no integer,
    payloads that do not match their endpoints, and pairs that are not in
    leq."""
    o = cat.objects()
    return [
        twin_of_diamond().mor("0", "a"),
        chain_named_diamond().mor("0", "a"),
        MorRef(o[0], ObjRef(cat.cat_id, cat.p.size), (0, cat.p.size)),
        MorRef(o[0], ObjRef(cat.cat_id, 1.0), (0, 1)),
        MorRef(ObjRef(cat.cat_id, "0"), o[1], (0, 1)),
        MorRef(o[0], o[1], (0, 3)),
        MorRef(o[0], o[1], "0->a"),
        MorRef(o[1], o[2], (1, 2)),
        MorRef(o[3], o[0], (3, 0)),
    ]


def loop_at(obj: ObjRef) -> MorRef:
    """An identity-shaped ref at obj, made without asking the category."""
    return MorRef(obj, obj, (obj.index, obj.index))


def test_every_operation_refuses_forged_refs():
    cat = diamond()
    good = cat.obj("a")
    cases = []
    for x in forged_objects(cat):
        cases += [
            lambda x=x: cat.enumerate_homs(x, good),
            lambda x=x: cat.enumerate_homs(good, x),
            lambda x=x: cat.is_injective(x, cat.mor("0", "a")),
            # the lazy per-premise answers raise once they reach x
            lambda x=x: list(cat.cancellations(cat.mor("0", "a"), [good, cat.obj("1"), x])),
            lambda x=x: list(cat.pushouts(cat.mor("0", "a"), [good, cat.obj("1"), x])),
            lambda x=x: cat.attach(x, []),
            lambda x=x: cat.attach_size(x, []),
            lambda x=x: cat.identity(x),
        ]
    for m in forged_morphisms(cat):
        cases += [
            lambda m=m: cat.compose(m, loop_at(m.dom)),
            lambda m=m: cat.compose(loop_at(m.cod), m),
            lambda m=m: cat.find_factorization(m, loop_at(m.dom)),
            lambda m=m: cat.find_factorization(loop_at(m.dom), m),
            lambda m=m: cat.pushout(m, loop_at(m.dom)),
            lambda m=m: cat.pushout(loop_at(m.dom), m),
            lambda m=m: cat.attach(m.dom, [(m, loop_at(m.dom))]),
            lambda m=m: cat.attach(m.cod, [(loop_at(m.dom), m)]),
            lambda m=m: cat.attach_size(m.dom, [(m, loop_at(m.dom))]),
            lambda m=m: cat.attach_size(m.cod, [(loop_at(m.dom), m)]),
            lambda m=m: cat.is_injective(good, m),
            lambda m=m: cat.is_injective(m.cod, m),
            lambda m=m: list(cat.cancellations(m, [good])),
            lambda m=m: list(cat.cancellations(m, [m.cod])),
            lambda m=m: list(cat.pushouts(m, [good])),
            lambda m=m: list(cat.pushouts(m, [m.cod])),
            lambda m=m: list(cat.pushouts(m, None)),
            lambda m=m: list(cat.cancellations(m, None)),
        ]
    for case in cases:
        with pytest.raises(CategoryError):
            case()


def test_check_proof_rejects_a_cancellation_through_a_forged_rest():
    cat = diamond()
    hyps = MorphismSet.of([("p", cat.mor("0", "a"))])
    o = cat.objects()
    first = cat.mor("0", "1")
    # rest . first would be 0->a, but 1 -> a is not in leq: accepting it
    # would derive 0->1, which {0->a} does not entail.  An end at index
    # 1.0 equals a, but is no ref of the category either.  Each is refused
    # as any other ref in a term is
    forged_end = MorRef(o[3], ObjRef(cat.cat_id, 1.0), (3, 1))
    for rest in (MorRef(o[3], o[1], (3, 1)), MorRef(o[3], o[1], (0, 1)), forged_end):
        with pytest.raises(RefusedReference):
            check_proof(cat, hyps, Cancel(Hyp("p"), first=first, rest=rest))
