"""Finite posets presented by a leq matrix, viewed as thin categories.

A morphism a -> b exists exactly when a <= b.  Complete lattices (bottom
plus all binary joins, which at finite size gives all joins and meets)
additionally support pushouts and coproducts, hence saturation and
reflection.  Plain posets still answer injectivity and semantic queries.
"""

from __future__ import annotations

import hashlib
import operator
import random
from dataclasses import dataclass, field
from typing import Container, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    Category,
    CategoryError,
    InjectivityResult,
    MorphismSet,
    MorRef,
    ObjRef,
)


class LatticeError(ValueError):
    """Structured presentation failure: kind plus offending witness."""

    def __init__(self, kind: str, witness: tuple | None = None):
        self.kind = kind
        self.witness = witness
        detail = "" if witness is None else f" at {witness}"
        super().__init__(f"{kind}{detail}")


@dataclass
class LatticePresentation:
    """Elements plus a reflexive-transitive leq matrix.

    validate() fills the up-set bitsets (bit b of up[a] set iff a <= b) and
    the join table, None unless the poset is a complete lattice, which is
    all that records completeness.  Treated as immutable once validated.
    """

    name: str
    elements: tuple[str, ...]
    leq: np.ndarray
    up: tuple[int, ...] | None = field(default=None, repr=False)
    join: tuple[tuple[int, ...], ...] | None = field(default=None, repr=False)

    @property
    def is_complete_lattice(self) -> bool:
        return self.join is not None

    @property
    def missing_join(self) -> tuple[int, int] | None:
        """The first pair without a join (see _join_table), recomputed."""
        return None if self.up is None else _join_table(self.up)[1]

    def index(self, element: str) -> int:
        try:
            return self.elements.index(element)
        except ValueError:
            raise LatticeError("unknown-element", (element,)) from None

    @property
    def size(self) -> int:
        return len(self.elements)


def presentation_from_pairs(
    name: str, elements: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> LatticePresentation:
    """Build a presentation from generating leq pairs; the reflexive and
    transitive closure is taken automatically, then validated."""
    elems = tuple(elements)
    n = len(elems)
    idx = _index(elems)
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        if a not in idx:
            raise LatticeError("unknown-element", (a,))
        if b not in idx:
            raise LatticeError("unknown-element", (b,))
        up[idx[a]] |= 1 << idx[b]
    for k in range(n):
        # Warshall closure over up-set bitsets: whatever reaches k reaches up[k]
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    leq = np.array([u >> b & 1 for u in up for b in range(n)], dtype=bool).reshape(n, n)
    return _fill(LatticePresentation(name, elems, leq), tuple(up))


def validate(p: LatticePresentation, require_lattice: bool = False) -> LatticePresentation:
    """Read leq once into up-set bitsets, confirm the order axioms on
    them, and fill the up-sets and the join table where it exists.

    Raises LatticeError("duplicate-element") on the first repeated name,
    "bad-shape", or "not-reflexive"/"not-transitive"/"not-antisymmetric"
    with the first witness a row-major scan of the matrix meets.  A poset
    lacking some join is accepted with is_complete_lattice False unless
    require_lattice is set, in which case LatticeError("no-join", (a, b))
    is raised (witness () when only the bottom is missing).
    """
    _index(p.elements)
    n = p.size
    if p.leq.shape != (n, n):
        raise LatticeError("bad-shape", p.leq.shape)
    return _fill(p, _up_sets(p.leq), require_lattice)


def _index(elements: tuple[str, ...]) -> dict[str, int]:
    """Each element's position; raises on the first repeated name."""
    idx: dict[str, int] = {}
    for i, e in enumerate(elements):
        if idx.setdefault(e, i) != i:
            raise LatticeError("duplicate-element", (e,))
    return idx


def _fill(p: LatticePresentation, up: tuple[int, ...], require_lattice=False) -> LatticePresentation:
    """validate's body: check the order axioms on the up-sets of p, then
    store them on p with the join table (where p is a complete lattice)."""
    n = p.size
    els = p.elements
    for i in range(n):
        if not up[i] >> i & 1:
            raise LatticeError("not-reflexive", (els[i],))
    for i, above in enumerate(up):
        for j in _bits(above):
            if j != i and up[j] >> i & 1:
                raise LatticeError("not-antisymmetric", (els[i], els[j]))
            beyond = up[j] & ~above
            if beyond:
                raise LatticeError("not-transitive", (els[i], els[j], els[next(_bits(beyond))]))

    join, missing = _join_table(up)
    has_bottom = (1 << n) - 1 in up  # some element is below every element
    # binary joins and a bottom give every finite join, hence every meet
    complete = n > 0 and missing is None and has_bottom
    p.up = up
    p.join = tuple(map(tuple, join)) if complete else None
    if require_lattice and not complete:
        raise _no_join(p)
    return p


def _up_sets(leq: np.ndarray) -> tuple[int, ...]:
    """Row a of a bool matrix as a bitset: bit b is set iff leq[a, b]."""
    return tuple(sum(1 << b for b, v in enumerate(row) if v) for row in leq.tolist())


def _bits(s: int):
    """The set bits of s, lowest first."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


def _join_table(up: Sequence[int]) -> tuple[list[list[int]], tuple[int, int] | None]:
    """The join table over up-sets, or, when some pair has no join, the
    first such pair in row-major order (it has a <= b, as the join is
    symmetric) and no table past it."""
    n = len(up)
    join = [[-1] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            c = _least(up[a] & up[b], up)
            if c < 0:
                return join, (a, b)
            join[a][b] = join[b][a] = c
    return join, None


def _least(common: int, up: Sequence[int]) -> int:
    """The member c of common whose up-set holds all of common, else -1:
    the least of the upper bounds that common holds."""
    for c in _bits(common):
        if not common & ~up[c]:
            return c
    return -1


def _no_join(p: LatticePresentation) -> LatticeError:
    """The no-join error for a poset that is not a complete lattice: its
    witness names the first pair of elements without a join, or is empty
    when every pair has one but the join of no elements, the bottom, is
    missing."""
    missing = p.missing_join
    return LatticeError("no-join", () if missing is None else tuple(p.elements[i] for i in missing))


class LatticeCategory(Category):
    """Thin category of a validated presentation.

    Queries read the plain-int tables validate() stored on the
    presentation, one up-set bitset per element and the join table (None
    unless the poset is a complete lattice), plus the bottom and the
    element count.  Every ref an operation answers with is an entry of
    the tables built with the category, one ObjRef per element and the
    interned MorRef of each map i -> j, and every public operation checks
    the refs it is handed (proof checking passes user terms straight
    through) against the entry at their indices: the tables decide both
    which refs the category gives out and which it accepts.
    """

    def __init__(self, presentation: LatticePresentation):
        if presentation.up is None:
            raise LatticeError("not-validated", (presentation.name,))
        self.p = presentation
        self._n = len(presentation.elements)
        self._up = presentation.up
        # the order, not the name alone, tells two lattices' refs apart; a
        # digest of its text is the same in every process, unlike hash()
        order = repr((presentation.elements, self._up)).encode()
        self.cat_id = f"lattice:{presentation.name}:{hashlib.sha256(order).hexdigest()[:16]}"
        full = (1 << self._n) - 1
        self._bottom = next((i for i, u in enumerate(self._up) if u == full), None)
        # every ref the category answers with, each element's and the map
        # i -> j's (None unless i <= j), and the down-sets the rule bodies
        # walk
        n, up = self._n, self._up
        self._objs = objs = tuple(ObjRef(self.cat_id, i) for i in range(n))
        self._hom = tuple(
            tuple(MorRef(objs[i], objs[j], (i, j)) if above >> j & 1 else None for j in range(n))
            for i, above in enumerate(up)
        )
        self._down = tuple(sum(1 << i for i, above in enumerate(up) if above >> j & 1) for j in range(n))

    def obj(self, element: str | int) -> ObjRef:
        """The element of that name, or at that index (any integer,
        through ``operator.index``)."""
        if isinstance(element, str):
            i = self.p.index(element)
        else:
            try:
                i = operator.index(element)
            except TypeError:
                raise LatticeError("unknown-element", (element,)) from None
        if not 0 <= i < self._n:
            raise CategoryError(f"no element with index {i}")
        return self._objs[i]

    def objects(self) -> list[ObjRef]:
        return list(self._objs)

    def mor(self, a: str | int, b: str | int) -> MorRef:
        i, j = self.obj(a).index, self.obj(b).index
        m = self._hom[i][j]
        if m is None:
            raise CategoryError(f"no morphism {self.p.elements[i]} -> {self.p.elements[j]}")
        return m

    def all_morphisms(self) -> list[MorRef]:
        return [m for row in self._hom for m in row if m is not None]

    def identity(self, obj: ObjRef) -> MorRef:
        self._check_obj(obj)
        return self._hom[obj.index][obj.index]

    def compose(self, g: MorRef, f: MorRef) -> MorRef:
        self._check_mor(g)
        self._check_mor(f)
        # both refs are checked, so their objects compare by index
        if f.cod.index != g.dom.index:
            raise CategoryError("composability mismatch: cod of inner != dom of outer")
        # thin: the one map dom f -> cod g
        return self._hom[f.dom.index][g.cod.index]

    def enumerate_homs(self, a: ObjRef, x: ObjRef, limit: int | None = None) -> list[MorRef]:
        self._check_obj(a)
        self._check_obj(x)
        h = self._hom[a.index][x.index]
        return [h] if h is not None and limit != 0 else []

    def find_factorization(self, h: MorRef, f: MorRef) -> MorRef | None:
        # thin shortcut: the one map cod h -> cod f, if cod h <= cod f
        self._check_mor(h)
        self._check_mor(f)
        if h.dom.index != f.dom.index:
            raise CategoryError("factorization query needs a common domain")
        return self._hom[h.cod.index][f.cod.index]

    def cancellations(
        self,
        m: MorRef,
        objects: Iterable[ObjRef] | None,
        limit: int | None = None,
        held: Container[MorRef] = frozenset(),
    ) -> Iterator[tuple[MorRef, MorRef] | None]:
        # thin shortcut: m = a -> b factors through the one map a -> x iff
        # x <= b.  The premise is checked once; rest is read only for a
        # first not held
        self._check_mor(m)
        a, b = m.dom.index, m.cod.index
        hom = self._hom
        for i in self._above(a, self._down[b], objects, limit):
            if i is None:
                yield None
            elif (first := hom[a][i]) not in held:
                yield first, hom[i][b]

    def pushouts(
        self,
        h: MorRef,
        objects: Iterable[ObjRef] | None,
        limit: int | None = None,
        held: Container[MorRef] = frozenset(),
    ) -> Iterator[tuple[MorRef, MorRef] | None]:
        # thin shortcut: the one map f: a -> x pushes h: a -> b out to
        # x -> join(x, b), one read of the join table; f is read only for a
        # leg not held
        self._check_mor(h)
        a = h.dom.index
        joins = self._lattice_joins()[h.cod.index]
        hom = self._hom
        for i in self._above(a, -1, objects, limit):
            if i is None:
                yield None
            elif (h_prime := hom[i][joins[i]]) not in held:
                yield hom[a][i], h_prime

    def _above(self, a: int, within: int, objects: Iterable[ObjRef] | None, limit: int | None):
        """The rule bodies' one object walk: in the order given, the index
        of each object x with a <= x whose bit is in within, or None where
        the one map a -> x reaches limit (every x at limit 0).  Uncapped
        over the whole universe it walks the bits of up[a] & within inline
        (a _bits generator per premise is slower); over a list, or capped,
        it checks each object with _check_obj."""
        above = self._up[a]
        capped = limit is not None and limit <= 1  # one hom reaches the limit
        if objects is None:
            if not capped:
                between = above & within
                while between:
                    low = between & -between
                    between ^= low
                    yield low.bit_length() - 1
                return
            objects = self._objs
        for x in objects:
            self._check_obj(x)
            i = x.index
            if above >> i & 1:
                if capped:
                    yield None
                elif within >> i & 1:
                    yield i
            elif limit == 0:
                yield None

    def _glue(self, parts: Sequence[ObjRef], seams: Sequence[tuple]) -> tuple[ObjRef, list[MorRef]]:
        """Join of parts (bottom when there are none) with the injection
        from each.  Seams are ignored: the category is thin, so any two
        maps into the join agree already."""
        joins = self._lattice_joins()
        top = parts[0].index if parts else self._bottom
        for o in parts[1:]:
            top = joins[top][o.index]
        return self._objs[top], [self._hom[o.index][top] for o in parts]

    def search_universe(self) -> list[ObjRef]:
        return self.objects()

    def validate_for_colimits(self) -> None:
        self._lattice_joins()

    def is_injective(self, x: ObjRef, h: MorRef) -> InjectivityResult:
        # thin shortcut: x is h-injective iff dom h <= x implies cod h <= x
        self._check_obj(x)
        self._check_mor(h)
        a, i = h.dom.index, x.index
        if self._up[a] >> i & 1 and not self._up[h.cod.index] >> i & 1:
            return InjectivityResult(False, self._hom[a][i])
        return InjectivityResult(True)

    def injectives(self, hypotheses: MorphismSet) -> list[ObjRef]:
        """Elements injective for every hypothesis, in element order."""
        return [
            x
            for x in self.objects()
            if all(self.is_injective(x, m) for m in hypotheses.morphisms())
        ]

    def object_label(self, obj: ObjRef) -> str:
        self._check_obj(obj)
        return self.p.elements[obj.index]

    def morphism_label(self, m: MorRef) -> str:
        self._check_mor(m)
        return f"{self.p.elements[m.dom.index]}->{self.p.elements[m.cod.index]}"

    def _lattice_joins(self) -> tuple[tuple[int, ...], ...]:
        """The join table; raises the no-join error on a poset that is not
        a complete lattice."""
        if self.p.join is None:
            raise _no_join(self.p)
        return self.p.join

    def _check_obj(self, obj: ObjRef) -> None:
        # a ref of this category is the table's entry at its index; an index
        # the table cannot take (out of range, or no integer) is foreign
        try:
            if self._objs[obj.index] == obj:
                return
        except (IndexError, TypeError):
            pass
        raise CategoryError(f"object {obj} is not from {self.cat_id}")

    def _check_mor(self, m: MorRef) -> None:
        # as _check_obj, against the hom table, whose entry is None off leq
        try:
            if self._hom[m.dom.index][m.cod.index] == m:
                return
        except (IndexError, TypeError):
            pass
        self._check_obj(m.dom)
        self._check_obj(m.cod)
        raise CategoryError(f"morphism {m} is not from {self.cat_id}")


def random_lattice(rng: random.Random, max_size: int = 7, name: str = "L") -> LatticeCategory:
    """Random finite complete lattice with at most max_size elements.

    Rejection sampling: draw a ranked random order with forced bottom and
    top, keep it when every pair has a unique join.  Deterministic per rng.
    """
    while True:
        n = rng.randint(1, max_size)
        elements = [f"e{i}" for i in range(n)]
        pairs = [
            (elements[i], elements[j])
            for i in range(n)
            for j in range(i + 1, n)
            if i == 0 or j == n - 1 or rng.random() < 0.4
        ]
        p = presentation_from_pairs(name, elements, pairs)
        if p.is_complete_lattice:
            return LatticeCategory(p)

