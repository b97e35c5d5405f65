"""Brute-force references the tests compare the package against.

The generic loops over enumerate_homs for the three injectivity
questions each category answers itself (find_factorization,
is_injective, cancellations), the wide pushout as one attachment along
the identity, the labeled graph walk (every graph on at most n nodes,
2^(n*n) of them on n), the random graphs, disjoint unions and
hypothesis sets that many tests draw, and a check of the pushout's
universal property by enumerating cocones.  None of them is used by the
package itself.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain
from typing import Container, Iterable, Iterator, Sequence

from injlog.core import (
    Category,
    CategoryError,
    CoconeCheckReport,
    CoconeFailure,
    InjectivityResult,
    MorphismSet,
    MorRef,
    ObjRef,
    WidePushoutResult,
)
from injlog.graphs import Graph, _check_bound
from injlog.lattice import LatticeCategory


def generic_find_factorization(cat: Category, h: MorRef, f: MorRef) -> MorRef | None:
    """``Category.find_factorization`` by trying every hom cod h -> cod f
    in canonical order.  It checks no ref: with no hom to try it returns
    None where the categories raise ``CategoryError``."""
    if h.dom != f.dom:
        raise CategoryError("factorization query needs a common domain")
    for g in cat.enumerate_homs(h.cod, f.cod):
        if cat.compose(g, h) == f:
            return g
    return None


def generic_is_injective(cat: Category, x: ObjRef, h: MorRef) -> InjectivityResult:
    """``Category.is_injective`` by one ``cat.find_factorization`` per
    hom dom h -> x."""
    for f in cat.enumerate_homs(h.dom, x):
        if cat.find_factorization(h, f) is None:
            return InjectivityResult(False, f)
    return InjectivityResult(True)


def generic_cancellations(
    cat: Category,
    m: MorRef,
    objects: Iterable[ObjRef] | None,
    limit: int | None = None,
    held: Container[MorRef] = frozenset(),
) -> Iterator[tuple[MorRef, MorRef] | None]:
    """``Category.cancellations`` by one ``cat.find_factorization`` per
    hom dom m -> x; lazy as the contract asks, and a held first is left
    out before its factorization.  objects=None is the closed universe."""
    for x in cat.search_universe() if objects is None else objects:
        homs = cat.enumerate_homs(m.dom, x, limit)
        if len(homs) == limit:
            yield None
            continue
        for first in homs:
            if first in held:
                continue
            rest = cat.find_factorization(first, m)
            if rest is not None:
                yield first, rest


def wide_pushout(cat: Category, mors: Sequence[MorRef]) -> WidePushoutResult:
    """Canonical wide pushout of morphisms sharing a domain.

    One attachment of every leg codomain onto the shared domain along its
    identity.  The one-element case is the morphism itself with an
    identity injection; the empty case is not defined (no domain to read
    off), callers pass at least one leg.
    """
    if not mors:
        raise CategoryError("wide pushout needs at least one morphism")
    dom = mors[0].dom
    for m in mors[1:]:
        if m.dom != dom:
            raise CategoryError("wide pushout legs must share a domain")
    identity = cat.identity(dom)
    return cat.attach(dom, [(m, identity) for m in mors])


def enumerate_graphs(max_nodes: int) -> Iterator[Graph]:
    """All labeled graphs ordered by node count, then lexicographically on
    the edge matrix (bit (i, j) set for edge i->j) read row-major with bit
    (0, 0) most significant.

    The labeled reference: ``GraphCategory.universe`` walks
    ``graph_classes``, and tests compare the two."""
    _check_bound(max_nodes)
    return chain.from_iterable(map(_labeled_graphs, range(max_nodes + 1)))


def _labeled_graphs(n: int) -> Iterator[Graph]:
    cells = n * n
    for code in range(1 << cells):
        edges = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if (code >> (cells - 1 - (i * n + j))) & 1
        ]
        yield Graph.of(n, edges)


def count_graphs(max_nodes: int) -> int:
    """Number of graphs ``enumerate_graphs(max_nodes)`` yields."""
    _check_bound(max_nodes)
    return sum(1 << (n * n) for n in range(max_nodes + 1))


def random_graph(rng: random.Random, max_nodes: int = 4) -> Graph:
    n = rng.randint(0, max_nodes)
    edges = []
    for i in range(n):
        for j in range(n):
            p = 0.2 if i == j else 0.35
            if rng.random() < p:
                edges.append((i, j))
    return Graph.of(n, edges)


def random_union(rng: random.Random, max_parts: int = 4, max_nodes: int = 3) -> Graph:
    """A disjoint union of up to max_parts pieces, each a ``random_graph``
    draw (itself often in parts), a point, a loop or the empty graph,
    with the union's nodes shuffled so that a part's nodes are seldom
    consecutive."""
    def piece() -> Graph:
        kind = rng.randrange(5)
        if kind < 2:
            return random_graph(rng, max_nodes)
        return [Graph.of(1), Graph.of(1, [(0, 0)]), Graph.of(0)][kind - 2]

    pieces = [piece() for _ in range(rng.randint(1, max_parts))]
    order = list(range(sum(piece.node_count for piece in pieces)))
    rng.shuffle(order)
    edges, offset = [], 0
    for piece in pieces:
        edges += [(order[offset + i], order[offset + j]) for i, j in piece.edges]
        offset += piece.node_count
    return Graph.of(len(order), edges)


def random_hypotheses(
    rng: random.Random, cat: LatticeCategory, max_count: int = 6
) -> MorphismSet:
    """Random named hypothesis set drawn from the lattice's morphisms."""
    mors = cat.all_morphisms()
    count = rng.randint(0, max_count)
    picks = [mors[rng.randrange(len(mors))] for _ in range(count)]
    return MorphismSet.of((f"h{i}", m) for i, m in enumerate(picks))


def verify_pushout_square(
    cat: Category,
    h: MorRef,
    f: MorRef,
    universe: Iterable[ObjRef],
) -> CoconeCheckReport:
    """Check the universal property of the canonical pushout of (h, f) by
    enumerating cocones over the universe and demanding a unique mediator."""
    h_prime, f_prime = cat.pushout(h, f)
    apex = h_prime.cod
    for z in universe:
        us = cat.enumerate_homs(h.cod, z)
        if not us:
            continue
        vs = [(v, cat.compose(v, f)) for v in cat.enumerate_homs(f.cod, z)]
        # how many m : apex -> z give each cocone (m . f_prime, m . h_prime),
        # counted once per z and only if some cocone commutes
        mediators: Counter | None = None
        for u in us:
            uh = cat.compose(u, h)
            for v, vf in vs:
                if uh != vf:
                    continue
                if mediators is None:
                    mediators = Counter(
                        (cat.compose(m, f_prime), cat.compose(m, h_prime))
                        for m in cat.enumerate_homs(apex, z)
                    )
                count = mediators[u, v]
                if count != 1:
                    kind = "missing mediator" if not count else "mediator not unique"
                    return CoconeCheckReport(False, CoconeFailure(z, kind, (u, v)))
    return CoconeCheckReport(True)
