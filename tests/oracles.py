"""Brute-force references the tests compare the package against.

The labeled graph walk (every graph on at most n nodes, 2^(n*n) of them
on n), the random graphs that many tests draw, and a check of the
pushout's universal property by enumerating cocones.  None of them is
used by the package itself.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain
from typing import Iterable, Iterator

from injlog.core import Category, CoconeCheckReport, CoconeFailure, MorRef, ObjRef
from injlog.graphs import Graph, _check_bound


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
