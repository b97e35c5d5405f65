"""Finite directed graphs (loops allowed) and their homomorphisms.

Nodes are 0..n-1; a homomorphism is a total node map preserving edges.
Graphs are immutable values: equality is node count plus edge set, so
all categorical constructions compare on the nose.  ``Graph`` and
``GraphHom`` are named tuples, as the refs are: each equals and hashes as
the plain tuple of its fields, so the engine's dicts and sets keyed by
graph refs hash and compare them in C.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import chain, count, islice, permutations
from typing import Container, Iterable, Iterator, NamedTuple, Sequence

from . import kernels
from .core import Category, CategoryError, InjectivityResult, MorRef, ObjRef


class _GraphFields(NamedTuple):
    node_count: int
    edges: frozenset[tuple[int, int]]


class Graph(_GraphFields):
    # no __slots__: the instance dict holds the cached plans and parts

    def __new__(cls, node_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        # the kernel reads nodes as bit positions, so only integers get past,
        # stored as ints, and the edges frozen, so the graph hashes
        n = _integer(node_count, "node count must be an integer, got {!r}")
        if n < 0:
            raise ValueError(f"node count must be non-negative, got {n}")
        checked = []
        for e in frozenset(edges):
            i, j = (_integer(v, "edge {!r} has an end that is not an integer", e) for v in e)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for {n} nodes")
            checked.append((i, j))
        return tuple.__new__(cls, (n, frozenset(checked)))

    @staticmethod
    def of(node_count: int, edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        """The graph with these edges; any integer type passes (a numpy int
        becomes an int), a float or a string does not."""
        return Graph(_integer(node_count), frozenset((_integer(i), _integer(j)) for i, j in edges))

    @classmethod
    def _trusted(cls, node_count: int, edges: frozenset[tuple[int, int]]) -> "Graph":
        """A graph the package built from node indices it computed itself,
        so every edge is an int pair in range; skips the checks of
        ``Graph(...)``.  Outside input goes through ``Graph(...)`` or
        ``Graph.of``."""
        return tuple.__new__(cls, (node_count, edges))

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    @cached_property
    def plan(self) -> kernels.Plan:
        """What the kernel reads of this graph as a target, built on the
        first search into it (or from it)."""
        return kernels.plan(self.node_count, self.edges)

    @cached_property
    def source_plan(self) -> kernels.SourcePlan:
        """What the kernel reads of this graph as a source, built on the
        first search from it."""
        return kernels.source_plan(self.plan)

    @cached_property
    def parts(self) -> tuple[tuple[tuple[int, ...], "Graph"], ...]:
        """The connected parts of this graph, edges read undirected, in the
        order of their least nodes: each part's nodes here, ascending, and
        its graph, whose node k is node nodes[k] here (a connected graph is
        its own one part).  ``kernels.count`` and ``_first`` read them."""
        succ, pred = self.plan.succ, self.plan.pred
        parts = []
        seen = 0
        for v in range(self.node_count):
            if seen >> v & 1:
                continue
            reach = todo = 1 << v
            while todo:
                low = todo & -todo
                todo ^= low
                u = low.bit_length() - 1
                new = (succ[u] | pred[u]) & ~reach
                reach |= new
                todo |= new
            seen |= reach
            parts.append(reach)
        if len(parts) == 1:
            return ((tuple(range(self.node_count)), self),)
        found = []
        for reach in parts:
            nodes = tuple(v for v in range(self.node_count) if reach >> v & 1)
            index = {v: k for k, v in enumerate(nodes)}
            found.append((nodes, Graph._trusted(len(nodes), frozenset(
                (index[i], index[j]) for i, j in self.edges if reach >> i & 1
            ))))
        return tuple(found)

    def has_loop(self) -> bool:
        return any(i == j for i, j in self.edges)

    def __repr__(self) -> str:
        return f"Graph({self.node_count}, {self.edge_list()})"


class _GraphHomFields(NamedTuple):
    source: Graph
    target: Graph
    mapping: tuple[int, ...]


class GraphHom(_GraphHomFields):
    """Edge-preserving total node map."""

    __slots__ = ()

    def __new__(cls, source: Graph, target: Graph, mapping: Sequence[int]) -> "GraphHom":
        # stored as a tuple of ints whatever sequence and integer type came
        # in, so the hom hashes and the kernel reads plain ints
        mapping = tuple(mapping)
        if len(mapping) != source.node_count:
            raise ValueError(
                f"total map required: {len(mapping)} images for "
                f"{source.node_count} nodes"
            )
        mapping = tuple(_integer(v, "image {!r} is not an integer") for v in mapping)
        for v in mapping:
            if not 0 <= v < target.node_count:
                raise ValueError(f"image {v} out of range")
        for i, j in source.edge_list():
            if (mapping[i], mapping[j]) not in target.edges:
                raise ValueError(
                    f"map does not preserve edge ({i}, {j}): "
                    f"({mapping[i]}, {mapping[j]}) missing in target"
                )
        return tuple.__new__(cls, (source, target, mapping))

    @classmethod
    def _trusted(cls, source: Graph, target: Graph, mapping: tuple[int, ...]) -> "GraphHom":
        """A hom the package built from kernel rows, from homs already
        checked or from checked graphs (an identity, a glued injection);
        skips the checks of ``GraphHom(...)``.  Outside input goes through
        ``GraphHom(...)``."""
        return tuple.__new__(cls, (source, target, mapping))

    @staticmethod
    def identity(g: Graph) -> "GraphHom":
        return GraphHom._trusted(g, g, tuple(range(g.node_count)))


def _integer(v, message: str = "{!r} is not an integer", *shown) -> int:
    """v as an int through ``operator.index``, or ValueError: message
    formatted with shown, or with v when nothing is shown."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(message.format(*(shown or (v,)))) from None


def empty_graph() -> Graph:
    return Graph.of(0)


def loop_point() -> Graph:
    return Graph.of(1, [(0, 0)])


def clique(n: int) -> Graph:
    """n nodes, every ordered pair of distinct nodes an edge, no loops."""
    return Graph.of(n, ((i, j) for i in range(n) for j in range(n) if i != j))


def _check_bound(max_nodes: int) -> None:
    if max_nodes < 0:
        raise ValueError(f"node bound must be non-negative, got {max_nodes}")


def graph_classes(max_nodes: int) -> Iterator[Graph]:
    """The lex-least labeled graph of each isomorphism class, in the order
    of the labeled walk (by node count, then the edge matrix read
    row-major as a binary number; the reference in ``tests/oracles.py``):
    1, 2, 10, 104, 3,044 and 291,968 graphs on 0..5 nodes (OEIS A000595),
    against 2^(n*n) labeled ones.

    Orderly generation (Read 1978; McKay 1998).  Row i of the edge matrix
    is an n-bit int with column 0 most significant, so lex order on
    the row tuple is the labeled walk's order.  The search fixes rows in
    turn, trying each row's values in increasing order, and drops a prefix
    as soon as some relabelling is lex-smaller on the rows it already
    determines: every completion of that prefix has the same smaller
    relabelling.  With all rows fixed every relabelling has been compared,
    so exactly the lex-least members come out.

    Row r of a relabelled graph depends on row p[r] alone, so the search
    carries down a tie list: the relabellings still equal to the graph on
    every row compared so far, each with the row where its comparison
    stopped for want of a fixed row.  A new row resumes only those waiting
    for it.  One that compares greater is dropped for the whole subtree:
    the rows that decided it are fixed there, so no completion makes it
    smaller.
    """
    _check_bound(max_nodes)
    return chain.from_iterable(map(_lex_least_graphs, range(max_nodes + 1)))


def _lex_least_graphs(n: int) -> Iterator[Graph]:
    if n == 0:
        return iter([Graph._trusted(0, frozenset())])
    identity = tuple(range(n))
    values = range(1 << n)

    def table(p: tuple[int, ...]) -> tuple[int, ...]:
        """Each n-bit row with the bit of column p[c] moved to column c."""
        return tuple(sum((x >> (n - 1 - p[c]) & 1) << (n - 1 - c) for c in range(n)) for x in values)

    # edge_rows[i][x]: the edges of row i when its value is x, so an
    # accepted graph is the union of one entry per row
    edge_rows = [
        [frozenset((i, j) for j in range(n) if x >> (n - 1 - j) & 1) for x in values] for i in range(n)
    ]
    rows = [0] * n
    # row r of the graph relabelled by p is moved[rows[p[r]]], so a tie
    # that stopped at row s waits for row wait[s] = max(s, p[s]);
    # waiting[w] lists the ties (p, moved, wait, s) waiting for row w
    waiting: list[list] = [[] for _ in range(n)]
    for p in permutations(range(n)):
        if p != identity:
            waiting[p[0]].append((p, table(p), tuple(map(max, p, identity)), 0))

    def settle(k: int, resume: list) -> list | None:
        """Resume the ties waiting for row k: None if one is lex-smaller,
        else the (row waited for, tie) pairs that are still equal."""
        tied = []
        for p, moved, wait, s in resume:
            mapped, row = moved[rows[p[s]]], rows[s]
            while mapped == row:
                s += 1
                if s == n:
                    break  # an automorphism
                if wait[s] > k:
                    tied.append((wait[s], (p, moved, wait, s)))
                    break
                mapped, row = moved[rows[p[s]]], rows[s]
            else:
                if mapped < row:
                    return None
                # greater on fixed rows: dropped
        return tied

    def extend(k: int, waiting: list[list]) -> Iterator[Graph]:
        resume = waiting[k]
        if k == n - 1:
            for rows[k] in values:
                if settle(k, resume) is not None:
                    yield Graph._trusted(n, frozenset().union(*[row[x] for row, x in zip(edge_rows, rows)]))
            return
        for rows[k] in values:
            tied = settle(k, resume)
            if tied is None:
                continue
            later = list(waiting)
            for w, tie in tied:
                later[w] = later[w] + [tie]
            yield from extend(k + 1, later)

    return extend(0, waiting)


_instances = count(1)  # process-wide, so no two GraphCategory ids are equal


class GraphCategory(Category):
    """Ambient category of all finite graphs, with an interning registry so
    object references stay stable for the lifetime of the instance.  Each
    instance has its own cat_id ("graphs:1", "graphs:2", ...), since an
    index means a graph only in the registry that gave it out: another
    instance's ref is foreign."""

    def __init__(self):
        self.cat_id = f"graphs:{next(_instances)}"
        self._graphs: list[Graph] = []
        self._index: dict[Graph, int] = {}

    def obj(self, g: Graph) -> ObjRef:
        i = self._index.get(g)
        if i is None:
            i = len(self._graphs)
            self._graphs.append(g)
            self._index[g] = i
        return ObjRef(self.cat_id, i)

    def graph_of(self, ref: ObjRef) -> Graph:
        self._check_obj(ref)
        return self._graphs[ref.index]

    def mor(self, hom: GraphHom) -> MorRef:
        return MorRef(self.obj(hom.source), self.obj(hom.target), hom)

    def hom_of(self, m: MorRef) -> GraphHom:
        self._check_mor(m)
        return m.payload

    def identity(self, obj: ObjRef) -> MorRef:
        return MorRef(obj, obj, GraphHom.identity(self.graph_of(obj)))

    def compose(self, g: MorRef, f: MorRef) -> MorRef:
        self._check_mor(g)
        self._check_mor(f)
        if f.cod != g.dom:
            raise CategoryError("composability mismatch: cod of inner != dom of outer")
        # both refs match the registry, so f's target is g's source
        inner, outer = f.payload, g.payload
        return MorRef(f.dom, g.cod, GraphHom._trusted(
            inner.source, outer.target, tuple(outer.mapping[v] for v in inner.mapping)
        ))

    def enumerate_homs(self, a: ObjRef, x: ObjRef, limit: int | None = None) -> list[MorRef]:
        src = self.graph_of(a)
        dst = self.graph_of(x)
        return [
            MorRef(a, x, GraphHom._trusted(src, dst, row))
            for row in islice(kernels.homs(src, dst), limit)
        ]

    def _glue(self, parts: Sequence[ObjRef], seams: Sequence[tuple]) -> tuple[ObjRef, list[MorRef]]:
        """Quotient of the disjoint union of parts: a seam (i, j, p, q) makes
        node p(v) of part i and node q(v) of part j one node, for every node
        v of their domain.  Nodes are numbered by their class's least member
        in the union, so a part ahead of the others keeps its numbering.
        Returns the apex and the injection from each part."""
        graphs = [self._graphs[o.index] for o in parts]
        offsets = [0]
        for g in graphs:
            offsets.append(offsets[-1] + g.node_count)
        parent = list(range(offsets[-1]))  # a class's root is its least member

        def root(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for i, j, p, q in seams:
            oi, oj = offsets[i], offsets[j]
            for u, v in zip(p.payload.mapping, q.payload.mapping):
                a, b = root(oi + u), root(oj + v)
                if a < b:  # the smaller root stays a root
                    parent[b] = a
                else:
                    parent[a] = b
        index_map: list[int] = []
        size = 0
        for v in range(offsets[-1]):
            r = root(v)
            if r == v:  # the least member of its class opens the next node
                index_map.append(size)
                size += 1
            else:
                index_map.append(index_map[r])
        apex_graph = Graph._trusted(size, frozenset(
            (index_map[off + i], index_map[off + j]) for g, off in zip(graphs, offsets) for i, j in g.edges
        ))
        apex = self.obj(apex_graph)
        apex_graph = self._graphs[apex.index]
        return apex, [
            MorRef(o, apex, GraphHom._trusted(g, apex_graph, tuple(index_map[off : off + g.node_count])))
            for o, g, off in zip(parts, graphs, offsets)
        ]

    def object_size(self, obj: ObjRef) -> int:
        return self.graph_of(obj).node_count

    def attach_size(self, x: ObjRef, squares: Sequence[tuple[MorRef, MorRef]]) -> int:
        # a node of cod h lands on x when it is in the image of h and is new
        # otherwise; gluing can only merge nodes of x further
        self._check_squares(x, squares)
        size = self.object_size(x)
        for h, _ in squares:
            size += h.payload.target.node_count - len(set(h.payload.mapping))
        return size

    def is_injective(self, x: ObjRef, h: MorRef) -> InjectivityResult:
        # the refs are checked once, each kernel row dom h -> x is extended
        # along h by one pinned search, and only a counterexample gets a ref
        self._check_mor(h)
        dst = self.graph_of(x)
        src, mid = self._graphs[h.dom.index], self._graphs[h.cod.index]
        along, parts = h.payload.mapping, mid.parts
        for row in kernels.homs(src, dst):
            pins = _pins(mid, along, row)
            if pins is None or _first(parts, dst, pins) is None:
                return InjectivityResult(False, MorRef(h.dom, x, GraphHom._trusted(src, dst, row)))
        return InjectivityResult(True)

    def find_factorization(self, h: MorRef, f: MorRef) -> MorRef | None:
        self._check_mor(h)
        self._check_mor(f)
        if h.dom != f.dom:
            raise CategoryError("factorization query needs a common domain")
        hh: GraphHom = h.payload
        ff: GraphHom = f.payload
        pins = _pins(hh.target, hh.mapping, ff.mapping)
        row = None if pins is None else _first(hh.target.parts, ff.target, pins)
        if row is None:
            return None
        return MorRef(h.cod, f.cod, GraphHom._trusted(hh.target, ff.target, row))

    def cancellations(
        self,
        m: MorRef,
        objects: Iterable[ObjRef],
        limit: int | None = None,
        held: Container[MorRef] = frozenset(),
    ) -> Iterator[tuple[MorRef, MorRef] | None]:
        # the premise is checked once and refs are built only for answers.
        # A first merges no nodes that m separates, so an x with fewer
        # nodes than m's image has no answer, nor has an x with no map into
        # cod m (a count up to 1, which stops at the first part of x with
        # no map): on such an x the homs dom m -> x are only counted, and
        # only when they could reach limit (there are at most
        # |x| ** |dom m| of them).  On every other x each row first:
        # dom m -> x gets its pins once; a first whose pins agree gets its
        # ref, and one not held gets its rest x -> cod m part by part, each
        # part's pins searched once per x
        self._check_mor(m)
        src, dst = self._graphs[m.dom.index], self._graphs[m.cod.index]
        images = m.payload.mapping
        image_size = len(set(images))
        for x in objects:
            mid = self.graph_of(x)
            if mid.node_count < image_size or not kernels.count(mid, dst, 1):
                if (
                    limit is not None
                    and mid.node_count ** src.node_count >= limit
                    and kernels.count(src, mid, limit) == limit
                ):
                    yield None
                continue
            rows = list(islice(kernels.homs(src, mid), limit))
            if len(rows) == limit:
                yield None
                continue
            parts = mid.parts
            answers: dict = {}  # a part's pins recur across the rows
            for row in rows:
                pins = _pins(mid, row, images)
                if pins is None:
                    continue
                first = MorRef(m.dom, x, GraphHom._trusted(src, mid, row))
                if first in held:
                    continue
                rest = _first(parts, dst, pins, answers)
                if rest is not None:
                    yield first, MorRef(x, m.cod, GraphHom._trusted(mid, dst, rest))

    def universe(self, max_nodes: int) -> Iterator[ObjRef]:
        """One object per isomorphism class of graphs with at most
        max_nodes nodes, interned in the order of ``graph_classes``.

        Injectivity is invariant under isomorphism, and the least member
        of a class comes no later than any other member, so the first
        object satisfying an isomorphism-invariant test is the same as in
        the labeled walk of ``tests/oracles.py``."""
        return map(self.obj, graph_classes(max_nodes))

    def object_label(self, obj: ObjRef) -> str:
        g = self.graph_of(obj)
        return f"graph<{g.node_count};{','.join(f'{i}->{j}' for i, j in g.edge_list())}>"

    def morphism_label(self, m: MorRef) -> str:
        hom = self.hom_of(m)
        images = ",".join(str(v) for v in hom.mapping)
        return f"[{images}]:{self.object_label(m.dom)}=>{self.object_label(m.cod)}"

    def _check_obj(self, obj: ObjRef) -> None:
        # the registry must have an entry at the index; one it cannot take
        # (past its end, or no integer) is foreign
        try:
            if obj.cat_id == self.cat_id and obj.index >= 0:
                self._graphs[obj.index]
                return
        except (IndexError, TypeError):
            pass
        raise CategoryError(f"object {obj} is not from {self.cat_id}")

    def _check_mor(self, m: MorRef) -> None:
        # the payload's type, then each end, then the registry's graphs at
        # the ends against the payload's: a ref this category made holds its
        # interned graphs, and tuple != answers on them by identity, in C
        hom = m.payload
        if not isinstance(hom, GraphHom):
            raise CategoryError(f"morphism {m} is not a graph morphism")
        self._check_obj(m.dom)
        self._check_obj(m.cod)
        if (self._graphs[m.dom.index], self._graphs[m.cod.index]) != (hom.source, hom.target):
            raise CategoryError(f"morphism {m} endpoints disagree with its payload")


def _pins(mid: Graph, along: Sequence[int], images: Sequence[int]) -> list[int] | None:
    """The pins of a search out of mid that sends node along[v] to
    images[v] for every v (-1 where free), or None when along merges
    nodes that images separate: a map g out of mid with these pins is one
    with g after (the map with mapping along) = (the map with mapping
    images).  Both come from checked refs or kernel rows, so the pins are
    in range as built."""
    pins = [-1] * mid.node_count
    for at, want in zip(along, images):
        if pins[at] != want:
            if pins[at] >= 0:
                return None
            pins[at] = want
    return pins


def _first(
    parts: Sequence[tuple[tuple[int, ...], Graph]],
    dst: Graph,
    pins: Sequence[int],
    answers: dict | None = None,
) -> tuple[int, ...] | None:
    """The first kernel row mid -> dst that respects pins, or None, where
    parts is ``mid.parts``.  A map out of a disjoint union is a tuple of
    maps out of its parts, so each part is searched alone, with its own
    pins, and the search stops at the first part with no map.  The parts
    fix disjoint nodes, so the lex-first row of mid is the lex-first rows
    of its parts put together: the row a search over all of mid finds.
    answers, when given, keeps each part's answer by (part index, part
    pins), for a caller that searches out of one mid many times.  A
    connected mid asked without answers is one kernel search, and so is
    each part, asked here as a one-part graph."""
    if len(parts) == 1 and answers is None:
        return next(kernels.homs(parts[0][1], dst, pins), None)
    row = [0] * len(pins)
    for k, part in enumerate(parts):
        nodes = part[0]
        own = tuple(map(pins.__getitem__, nodes))
        found = False if answers is None else answers.get((k, own), False)
        if found is False:  # not asked yet: an answer is a row or None
            found = _first((part,), dst, own)
            if answers is not None:
                answers[k, own] = found
        if found is None:
            return None
        for v, c in zip(nodes, found):
            row[v] = c
    return tuple(row)
