"""Immutable k-uniform hypergraphs and their combinatorial operations.

Vertices carry 1-based labels 1..n. Edges are stored as sorted tuples of k
distinct labels; the edge list keeps its construction order. Every value is
immutable after construction, so instances can be shared freely.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter, lt
from typing import Iterable, Sequence

from .errors import (
    DuplicateEdge,
    InvalidSubset,
    LabelOutOfRange,
    MalformedEdge,
    WrongUniformity,
)

Edge = tuple[int, ...]


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph on vertices 1..n.

    Construction validates every invariant: each edge has exactly k distinct
    in-range members and no two edges coincide as sets. Edge members are
    normalized to ascending order.
    """

    n: int
    k: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {self.n!r}")
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"uniformity k must be an integer >= 2, got {self.k!r}")
        # via a list, so the kept tuple is allocated once at its size; one
        # grown by resizing made glibc keep a freed 7 MB `report` buffer
        # (many-components benchmark, peak RSS 41 -> 48 MB in half the runs)
        raw = tuple(self.edges if isinstance(self.edges, (tuple, list)) else list(self.edges))
        edges = raw  # kept when its tuples are sorted already, as the parser's are
        if not _valid(self.n, self.k, raw):
            try:
                edges = tuple(list(map(tuple, map(sorted, raw))))
            except TypeError:  # an edge that is not iterable, or unorderable labels
                edges = None
            if edges is None or not _valid(self.n, self.k, edges):
                _raise_first_error(self.n, self.k, raw)
                raise RuntimeError("internal error: bulk validation refused edges "
                                   "that the per-edge re-scan accepts")
        object.__setattr__(self, "edges", edges)

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        out = [0] * (self.n + 1)
        for v in chain.from_iterable(self.edges):
            out[v] += 1
        del out[0]
        return tuple(out)

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def vertices(self) -> range:
        """Labels 1..n in ascending order."""
        return range(1, self.n + 1)


def _valid(n: int, k: int, edges: tuple) -> bool:
    """Whether edges are tuples of k increasing int labels in 1..n, no two
    alike: every check of ``_raise_first_error`` on sorted edges, decided by
    C-level passes over the labels instead of a loop per label."""
    if not edges:
        return True
    if set(map(type, edges)) != {tuple} or set(map(len, edges)) != {k}:
        return False
    if not all(issubclass(t, int) and not issubclass(t, bool)
               for t in set(map(type, chain.from_iterable(edges)))):
        return False
    # each label below the next within every edge, so its members are
    # distinct and its first and last are its extremes
    columns = [list(map(itemgetter(p), edges)) for p in range(k)]
    if not all(all(map(lt, low, high)) for low, high in zip(columns, columns[1:])):
        return False
    least, most = min(columns[0]), max(columns[-1])
    del columns  # before the duplicate set is built
    return least >= 1 and most <= n and len(set(edges)) == len(edges)


def _raise_first_error(n: int, k: int, raw_edges) -> None:
    """Raise the error of the first invalid edge, checked one edge at a
    time; return when every edge is valid."""
    seen: set[Edge] = set()
    for idx, raw in enumerate(raw_edges):
        members = tuple(raw)
        if len(set(members)) != len(members):
            raise MalformedEdge(f"edge {idx} has a repeated vertex: {list(members)}", idx)
        if len(members) != k:
            raise WrongUniformity(f"edge {idx} has {len(members)} vertices, expected k={k}", idx)
        for v in members:
            if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= n:
                raise LabelOutOfRange(f"edge {idx}: vertex label {v!r} outside 1..{n}", idx)
        edge = tuple(sorted(members))
        if edge in seen:
            raise DuplicateEdge(f"edge {idx} duplicates an earlier edge: {list(edge)}", idx)
        seen.add(edge)


@dataclass(frozen=True)
class ComponentDecomposition:
    """Partition of the vertices into connected components, isolated
    vertices as singletons, held as the spanning forest of the search.

    ``order`` lists all n vertices as the search reached them, one run per
    part: a run begins at a start v, whose ``reached_by[v - 1]`` is -1, and
    every other vertex v of it was reached through edge ``reached_by[v - 1]``.
    ``parts`` and ``count`` are read off the forest, so they cannot disagree
    with it; read them only once ``check_components`` has accepted it."""

    order: tuple[int, ...]
    reached_by: tuple[int, ...]

    @cached_property
    def parts(self) -> tuple[tuple[int, ...], ...]:
        """The runs of ``order``, each sorted; by smallest member ascending,
        as the search starts each part at the smallest unreached label."""
        order, reached_by = self.order, self.reached_by
        starts = [i for i, v in enumerate(order) if reached_by[v - 1] == -1]
        return tuple(tuple(sorted(order[a:b])) for a, b in zip(starts, starts[1:] + [len(order)]))

    @property
    def count(self) -> int:
        return self.reached_by.count(-1)


def construct(n: int, k: int, edges: Iterable[Sequence[int]]) -> Hypergraph:
    """Validate and build a hypergraph from raw edge lists.

    Raises MalformedEdge, WrongUniformity, LabelOutOfRange or DuplicateEdge
    when the edge list is invalid; the exception records the offending edge
    index.
    """
    return Hypergraph(n, k, list(map(tuple, edges)))


def degrees(g: Hypergraph) -> tuple[int, ...]:
    """Per-vertex degree d_i = number of edges containing vertex i, counted
    once per hypergraph."""
    return g._degrees


def connected_components(g: Hypergraph) -> ComponentDecomposition:
    """Partition the vertices into connected components.

    Two vertices are connected when a path of alternating vertices and edges
    joins them, i.e. when they are reachable in the bipartite vertex-edge
    incidence structure. Breadth-first search over that structure runs in
    O(k*m + n); it records its spanning tree, so that ``check_components``
    checks each part's connectivity instead of trusting the search.
    """
    incident: list[list[int]] = [[] for _ in range(g.n + 1)]
    for j, edge in enumerate(g.edges):
        for v in edge:
            incident[v].append(j)
    seen_edge = [False] * g.m
    reached_by: list[int | None] = [None] * (g.n + 1)  # None until reached
    order: list[int] = []
    for start in range(1, g.n + 1):
        if reached_by[start] is not None:
            continue
        reached_by[start] = -1
        queue = deque([start])
        while queue:
            v = queue.popleft()
            order.append(v)
            for j in incident[v]:
                if seen_edge[j]:
                    continue
                seen_edge[j] = True
                for u in g.edges[j]:
                    if reached_by[u] is None:
                        reached_by[u] = j
                        queue.append(u)
    return ComponentDecomposition(tuple(order), tuple(reached_by[1:]))


def check_components(g: Hypergraph, d: ComponentDecomposition) -> ComponentDecomposition:
    """Return ``d`` once checked to hold the components of ``g``, else raise
    ValueError, in O(n + k*m) with no search. Three facts are checked:
    ``d.order`` lists 1..n once each; every vertex v but a start is a member
    of edge ``reached_by[v - 1]``, which holds a member listed before v; and
    no edge leaves its run. By induction along ``order`` each run is
    then connected, and being closed under edges it is a component."""
    n, order, reached_by, edges = g.n, d.order, d.reached_by, g.edges
    if len(order) != n or len(reached_by) != n or min(order) < 1 or max(order) > n:
        raise ValueError("the search order must list every vertex once")
    run = [0] * (n + 1)  # 0 until listed, then the 1-based run of the vertex
    at = run.__getitem__
    opened = bytearray(len(edges))  # 1 once an edge is seen to hold a listed vertex
    runs = 0
    for v in order:
        if run[v]:
            raise ValueError("the search order must list every vertex once")
        j = reached_by[v - 1]
        if j == -1:
            runs += 1
        else:
            edge = edges[j] if 0 <= j < len(edges) else ()
            member = bisect_left(edge, v)  # members are sorted
            if member == len(edge) or edge[member] != v:
                raise ValueError(f"vertex {v} is not in edge {j}, which reached it")
            # the first vertex an edge reaches needs a member listed before it;
            # that member comes before every later one too
            if not opened[j]:
                if not max(map(at, edge)):
                    raise ValueError(f"edge {j} reaches vertex {v} from no earlier vertex")
                opened[j] = 1
        run[v] = runs
    for j, edge in enumerate(edges):
        head = run[edge[0]]
        for v in edge:
            if run[v] != head:
                raise ValueError(f"edge {j} {list(edge)} leaves its component {head}")
    return d


def induced(g: Hypergraph, subset: Iterable[int]) -> tuple[Hypergraph, dict[int, int]]:
    """Sub-hypergraph induced by a vertex subset.

    Keeps exactly the edges entirely contained in the subset. Vertices are
    relabeled 1..|subset| preserving label order; the returned map sends old
    labels to new ones.
    """
    labels = sorted(set(subset))
    if not labels:
        raise InvalidSubset("vertex subset must be nonempty")
    if labels[0] < 1 or labels[-1] > g.n:
        raise InvalidSubset(f"vertex subset contains labels outside 1..{g.n}")
    relabel = {old: new for new, old in enumerate(labels, start=1)}
    kept = []
    for edge in g.edges:
        if all(v in relabel for v in edge):
            kept.append(tuple(relabel[v] for v in edge))
    return Hypergraph(len(labels), g.k, tuple(kept)), relabel
