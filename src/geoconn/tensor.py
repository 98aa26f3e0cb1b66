"""Tensor engine: the tensors of a k-uniform hypergraph as implicit views,
their contraction, their support digraph and their weak irreducibility.
``HypergraphView`` is the library's only tensor type, and ``adjacency``,
``laplacian`` and ``shifted_laplacian`` are its only constructors.

The adjacency tensor of a k-uniform hypergraph has entry 1/(k-1)! on every
permutation of each edge's vertex tuple, the Laplacian is D - A with D the
diagonal degree tensor, and the shifted Laplacian is s*I - L with s the
maximum degree. Every diagonal is an integer tuple of length n, and only a
Laplacian with an edge has negative entries. None of these is ever
materialized: the contraction

    (T x^{k-1})_i = sum_{i_2..i_k} t_{i i_2...i_k} x_{i_2} ... x_{i_k}

is evaluated over the edges (``apply``), where the (k-1)! symmetric copies
of each edge cancel the 1/(k-1)! weight analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from operator import mul
from typing import Sequence, Union

from .errors import DimensionError, NotNonnegative
from .hypergraph import Hypergraph, check_components, connected_components, degrees

Number = Union[int, float, Fraction]


def is_exact_scalar(value) -> bool:
    """True for numbers that support exact arithmetic (int or Fraction)."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


@dataclass(frozen=True)
class HypergraphView:
    """Implicit tensor diag(c)*I + sign*A_H backed by a hypergraph H:
    adjacency (c = 0, sign = +1), Laplacian (c = degrees, sign = -1) or
    shifted Laplacian (c = max degree - degrees, sign = +1)."""

    graph: Hypergraph
    diagonal: tuple[int, ...]
    sign: int

    @property
    def order(self) -> int:
        return self.graph.k

    @property
    def dim(self) -> int:
        return self.graph.n


def adjacency(g: Hypergraph) -> HypergraphView:
    """Adjacency tensor view A_G."""
    return HypergraphView(g, (0,) * g.n, 1)


def laplacian(g: Hypergraph) -> HypergraphView:
    """Laplacian tensor view L_G = D_G - A_G."""
    return HypergraphView(g, degrees(g), -1)


def shifted_laplacian(g: Hypergraph) -> HypergraphView:
    """Shifted Laplacian view s*I - L_G with s the maximum degree, the least
    shift that makes the view entrywise nonnegative, as the Perron
    iteration needs."""
    degs = degrees(g)
    shift = max(degs)
    return HypergraphView(g, tuple(shift - d for d in degs), 1)


# edges contracted at a time, so that the kernel's member columns and
# partial products stay small however many edges there are
SLICE_EDGES = 1 << 16


def apply(view: HypergraphView, x: Sequence[Number]) -> list[Number]:
    """Contract the tensor against a vector: returns T x^{k-1}, whose entry i is

        c_i * x_i^{k-1} + sign * sum_{e containing i} prod_{j in e, j != i} x_j

    computed in O(k*m + n) per call. The edges are walked in slices of
    SLICE_EDGES, and each edge's products excluding one member come from
    ``_leave_one_out``: over a slice's k member columns when it holds at
    least k edges, else edge by edge, so a call holds about 4*k lists of at
    most SLICE_EDGES entries. Both layouts multiply in the same order, and
    every term is added to its entry edge by edge, so each entry sums its
    terms in edge order and float results do not depend on the slicing.
    The arithmetic stays in the domain of the inputs, so integer or
    Fraction vectors give exact integers or Fractions back.
    """
    xs = list(x)
    if len(xs) != view.dim:
        raise DimensionError(f"vector has length {len(xs)}, tensor dimension is {view.dim}")
    k = view.graph.k
    out = [c * (v ** (k - 1)) for c, v in zip(view.diagonal, xs)]
    edges = view.graph.edges
    if not edges:
        return out
    xs.insert(0, 0)  # slot 0 is never read: labels are 1-based
    out.insert(0, 0)
    sign = view.sign
    for start in range(0, len(edges), SLICE_EDGES):
        part = edges[start:start + SLICE_EDGES]
        if len(part) >= k:
            columns = [list(map(xs.__getitem__, column)) for column in zip(*part)]
            rows = zip(*_leave_one_out(columns, lambda a, b: list(map(mul, a, b))))
        else:  # fewer edges than members: k columns would be many short lists
            rows = (_leave_one_out(list(map(xs.__getitem__, edge)), mul) for edge in part)
        for i, term in zip(chain.from_iterable(part), chain.from_iterable(rows)):
            out[i] += sign * term
    del out[0]
    return out


def _leave_one_out(values: list, times) -> list:
    """For each position p of values, the product by ``times`` of all the
    others: (v_0 * ... * v_{p-1}) * (v_{k-1} * ... * v_{p+1}), each run
    multiplied in that order, without division."""
    prefixes = list(accumulate(values[:-1], times))  # prefixes[p] = v_0 * ... * v_p
    suffixes = list(accumulate(reversed(values[1:]), times))[::-1]  # v_{k-1} * ... * v_{p+1}
    return [suffixes[0], *map(times, prefixes, suffixes[1:]), prefixes[-1]]


def _require_nonnegative(view: HypergraphView) -> None:
    """Raise NotNonnegative unless every entry of the view is >= 0: only a
    Laplacian with an edge has negative entries."""
    if view.sign < 0 and view.graph.m > 0:
        raise NotNonnegative("laplacian view has negative off-diagonal entries")


def support_digraph(view: HypergraphView) -> dict[int, tuple[int, ...]]:
    """Support digraph of a nonnegative view: an arc i -> j for every two
    members i != j of an edge, a loop i -> i where the diagonal is positive.

    Its O(k^2*m) arcs are strongly connected iff the hypergraph is, which
    ``is_weakly_irreducible`` decides in O(k*m + n) without them. No command
    calls this; it stays because the benchmark's tracer counts its arcs.
    """
    _require_nonnegative(view)
    successors: dict[int, set[int]] = {
        i: {i} if c > 0 else set() for i, c in enumerate(view.diagonal, start=1)}
    for edge in view.graph.edges:
        for i in edge:
            successors[i].update(j for j in edge if j != i)
    return {i: tuple(sorted(s)) for i, s in successors.items()}


def is_weakly_irreducible(view: HypergraphView) -> bool:
    """True when the nonnegative view is weakly irreducible: its support
    digraph, which links every two members of an edge both ways, is strongly
    connected, so this is connectivity of the hypergraph (Pearson and Zhang,
    Graphs Combin. 30, 2014; a single vertex counts as connected), decided
    by one checked incidence search in O(k*m + n). A Laplacian view with an
    edge raises NotNonnegative.
    """
    _require_nonnegative(view)
    return check_components(view.graph, connected_components(view.graph)).count == 1
