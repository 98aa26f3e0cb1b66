"""Tensor engine: the tensors of a k-uniform hypergraph as implicit views,
their contraction, their support digraph and their weak irreducibility.
``HypergraphView`` is the library's only tensor type.

The adjacency tensor of a k-uniform hypergraph has entry 1/(k-1)! on every
permutation of each edge's vertex tuple, the Laplacian is D - A with D the
diagonal degree tensor, and the shifted Laplacian is shift*I - L. None of
these is ever materialized: the contraction

    (T x^{k-1})_i = sum_{i_2..i_k} t_{i i_2...i_k} x_{i_2} ... x_{i_k}

is evaluated edge by edge, where the (k-1)! symmetric copies of each edge
cancel the 1/(k-1)! weight analytically. Evaluation never leaves the input
number domain, so integer or Fraction vectors produce exact results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from .errors import DimensionError, NotNonnegative
from .hypergraph import Hypergraph, check_components, connected_components, degrees

Number = Union[int, float, Fraction]


def is_exact_scalar(value) -> bool:
    """True for numbers that support exact arithmetic (int or Fraction)."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


@dataclass(frozen=True)
class HypergraphView:
    """Implicit tensor diag(c)*I + sign*A_H backed by a hypergraph H.

    The three hypergraph-derived kinds are all of this shape:
    adjacency (c = 0, sign = +1), Laplacian (c = degrees, sign = -1) and
    shifted Laplacian (c = shift - degrees, sign = +1).
    """

    graph: Hypergraph
    diagonal: tuple[Number, ...]
    sign: int
    kind: str = field(compare=False)

    def __post_init__(self):
        if len(self.diagonal) != self.graph.n:
            raise DimensionError("diagonal length must equal the vertex count")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def order(self) -> int:
        return self.graph.k

    @property
    def dim(self) -> int:
        return self.graph.n

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(d) for d in self.diagonal)

    @cached_property
    def _edges0(self) -> tuple[tuple[int, ...], ...]:
        # 0-based member indices, precomputed for the contraction hot loop
        return tuple(tuple(v - 1 for v in e) for e in self.graph.edges)


def adjacency(g: Hypergraph) -> HypergraphView:
    """Adjacency tensor view A_G."""
    return HypergraphView(g, (0,) * g.n, 1, "adjacency")


def laplacian(g: Hypergraph) -> HypergraphView:
    """Laplacian tensor view L_G = D_G - A_G."""
    return HypergraphView(g, degrees(g), -1, "laplacian")


def shifted_laplacian(g: Hypergraph, shift: int | None = None) -> HypergraphView:
    """Shifted Laplacian view shift*I - L_G; defaults shift to the maximum degree.

    With the default shift the view is entrywise nonnegative, which is what
    the Perron iteration needs.
    """
    degs = degrees(g)
    if shift is None:
        shift = max(degs)
    return HypergraphView(g, tuple(shift - d for d in degs), 1, "shifted_laplacian")


def apply(view: HypergraphView, x: Sequence[Number]) -> list[Number]:
    """Contract the tensor against a vector: returns T x^{k-1}, whose entry i is

        c_i * x_i^{k-1} + sign * sum_{e containing i} prod_{j in e, j != i} x_j

    computed in O(k*m + n) per call via per-edge prefix/suffix products.
    The arithmetic stays in the domain of the inputs, so integer or Fraction
    vectors give exact integers or Fractions back.
    """
    xs = list(x)
    if len(xs) != view.dim:
        raise DimensionError(f"vector has length {len(xs)}, tensor dimension is {view.dim}")
    power = view.graph.k - 1
    out = [c * (v ** power) for c, v in zip(view.diagonal, xs)]
    sign = view.sign
    for edge in view._edges0:
        values = [xs[i] for i in edge]
        # product over the edge excluding each position, without division
        prefix = 1
        prefixes = []
        for v in values:
            prefixes.append(prefix)
            prefix = prefix * v
        suffix = 1
        for pos in range(len(edge) - 1, -1, -1):
            out[edge[pos]] = out[edge[pos]] + sign * (prefixes[pos] * suffix)
            suffix = suffix * values[pos]
    return out


def _require_nonnegative(view: HypergraphView) -> None:
    """Raise NotNonnegative unless every entry of the view is >= 0."""
    if view.sign < 0 and view.graph.m > 0:
        raise NotNonnegative(f"{view.kind} view has negative off-diagonal entries")
    for i, c in enumerate(view.diagonal, start=1):
        if c < 0:
            raise NotNonnegative(f"diagonal entry at vertex {i} is negative: {c}")


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
    """True when the nonnegative view is weakly irreducible, that is when
    its support digraph is strongly connected; a 1-dimensional tensor with
    no arcs counts as such, so a single-vertex hypergraph is consistent
    with being connected.

    The support links every two members of an edge both ways, so this is
    connectivity of the hypergraph (Pearson and Zhang, Graphs Combin. 30,
    2014), decided by one incidence breadth-first search in O(k*m + n) and
    checked by ``check_components``. A Laplacian view with an edge, or a
    negative diagonal entry, raises NotNonnegative.
    """
    _require_nonnegative(view)
    return check_components(view.graph, connected_components(view.graph)).count == 1
