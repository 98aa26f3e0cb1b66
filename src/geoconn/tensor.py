"""Tensor engine: implicit hypergraph tensors, explicit sparse tensors,
support digraphs and weak irreducibility.

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
from math import isfinite
from typing import Mapping, Sequence, Union

from .errors import DimensionError, NotNonnegative
from .hypergraph import Hypergraph, connected_components, degrees

Number = Union[int, float, Fraction]


def is_exact_scalar(value) -> bool:
    """True for numbers that support exact arithmetic (int or Fraction)."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SparseTensor:
    """Order-m, dimension-n tensor in coordinate form.

    ``entries`` maps index tuples (1-based, length ``order``) to nonzero
    finite values; absent tuples are zero. Explicit zeros are dropped at
    construction. No symmetry is assumed or enforced.
    """

    order: int
    dim: int
    entries: Mapping[tuple[int, ...], Number]

    def __post_init__(self):
        if not isinstance(self.order, int) or self.order < 2:
            raise ValueError(f"tensor order must be an integer >= 2, got {self.order!r}")
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"tensor dimension must be a positive integer, got {self.dim!r}")
        cleaned: dict[tuple[int, ...], Number] = {}
        for raw, value in self.entries.items():
            index = tuple(raw)
            if len(index) != self.order:
                raise DimensionError(
                    f"index tuple {index} has {len(index)} components, expected {self.order}")
            for i in index:
                if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= self.dim:
                    raise DimensionError(f"index {i!r} outside 1..{self.dim} in {index}")
            if isinstance(value, float) and not isfinite(value):
                raise ValueError(f"entry {index} is not finite: {value!r}")
            if value == 0:
                continue
            cleaned[index] = value
        object.__setattr__(self, "entries", cleaned)

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(v) for v in self.entries.values())


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


@dataclass(frozen=True)
class ExplicitView:
    """A generic tensor given by its coordinate form."""

    tensor: SparseTensor
    kind: str = field(default="explicit", compare=False)

    @property
    def order(self) -> int:
        return self.tensor.order

    @property
    def dim(self) -> int:
        return self.tensor.dim

    @property
    def is_exact(self) -> bool:
        return self.tensor.is_exact


TensorView = Union[HypergraphView, ExplicitView]


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


def explicit(t: SparseTensor) -> ExplicitView:
    """Wrap a SparseTensor for use with the view operations."""
    return ExplicitView(t)


def apply(view: TensorView, x: Sequence[Number]) -> list[Number]:
    """Contract the tensor against a vector: returns T x^{m-1}.

    For hypergraph-derived views entry i is

        c_i * x_i^{k-1} + sign * sum_{e containing i} prod_{j in e, j != i} x_j

    computed in O(k*m + n) per call via per-edge prefix/suffix products.
    The arithmetic stays in the domain of the inputs, so integer or Fraction
    vectors give exact integers or Fractions back.
    """
    xs = list(x)
    if len(xs) != view.dim:
        raise DimensionError(f"vector has length {len(xs)}, tensor dimension is {view.dim}")
    if isinstance(view, HypergraphView):
        return _apply_hypergraph(view, xs)
    return _apply_explicit(view.tensor, xs)


def _apply_hypergraph(view: HypergraphView, xs: list[Number]) -> list[Number]:
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


def _apply_explicit(t: SparseTensor, xs: list[Number]) -> list[Number]:
    out: list[Number] = [0] * t.dim
    for index, value in t.entries.items():
        term = value
        for j in index[1:]:
            term = term * xs[j - 1]
        out[index[0] - 1] = out[index[0] - 1] + term
    return out


def support_digraph(t: SparseTensor) -> dict[int, tuple[int, ...]]:
    """Directed graph with an arc (i, j) for every positive entry t_{i i2..im}
    and every j among i2..im. Requires an entrywise nonnegative tensor.

    A hypergraph tensor's digraph (O(k^2*m) arcs) is strongly connected iff
    the hypergraph is; ``is_weakly_irreducible`` decides that in O(k*m + n).
    """
    successors: dict[int, set[int]] = {i: set() for i in range(1, t.dim + 1)}
    for index, value in t.entries.items():
        if value < 0:
            raise NotNonnegative(f"entry {index} is negative: {value}")
        successors[index[0]].update(index[1:])
    return {i: tuple(sorted(s)) for i, s in successors.items()}


def strongly_connected_components(
        graph: Mapping[int, Sequence[int]]) -> list[tuple[int, ...]]:
    """Strongly connected components of a digraph given as adjacency lists.

    Iterative Tarjan. Each component is a sorted tuple and the components
    are listed by smallest member, so the output is deterministic.
    """
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    result: list[tuple[int, ...]] = []
    counter = 0
    for root in sorted(graph):
        if root in index:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, next_succ = work[-1]
            if next_succ == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            descended = False
            successors = graph[node]
            for pos in range(next_succ, len(successors)):
                succ = successors[pos]
                if succ not in index:
                    work[-1] = (node, pos + 1)
                    work.append((succ, 0))
                    descended = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if descended:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(tuple(sorted(component)))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    result.sort()
    return result


def is_weakly_irreducible(view: TensorView) -> bool:
    """True when the support digraph of a nonnegative tensor is strongly
    connected; a 1-dimensional tensor with no arcs counts as such, so a
    single-vertex hypergraph is consistent with being connected.

    A hypergraph view's support links every two members of an edge both
    ways, so this is connectivity (Pearson and Zhang, Graphs Combin. 30,
    2014), decided by one incidence breadth-first search in O(k*m + n).
    A Laplacian view with an edge, or a negative diagonal entry, raises
    NotNonnegative. An explicit view runs Tarjan on its ``support_digraph``.
    """
    if isinstance(view, ExplicitView):
        return len(strongly_connected_components(support_digraph(view.tensor))) == 1
    if view.sign < 0 and view.graph.m > 0:
        raise NotNonnegative(f"{view.kind} view has negative off-diagonal entries")
    for i, c in enumerate(view.diagonal, start=1):
        if c < 0:
            raise NotNonnegative(f"diagonal entry at vertex {i} is negative: {c}")
    return connected_components(view.graph).count == 1
