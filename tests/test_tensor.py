"""Tensor views, the contraction kernel and weak irreducibility."""

import random
from dataclasses import fields
from fractions import Fraction

import pytest

from geoconn import (
    DimensionError,
    NotNonnegative,
    adjacency,
    apply,
    construct,
    degrees,
    is_weakly_irreducible,
    laplacian,
    shifted_laplacian,
    support_digraph,
)
from geoconn.tensor import SLICE_EDGES, HypergraphView

from generators import connected_hypergraph, random_hypergraph
from oracles import (
    adjacency_entries,
    dense_apply,
    edge_by_edge_apply,
    laplacian_entries,
    shifted_laplacian_entries,
    strongly_connected,
    strongly_connected_components,
    support_digraph_of,
    union_find_components,
)


def random_exact_vector(rng, n):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]


def test_adjacency_apply_frozen_value():
    # single edge {1,2,3}: (A x^2)_i = product of the other two entries
    g = construct(3, 3, [(1, 2, 3)])
    assert apply(adjacency(g), [1, 2, 3]) == [6, 3, 2]


def test_laplacian_apply_frozen_values():
    g = construct(4, 4, [(1, 2, 3, 4)])
    lap = laplacian(g)
    assert apply(lap, [1, 1, 1, 1]) == [0, 0, 0, 0]
    assert apply(lap, [1, 1, -1, -1]) == [0, 0, 0, 0]
    assert apply(lap, [1, 2, 3, 4]) == [1 - 24, 8 - 12, 27 - 8, 64 - 6]


def test_apply_requires_matching_dimension():
    g = construct(3, 3, [(1, 2, 3)])
    with pytest.raises(DimensionError):
        apply(adjacency(g), [1, 2])


def test_apply_zero_entries_are_safe():
    g = construct(3, 3, [(1, 2, 3)])
    assert apply(adjacency(g), [0, 5, 7]) == [35, 0, 0]
    assert apply(adjacency(g), [0, 0, 7]) == [0, 0, 0]


def test_implicit_matches_dense_oracle_exactly():
    rng = random.Random(303)
    for _ in range(120):
        g = random_hypergraph(rng, max_n=8, max_m=10)
        x = random_exact_vector(rng, g.n)
        assert apply(adjacency(g), x) == dense_apply(adjacency_entries(g), g.n, x)
        assert apply(laplacian(g), x) == dense_apply(laplacian_entries(g), g.n, x)


def test_apply_sums_every_entry_in_edge_order_across_slices(monkeypatch):
    # uniform floats round, so an entry's sum tells apart the orders of its
    # terms; slices of 1 to 4 edges cut each call between and inside the
    # column layout and the edge-by-edge one
    rng = random.Random(2121)
    graphs = [random_hypergraph(rng, k_choices=(2, 3, 4, 5), max_n=9, max_m=20)
              for _ in range(40)]
    for size in (1, 2, 3, 4, SLICE_EDGES):
        monkeypatch.setattr("geoconn.tensor.SLICE_EDGES", size)
        for g in graphs:
            x = [rng.uniform(-10, 10) for _ in range(g.n)]
            for factory in (adjacency, laplacian, shifted_laplacian):
                got = apply(factory(g), x)
                want = edge_by_edge_apply(factory(g), x)
                assert list(map(repr, got)) == list(map(repr, want)), (size, factory.__name__)


def test_laplacian_is_degree_diagonal_minus_adjacency():
    rng = random.Random(404)
    for _ in range(60):
        g = random_hypergraph(rng, max_n=8, max_m=10)
        x = random_exact_vector(rng, g.n)
        adj = apply(adjacency(g), x)
        lap = apply(laplacian(g), x)
        power = g.k - 1
        for d, xi, ai, li in zip(degrees(g), x, adj, lap):
            assert li == d * xi ** power - ai


def test_apply_is_homogeneous_of_degree_k_minus_1():
    rng = random.Random(505)
    for _ in range(40):
        g = random_hypergraph(rng, max_n=7, max_m=8)
        x = random_exact_vector(rng, g.n)
        t = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        scaled = apply(laplacian(g), [t * v for v in x])
        base = apply(laplacian(g), x)
        assert scaled == [t ** (g.k - 1) * v for v in base]


def test_apply_commutes_with_relabeling():
    rng = random.Random(606)
    for _ in range(40):
        g = random_hypergraph(rng, max_n=7, max_m=8)
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        relabeled = construct(g.n, g.k,
                              [tuple(perm[v - 1] for v in e) for e in g.edges])
        x = random_exact_vector(rng, g.n)
        moved = [0] * g.n
        for v in range(g.n):
            moved[perm[v] - 1] = x[v]
        base = apply(laplacian(g), x)
        image = apply(laplacian(relabeled), moved)
        for v in range(g.n):
            assert image[perm[v] - 1] == base[v]


def test_shifted_laplacian_default_shift_is_max_degree():
    g = construct(4, 2, [(1, 2), (2, 3)])
    ones = [1, 1, 1, 1]
    # (shift*I - L) 1 = shift - d + d on every vertex
    assert apply(shifted_laplacian(g), ones) == [2, 2, 2, 2]


def test_factories_give_integer_nonnegative_diagonals():
    # the invariants that let the views keep no checks of their own: every
    # diagonal has n integer entries >= 0, and only the Laplacian is signed -1
    assert [f.name for f in fields(HypergraphView)] == ["graph", "diagonal", "sign"]
    rng = random.Random(1111)
    graphs = [random_hypergraph(rng) for _ in range(150)]
    graphs += [construct(n, 2, []) for n in (2, 5)]
    assert any(g.m == 0 for g in graphs) and any(g.m > 0 for g in graphs)
    for g in graphs:
        for factory in (adjacency, laplacian, shifted_laplacian):
            view = factory(g)
            assert type(view.diagonal) is tuple and len(view.diagonal) == g.n
            assert all(type(c) is int and c >= 0 for c in view.diagonal), factory.__name__
            assert view.sign == (-1 if factory is laplacian else 1)


def test_support_digraph_of_adjacency():
    g = construct(4, 3, [(1, 2, 3)])
    assert support_digraph(adjacency(g)) == {1: (2, 3), 2: (1, 3), 3: (1, 2), 4: ()}


def test_support_digraph_shifted_laplacian_adds_self_loops():
    g = construct(3, 2, [(1, 2), (2, 3)])
    entries = shifted_laplacian_entries(g, 2)
    assert dense_apply(entries, g.n, [1, 2, 3]) == apply(shifted_laplacian(g), [1, 2, 3])
    graph = support_digraph(shifted_laplacian(g))
    # vertices 1 and 3 have degree 1 < shift 2, so they carry self-loops
    assert graph == {1: (1, 2), 2: (1, 3), 3: (2, 3)}
    assert graph == support_digraph_of(entries, g.n)


def test_support_digraph_matches_materialized_entries():
    rng = random.Random(1010)
    for _ in range(150):
        g = random_hypergraph(rng, max_n=8, max_m=10)
        assert support_digraph(adjacency(g)) == support_digraph_of(adjacency_entries(g), g.n)
        assert (support_digraph(shifted_laplacian(g))
                == support_digraph_of(shifted_laplacian_entries(g, max(degrees(g))), g.n))


def test_support_digraph_rejects_negative_tensors():
    # hypergraph views are checked structurally, the same way for both calls
    g = construct(3, 2, [(1, 2)])
    for check in (support_digraph, is_weakly_irreducible):
        with pytest.raises(NotNonnegative, match="negative off-diagonal entries"):
            check(laplacian(g))
    # laplacian of an edgeless hypergraph is the zero tensor: fine
    edgeless = construct(2, 2, [])
    assert support_digraph(laplacian(edgeless)) == {1: (), 2: ()}
    assert is_weakly_irreducible(laplacian(edgeless)) is False


def test_strongly_connected_components_knowns():
    cycle = {1: (2,), 2: (3,), 3: (1,)}
    assert strongly_connected_components(cycle) == [(1, 2, 3)]
    path = {1: (2,), 2: (3,), 3: ()}
    assert strongly_connected_components(path) == [(1,), (2,), (3,)]
    assert strongly_connected_components({1: ()}) == [(1,)]
    # two cycles joined by the single arc 3 -> 4 stay two components
    joined = {1: (2,), 2: (3,), 3: (1, 4), 4: (5,), 5: (4,)}
    assert strongly_connected_components(joined) == [(1, 2, 3), (4, 5)]
    joined[5] = (4, 1)  # a return arc merges them
    assert strongly_connected_components(joined) == [(1, 2, 3, 4, 5)]


def test_strongly_connected_components_is_iterative():
    # a directed cycle far beyond the recursion limit
    big = 50000
    graph = {i: (i % big + 1,) for i in range(1, big + 1)}
    assert strongly_connected_components(graph) == [tuple(range(1, big + 1))]


def test_weak_irreducibility_matches_connectivity():
    # the BFS verdict on hypergraph views against oracle Tarjan on their
    # materialized entries
    rng = random.Random(909)
    graphs = [random_hypergraph(rng) for _ in range(200)]
    graphs += [connected_hypergraph(rng) for _ in range(50)]
    for g in graphs:
        expected = union_find_components(g) == 1
        views = ((adjacency(g), adjacency_entries(g)),
                 (shifted_laplacian(g), shifted_laplacian_entries(g, max(degrees(g)))))
        for view, entries in views:
            assert is_weakly_irreducible(view) == expected
            assert strongly_connected(entries, g.n) == expected
    assert all(is_weakly_irreducible(adjacency(g)) for g in graphs[200:])
