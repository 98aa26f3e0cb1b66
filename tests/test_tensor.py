"""Tensor views, the contraction kernel and weak irreducibility."""

import random
from fractions import Fraction

import pytest

from geoconn import (
    DimensionError,
    NotNonnegative,
    SparseTensor,
    adjacency,
    apply,
    construct,
    degrees,
    explicit,
    is_weakly_irreducible,
    laplacian,
    shifted_laplacian,
    support_digraph,
)
from geoconn.tensor import strongly_connected_components

from generators import connected_hypergraph, random_hypergraph
from oracles import (
    adjacency_entries,
    dense_apply,
    laplacian_entries,
    shifted_laplacian_entries,
    union_find_components,
)


def random_exact_vector(rng, n):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]


def test_sparse_tensor_validates_indices():
    with pytest.raises(DimensionError):
        SparseTensor(2, 3, {(1, 4): 1})
    with pytest.raises(DimensionError):
        SparseTensor(2, 3, {(1,): 1})
    with pytest.raises(DimensionError):
        SparseTensor(2, 3, {(1, 0): 1})


def test_sparse_tensor_drops_zeros_and_tracks_exactness():
    t = SparseTensor(2, 2, {(1, 1): 1, (1, 2): 0, (2, 2): Fraction(1, 2)})
    assert (1, 2) not in t.entries
    assert t.is_exact
    assert not SparseTensor(2, 2, {(1, 1): 0.5}).is_exact
    with pytest.raises(ValueError):
        SparseTensor(2, 2, {(1, 1): float("nan")})


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
    assert apply(shifted_laplacian(g, 5), ones) == [5, 5, 5, 5]


def test_support_digraph_of_adjacency():
    g = construct(4, 3, [(1, 2, 3)])
    graph = support_digraph(SparseTensor(g.k, g.n, adjacency_entries(g)))
    assert graph == {1: (2, 3), 2: (1, 3), 3: (1, 2), 4: ()}


def test_support_digraph_shifted_laplacian_adds_self_loops():
    g = construct(3, 2, [(1, 2), (2, 3)])
    entries = shifted_laplacian_entries(g, 2)
    assert dense_apply(entries, g.n, [1, 2, 3]) == apply(shifted_laplacian(g), [1, 2, 3])
    graph = support_digraph(SparseTensor(g.k, g.n, entries))
    # vertices 1 and 3 have degree 1 < shift 2, so they carry self-loops
    assert 1 in graph[1] and 3 in graph[3]
    assert 2 not in graph[2]


def test_support_digraph_rejects_negative_tensors():
    with pytest.raises(NotNonnegative):
        support_digraph(SparseTensor(2, 2, {(1, 2): -1}))
    with pytest.raises(NotNonnegative):
        is_weakly_irreducible(explicit(SparseTensor(2, 2, {(1, 2): -1})))
    # hypergraph views are checked structurally, without a digraph
    g = construct(3, 2, [(1, 2)])
    with pytest.raises(NotNonnegative, match="negative off-diagonal entries"):
        is_weakly_irreducible(laplacian(g))
    with pytest.raises(NotNonnegative, match="diagonal entry at vertex 1 is negative"):
        is_weakly_irreducible(shifted_laplacian(g, max(degrees(g)) - 1))
    # laplacian of an edgeless hypergraph is the zero tensor: fine
    edgeless = construct(2, 2, [])
    assert support_digraph(SparseTensor(2, 2, laplacian_entries(edgeless))) == {1: (), 2: ()}
    assert is_weakly_irreducible(laplacian(edgeless)) is False


def test_strongly_connected_components_knowns():
    cycle = {1: (2,), 2: (3,), 3: (1,)}
    assert strongly_connected_components(cycle) == [(1, 2, 3)]
    path = {1: (2,), 2: (3,), 3: ()}
    assert strongly_connected_components(path) == [(1,), (2,), (3,)]
    assert strongly_connected_components({1: ()}) == [(1,)]


def test_strongly_connected_components_is_iterative():
    # a directed cycle far beyond the recursion limit
    big = 50000
    graph = {i: (i % big + 1,) for i in range(1, big + 1)}
    assert strongly_connected_components(graph) == [tuple(range(1, big + 1))]


def test_weak_irreducibility_matches_connectivity():
    # the BFS verdict on hypergraph views against Tarjan on their materializations
    rng = random.Random(909)
    graphs = [random_hypergraph(rng) for _ in range(200)]
    graphs += [connected_hypergraph(rng) for _ in range(50)]
    for g in graphs:
        expected = union_find_components(g) == 1
        views = ((adjacency(g), adjacency_entries(g)),
                 (shifted_laplacian(g), shifted_laplacian_entries(g, max(degrees(g)))))
        for view, entries in views:
            assert is_weakly_irreducible(view) == expected
            assert is_weakly_irreducible(explicit(SparseTensor(g.k, g.n, entries))) == expected
    assert all(is_weakly_irreducible(adjacency(g)) for g in graphs[200:])
