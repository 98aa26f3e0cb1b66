"""Hypergraph construction, validation and component decomposition."""

import random

import pytest

from geoconn import (
    DuplicateEdge,
    InvalidSubset,
    LabelOutOfRange,
    MalformedEdge,
    WrongUniformity,
    connected_components,
    construct,
    degrees,
    induced,
)

from generators import random_hypergraph
from oracles import spanning_forest_holds, union_find_parts


def test_construct_normalizes_edges():
    g = construct(5, 3, [(3, 1, 2), (5, 4, 2)])
    assert g.edges == ((1, 2, 3), (2, 4, 5))
    assert (g.n, g.k, g.m) == (5, 3, 2)
    assert list(g.vertices()) == [1, 2, 3, 4, 5]


def test_construct_keeps_sorted_tuples_and_sorts_the_rest():
    # the parser hands over sorted tuples: they are kept, not copied again
    rows = [(1, 2, 3), (2, 4, 5)]
    g = construct(5, 3, rows)
    assert all(kept is row for kept, row in zip(g.edges, rows))
    for unsorted in ([(1, 2, 3), (5, 4, 2)], [[1, 2, 3], [2, 4, 5]], iter([(3, 2, 1), (2, 4, 5)])):
        g = construct(5, 3, unsorted)
        assert g.edges == ((1, 2, 3), (2, 4, 5)) and type(g.edges) is tuple
        assert set(map(type, g.edges)) == {tuple}


def test_construct_rejects_repeated_vertex():
    with pytest.raises(MalformedEdge) as err:
        construct(4, 3, [(1, 2, 3), (2, 2, 4)])
    assert err.value.edge_index == 1


def test_construct_rejects_wrong_cardinality():
    with pytest.raises(WrongUniformity) as err:
        construct(4, 3, [(1, 2)])
    assert err.value.edge_index == 0


def test_construct_rejects_label_out_of_range():
    with pytest.raises(LabelOutOfRange):
        construct(4, 3, [(1, 2, 5)])
    with pytest.raises(LabelOutOfRange):
        construct(4, 3, [(0, 1, 2)])
    with pytest.raises(LabelOutOfRange):
        construct(4, 3, [(1, 2, "3")])
    # labels equal to ints, or that cannot be sorted, are still refused by label
    for edge in ((True, 2, 3), (1.0, 2, 3), (1, "a", 2)):
        with pytest.raises(LabelOutOfRange) as err:
            construct(4, 3, [(1, 2, 4), edge])
        assert err.value.edge_index == 1


def test_construct_reports_the_earliest_faulty_edge():
    """With faults of two kinds, the error of the earlier edge wins,
    whichever check would find the other one first."""
    cases = [
        ([(1, 2, 5), (1, 1, 2)], LabelOutOfRange, 0),
        ([(1, 2, 3), (2, 2, 4), (1, 2, 5)], MalformedEdge, 1),
        ([(1, 2), (1, 2, 3), (3, 2, 1)], WrongUniformity, 0),
        ([(1, 2, 3), (3, 2, 1), (0, 1, 2)], DuplicateEdge, 1),
        ([(1, 2, 3), (1, 2, 3, 4), (1, 2, 3)], WrongUniformity, 1),
        ([(1, 2, 4), (1, 2, 3), (2, 3, 4, 4), (4, 3, 2)], MalformedEdge, 2),
    ]
    for edges, error, index in cases:
        with pytest.raises(error) as err:
            construct(4, 3, edges)
        assert type(err.value) is error and err.value.edge_index == index, edges


def test_construct_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge) as err:
        construct(4, 3, [(1, 2, 3), (3, 2, 1)])
    assert err.value.edge_index == 1


def test_construct_rejects_bad_sizes():
    with pytest.raises(ValueError):
        construct(0, 3, [])
    with pytest.raises(ValueError):
        construct(4, 1, [])


def test_degrees_counts_incidences():
    g = construct(5, 3, [(1, 2, 3), (1, 2, 4)])
    assert degrees(g) == (2, 2, 1, 1, 0)
    # counted once per hypergraph: the Laplacian and the Perron block share them
    assert degrees(g) is degrees(g)


def part_of_each_edge(g, d):
    """Index of the part holding all members of each edge; None for an edge
    split across parts."""
    return tuple(next((i for i, part in enumerate(d.parts) if set(edge) <= set(part)), None)
                 for edge in g.edges)


def test_components_single_edge():
    g = construct(4, 4, [(1, 2, 3, 4)])
    d = connected_components(g)
    assert d.count == 1
    assert d.parts == ((1, 2, 3, 4),)
    assert part_of_each_edge(g, d) == (0,)


def test_components_with_isolated_vertices():
    g = construct(6, 3, [(1, 2, 3), (3, 4, 5)])
    d = connected_components(g)
    assert d.parts == ((1, 2, 3, 4, 5), (6,))
    assert part_of_each_edge(g, d) == (0, 0)


def test_components_two_parts_ordered_by_smallest_member():
    g = construct(7, 2, [(6, 7), (1, 3), (3, 5)])
    d = connected_components(g)
    assert d.parts == ((1, 3, 5), (2,), (4,), (6, 7))
    assert part_of_each_edge(g, d) == (3, 0, 0)
    # the search tree: 3 reached through edge 1, 5 through edge 2, 7 through edge 0
    assert d.order == (1, 3, 5, 2, 4, 6, 7)
    assert d.reached_by == (-1, -1, 1, -1, 2, -1, 0)


def test_components_edgeless():
    g = construct(3, 2, [])
    d = connected_components(g)
    assert d.count == 3
    assert d.parts == ((1,), (2,), (3,))
    assert part_of_each_edge(g, d) == ()


def test_components_partition_and_match_union_find():
    rng = random.Random(101)
    for _ in range(300):
        g = random_hypergraph(rng)
        d = connected_components(g)
        seen = [v for part in d.parts for v in part]
        assert sorted(seen) == list(range(1, g.n + 1))
        assert None not in part_of_each_edge(g, d)
        assert list(d.parts) == union_find_parts(g)
        assert spanning_forest_holds(g, d.order, d.reached_by)


def test_induced_relabels_and_maps():
    g = construct(6, 3, [(1, 2, 3), (3, 4, 5), (2, 3, 6)])
    sub, mapping = induced(g, [2, 3, 4, 6])
    assert mapping == {2: 1, 3: 2, 4: 3, 6: 4}
    assert (sub.n, sub.k) == (4, 3)
    assert sub.edges == ((1, 2, 4),)


def test_induced_keeps_only_fully_contained_edges():
    g = construct(5, 2, [(1, 2), (2, 3), (4, 5)])
    sub, mapping = induced(g, [1, 2, 4])
    assert sub.edges == ((mapping[1], mapping[2]),)


def test_induced_rejects_bad_subsets():
    g = construct(4, 2, [(1, 2)])
    with pytest.raises(InvalidSubset):
        induced(g, [])
    with pytest.raises(InvalidSubset):
        induced(g, [3, 5])
    with pytest.raises(InvalidSubset):
        induced(g, [0, 1])
    # repeated labels collapse to the set
    sub, mapping = induced(g, [1, 1, 2])
    assert sub.n == 2 and mapping == {1: 1, 2: 2}


def test_induced_on_component_matches_decomposition():
    rng = random.Random(202)
    for _ in range(100):
        g = random_hypergraph(rng)
        d = connected_components(g)
        for index, part in enumerate(d.parts):
            sub, _ = induced(g, part)
            assert connected_components(sub).count == 1
            expected = part_of_each_edge(g, d).count(index)
            assert sub.m == expected
