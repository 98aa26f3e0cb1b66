"""Property tests on small random inputs: the eigenpair checker against a
brute-force contraction, the contraction kernel against the per-edge
kernel bit for bit, the file format round trip, the rejection of
perturbed component indicators, and the JSON and text renderers against
``json.dumps(indent=2)`` and ``", ".join`` of the expanded vectors. Runs
are derandomized and keep no example database, so they are repeatable."""

import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geoconn import (
    ParseError,
    adjacency,
    apply,
    connected_components,
    construct,
    degrees,
    laplacian,
    shifted_laplacian,
    verify_h_eigenpair,
    verify_z_eigenpair,
)
from geoconn.cli import _decimal, _json, _Padded, parse_hypergraph

from oracles import (
    adjacency_entries,
    dense_apply,
    edge_by_edge_apply,
    laplacian_entries,
    shifted_laplacian_entries,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None)

exact_scalars = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def hypergraphs(draw):
    """k in 2..4, n in 1..8, up to 8 distinct edges in random order."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 8))
    candidates = list(combinations(range(1, n + 1), k))
    if not candidates:
        return construct(n, k, [])
    return construct(n, k, draw(st.lists(st.sampled_from(candidates), unique=True, max_size=8)))


def views_and_entries(g):
    """The three tensor views of g, each with its materialized entries."""
    shift = max(degrees(g))
    return [(adjacency(g), adjacency_entries(g)),
            (laplacian(g), laplacian_entries(g)),
            (shifted_laplacian(g), shifted_laplacian_entries(g, shift))]


@PROPERTY
@given(st.data())
def test_checker_residual_matches_a_dense_contraction(data):
    g = data.draw(hypergraphs())
    x = data.draw(st.lists(exact_scalars, min_size=g.n, max_size=g.n))
    assume(any(x))
    eigenvalue = data.draw(exact_scalars)
    power = g.k - 1
    for view, entries in views_and_entries(g):
        y = dense_apply(entries, g.n, x)
        h_defect = max(abs(yi - eigenvalue * xi ** power) for yi, xi in zip(y, x))
        h_scale = max(1, max(abs(xi) for xi in x) ** power)
        z_defect = max(abs(yi - eigenvalue * xi) for yi, xi in zip(y, x))
        z_norm = abs(sum(xi * xi for xi in x) - 1)
        h = verify_h_eigenpair(view, eigenvalue, x)
        z = verify_z_eigenpair(view, eigenvalue, x)
        assert h.exact and z.exact
        assert h.residual == Fraction(h_defect) / h_scale, view.kind
        assert z.residual == max(z_defect, z_norm), view.kind


finite_floats = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6),
                          st.floats(allow_nan=False, allow_infinity=False))
# hypothesis favours floats that add without rounding; uniform draws round,
# so they tell apart the orders in which an entry sums its terms
uniform_floats = st.randoms(use_true_random=False).map(lambda r: r.uniform(-10, 10))
vectors_of = {"int": st.integers(-10**6, 10**6),
              "Fraction": st.fractions(max_denominator=10**4),
              "float": st.one_of(finite_floats, uniform_floats)}


@PROPERTY
@given(st.data())
def test_apply_matches_the_edge_by_edge_kernel_bit_for_bit(data):
    g = data.draw(hypergraphs())
    kind = data.draw(st.sampled_from(sorted(vectors_of)))
    x = data.draw(st.lists(vectors_of[kind], min_size=g.n, max_size=g.n))
    for view in (adjacency(g), laplacian(g), shifted_laplacian(g)):
        got, want = apply(view, x), edge_by_edge_apply(view, x)
        # repr tells floats apart by every bit, -0.0 from 0.0 too, and
        # names Fractions; nan (from inf - inf) reprs as itself
        assert list(map(type, got)) == list(map(type, want)), (view.kind, kind)
        assert list(map(repr, got)) == list(map(repr, want)), (view.kind, kind)


noise = st.lists(st.sampled_from(["", "   ", "# comment", "\t# 1 2 3"]), max_size=2)


@PROPERTY
@given(st.data())
def test_written_hypergraph_parses_back(data):
    g = data.draw(hypergraphs())
    separator = data.draw(st.sampled_from([" ", "  ", "\t"]))
    lines = data.draw(noise)
    header_line = len(lines) + 1
    lines.append(f"{g.k} {g.n} {g.m}" + data.draw(st.sampled_from(["", "  # k n m"])))
    for edge in g.edges:
        lines += data.draw(noise)
        members = data.draw(st.permutations(edge))
        lines.append(separator.join(map(str, members)))
    lines += data.draw(noise)
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines)
    if g.k > g.n:
        # an edgeless graph the library accepts, but no file may declare
        with pytest.raises(ParseError) as err:
            parse_hypergraph(text)
        assert err.value.line == header_line
    else:
        assert parse_hypergraph(text) == g


@PROPERTY
@given(st.data())
def test_perturbed_indicator_is_rejected_exactly(data):
    g = data.draw(hypergraphs())
    assume(g.m > 0)
    # a part holding an edge; every one of its vertices lies in an edge
    part = next(p for p in connected_components(g).parts if set(g.edges[0]) <= set(p))
    x = [0] * g.n
    for v in part:
        x[v - 1] = 1
    assert verify_h_eigenpair(laplacian(g), 0, x, tol=0).accepted
    vertex = data.draw(st.sampled_from(part))
    t = data.draw(exact_scalars.filter(lambda value: value != 0))
    x[vertex - 1] += t
    assert not verify_h_eigenpair(laplacian(g), 0, x, tol=0).accepted


json_text = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
                              st.characters()))
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), json_text)
# every list holds only containers or only scalars, as in the CLI's documents
json_containers = st.deferred(lambda: st.one_of(
    st.lists(json_scalars, max_size=4),
    st.lists(json_containers, max_size=3),
    st.lists(json_scalars, max_size=3).map(tuple),
    st.dictionaries(json_text, st.one_of(json_scalars, json_containers), max_size=3)))


@PROPERTY
@given(st.one_of(json_scalars, json_containers))
def test_json_renderer_matches_json_dumps_indent_2(document):
    assert "".join(_json(document)) == json.dumps(document, indent=2)


@st.composite
def padded_vectors(draw):
    """A _Padded vector of 1 <= n <= 40 entries and its expanded list: an
    ascending part, sometimes all of 1..n, holding int, Fraction or float
    entries, and "0" on every other vertex."""
    n = draw(st.integers(1, 40))
    kept = draw(st.one_of(st.just([True] * n),
                          st.lists(st.booleans(), min_size=n, max_size=n)))
    part = [v for v, keep in zip(range(1, n + 1), kept) if keep]
    kind = draw(st.sampled_from(sorted(vectors_of)))
    values = draw(st.lists(vectors_of[kind], min_size=len(part), max_size=len(part)))
    expanded = ["0"] * n
    for v, value in zip(part, values):
        expanded[v - 1] = _decimal(value)
    return _Padded(part, values, n), expanded


@PROPERTY
@given(st.lists(padded_vectors(), max_size=3))
def test_padded_vectors_render_as_their_expanded_lists(vectors):
    # the zero runs between the part's vertices print exactly the n-entry
    # list: at the start, between neighbours, at the end, and not at all
    document = {"certificates": [{"vector": padded, "exact": True}
                                 for padded, _ in vectors]}
    expanded = {"certificates": [{"vector": full, "exact": True}
                                 for _, full in vectors]}
    if vectors:
        document["last"], expanded["last"] = vectors[-1]
    assert "".join(_json(document)) == json.dumps(expanded, indent=2)
    for padded, full in vectors:
        assert "".join(_json(padded)) == json.dumps(full, indent=2)
        assert "".join(padded.joined(", ")) == ", ".join(full)
