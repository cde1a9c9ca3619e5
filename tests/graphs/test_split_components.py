"""``split_components`` against the copy-then-split it replaces.

The reference (``tests/core/quadratic_reference.split_components``) drops
isolated vertices with a copy and builds each component with
``subgraph``; the one-pass split must return the same components, in the
same order, with the same vertex order on each side.  The vertex sets
both rest on are checked against networkx.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import (
    betti_number,
    component_edge_counts,
    component_index,
    component_vertex_sets,
    split_components,
)
from repro.graphs.generators import random_connected_bipartite
from repro.graphs.simple import Graph

from tests.core import quadratic_reference as ref


@st.composite
def bipartite_graphs(draw) -> BipartiteGraph:
    left = [f"l{i}" for i in draw(st.permutations(range(draw(st.integers(0, 8)))))]
    right = [f"r{i}" for i in draw(st.permutations(range(draw(st.integers(0, 8)))))]
    pairs = [(u, v) for u in left for v in right]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    return BipartiteGraph(left=left, right=right, edges=edges)


@st.composite
def plain_graphs(draw) -> Graph:
    n = draw(st.integers(0, 12))
    vertices = draw(st.permutations(range(n)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    return Graph(vertices=vertices, edges=edges)


def _assert_vertex_sets_match_networkx(graph) -> None:
    oracle = nx.Graph()
    oracle.add_nodes_from(graph)
    oracle.add_edges_from(graph.edges())
    sets = component_vertex_sets(graph)
    assert sorted(map(sorted, sets)) == sorted(map(sorted, nx.connected_components(oracle)))
    position = {v: i for i, v in enumerate(graph)}
    firsts = [min(position[v] for v in vs) for vs in sets]
    assert firsts == sorted(firsts)


def _assert_same_split(graph) -> None:
    _assert_vertex_sets_match_networkx(graph)
    got = split_components(graph)
    want = ref.split_components(graph)
    assert len(got) == len(want)
    for part, expected in zip(got, want):
        assert type(part) is type(graph)
        if isinstance(graph, BipartiteGraph):
            assert part.left == expected.left
            assert part.right == expected.right
        else:
            assert part.vertices == expected.vertices
        assert part.edges() == expected.edges()
    assert betti_number(graph) == len(want)
    assert component_edge_counts(graph) == [part.num_edges for part in want]
    index = component_index(graph)
    for number, part in enumerate(want):
        assert all(index[v] == number for v in part)


class TestSplitComponents:
    @settings(max_examples=200, deadline=None)
    @given(bipartite_graphs())
    def test_bipartite_matches_reference(self, graph):
        _assert_same_split(graph)

    @settings(max_examples=200, deadline=None)
    @given(plain_graphs())
    def test_plain_graph_matches_reference(self, graph):
        _assert_same_split(graph)

    def test_empty_graphs_have_no_components(self):
        assert split_components(BipartiteGraph()) == []
        assert split_components(Graph()) == []
        only_isolated = BipartiteGraph(left=["a"], right=["b"])
        assert split_components(only_isolated) == []
        assert betti_number(only_isolated) == 0
        assert betti_number(only_isolated, ignore_isolated=False) == 2

    def test_connected_graph_is_returned_without_a_copy(self):
        graph = random_connected_bipartite(5, 4, 6, seed=3)
        assert split_components(graph)[0] is graph
        plain = Graph(edges=[(1, 2), (2, 3)])
        assert split_components(plain)[0] is plain

    def test_isolated_vertex_forces_a_copy(self):
        graph = random_connected_bipartite(5, 4, 6, seed=3)
        graph.add_left_vertex("iso")
        (part,) = split_components(graph)
        assert part is not graph
        assert "iso" not in part
        _assert_same_split(graph)

    def test_parts_do_not_share_adjacency_with_the_parent(self):
        graph = BipartiteGraph(edges=[("a", "x"), ("b", "y")])
        first, _second = split_components(graph)
        first.remove_edge("a", "x")
        assert graph.has_edge("a", "x")

    def test_betti_counts_isolated_vertices_on_request(self):
        graph = BipartiteGraph(edges=[("a", "x"), ("b", "y")], left=["c"])
        assert betti_number(graph) == 2
        assert betti_number(graph, ignore_isolated=False) == len(
            component_vertex_sets(graph)
        )
