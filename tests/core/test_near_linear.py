"""The near-linear dfs+polish rung against its quadratic predecessors.

- The implicit DFS tree of ``L(G)`` equals ``dfs_tree(line_graph(c))``
  from the min-``repr`` node, and the bottom-up peel emits the chunks of
  the deepest-first peel.
- ``reorder_paths_greedily`` and the 2-opt / or-opt passes make exactly
  the choices of the quadratic versions kept in ``quadratic_reference``.
- The Lemma 3.1 peel keeps its invariants, its DFS work per edge stays
  bounded as m grows, and a deadline solve at m=4000 returns within the
  ROADMAP pin of 1.5x the deadline plus 50 ms.
"""

from __future__ import annotations

import random
import statistics
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.generators import random_connected_bipartite
from repro.graphs.line_graph import line_graph
from repro.graphs.simple import Graph
from repro.graphs.traversal import dfs_tree
from repro.core.solvers.dfs_approx import (
    component_tour_dfs,
    dfs_chunks,
    line_dfs_tree,
    solve_dfs_approx,
)
from repro.core.solvers.local_search import (
    improve_tour,
    or_opt_pass,
    two_opt_pass,
)
from repro.core.solvers.registry import solve
from repro.core.tsp import edges_share_endpoint, reorder_paths_greedily

from tests.core import quadratic_reference as ref


def _random_connected(seed: int, max_side: int = 8):
    rng = random.Random(seed)
    left = rng.randint(1, max_side)
    right = rng.randint(1, max_side)
    extra = rng.randint(0, left * right - (left + right - 1))
    return random_connected_bipartite(left, right, extra, seed=seed)


def _random_general(seed: int) -> Graph:
    """A connected non-bipartite graph: a random tree plus random chords."""
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(range(n), 2)
        if (v, u) not in edges:
            edges.add((u, v))
    return Graph(edges=sorted(edges))


def _graph(seed: int, max_side: int = 8):
    """Every fourth seed a general graph, otherwise a bipartite one."""
    if seed % 4 == 3:
        return _random_general(seed)
    return _random_connected(seed, max_side)


class TestImplicitDfsTree:
    @pytest.mark.parametrize("block", range(6))
    def test_equals_dfs_tree_of_line_graph(self, block):
        for seed in range(block * 50, block * 50 + 50):
            graph = _graph(seed)
            tree = line_dfs_tree(graph)
            line = line_graph(graph)
            expected = dfs_tree(line, min(line.vertices, key=repr))
            assert tree.edges[0] == expected.root
            assert len(tree.postorder) == len(expected) == graph.num_edges
            for index, edge in enumerate(tree.edges):
                got = [tree.edges[c] for c in tree.children[index]]
                assert got == expected.children(edge), (seed, edge)

    def test_empty_graph(self):
        tree = line_dfs_tree(Graph())
        assert tree.edges == [] and tree.postorder == [] and tree.work == 0

    @pytest.mark.parametrize("m", [1000, 2000, 4000, 8000])
    def test_work_per_edge_is_bounded(self, m):
        # Each loop turn is one tree step (a push or a pop: 2m of them) and
        # each cursor advance passes one of the 2m incidence entries.
        side = m // 3
        graph = random_connected_bipartite(side, side, m - (2 * side - 1), seed=m)
        tree = line_dfs_tree(graph)
        assert graph.num_edges == m
        assert 2 * m <= tree.work <= 4 * m


class TestPeelParity:
    @pytest.mark.parametrize("block", range(6))
    def test_same_chunks_as_deepest_first_peeling(self, block):
        # The bottom-up peel emits the chunks the quadratic deepest-first
        # peel emits, in the same order.  A chunk may come out reversed
        # (4 of about 40,000 on random graphs): when a node has two twin
        # pairs below it, the old global scan could rewire them in the
        # other order.
        for seed in range(block * 50, block * 50 + 50):
            graph = _graph(seed, max_side=20)
            got = dfs_chunks(graph)
            want = ref.peel_chunks(graph)
            assert len(got) == len(want), seed
            for chunk, expected in zip(got, want):
                assert chunk in (expected, expected[::-1]), seed


class TestReorderParity:
    def test_matches_quadratic_reference(self):
        rng = random.Random(7)
        labels = [0, 1, 2, 3, "a", "b", "c", 1.5, (0, 1), None]
        for _ in range(2000):
            paths = []
            for _ in range(rng.randint(0, 9)):
                path = [tuple(rng.sample(labels, 2)) for _ in range(rng.randint(1, 3))]
                paths.append(path)
            snapshot = [list(p) for p in paths]
            assert reorder_paths_greedily(paths) == ref.reorder_paths_greedily(paths)
            assert paths == snapshot  # inputs are not mutated


def _pass_sequence(tour, two_opt, or_opt):
    """Every intermediate tour of the improve loop, one per pass."""
    states = []
    while True:
        moved = two_opt(tour) or or_opt(tour)
        states.append(list(tour))
        if not moved:
            return states


class TestLocalSearchParity:
    @pytest.mark.parametrize("block", range(6))
    def test_move_for_move(self, block):
        rng = random.Random(block)
        moves = 0
        for seed in range(block * 50, block * 50 + 50):
            graph = _graph(seed)
            edges = graph.edges()
            starts = [component_tour_dfs(graph)[0], rng.sample(edges, len(edges))]
            for start in starts:
                got = _pass_sequence(list(start), two_opt_pass, or_opt_pass)
                want = _pass_sequence(list(start), ref.two_opt_pass, ref.or_opt_pass)
                assert got == want, seed
                assert improve_tour(start) == got[-1]
                moves += len(got) - 1
        assert moves > 0


class TestShareEndpoint:
    def test_same_as_set_intersection(self):
        labels = [0, 1, 1.0, True, False, "1", "a", None, (1,), -0.0, 2]
        for a in labels:
            for b in labels:
                for c in labels:
                    for d in labels:
                        e1, e2 = (a, b), (c, d)
                        assert edges_share_endpoint(e1, e2) == ref.share_endpoint(e1, e2)


@st.composite
def connected_graphs(draw):
    if draw(st.booleans()):
        return _random_general(draw(st.integers(0, 10**6)))
    left = draw(st.integers(1, 12))
    right = draw(st.integers(1, 12))
    extra = draw(st.integers(0, left * right - (left + right - 1)))
    return random_connected_bipartite(left, right, extra, seed=draw(st.integers(0, 10**6)))


class TestLemma31Invariants:
    @settings(max_examples=200, deadline=None)
    @given(connected_graphs())
    def test_chunks(self, graph):
        chunks = dfs_chunks(graph)
        assert all(4 <= len(chunk) <= 7 for chunk in chunks[:-1])
        assert chunks and 1 <= len(chunks[-1]) <= 7
        for chunk in chunks:
            assert all(edges_share_endpoint(a, b) for a, b in zip(chunk, chunk[1:]))
        flat = [edge for chunk in chunks for edge in chunk]
        assert sorted(flat, key=repr) == graph.edges()
        m = graph.num_edges
        result = solve_dfs_approx(graph)
        result.scheme.validate(graph)
        assert result.effective_cost <= m + m // 4


def test_deadline_holds_at_m4000():
    """ROADMAP item 3 pin: solve(auto, deadline=0.2) at m=4000 returns
    within 1.5 x deadline + 50 ms (median of 3 solves)."""
    m, deadline = 4000, 0.2
    side = m // 3
    graph = random_connected_bipartite(side, side, m - (2 * side - 1), seed=1)
    seconds = []
    for _ in range(3):
        started = time.perf_counter()
        result = solve(graph, "auto", deadline=deadline)
        seconds.append(time.perf_counter() - started)
        result.scheme.validate(graph)
    assert statistics.median(seconds) <= 1.5 * deadline + 0.05, seconds
