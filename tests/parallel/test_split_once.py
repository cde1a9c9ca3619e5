"""One component split per solve: no ``subgraph`` work, unchanged answers.

- ``solve_many`` and ``trace_report`` split a graph through
  ``split_components`` alone, so a graph of 300 components makes no
  ``BipartiteGraph.subgraph`` call at all (the copy-then-split they
  replaced made one per component, each scanning the whole graph).
- ``solve_many(auto)`` returns byte-identical results whether the split
  is the one-pass one or the copy-then-split kept in
  ``tests/core/quadratic_reference``, on a seeded ladder of spatial,
  clustered and paged join graphs.
"""

from __future__ import annotations

import sys

import pytest

from repro.graphs import components
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import disjoint_union_many
from repro.graphs.generators import random_connected_bipartite
from repro.joins.join_graph import build_join_graph
from repro.joins.predicates import SpatialOverlap
from repro.joins.trace import trace_report
from repro.parallel import solve_many
from repro.relations.storage import PagedRelation, page_connection_graph
from repro.workloads.equijoin import zipf_equijoin_workload
from repro.workloads.spatial import (
    clustered_rectangles_workload,
    uniform_rectangles_workload,
)

from tests.core import quadratic_reference as ref


def _many_small_components() -> BipartiteGraph:
    # 4 + 4 vertices: a random spanning tree (7 edges) plus one chord.
    parts = (random_connected_bipartite(4, 4, 1, seed=seed) for seed in range(400))
    return disjoint_union_many(
        [part for part in parts if part.num_edges == 8][:300]
    )


@pytest.fixture
def subgraph_calls(monkeypatch):
    calls = []
    original = BipartiteGraph.subgraph

    def counting(self, keep):
        calls.append(1)
        return original(self, keep)

    monkeypatch.setattr(BipartiteGraph, "subgraph", counting)
    return calls


class TestNoSubgraphWork:
    def test_solve_many_makes_no_subgraph_call(self, subgraph_calls):
        graph = _many_small_components()
        assert graph.num_edges == 300 * 8
        (result,) = solve_many([graph], method="auto")
        assert result.scheme.is_valid(graph)
        assert subgraph_calls == []

    def test_trace_report_makes_no_subgraph_call(self, subgraph_calls):
        graph = _many_small_components()
        report = trace_report(graph, graph.edges(), "edge-order")
        assert report.output_size == 300 * 8
        assert subgraph_calls == []


def _spatial(n: int, seed: int):
    left, right = uniform_rectangles_workload(n, n, seed=seed)
    return build_join_graph(left, right, SpatialOverlap())


def _clustered(n: int, seed: int):
    left, right = clustered_rectangles_workload(n, n, clusters=max(1, n // 8), seed=seed)
    return build_join_graph(left, right, SpatialOverlap())


def _paged(n: int, seed: int):
    left, right = zipf_equijoin_workload(n, n, key_universe=max(6, n // 8), seed=seed)
    return page_connection_graph(
        PagedRelation(left, page_size=4),
        PagedRelation(right, page_size=4),
        lambda a, b: a == b,
    )


LADDER = [
    (make, n, seed)
    for make, sizes in ((_spatial, (60, 100, 140)), (_clustered, (40, 80, 120)), (_paged, (20, 28, 36)))
    for n in sizes
    for seed in (1, 2)
]


def _results(graphs):
    return [
        (
            repr(r.scheme.configurations),
            r.method,
            r.effective_cost,
            r.raw_cost,
            r.jumps,
            r.optimal,
            r.status,
        )
        for r in solve_many(graphs, method="auto")
    ]


def test_solve_many_matches_the_copy_then_split(monkeypatch):
    graphs = [make(n, seed) for make, n, seed in LADDER]
    assert sum(len(components.split_components(g)) > 1 for g in graphs) > len(graphs) // 2
    one_pass = _results(graphs)
    split = components.split_components
    patched = 0
    for module in list(sys.modules.values()):
        if getattr(module, "split_components", None) is split:
            monkeypatch.setattr(module, "split_components", ref.split_components)
            patched += 1
    assert patched > 5
    assert _results(graphs) == one_pass
