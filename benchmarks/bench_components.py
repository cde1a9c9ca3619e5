"""The component split behind Lemma 2.2's per-component solving.

Times ``split_components`` (one labelling pass, one sweep over the
parent's adjacency) against the copy-then-split it replaced (drop
isolated vertices with a copy, then ``subgraph`` per component, each
scanning the whole copy) at three shapes: many small components, very
many tiny ones, and a few large ones.  Both splits must return the same
components, in the same order, with the same vertex order per side.
"""

import itertools
import math
import time

from repro.analysis.report import Table
from repro.graphs.components import (
    component_vertex_sets,
    disjoint_union_many,
    split_components,
)
from repro.graphs.generators import random_connected_bipartite

# (components, edges per component, k): each component is a random
# spanning tree on k + k vertices (2k - 1 edges) plus random chords up to
# the edge count.  The generator gives up on a chord after a few misses,
# so seeds that fall short are skipped.
SHAPES = ((50, 20, 7), (300, 8, 4), (5, 800, 300))


def _graph(count: int, edges: int, k: int):
    parts = (
        random_connected_bipartite(k, k, edges - (2 * k - 1), seed=seed)
        for seed in itertools.count()
    )
    return disjoint_union_many(
        itertools.islice((part for part in parts if part.num_edges == edges), count)
    )


def reference_split(graph):
    working = graph.without_isolated_vertices()
    return [working.subgraph(vs) for vs in component_vertex_sets(working)]


def _shape(graph):
    return [(part.left, part.right, part.edges()) for part in graph]


def _best_ms(fn, graph, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn(graph)
        best = min(best, time.perf_counter() - start)
    return best * 1000


def test_split_components_table(benchmark, emit):
    graphs = {shape: _graph(*shape) for shape in SHAPES}
    for graph in graphs.values():
        assert _shape(split_components(graph)) == _shape(reference_split(graph))

    def series():
        table = Table(
            ["components", "edges", "copy-then-split ms", "split_components ms", "speedup"],
            title="Component split: one pass vs copy-then-split",
        )
        for (count, _edges, _k), graph in graphs.items():
            reference = _best_ms(reference_split, graph)
            one_pass = _best_ms(split_components, graph)
            table.add_row(
                [count, graph.num_edges, round(reference, 2), round(one_pass, 2),
                 round(reference / one_pass, 1)]
            )
        return table

    table = benchmark.pedantic(series, rounds=1, iterations=1)
    emit("components_split", table)
