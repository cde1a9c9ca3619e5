"""Connected components, Betti numbers, and disjoint unions.

The paper's effective cost ``π(G) = π̂(G) − β₀(G)`` subtracts the number of
connected components ``β₀`` (Def 2.2), and the additivity lemma (Lemma 2.2)
shows that disjoint join problems decompose.  These are the supporting
operations.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TypeVar

from repro.errors import GraphError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.simple import Graph, Vertex

AnyGraph = Graph | BipartiteGraph
G = TypeVar("G", Graph, BipartiteGraph)


def _sides(graph: AnyGraph) -> tuple[dict[Vertex, set[Vertex]], ...]:
    """The graph's own adjacency dicts (left then right for a bipartite
    graph), read in place: callers must not mutate them."""
    if isinstance(graph, BipartiteGraph):
        return (graph._left, graph._right)
    return (graph._adjacency,)


def _labels(graph: AnyGraph) -> tuple[dict[Vertex, int], int]:
    """One labelling pass: each non-isolated vertex's component number,
    and the number of components, numbered in order of their first vertex
    (left side first)."""
    sides = _sides(graph)
    adjacency = sides[0] if len(sides) == 1 else {**sides[0], **sides[1]}
    label: dict[Vertex, int] = {}
    count = 0
    for start, nbrs in adjacency.items():
        if not nbrs or start in label:
            continue
        label[start] = count
        stack = [start]
        while stack:
            for neighbor in adjacency[stack.pop()]:
                if neighbor not in label:
                    label[neighbor] = count
                    stack.append(neighbor)
        count += 1
    return label, count


def component_vertex_sets(graph: AnyGraph) -> list[set[Vertex]]:
    """Vertex sets of the connected components, isolated vertices included
    as singletons.

    Components are returned in order of their first vertex, so the output is
    deterministic for a deterministically-built graph.
    """
    label, count = _labels(graph)
    parts: list[set[Vertex]] = [set() for _ in range(count)]
    components: list[set[Vertex]] = []
    for side in _sides(graph):
        for v in side:
            part = parts[label[v]] if v in label else set()
            if not part:
                components.append(part)
            part.add(v)
    return components


def component_index(graph: AnyGraph) -> dict[Vertex, int]:
    """Each non-isolated vertex's component, as an index into
    :func:`split_components`'s list."""
    return _labels(graph)[0]


def component_edge_counts(graph: AnyGraph) -> list[int]:
    """The edge count of each component, in :func:`split_components`
    order, counted without building any component graph."""
    label, count = _labels(graph)
    sizes = [0] * count
    sides = _sides(graph)
    for v, nbrs in sides[0].items():
        if nbrs:
            sizes[label[v]] += len(nbrs)
    if len(sides) == 1:  # a plain graph counts each edge at both ends
        sizes = [size // 2 for size in sizes]
    return sizes


def split_components(graph: G) -> list[G]:
    """The connected components that have at least one edge, as graphs of
    the same type (Lemma 2.2 pebbles each one on its own).

    They equal ``[w.subgraph(vs) for vs in component_vertex_sets(w)]``
    with ``w = graph.without_isolated_vertices()``, order and side order
    included, for one labelling pass and one sweep over the adjacency.  A
    connected graph with no isolated vertex comes back as ``[graph]``
    itself, so callers must not mutate the parts.
    """
    label, count = _labels(graph)
    if count == 1 and len(label) == graph.num_vertices:
        return [graph]
    parts = [type(graph)() for _ in range(count)]
    part_sides = [_sides(part) for part in parts]
    for index, side in enumerate(_sides(graph)):
        for v, nbrs in side.items():
            if nbrs:
                part_sides[label[v]][index][v] = set(nbrs)
    return parts


def connected_components(graph: AnyGraph) -> list[AnyGraph]:
    """The connected components as induced subgraphs of the same type."""
    return [graph.subgraph(vs) for vs in component_vertex_sets(graph)]


def betti_number(graph: AnyGraph, ignore_isolated: bool = True) -> int:
    """``β₀(G)``: the number of connected components (paper Def 2.2).

    By default isolated vertices are ignored, matching the paper's
    convention that they are removed a priori (§2); pass
    ``ignore_isolated=False`` to count them as singleton components.
    """
    label, count = _labels(graph)
    if not ignore_isolated:
        return count + graph.num_vertices - len(label)
    return count


def is_connected(graph: AnyGraph) -> bool:
    """True iff the graph has at most one connected component.

    An empty graph counts as connected.
    """
    return len(component_vertex_sets(graph)) <= 1


def disjoint_union(first: BipartiteGraph, second: BipartiteGraph) -> BipartiteGraph:
    """The disjoint union ``G ⊎ H`` of two bipartite graphs (Lemma 2.2).

    Vertices are tagged with 0/1 to guarantee disjointness: a vertex ``v`` of
    ``first`` becomes ``(0, v)`` and a vertex ``w`` of ``second`` becomes
    ``(1, w)``.
    """
    out = BipartiteGraph(
        left=[(0, v) for v in first.left] + [(1, v) for v in second.left],
        right=[(0, v) for v in first.right] + [(1, v) for v in second.right],
    )
    for u, v in first.edges():
        out.add_edge((0, u), (0, v))
    for u, v in second.edges():
        out.add_edge((1, u), (1, v))
    return out


def disjoint_union_many(graphs: Iterable[BipartiteGraph]) -> BipartiteGraph:
    """Disjoint union of arbitrarily many bipartite graphs.

    Vertex ``v`` of the ``i``-th input becomes ``(i, v)``.
    """
    out = BipartiteGraph()
    count = 0
    for index, graph in enumerate(graphs):
        count += 1
        for v in graph.left:
            out.add_left_vertex((index, v))
        for v in graph.right:
            out.add_right_vertex((index, v))
        for u, v in graph.edges():
            out.add_edge((index, u), (index, v))
    if count == 0:
        raise GraphError("disjoint_union_many needs at least one graph")
    return out
