"""Connected components, Betti numbers, and disjoint unions.

The paper's effective cost ``π(G) = π̂(G) − β₀(G)`` subtracts the number of
connected components ``β₀`` (Def 2.2), and the additivity lemma (Lemma 2.2)
shows that disjoint join problems decompose.  These are the supporting
operations.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.errors import GraphError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.simple import Graph, Vertex

AnyGraph = Graph | BipartiteGraph


def _vertices(graph: AnyGraph) -> list[Vertex]:
    if isinstance(graph, BipartiteGraph):
        return graph.left + graph.right
    return graph.vertices


def component_vertex_sets(graph: AnyGraph) -> list[set[Vertex]]:
    """Vertex sets of the connected components, by BFS.

    Components are returned in order of their first vertex, so the output is
    deterministic for a deterministically-built graph.
    """
    seen: set[Vertex] = set()
    components: list[set[Vertex]] = []
    for start in _vertices(graph):
        if start in seen:
            continue
        component = {start}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for neighbor in graph.neighbors(current):
                if neighbor not in component:
                    component.add(neighbor)
                    queue.append(neighbor)
        seen |= component
        components.append(component)
    return components


def component_index(graph: AnyGraph) -> dict[Vertex, int]:
    """Each vertex's component, as an index into
    :func:`component_vertex_sets`'s list."""
    return {
        v: index
        for index, vertex_set in enumerate(component_vertex_sets(graph))
        for v in vertex_set
    }


def connected_components(graph: AnyGraph) -> list[AnyGraph]:
    """The connected components as induced subgraphs of the same type."""
    return [graph.subgraph(vs) for vs in component_vertex_sets(graph)]


def betti_number(graph: AnyGraph, ignore_isolated: bool = True) -> int:
    """``β₀(G)``: the number of connected components (paper Def 2.2).

    By default isolated vertices are ignored, matching the paper's
    convention that they are removed a priori (§2); pass
    ``ignore_isolated=False`` to count them as singleton components.
    """
    components = component_vertex_sets(graph)
    if not ignore_isolated:
        return len(components)
    return sum(
        1
        for vs in components
        if any(graph.neighbors(v) for v in vs)
    )


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
