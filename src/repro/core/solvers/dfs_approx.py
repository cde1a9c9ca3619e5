"""The 1.25-approximation of Theorem 3.1 / Lemma 3.1.

The algorithm follows the paper's proof:

1. Take a rooted DFS tree of ``L(G)`` for a connected component; ``L(G)``
   is connected and claw-free.  Claw-freeness forces every node to have at
   most two children (three children would be pairwise non-adjacent — DFS
   trees have no cross edges — forming an induced ``K_{1,3}``).
2. Peel the tree bottom-up (Lemma 3.1).  Nodes are finished in post-order;
   when a node ``x`` is finished, every child subtree still attached to it
   has at most 3 nodes.  A child ``p`` whose two children ``l1, l2`` are
   leaves is a *twin* pair, and claw-freeness at ``p`` (whose neighbours
   ``x, l1, l2`` cannot be pairwise non-adjacent) yields a rewiring that
   turns it into a chain using only real ``L(G)`` edges:

   - ``x ~ l1``: re-hang ``l1`` under ``x`` and ``p`` under ``l1``
     (chain ``x–l1–p–l2``);
   - ``x ~ l2``: symmetric;
   - ``l1 ~ l2``: re-hang ``l2`` under ``l1`` (chain ``p–l1–l2``).

   Every child subtree of ``x`` is then a chain of at most 3 nodes hanging
   from the child, so the subtree of ``x`` is a path through ``x``.  As
   soon as it has at least 4 nodes it is emitted as a chunk of 4–7 nodes
   and detached.  What is left at the root (at most 3 nodes) is the final
   chunk.

Every chunk except possibly the last has ≥ 4 nodes, so the tour formed by
concatenating chunks has at most ``⌊m/4⌋`` jumps, giving
``π ≤ m + ⌊m/4⌋ ≤ 1.25 m`` — the bound of Theorem 3.1.  A final greedy
reordering of chunks (which can only remove jumps) often does noticeably
better than the guarantee.

``L(G)`` is never built.  Its nodes are the edges of ``G`` ranked by
``repr``, two nodes are adjacent iff the edges share an endpoint, and the
DFS walks it through one cursor per vertex of ``G`` over the vertex's
incident edges: the next child of ``(u, v)`` is the smaller unvisited head
of the cursors of ``u`` and ``v``.  The tree is the one
:func:`repro.graphs.traversal.dfs_tree` builds on ``L(G)`` from its
min-``repr`` node, and DFS plus peeling take O(m) steps after an
O(m log m) sort.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SolverError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import split_components
from repro.graphs.simple import Graph
from repro.core.scheme import PebblingScheme
from repro.core.tsp import (
    edges_share_endpoint,
    reorder_paths_greedily,
    tour_from_paths,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.budget import Budget

AnyGraph = Graph | BipartiteGraph


@dataclass(frozen=True)
class DfsApproxResult:
    """Outcome of the DFS 1.25-approximation."""

    scheme: PebblingScheme
    effective_cost: int
    jumps: int
    chunks: int
    guarantee: int  # the certified upper bound m + floor(m/4)


@dataclass(frozen=True)
class LineDfsTree:
    """A rooted DFS tree of ``L(c)`` for a connected graph ``c``.

    Nodes are indices into ``edges`` (the edges of ``c`` sorted by
    ``repr``); node 0 is the root.  ``work`` counts the tree steps plus the
    cursor advances the walk took, which is at most ``4m``.
    """

    edges: list
    children: list[list[int]]
    depth: list[int]
    postorder: list[int]
    work: int


def line_dfs_tree(component: AnyGraph) -> LineDfsTree:
    """The DFS tree of ``L(component)`` rooted at its min-``repr`` node,
    children visited in ``repr`` order, without building ``L(component)``.
    """
    edges = sorted(component.edges(), key=repr)
    m = len(edges)
    incident: dict = {}
    for index, (u, v) in enumerate(edges):
        incident.setdefault(u, []).append(index)
        incident.setdefault(v, []).append(index)
    # A vertex's cursor only moves past visited edges, and visited edges
    # stay visited, so its head is its min-rank unvisited incident edge.
    cursor = dict.fromkeys(incident, 0)
    visited = [False] * m
    children: list[list[int]] = [[] for _ in range(m)]
    depth = [0] * m
    postorder: list[int] = []
    work = 0
    stack: list[int] = []
    if m:
        visited[0] = True
        stack.append(0)
    while stack:
        node = stack[-1]
        child = m
        for vertex in edges[node]:
            around = incident[vertex]
            at = start = cursor[vertex]
            while at < len(around) and visited[around[at]]:
                at += 1
            cursor[vertex] = at
            work += at - start
            if at < len(around) and around[at] < child:
                child = around[at]
        work += 1
        if child < m:
            visited[child] = True
            children[node].append(child)
            depth[child] = len(stack)
            stack.append(child)
        else:
            postorder.append(stack.pop())
    return LineDfsTree(edges, children, depth, postorder, work)


def dfs_chunks(component: AnyGraph) -> list[list]:
    """The Lemma 3.1 path chunks of one connected component: every chunk
    but the last has 4–7 edges, and every chunk is a path in
    ``L(component)``.

    Chunks come deepest peel node first (ties: larger ``repr`` first), the
    root's remainder last — the order in which repeatedly peeling the
    deepest node with at least 4 nodes below it would emit them.
    """
    tree = line_dfs_tree(component)
    edges = tree.edges
    children = tree.children  # rewired in place below
    size = [0] * len(edges)  # nodes still attached below and at each node

    def adjacent(a: int, b: int) -> bool:
        return edges_share_endpoint(edges[a], edges[b])

    def chain_from(node: int) -> list[int]:
        chain = [node]
        while children[node]:
            node = children[node][0]
            chain.append(node)
        return chain

    def path_through(node: int) -> list[int]:
        kids = children[node]
        if len(kids) == 2:
            return chain_from(kids[0])[::-1] + [node] + chain_from(kids[1])
        return [node] + (chain_from(kids[0]) if kids else [])

    peeled: list[tuple[int, int, list[int]]] = []
    for node in tree.postorder:
        kids = [c for c in children[node] if size[c]]  # drop peeled children
        for parent in list(kids):
            if len(children[parent]) < 2:
                continue
            # Twins: ``parent`` has at most 3 nodes, so both are leaves.
            l1, l2 = children[parent]
            if adjacent(node, l1):
                top, bottom = l1, l2
            elif adjacent(node, l2):
                top, bottom = l2, l1
            elif adjacent(l1, l2):
                children[parent] = [l1]
                children[l1] = [l2]
                size[l1] = 2
                continue
            else:
                raise SolverError(
                    "claw K_{1,3} found in a line graph — input corrupted"
                )
            kids.remove(parent)
            kids.append(top)
            children[top] = [parent]
            children[parent] = [bottom]
            size[top], size[parent] = 3, 2
        children[node] = kids
        size[node] = 1 + sum(size[c] for c in kids)
        if size[node] >= 4:
            peeled.append((tree.depth[node], node, path_through(node)))
            size[node] = 0
    peeled.sort(reverse=True)
    chunks = [path for _depth, _node, path in peeled]
    if edges and size[0]:
        chunks.append(path_through(0))
    # Cheap certification: each chunk really is a weight-1 path.
    for chunk in chunks:
        for a, b in zip(chunk, chunk[1:]):
            if not adjacent(a, b):
                raise SolverError("internal error: chunk is not an L(G) path")
    return [[edges[i] for i in chunk] for chunk in chunks]


def component_tour_dfs(component: AnyGraph) -> tuple[list, int]:
    """A 1.25-approximate tour for one connected component.

    Returns ``(tour, chunk_count)``.
    """
    chunks = dfs_chunks(component)
    ordered = reorder_paths_greedily(chunks)
    return tour_from_paths(ordered), len(chunks)


def solve_dfs_approx(
    graph: AnyGraph, budget: Budget | None = None
) -> DfsApproxResult:
    """Run the Theorem 3.1 approximation over every component of ``graph``.

    The returned ``guarantee`` is ``Σ_c (m_c + ⌊m_c/4⌋)``; the scheme's
    measured effective cost never exceeds it (asserted by the test-suite on
    thousands of random graphs).

    This is the bottom of the degradation ladder that still carries a
    guarantee, so it never stops early: a ``budget`` is polled only for
    node accounting.  Each component costs one O(m log m) ``repr`` sort
    plus O(m) DFS and peeling steps; the E-T3.1 series in EXPERIMENTS.md
    measures the resulting time exponent.
    """
    tours: list[list] = []
    chunk_total = 0
    guarantee = 0
    with obs_trace.span("solver.dfs_approx"):
        for component in split_components(graph):
            if budget is not None:
                budget.poll(max(1, component.num_edges))
            tour, chunks = component_tour_dfs(component)
            tours.append(tour)
            chunk_total += chunks
            mc = component.num_edges
            guarantee += mc + mc // 4
    if obs_metrics.METRICS.enabled:
        obs_metrics.inc("solver.dfs_approx.solves")
        obs_metrics.inc("solver.dfs_approx.chunks", chunk_total)
    flat = [edge for tour in tours for edge in tour]
    scheme = PebblingScheme.from_edge_order(graph, flat)
    return DfsApproxResult(
        scheme=scheme,
        effective_cost=scheme.effective_cost(graph),
        jumps=scheme.jumps(),
        chunks=chunk_total,
        guarantee=guarantee,
    )
