"""Matching-based TSP(1,2) fragment stitching.

The paper notes that "an algorithm by Papadimitriou and Yannakakis can be
used to approximate PEBBLE within a factor of 7/6".  That algorithm grows a
tour out of a maximum matching; this module implements the same idea as a
practical heuristic:

1. compute a large matching of ``L(G)`` (greedy, improved by
   augmenting-path search);
2. treat each matched pair as a 2-node path fragment and each exposed node
   as a 1-node fragment;
3. repeatedly merge fragments whose endpoints are adjacent in ``L(G)``
   (each merge removes one future jump);
4. concatenate what remains, greedily ordering fragments so free junctions
   are exploited.

No formal 7/6 certificate is claimed for this simplified variant — the
benchmark ``bench_approx_quality`` measures its ratio against the exact
optimum instead, which is the reproduction-relevant comparison.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import split_components
from repro.graphs.line_graph import line_graph
from repro.graphs.matching import greedy_maximal_matching, improve_matching
from repro.graphs.simple import Graph
from repro.core.scheme import PebblingScheme
from repro.core.tsp import reorder_paths_greedily, tour_from_paths
from repro.runtime.budget import Budget

AnyGraph = Graph | BipartiteGraph


@dataclass(frozen=True)
class MatchingStitchResult:
    scheme: PebblingScheme
    effective_cost: int
    jumps: int
    fragments_initial: int
    fragments_final: int


def _merge_fragments(
    line: Graph, fragments: list[deque], budget: Budget | None = None
) -> list[deque]:
    """Greedily merge fragments whose endpoints are adjacent in ``line``.

    Anytime: every intermediate fragment set concatenates into a valid
    tour (unmerged boundaries are just jumps), so a tripped ``budget``
    simply stops merging early.
    """
    active = [f for f in fragments if f]
    merged = True
    while merged and len(active) > 1:
        if budget is not None and budget.poll(len(active)):
            break  # anytime cut: remaining fragment boundaries become jumps
        merged = False
        # The endpoint index is rebuilt after every merge (a merge can turn
        # a recorded endpoint into an interior node, so the map goes stale).
        endpoint_of: dict = {}
        for index, fragment in enumerate(active):
            endpoint_of.setdefault(fragment[0], []).append(index)
            if len(fragment) > 1:
                endpoint_of.setdefault(fragment[-1], []).append(index)
        for index, fragment in enumerate(active):
            for end, flip_self in ((fragment[-1], False), (fragment[0], True)):
                partner_index = None
                partner_flip = False
                for neighbor in line.neighbors(end):
                    for j in endpoint_of.get(neighbor, []):
                        if j == index:
                            continue
                        partner_index = j
                        partner_flip = active[j][0] != neighbor
                        break
                    if partner_index is not None:
                        break
                if partner_index is None:
                    continue
                other = active[partner_index]
                if flip_self:
                    fragment.reverse()
                if partner_flip:
                    other.reverse()
                fragment.extend(other)
                other.clear()
                merged = True
                break
            if merged:
                break
        active = [f for f in active if f]
    return active


def component_tour_matching(
    component: AnyGraph, budget: Budget | None = None
) -> tuple[list, int, int]:
    """Tour of one component: ``(tour, initial_fragments, final_fragments)``."""
    line = line_graph(component)
    if line.num_vertices == 0:
        return [], 0, 0
    matching = improve_matching(line, greedy_maximal_matching(line))
    matched_nodes = {v for pair in matching for v in pair}
    fragments = [deque(pair) for pair in matching]
    fragments.extend(
        deque([v]) for v in line.vertices if v not in matched_nodes
    )
    initial = len(fragments)
    merged = _merge_fragments(line, fragments, budget=budget)
    paths = reorder_paths_greedily([list(f) for f in merged])
    return tour_from_paths(paths), initial, len(merged)


def solve_matching_stitch(
    graph: AnyGraph, budget: Budget | None = None
) -> MatchingStitchResult:
    """Matching-stitch scheme over every component of ``graph``."""
    flat: list = []
    initial_total = 0
    final_total = 0
    for component in split_components(graph):
        tour, initial, final = component_tour_matching(component, budget=budget)
        flat.extend(tour)
        initial_total += initial
        final_total += final
    scheme = PebblingScheme.from_edge_order(graph, flat)
    return MatchingStitchResult(
        scheme=scheme,
        effective_cost=scheme.effective_cost(graph),
        jumps=scheme.jumps(),
        fragments_initial=initial_total,
        fragments_final=final_total,
    )
