"""Local search on TSP(1,2) tours: 2-opt and or-opt for pebbling schemes.

Polishing pass applied on top of any constructive solver.  Operates on the
edge-tour representation; with weights in {1, 2} every improving move
removes at least one jump, so the number of improvement steps is bounded by
the initial jump count and the search is fast in practice.

Moves implemented:

- **2-opt** (segment reversal): replace steps ``(t[i−1], t[i])`` and
  ``(t[j], t[j+1])`` by ``(t[i−1], t[j])`` and ``(t[i], t[j+1])``.  Path
  variant: prefix/suffix reversals touch only one boundary.
- **or-opt** (node relocation): move a single tour node between two
  adjacent tour positions elsewhere.

Both passes are first-improvement scans in ``(i, j)`` / ``(i, k)`` order,
but in TSP(1,2) only weight-1 steps can make a move improving, so each
pass enumerates just the candidates next to an ``L(G)`` neighbour (found
through the tour positions of each vertex's edges), in increasing order.
A pass therefore costs O(m + Σ_x deg_{L(G)}(x)) instead of O(m²) and
makes exactly the move a full scan would.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import component_index
from repro.graphs.simple import Graph
from repro.core.scheme import PebblingScheme
from repro.core.tsp import edges_share_endpoint, tour_cost
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.budget import Budget

AnyGraph = Graph | BipartiteGraph


def _w(a, b) -> int:
    """TSP(1,2) step weight between two edge nodes."""
    return 1 if edges_share_endpoint(a, b) else 2


# Positions scanned between two budget polls inside a pass.
_POLL_STRIDE = 32


def _positions_by_vertex(tour: list) -> dict:
    """The tour positions of each vertex's edges, in increasing order."""
    at: dict = {}
    for position, (u, v) in enumerate(tour):
        at.setdefault(u, []).append(position)
        at.setdefault(v, []).append(position)
    return at


def _out_of_budget(budget: Budget | None, i: int, n: int) -> bool:
    """Poll ``budget`` every ``_POLL_STRIDE`` positions of a pass,
    charging one node per position."""
    return (
        budget is not None
        and i % _POLL_STRIDE == 0
        and budget.poll(min(_POLL_STRIDE, n - i))
    )


def two_opt_pass(tour: list, budget: Budget | None = None) -> bool:
    """One first-improvement 2-opt sweep; returns True if improved.

    Reversing ``tour[i..j]`` can only improve if one of its new boundary
    steps is good, i.e. ``tour[i-1] ~ tour[j]`` or ``tour[i] ~ tour[j+1]``:
    with both new steps bad it costs at least as much as before.  Only
    those ``j`` are tried.  A tripped ``budget`` ends the pass unchanged.
    """
    n = len(tour)
    at = _positions_by_vertex(tour)
    for i in range(n - 1):
        if _out_of_budget(budget, i, n):
            return False
        candidates = {q - 1 for v in tour[i] for q in at[v] if q > i + 1}
        if i > 0:
            candidates.update(j for v in tour[i - 1] for j in at[v] if j > i)
        for j in sorted(candidates):
            # Reversing tour[i..j]: boundary steps are (i-1, i) and (j, j+1).
            before = 0
            after = 0
            if i > 0:
                before += _w(tour[i - 1], tour[i])
                after += _w(tour[i - 1], tour[j])
            if j < n - 1:
                before += _w(tour[j], tour[j + 1])
                after += _w(tour[i], tour[j + 1])
            if after < before:
                tour[i : j + 1] = reversed(tour[i : j + 1])
                return True
    return False


def or_opt_pass(tour: list, budget: Budget | None = None) -> bool:
    """One first-improvement single-node relocation sweep.

    Removing ``tour[i]`` saves ``removal_gain``; reinserting it at gap
    ``k`` of the rest costs 0–3, and at least 2 unless the node is
    adjacent to a gap neighbour, so only gaps next to an ``L(G)``
    neighbour can improve — except when the gain is 3.  Then the front
    gap, which costs at most 2 and comes first, is the move.  A tripped
    ``budget`` ends the pass unchanged.
    """
    n = len(tour)
    at = _positions_by_vertex(tour)
    for i in range(n):
        if _out_of_budget(budget, i, n):
            return False
        node = tour[i]
        removal_gain = 0
        if i > 0:
            removal_gain += _w(tour[i - 1], node)
        if i < n - 1:
            removal_gain += _w(node, tour[i + 1])
        if 0 < i < n - 1:
            removal_gain -= _w(tour[i - 1], tour[i + 1])
        if removal_gain <= 0:
            continue  # no insertion costs less than 0
        # Gaps of the rest (the tour without position i) on either side of
        # each neighbour; rest[x] is tour[x] below i and tour[x + 1] above.
        candidates = set()
        for v in node:
            for p in at[v]:
                if p != i:
                    r = p if p < i else p - 1
                    candidates.update((r, r + 1))
        if removal_gain == 3:
            candidates.add(0)
        for k in sorted(candidates):
            if k == i:
                continue  # reinserting in place
            insertion_cost = 0
            before_gap = tour[k - 1] if k <= i else tour[k]
            after_gap = tour[k] if k < i else tour[k + 1] if k < n - 1 else None
            if k > 0:
                insertion_cost += _w(before_gap, node)
            if after_gap is not None:
                insertion_cost += _w(node, after_gap)
            if k > 0 and after_gap is not None:
                insertion_cost -= _w(before_gap, after_gap)
            if insertion_cost < removal_gain:
                del tour[i]
                tour.insert(k, node)
                return True
    return False


def improve_tour(
    tour: list, max_rounds: int = 10_000, budget: Budget | None = None
) -> list:
    """Run 2-opt and or-opt to a local optimum; returns the improved tour.

    The input list is not modified.  Anytime: both passes poll ``budget``
    as they scan and stop without a move once it trips, so the tour is
    always valid and a tripped budget just stops improving early.
    """
    working = list(tour)
    for _ in range(max_rounds):
        if two_opt_pass(working, budget) or or_opt_pass(working, budget):
            continue
        break
    assert tour_cost(working) <= tour_cost(list(tour))
    return working


@dataclass(frozen=True)
class PolishResult:
    scheme: PebblingScheme
    effective_cost: int
    jumps: int
    improvement: int  # jumps removed relative to the input scheme


def polish_scheme(
    graph: AnyGraph, scheme: PebblingScheme, budget: Budget | None = None
) -> PolishResult:
    """Improve a canonical scheme with local search, per component.

    The scheme must be an edge order.  Each component's slice of the order
    is polished independently (cross-component steps are unavoidable jumps).
    """
    component_of = component_index(graph)
    by_component: dict[int, list] = defaultdict(list)
    for a, b in scheme.configurations:
        by_component[component_of[a]].append(
            graph.orient_edge(a, b)
            if isinstance(graph, BipartiteGraph)
            else (a, b)
        )
    flat: list = []
    with obs_trace.span("solver.polish"):
        for index in sorted(by_component):
            flat.extend(improve_tour(by_component[index], budget=budget))
    improved = PebblingScheme.from_edge_order(graph, flat)
    if obs_metrics.METRICS.enabled:
        obs_metrics.inc("solver.polish.passes")
        obs_metrics.inc(
            "solver.polish.jumps_removed", scheme.jumps() - improved.jumps()
        )
    return PolishResult(
        scheme=improved,
        effective_cost=improved.effective_cost(graph),
        jumps=improved.jumps(),
        improvement=scheme.jumps() - improved.jumps(),
    )
