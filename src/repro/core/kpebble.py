"""The k-pebble generalization of the join pebbling game.

The paper's game uses exactly two pebbles — the minimal machine that can
delete an edge.  Viewing pebbles as memory frames (the page-fetch lineage
of [6]) immediately suggests the generalization: ``k`` pebbles live on the
graph; a move relocates one pebble; an edge is deleted as soon as *both*
its endpoints are pebbled (by any two of the ``k`` pebbles).  A k-scheme
wins when every edge has been deleted.

Facts implemented and tested here:

- the ``k = 2`` game is exactly the paper's game (costs agree with
  :class:`~repro.core.scheme.PebblingScheme` accounting);
- monotonicity: more pebbles never cost more (checked exactly on tiny
  instances, and for the greedy scheduler on larger ones);
- two lower bounds valid for every ``k``: a placement on ``v`` deletes at
  most ``deg(v)`` edges and the first placement deletes none, giving
  ``moves ≥ ⌈m/Δ⌉ + 1``; and every non-isolated vertex must host a pebble
  at some point (both endpoints must be pebbled simultaneously to delete
  an edge), giving ``moves ≥ n`` — tight at ``k ≥ n``.

The exact k-pebble optimum is NP-hard already for ``k = 2`` (Thm 4.2), so
beyond the bounds this module provides a competitive *greedy* scheduler
and a brute-force optimum for tiny instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InstanceTooLargeError, SchemeError, VertexError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.simple import Graph, Vertex

AnyGraph = Graph | BipartiteGraph


@dataclass
class KPebbleGame:
    """Mutable k-pebble game state.

    Example
    -------
    >>> from repro.graphs.generators import complete_bipartite
    >>> g = complete_bipartite(2, 2)
    >>> game = KPebbleGame(g, k=4)
    >>> for i, v in enumerate(["u0", "u1", "v0", "v1"]):
    ...     _ = game.move(i, v)
    >>> game.is_won()
    True
    >>> game.moves_used
    4
    """

    graph: AnyGraph
    k: int
    positions: list[Vertex | None] = field(init=False)
    moves_used: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise SchemeError("the game needs at least 2 pebbles")
        self.positions = [None] * self.k
        self._alive: set[frozenset] = {frozenset(e) for e in self.graph.edges()}

    @property
    def remaining_edges(self) -> int:
        return len(self._alive)

    def is_won(self) -> bool:
        return not self._alive

    def occupied(self) -> set[Vertex]:
        return {p for p in self.positions if p is not None}

    def move(self, pebble: int, destination: Vertex) -> list[tuple[Vertex, Vertex]]:
        """Move one pebble; returns the (possibly several) edges deleted.

        Unlike the 2-pebble game, a single placement can delete up to
        ``deg(destination)`` edges at once — every live edge from
        ``destination`` to an occupied vertex dies.
        """
        if not 0 <= pebble < self.k:
            raise SchemeError(f"pebble index out of range: {pebble}")
        if not self.graph.has_vertex(destination):
            raise VertexError(f"vertex {destination!r} does not exist")
        if destination in self.occupied():
            raise SchemeError("destination already holds a pebble")
        self.positions[pebble] = destination
        self.moves_used += 1
        deleted = []
        for other in self.occupied():
            key = frozenset((destination, other))
            if key in self._alive:
                self._alive.discard(key)
                deleted.append((destination, other))
        return deleted


def vertex_count_lower_bound(graph: AnyGraph) -> int:
    """``moves ≥ #non-isolated vertices``: deleting edge ``(u, v)``
    requires pebbles on *both* endpoints simultaneously, so every
    non-isolated vertex hosts a pebble at some point, and each hosting
    costs one move.  Tight for ``k ≥ n``: placing every vertex once wins
    in exactly ``n`` moves."""
    return graph.num_vertices - len(graph.isolated_vertices())


def degree_lower_bound(graph: AnyGraph) -> int:
    """``moves ≥ ⌈m / Δ⌉ + 1``: each move deletes at most Δ edges and the
    first move deletes none."""
    m = graph.num_edges
    if m == 0:
        return 0
    return -(-m // max(graph.degree(v) for v in graph)) + 1


def kpebble_lower_bound(graph: BipartiteGraph) -> int:
    """The larger of the vertex-count and degree bounds (valid for any k)."""
    return max(vertex_count_lower_bound(graph), degree_lower_bound(graph))


def greedy_kpebble_schedule(graph: BipartiteGraph, k: int) -> list[Vertex]:
    """A greedy placement order: each move picks the (destination, evicted
    pebble) pair deleting the most live edges *after* the eviction; ties
    prefer destinations with more remaining live edges and evictions of
    less valuable pebbles.

    Choosing destination and eviction jointly matters: scoring a
    destination against the pre-eviction occupancy can count an edge whose
    other endpoint is the pebble about to leave, stalling forever.  With
    the joint choice, a zero-gain move always places a live-edge endpoint
    whose partner scores on the following move, so an edge dies at least
    every second move and the schedule has at most ``2m + k`` moves
    (asserted below as a defensive guard).

    Returns the placement sequence; its length is the number of moves.
    """
    game = KPebbleGame(graph, k)
    order: list[Vertex] = []
    vertices = (
        list(graph.left) + list(graph.right)
        if isinstance(graph, BipartiteGraph)
        else graph.vertices
    )
    live = {frozenset(e) for e in graph.edges()}

    def future_degree(v: Vertex) -> int:
        return sum(1 for n in graph.neighbors(v) if frozenset((v, n)) in live)

    def gain(v: Vertex, kept: set[Vertex]) -> int:
        return sum(
            1
            for n in graph.neighbors(v)
            if n in kept and frozenset((v, n)) in live
        )

    next_free = 0
    guard = 2 * graph.num_edges + k + 4
    while not game.is_won():
        if len(order) > guard:
            raise SchemeError("internal error: greedy schedule failed to progress")
        occupied = game.occupied()
        candidates = [v for v in vertices if v not in occupied and future_degree(v) > 0]
        if not candidates:
            raise SchemeError("internal error: live edges but no useful vertex")
        if next_free < k:
            pebble = next_free
            next_free += 1
            best = max(
                candidates,
                key=lambda v: (gain(v, occupied), future_degree(v), repr(v)),
            )
        else:
            best_score = None
            best = None
            pebble = 0
            for slot in range(k):
                kept = occupied - {game.positions[slot]}
                slot_value = future_degree(game.positions[slot])
                for v in candidates:
                    score = (gain(v, kept), future_degree(v), -slot_value, repr(v))
                    if best_score is None or score > best_score:
                        best_score = score
                        best = v
                        pebble = slot
            assert best is not None
        deleted = game.move(pebble, best)
        for edge in deleted:
            live.discard(frozenset(edge))
        order.append(best)
    return order


def greedy_kpebble_cost(graph: BipartiteGraph, k: int) -> int:
    """Number of moves the greedy scheduler uses (∞-free; always wins)."""
    working = graph.without_isolated_vertices()
    if working.num_edges == 0:
        return 0
    return len(greedy_kpebble_schedule(working, k))


def optimal_kpebble_cost_bruteforce(graph: BipartiteGraph, k: int) -> int:
    """Exact k-pebble optimum by exhaustive search (tiny instances only).

    Searches over sequences of placements with eviction choices; bounded
    by an iterative-deepening depth limit.  Raises
    :class:`~repro.errors.InstanceTooLargeError` beyond 8 edges.
    """
    working = graph.without_isolated_vertices()
    m = working.num_edges
    if m == 0:
        return 0
    if m > 8:
        raise InstanceTooLargeError("k-pebble brute force limited to 8 edges")
    vertices = list(working.left) + list(working.right)
    all_edges = frozenset(frozenset(e) for e in working.edges())
    if isinstance(working, BipartiteGraph):
        delta = max(working.degree(v) for v in vertices)
    else:
        delta = working.max_degree()

    upper = greedy_kpebble_cost(working, k)

    # Dominance memo: the fewest moves at which each (occupied, alive)
    # state has been reached within the current budget pass; revisiting at
    # the same or higher move count cannot help.
    seen_at: dict[tuple[frozenset, frozenset], int] = {}

    def search(occupied: frozenset, alive: frozenset, moves: int, budget: int) -> bool:
        if not alive:
            return True
        # Each future move deletes at most delta edges.
        if moves + -(-len(alive) // delta) > budget:
            return False
        state = (occupied, alive)
        recorded = seen_at.get(state)
        if recorded is not None and recorded <= moves:
            return False
        seen_at[state] = moves
        live_vertices = {v for e in alive for v in e}
        for v in vertices:
            if v in occupied or v not in live_vertices:
                # Placing on a vertex with no live incident edge can never
                # help: live edges only shrink, so it stays useless.
                continue
            if len(occupied) < k:
                new_occupied = occupied | {v}
                deleted = {e for e in alive if v in e and next(iter(set(e) - {v})) in new_occupied}
                if search(new_occupied, alive - deleted, moves + 1, budget):
                    return True
            else:
                for evicted in occupied:
                    new_occupied = (occupied - {evicted}) | {v}
                    deleted = {
                        e
                        for e in alive
                        if v in e and next(iter(set(e) - {v})) in new_occupied
                    }
                    if search(new_occupied, alive - deleted, moves + 1, budget):
                        return True
        return False

    lower = kpebble_lower_bound(working)
    for budget in range(lower, upper + 1):
        seen_at.clear()
        if search(frozenset(), all_edges, 0, budget):
            return budget
    return upper
