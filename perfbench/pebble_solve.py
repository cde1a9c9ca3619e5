"""pebble-solve: about 100 join graphs through ``repro.parallel.solve_many``.

Why: ``core.solvers`` (exact, equijoin, dfs_approx, local_search),
``graphs.line_graph`` and ``parallel.fingerprint`` do the work and no
join runs.  Component sizes span 1 to about 200 edges, so the traced run
can fit time-against-edges exponents for the Thm 3.1 and Thm 4.1 solvers.

Each graph is solved with ``solve_many([g], method="auto", jobs=1)``:
inline, no solve cache, no deadline.  The join graphs are built during
set-up, so only solving is timed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any

from repro.core.families import worst_case_family
from repro.core.solvers.equijoin import is_union_of_bicliques
from repro.joins.join_graph import build_join_graph
from repro.joins.predicates import Equality, SetContainment, SpatialOverlap
from repro.parallel import solve_many
from repro.relations.storage import PagedRelation, page_connection_graph
from repro.runtime.anytime import DEGRADED_STATUSES
from repro.workloads.equijoin import zipf_equijoin_workload
from repro.workloads.sets import market_basket_workload
from repro.workloads.spatial import (
    clustered_rectangles_workload,
    map_overlay_workload,
    uniform_rectangles_workload,
)

from perfbench.common import Outcome, pick_in_band, tail_percentile, timed_call

NAME = "pebble-solve"
# Client-side latency objective (the program never sees it).
OBJECTIVE_S = 0.1
# A pass is about 90 solves of 1-3 s in all; a run makes at least two.
TAIL_PCT = tail_percentile(180)
ROOT_LAYER = "parallel.solve_many"


@dataclass
class GraphOp:
    kind: str
    graph: Any
    working: Any  # the graph without isolated vertices: what the scheme must pebble
    m: int
    upper: int  # floor(1.25 m), the Thm 3.1 bound for undegraded schemes


def _spatial(n: int, seed: int):
    left, right = uniform_rectangles_workload(n, n, seed=seed)
    return build_join_graph(left, right, SpatialOverlap())


def _clustered(n: int, seed: int):
    # One cluster per 8 rows keeps components between 2 and ~50 edges.
    left, right = clustered_rectangles_workload(n, n, clusters=max(1, n // 8), seed=seed)
    return build_join_graph(left, right, SpatialOverlap())


def _map_overlay(tiles: int, seed: int):
    left, right = map_overlay_workload(tiles, tiles + 1, seed=seed)
    return build_join_graph(left, right, SpatialOverlap())


def _market_basket(n: int, seed: int):
    left, right = market_basket_workload(n, n, seed=seed)
    return build_join_graph(left, right, SetContainment())


def _paged(n: int, seed: int):
    # A page graph that happens to be a union of bicliques would go to the
    # equijoin solver, which the bicliques family already covers; the
    # next seed is taken instead, so every paged graph runs dfs+polish.
    for attempt in range(100):
        left, right = zipf_equijoin_workload(
            n, n, key_universe=max(6, n // 8), seed=seed + attempt
        )
        graph = page_connection_graph(
            PagedRelation(left, page_size=4), PagedRelation(right, page_size=4), lambda a, b: a == b
        )
        if not is_union_of_bicliques(graph):
            return graph
    raise RuntimeError("no paged graph outside the equijoin shape")


def _bicliques(n: int, seed: int):
    left, right = zipf_equijoin_workload(n, n, key_universe=max(10, n // 2), seed=seed)
    return build_join_graph(left, right, Equality())


# (kind, make, size ladder, typical edge count m per size): each size
# is one graph per pass.  The typical m is the median over 15 seeds; each
# graph is drawn until its m falls within common.BAND of it, so every
# seed solves the same shape of work and only the contents change.
FAMILIES = (
    ("spatial", _spatial, (100, 125, 150, 175, 200) * 4,
     {100: 37, 125: 55, 150: 82, 175: 117, 200: 148}),
    ("clustered", _clustered, (60, 80, 100, 120) * 5, {60: 44, 80: 65, 100: 77, 120: 107}),
    ("map-overlay", _map_overlay, (4, 5, 4, 5), {4: 64, 5: 100}),
    ("market-basket", _market_basket, (50, 75, 100, 125, 150) * 3,
     {50: 27, 75: 47, 100: 65, 125: 82, 150: 101}),
    ("paged-equijoin", _paged, (28, 30, 32, 34, 36) * 2, {28: 47, 30: 59, 32: 61, 34: 78, 36: 79}),
    ("equijoin-bicliques", _bicliques, (30, 45, 60, 75, 90) * 2,
     {30: 133, 45: 251, 60: 356, 75: 505, 90: 679}),
    ("worst-case", None, tuple(range(2, 26, 2)), None),
)


def _edges(graph) -> int:
    return graph.without_isolated_vertices().num_edges


def build(seed: int, scale: float = 1.0) -> list[GraphOp]:
    """The seeded graph list (the set-up)."""
    rng = random.Random(seed)
    ops = []
    for kind, make, ladder, targets in FAMILIES:
        for size in ladder[: max(1, round(len(ladder) * scale))]:
            if make is None:
                graph = worst_case_family(size)
            else:
                graph = pick_in_band(
                    lambda s: make(size, s), _edges, targets[size], rng
                )
            working = graph.without_isolated_vertices()
            m = working.num_edges
            if m:
                ops.append(GraphOp(kind, graph, working, m, math.floor(1.25 * m)))
    rng.shuffle(ops)
    return ops


def check(result: Any, op: Any, outcome: Outcome) -> bool:
    """The scheme must pebble the graph, with m <= pi, and an undegraded
    scheme must also meet the Thm 3.1 bound pi <= floor(1.25 m)."""
    try:
        result.scheme.validate(op.working)
    except Exception as exc:
        outcome.fail(f"{op.kind}: invalid scheme: {exc}")
        return False
    pi = result.effective_cost
    if pi < op.m:
        outcome.fail(f"{op.kind}: pi={pi} below m={op.m}")
        return False
    degraded = result.status in DEGRADED_STATUSES or (
        result.provenance is not None and result.provenance.degradations
    )
    if not degraded and pi > op.upper:
        outcome.fail(f"{op.kind}: pi={pi} above floor(1.25 m)={op.upper}")
        return False
    return True


class Runner:
    """Times and checks one solve at a time; with a tracer, ``solve_many``
    is the root ``parallel.solve_many`` span."""

    def __init__(self, tracer=None) -> None:
        self.solve_many = solve_many
        if tracer is not None:
            self.solve_many = tracer.wrap("parallel.solve_many", solve_many)

    def run_op(self, op: GraphOp, outcome: Outcome) -> None:
        outcome.attempted += 1
        try:
            results, seconds = timed_call(self.solve_many, [op.graph], method="auto", jobs=1)
        except Exception as exc:  # a failed solve is counted, never fatal
            outcome.fail(f"{op.kind}: {type(exc).__name__}: {exc}")
            return
        outcome.latencies.append(seconds)
        if check(results[0], op, outcome):
            outcome.edges += op.m
            outcome.pi += results[0].effective_cost

    def extra_layers(self) -> dict[str, float]:
        return {}


def warm_up(ops: list[GraphOp]) -> None:
    """First solve of each family's smallest graph, outside the timed window."""
    smallest: dict[str, GraphOp] = {}
    for op in ops:
        if op.kind not in smallest or op.m < smallest[op.kind].m:
            smallest[op.kind] = op
    runner = Runner()
    for op in smallest.values():
        runner.run_op(op, Outcome())
