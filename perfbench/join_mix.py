"""join-mix: about 120 distinct join queries through ``repro.engine``.

Why: ``engine``, ``joins``, ``geometry``, ``sets`` and ``graphs.subgraph``
do almost all the work and no solver runs, so this is the control
workload for every solver change.  Execution keeps the pebbling trace on,
as by default, and ``trace_report`` dominates today.

One pass runs every query once, in a seeded order.  Each query is
rebuilt from fresh ``Relation`` objects before it is timed, so
``build_join_graph_cached``'s memo (keyed on relation identity) can never
hit and every execution pays for its own join graph.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Any

from repro.engine import JoinQuery, execute, execute_multiway
from repro.joins.join_graph import build_join_graph
from repro.joins.multiway import Atom, MultiwayQuery
from repro.joins.predicates import Equality, SetContainment, SpatialOverlap
from repro.relations.relation import Relation
from repro.workloads.equijoin import fk_pk_workload, zipf_equijoin_workload
from repro.workloads.multiway import four_cycle_query, triangle_query
from repro.workloads.sets import zipf_sets_workload
from repro.workloads.spatial import clustered_rectangles_workload, uniform_rectangles_workload

from perfbench.common import Outcome, pick_in_band, tail_percentile, timed_call
from perfbench.layers import q_error_p90

NAME = "join-mix"
# Client-side latency objective (the program never sees it).
OBJECTIVE_S = 0.1
QUERIES_PER_CLASS = 20
# Every run makes at least one pass of 6 classes x QUERIES_PER_CLASS.
TAIL_PCT = tail_percentile(6 * QUERIES_PER_CLASS)
ROOT_LAYER = "engine.execute"
# Left-side row counts, cycled through per class; the right side is an
# eighth of the left (at least 20 rows), which keeps the cross-product
# oracle affordable during set-up.
LEFT_ROWS = (100, 150, 200, 250, 300, 400)


@dataclass
class BinaryOp:
    kind: str
    left: list
    right: list
    predicate: Any
    expected: Counter  # the oracle: the naive join graph's edge multiset


@dataclass
class MultiwayOp:
    kind: str
    query: MultiwayQuery
    expected: set  # the oracle: bindings from a second multiway algorithm


def _binary_inputs(kind: str, n_left: int, seed: int) -> tuple[Relation, Relation, Any]:
    n_right = max(20, n_left // 8)
    if kind == "zipf-equi":
        left, right = zipf_equijoin_workload(
            n_left, n_right, key_universe=n_left, skew=1.0, seed=seed
        )
        return left, right, Equality()
    if kind == "fkpk-equi":
        left, right = fk_pk_workload(n_left, n_right, seed=seed)
        return left, right, Equality()
    if kind == "uniform-rect":
        left, right = uniform_rectangles_workload(n_left, n_right, seed=seed)
        return left, right, SpatialOverlap()
    if kind == "clustered-rect":
        left, right = clustered_rectangles_workload(n_left, n_right, seed=seed)
        return left, right, SpatialOverlap()
    if kind == "zipf-sets":
        left, right = zipf_sets_workload(
            n_left, n_right, universe=100, left_size=3, right_size=8, skew=1.1, seed=seed
        )
        return left, right, SetContainment()
    raise ValueError(kind)


BINARY_KINDS = ("zipf-equi", "fkpk-equi", "uniform-rect", "clustered-rect", "zipf-sets")
# (shape, skew, rows per relation, typical output size): skewed cyclic
# queries.  The zipf ones go to the binary cascade or LFTJ by size, the
# star/co-star one to LFTJ.
MULTIWAY_LADDER = (
    (triangle_query, "zipf", 150, 150),
    (triangle_query, "zipf", 300, 378),
    (four_cycle_query, "zipf", 150, 822),
    (four_cycle_query, "zipf", 300, 2866),
    (triangle_query, "worst-case", 200, 301),
)
# Typical join output size m per kind and left-side row count: the
# median over 21 seeds.  Each query is drawn until its m falls within
# common.BAND of this, so every seed runs the same shape of work and only the
# contents change.
BINARY_TARGET_M = {
    "zipf-equi": {100: 121, 150: 124, 200: 208, 250: 340, 300: 419, 400: 708},
    "fkpk-equi": {100: 100, 150: 150, 200: 200, 250: 250, 300: 300, 400: 400},
    "uniform-rect": {100: 8, 150: 10, 200: 19, 250: 27, 300: 41, 400: 72},
    "clustered-rect": {100: 34, 150: 47, 200: 83, 250: 129, 300: 176, 400: 327},
    "zipf-sets": {100: 70, 150: 106, 200: 157, 250: 261, 300: 398, 400: 730},
}


def _edge_multiset(graph) -> Counter:
    return Counter((u, v) for u in graph.left for v in graph.neighbors(u))


def _other_algorithm(query: MultiwayQuery) -> set:
    """The reference binding set, from generic join: the planner only ever
    picks LFTJ or the binary cascade, so this is always a second
    algorithm."""
    return execute_multiway(query, algorithm="generic", with_trace=False).result.binding_set()


def _accelerated_edges(inputs) -> int:
    left, right, predicate = inputs
    return build_join_graph(left, right, predicate).num_edges


def _lftj_output(query: MultiwayQuery) -> int:
    return execute_multiway(query, algorithm="lftj", with_trace=False).result.output_size


def build(seed: int, scale: float = 1.0) -> list:
    """The seeded query list with its oracles (the set-up)."""
    rng = random.Random(seed)
    per_class = max(1, round(QUERIES_PER_CLASS * scale))
    ops: list = []
    for kind in BINARY_KINDS:
        for i in range(per_class):
            rows = LEFT_ROWS[i % len(LEFT_ROWS)]
            n_left = max(8, round(rows * scale))
            left, right, predicate = pick_in_band(
                lambda s: _binary_inputs(kind, n_left, s),
                _accelerated_edges,
                BINARY_TARGET_M[kind][rows] * scale * scale,
                rng,
            )
            oracle = build_join_graph(left, right, predicate, accelerate=False)
            ops.append(
                BinaryOp(kind, left.values, right.values, predicate, _edge_multiset(oracle))
            )
    for i in range(per_class):
        shape, skew, rows, target = MULTIWAY_LADDER[i % len(MULTIWAY_LADDER)]
        n = max(8, round(rows * scale))
        query = pick_in_band(
            lambda s: shape(n, skew=skew, seed=s), _lftj_output, target * scale, rng
        )
        ops.append(MultiwayOp(f"{shape.__name__}-{skew}", query, _other_algorithm(query)))
    rng.shuffle(ops)
    return ops


def fresh_query(op) -> Any:
    """A new query object with new relations, equal in content to ``op``'s."""
    if isinstance(op, BinaryOp):
        return JoinQuery(Relation("R", op.left), Relation("S", op.right), op.predicate)
    return MultiwayQuery(
        atoms=tuple(Atom(a.name, a.variables, a.rows) for a in op.query.atoms)
    )


class Runner:
    """Times and checks one query at a time; with a tracer, the executor
    entry points are the root ``engine.execute`` spans."""

    def __init__(self, tracer=None) -> None:
        self.execute = execute
        self.execute_multiway = execute_multiway
        if tracer is not None:
            self.execute = tracer.wrap("engine.execute", execute)
            self.execute_multiway = tracer.wrap("engine.execute", execute_multiway)
        self.tracer = tracer
        self.records: list = []
        self.lftj_agm = 0.0

    def run_op(self, op, outcome: Outcome) -> None:
        query = fresh_query(op)
        outcome.attempted += 1
        try:
            if isinstance(op, BinaryOp):
                result, seconds = timed_call(self.execute, query)
            else:
                result, seconds = timed_call(self.execute_multiway, query)
        except Exception as exc:  # a failed query is counted, never fatal
            outcome.fail(f"{op.kind}: {type(exc).__name__}: {exc}")
            return
        outcome.latencies.append(seconds)
        if result.plan is not None:
            self.records.append(result.plan.record)
        if isinstance(op, BinaryOp):
            if Counter(result.pairs) != op.expected:
                outcome.fail(f"{op.kind}: pairs differ from the naive join graph")
                return
            report = result.trace
        else:
            if result.plan is not None and result.plan.algorithm_name == "lftj":
                self.lftj_agm += result.agm
            if result.result.binding_set() != op.expected:
                outcome.fail(f"{op.kind}: bindings differ from the reference algorithm")
                return
            report = result.trace.report if result.trace is not None else None
        if report is None:
            outcome.fail(f"{op.kind}: no pebbling trace")
            return
        outcome.edges += report.output_size
        outcome.pi += report.effective_cost

    def extra_layers(self) -> dict[str, float]:
        intermediates = self.tracer.counts["joins.multiway.lftj_intermediates"] if self.tracer else 0
        return {
            "engine.plan.q_error_p90": q_error_p90(self.records),
            "joins.multiway.intermediates_per_agm": (
                intermediates / self.lftj_agm if self.lftj_agm else 0.0
            ),
        }


def warm_up(ops: list) -> None:
    """First calls of every query class, outside the timed window."""
    runner = Runner()
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            runner.run_op(op, Outcome())
