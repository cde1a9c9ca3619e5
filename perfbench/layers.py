"""The per-layer metric set and how a traced window turns into it.

Every traced run reports every metric below, on every workload; a layer
a workload does not exercise reports 0.  The comment on each group names
the end-to-end metric it should move, and on which workload (the same
map is in README.md).
"""

from __future__ import annotations

from typing import Any

from perfbench.common import fit_exponent, quantile
from perfbench.tracer import Tracer

# (metric name, unit)
PER_LAYER: tuple[tuple[str, str], ...] = (
    # join-mix latency_p50_ms; the q-error moves join-mix pi_ratio
    ("engine.plan.ms", "ms"),
    ("engine.plan.calls", "count"),
    ("engine.plan.q_error_p90", "ratio"),
    # join-mix latency_p50_ms (materialize and feedback loop)
    ("engine.execute.self_ms", "ms"),
    # join-mix edges_per_s
    ("joins.algorithms.ms", "ms"),
    ("joins.algorithms.pairs", "count"),
    # join-mix latency_p50_ms
    ("geometry.ms", "ms"),
    ("sets.ms", "ms"),
    # join-mix latency_tail_ms
    ("joins.join_graph.ms", "ms"),
    ("joins.join_graph.edges", "count"),
    # join-mix latency_tail_ms and ops_per_s
    ("joins.trace.ms", "ms"),
    # join-mix latency_p50_ms
    ("joins.multiway.ms", "ms"),
    ("joins.multiway.intermediates_per_agm", "ratio"),
    # join-mix latency_tail_ms
    ("core.costs.ms", "ms"),
    # join-mix latency_tail_ms, pebble-solve latency_p50_ms
    ("graphs.subgraph.ms", "ms"),
    ("graphs.subgraph.calls", "count"),
    ("graphs.components.ms", "ms"),
    # pebble-solve edges_per_s
    ("graphs.line_graph.ms", "ms"),
    # pebble-solve latency_p50_ms
    ("core.solvers.exact.ms", "ms"),
    ("core.solvers.equijoin.ms", "ms"),
    ("core.solvers.registry.self_ms", "ms"),
    ("core.solvers.components.exact", "count"),
    ("core.solvers.components.equijoin", "count"),
    ("core.solvers.components.dfs_polish", "count"),
    # pebble-solve edges_per_s and latency_tail_ms
    ("core.solvers.dfs_approx.ms", "ms"),
    ("core.solvers.local_search.ms", "ms"),
    # pebble-solve edges_per_s (Thm 3.1 and Thm 4.1 claim 1.0)
    ("core.solvers.dfs_approx.time_exponent", "slope"),
    ("core.solvers.dfs_approx.time_exponent.samples", "count"),
    ("core.solvers.dfs_approx.time_exponent.edges_min", "count"),
    ("core.solvers.dfs_approx.time_exponent.edges_max", "count"),
    ("core.solvers.equijoin.time_exponent", "slope"),
    ("core.solvers.equijoin.time_exponent.samples", "count"),
    ("core.solvers.equijoin.time_exponent.edges_min", "count"),
    ("core.solvers.equijoin.time_exponent.edges_max", "count"),
    # pebble-solve ops_per_s, serve-zipf latency_p50_ms
    ("parallel.fingerprint.ms", "ms"),
    ("parallel.solve_many.self_ms", "ms"),
    ("parallel.dedupe_ratio", "ratio"),
    # serve-zipf latency_p50_ms (transport and event-loop floor)
    ("server.ping_rtt_p50_ms", "ms"),
    # serve-zipf latency_p50_ms (inside the server process)
    ("server.protocol.ms", "ms"),
    ("server.dispatch.ms", "ms"),
    ("parallel.cache.ms", "ms"),
    # serve-zipf latency_p50_ms and latency_tail_ms
    ("server.hit_latency_p50_ms", "ms"),
    ("server.miss_latency_p50_ms", "ms"),
    # serve-zipf latency_p50_ms and error_share
    ("parallel.cache.hit_rate", "ratio"),
    ("server.admission.rejected_total", "count"),
    # solve-deadline deadline_overshoot_p50
    ("core.solvers.dfs_approx.ms_past_deadline", "ms"),
    ("core.solvers.local_search.ms_past_deadline", "ms"),
    ("runtime.budget.deadline_met_share", "ratio"),
    # none: how good the attribution is and what tracing costs
    ("unattributed_share", "ratio"),
    ("trace_overhead_share", "ratio"),
)

# Layers whose self time is reported as "<layer>.ms".
_MS_LAYERS = (
    "engine.plan",
    "joins.algorithms",
    "geometry",
    "sets",
    "joins.join_graph",
    "joins.trace",
    "joins.multiway",
    "core.costs",
    "graphs.subgraph",
    "graphs.components",
    "graphs.line_graph",
    "core.solvers.exact",
    "core.solvers.equijoin",
    "core.solvers.dfs_approx",
    "core.solvers.local_search",
    "parallel.fingerprint",
    "server.protocol",
    "server.dispatch",
    "parallel.cache",
)


def from_tracer(
    tracer: Tracer,
    traced_s: float,
    passes: int,
    roots: tuple[str, ...] = (),
) -> dict[str, float]:
    """Per-layer values of one traced window, per pass of the workload.

    ``traced_s`` is the time the traced work took and ``roots`` the spans
    the workload opens around each operation itself.
    ``unattributed_share`` is the share of ``traced_s`` that no layer
    below the roots covers: the roots' own self time plus the cost of the
    spans.  ``trace_overhead_share`` is left to ``overhead_share``.
    """
    per_pass = 1.0 / max(passes, 1)
    out: dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    for layer in _MS_LAYERS:
        out[f"{layer}.ms"] = tracer.self_time.get(layer, 0.0) * 1e3 * per_pass
    out["engine.plan.calls"] = tracer.calls["engine.plan"] * per_pass
    out["engine.execute.self_ms"] = tracer.self_time.get("engine.execute", 0.0) * 1e3 * per_pass
    out["joins.algorithms.pairs"] = tracer.counts["joins.algorithms.pairs"] * per_pass
    out["joins.join_graph.edges"] = tracer.counts["joins.join_graph.edges"] * per_pass
    out["graphs.subgraph.calls"] = tracer.calls["graphs.subgraph"] * per_pass
    out["core.solvers.registry.self_ms"] = (
        tracer.self_time.get("core.solvers.registry", 0.0) * 1e3 * per_pass
    )
    for method, key in (("exact", "exact"), ("equijoin", "equijoin"), ("dfs+polish", "dfs_polish")):
        out[f"core.solvers.components.{key}"] = (
            tracer.counts[f"core.solvers.components.{method}"] * per_pass
        )
    for layer in ("core.solvers.dfs_approx", "core.solvers.equijoin"):
        # Components under 4 edges measure call overhead, not the algorithm.
        fit = fit_exponent(tracer.samples.get(layer, []), min_size=4)
        out[f"{layer}.time_exponent"] = fit["exponent"]
        out[f"{layer}.time_exponent.samples"] = fit["samples"]
        out[f"{layer}.time_exponent.edges_min"] = fit["edges_min"]
        out[f"{layer}.time_exponent.edges_max"] = fit["edges_max"]
    out["parallel.solve_many.self_ms"] = (
        tracer.self_time.get("parallel.solve_many", 0.0) * 1e3 * per_pass
    )
    seen = tracer.counts["parallel.components_seen"]
    solved = sum(
        tracer.counts[f"core.solvers.components.{m}"] for m in ("exact", "equijoin", "dfs+polish")
    )
    out["parallel.dedupe_ratio"] = solved / seen if seen else 0.0
    for layer in ("core.solvers.dfs_approx", "core.solvers.local_search"):
        out[f"{layer}.ms_past_deadline"] = tracer.past_deadline.get(layer, 0.0) * 1e3 * per_pass
    unattributed = max(0.0, traced_s - tracer.attributed(roots))
    out["unattributed_share"] = unattributed / traced_s if traced_s > 0 else 0.0
    return out


def overhead_share(traced_s: float, untraced_s: float) -> float:
    """The share of the traced time that tracing added, from two timings
    of the same work; negative when the machine's noise exceeded it."""
    return (traced_s - untraced_s) / traced_s if traced_s > 0 else 0.0


def q_error_p90(records: list[Any]) -> float:
    """p90 of the plan records' q-errors (records without one skipped)."""
    errors = [r.q_error for r in records if r is not None and r.q_error is not None]
    return quantile(errors, 0.90)
