"""The server's dispatcher: one request through the parallel solve pipeline.

This is :func:`repro.parallel.service.solve_many` re-plumbed for an
event loop.  The stages are the same — decompose into components,
fingerprint, consult the shared two-tier cache, fan the misses out,
reassemble per Lemma 2.2 — but the fan-out *awaits* worker futures
instead of blocking on them, so many requests interleave on one
:class:`~repro.parallel.pool.WorkerPool` without a thread per request.

Single-threading discipline: every cache consult/store and every
observability emission happens on the event-loop thread; only the pure
component solve crosses into a worker process (as a picklable
:class:`~repro.parallel.pool.SolveTask`), and its shipped observations
are merged back on the loop thread.  With ``pool=None`` components solve
inline on the loop thread — the test and smoke configuration, and the
degenerate ``jobs=1`` server.

Deadlines propagate as plain numbers: the request's
:class:`~repro.runtime.budget.Budget` is armed on admission, and each
component task gets :func:`~repro.parallel.service.split_deadline` of
``budget.remaining()`` — so time spent queueing behind other requests
*counts against* the request's own deadline, and an already-exhausted
budget yields zero-share solves that degrade instantly to an answer
instead of erroring.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.core.solvers.registry import solve as registry_solve
from repro.engine.executor import execute as engine_execute
from repro.engine.planner import plan as engine_plan
from repro.engine.query import JoinQuery
from repro.errors import GraphError, PredicateError, RelationError
from repro.graphs.components import split_components
from repro.graphs.io import load_bipartite, load_graph
from repro.joins import predicates as predicate_module
from repro.obs import context as obs_context
from repro.obs import metrics as obs_metrics
from repro.obs import planquality
from repro.obs import trace as obs_trace
from repro.parallel import pool as pool_mod
from repro.parallel.cache import CacheToken, SolveCache, cache_key, use_cache
from repro.parallel.fingerprint import CanonicalForm, canonical_form
from repro.parallel.service import (
    assemble_components,
    rebind_result,
    split_deadline,
)
from repro.relations.io import load_relation
from repro.runtime import faults
from repro.runtime.budget import Budget
from repro.server.protocol import (
    ERROR_INVALID_GRAPH,
    OP_EXPLAIN,
    OP_SOLVE,
    ProtocolError,
    Request,
)

AnyGraph = pool_mod.AnyGraph

# The explain op's wire predicate names, mapped to their constructors
# ("band" is special-cased: it carries a width).
EXPLAIN_PREDICATES = {
    "containment": predicate_module.SetContainment,
    "equality": predicate_module.Equality,
    "overlap": predicate_module.SpatialOverlap,
    "set-overlap": predicate_module.SetOverlap,
}


def parse_graph_text(text: str) -> AnyGraph:
    """Load a request's graph payload, sniffing the variant.

    The text format declares plain graphs with ``V`` lines and bipartite
    graphs with ``L``/``R`` lines (:mod:`repro.graphs.io`); the first
    tagged line decides.  Defects become ``invalid_graph`` protocol
    errors, never tracebacks.
    """
    variant = "bipartite"
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "graph" in line and "bipartite" not in line:
                variant = "graph"
            break
        tag = line.split(None, 1)[0]
        if tag == "V":
            variant = "graph"
        break
    try:
        if variant == "graph":
            return load_graph(text)
        return load_bipartite(text)
    except GraphError as exc:
        raise ProtocolError(ERROR_INVALID_GRAPH, str(exc)) from exc


class Dispatcher:
    """Shared solve machinery behind every connection of one server.

    One dispatcher owns the server's :class:`SolveCache` and (optionally)
    its :class:`~repro.parallel.pool.WorkerPool`; :meth:`handle` is
    called once per admitted solve/plan request, concurrently.
    """

    def __init__(
        self,
        cache: SolveCache | None = None,
        pool: pool_mod.WorkerPool | None = None,
        default_deadline: float | None = None,
        memo_cap: int | None = None,
    ) -> None:
        self.cache = cache
        self.pool = pool
        self.default_deadline = default_deadline
        self.memo_cap = memo_cap

    async def handle(self, request: Request) -> dict[str, Any]:
        """Serve one ``solve``/``plan``/``explain`` request; returns the
        result payload.

        Raises :class:`ProtocolError` for defective graphs; budget
        exhaustion is *not* an error — it surfaces as a degraded
        ``status`` in an ok response, exactly like the CLI.

        When tracing is enabled the whole dispatch is timed as a
        *detached* ``server.dispatch`` span (stack-free, because the
        region stays open across ``await`` points while other requests
        interleave) and the ambient trace context is re-rooted under it,
        so every solver span — inline or shipped home from a worker —
        hangs off this request's dispatch.
        """
        ctx = obs_context.current()
        with obs_trace.detached_span(
            "server.dispatch",
            id=request.id,
            op=request.op,
            method=request.method,
        ) as dispatch_span:
            if ctx is not None and dispatch_span is not None:
                ctx = ctx.child(dispatch_span.index)
            with obs_context.use(ctx):
                if request.op == OP_EXPLAIN:
                    return await self._explain(request)
                return await self._dispatch(request)

    async def _explain(self, request: Request) -> dict[str, Any]:
        """Plan (and with ``options.analyze`` execute) one join described
        by relation texts; returns the plan's structured record plus its
        renderings.

        ``options.shadow`` (with ``analyze``) additionally shadow-executes
        the runner-up candidates on small inputs so the record carries
        plan-regret.  The ``record`` payload is byte-for-byte what
        ``repro explain --json`` emits locally — one source of truth for
        both surfaces.
        """
        assert request.left_text is not None and request.right_text is not None
        faults.maybe_fail("server.dispatch")
        try:
            left = load_relation("R", request.left_text)
            right = load_relation("S", request.right_text)
        except RelationError as exc:
            raise ProtocolError(ERROR_INVALID_GRAPH, str(exc)) from exc
        if request.predicate == "band":
            predicate = predicate_module.Band(request.band_width)
        else:
            predicate = EXPLAIN_PREDICATES[request.predicate]()
        deadline = request.deadline
        if deadline is None:
            deadline = self.default_deadline
        budget = Budget(deadline=deadline) if deadline is not None else None
        if budget is not None:
            budget.start()
        options = request.options
        try:
            query = JoinQuery(left, right, predicate)
            if options.get("analyze"):
                result = engine_execute(
                    query, budget=budget, shadow=bool(options.get("shadow"))
                )
                the_plan = result.plan
                text = result.explain_analyze()
            else:
                the_plan = engine_plan(query, budget=budget)
                text = the_plan.explain()
        except PredicateError as exc:
            # Relations that do not fit the predicate (e.g. equality over
            # mixed domains) are a client input defect, not a server bug.
            raise ProtocolError(ERROR_INVALID_GRAPH, str(exc)) from exc
        payload: dict[str, Any] = {
            "schema": planquality.PLAN_SCHEMA,
            "explain": text,
            "algorithm": the_plan.algorithm_name,
        }
        record = the_plan.record
        if record is not None:
            payload["render"] = record.render()
            payload["record"] = record.as_dict()
        return payload

    async def _dispatch(self, request: Request) -> dict[str, Any]:
        assert request.graph_text is not None
        # Chaos hook: an installed FaultPlan may fail the dispatch
        # outright (the server answers `internal` and lives on) ...
        faults.maybe_fail("server.dispatch")
        graph = parse_graph_text(request.graph_text)
        deadline = request.deadline
        if deadline is None:
            deadline = self.default_deadline
        # Armed now: queue time and cache time burn the request's budget.
        budget = Budget(deadline=deadline) if deadline is not None else None
        plan = faults.active_plan()
        if budget is not None and plan is not None and plan.starvation > 1:
            # ... or starve the request's budget (a machine `k` times
            # slower than the deadline was sized for), pushing solves
            # down the degradation ladder instead of past the deadline.
            budget = plan.starve(budget)
        if budget is not None:
            budget.start()

        method = request.method
        options = dict(request.options)

        # Decompose + dedupe + consult the shared cache (loop thread).
        keys: list[tuple[str, CanonicalForm]] = []
        solved: dict[str, Any] = {}
        rep_forms: dict[str, CanonicalForm] = {}
        pending: dict[str, AnyGraph] = {}
        for component in split_components(graph):
            form = canonical_form(component)
            key = cache_key(form, method, options)
            keys.append((key, form))
            if key in solved or key in pending:
                continue
            rep_forms[key] = form
            if self.cache is not None:
                hit, _token = self.cache.consult(component, method, options)
                if hit is not None:
                    solved[key] = hit
                    continue
            pending[key] = component

        cached_components = len(solved)
        tasks = list(pending.items())
        if obs_metrics.METRICS.enabled:
            obs_metrics.inc("server.components", len(keys))
            obs_metrics.inc("server.components.solved", len(tasks))

        # Fan the misses out — or solve inline when there is no pool.
        if tasks:
            jobs = self.pool.jobs if self.pool is not None else 1
            share = split_deadline(
                budget.remaining() if budget is not None else None,
                len(tasks),
                jobs,
            )
            if self.pool is None:
                # Inline on the loop thread — registry.solve directly, as
                # in solve_many's jobs=1 path (pool_mod.solve_task is
                # worker-only: it resets this process's collectors).  The
                # ambient cache is masked: it was consulted above.
                for key, component in tasks:
                    with use_cache(None):
                        solved[key] = registry_solve(
                            component,
                            method,
                            deadline=share,
                            memo_cap=self.memo_cap,
                            **options,
                        )
                    # Yield between inline solves so ping/stats requests
                    # on other connections stay responsive.
                    await asyncio.sleep(0)
            else:
                loop = asyncio.get_running_loop()
                payloads = [
                    pool_mod.SolveTask(
                        graph=component,
                        method=method,
                        options=options,
                        deadline=share,
                        memo_cap=self.memo_cap,
                        metrics_enabled=obs_metrics.METRICS.enabled,
                        trace=obs_context.current(),
                        trace_enabled=obs_trace.TRACER.enabled,
                    )
                    for _key, component in tasks
                ]
                # The whole batch goes through the self-healing
                # dispatcher on a harness thread: it blocks on worker
                # futures (collecting in submission order — deterministic
                # obs merging and reassembly, same rule as solve_many)
                # and survives killed workers by healing the shared pool
                # and re-dispatching only the lost tasks.  The loop
                # thread just awaits the batch, so other requests keep
                # interleaving.
                outcomes = await loop.run_in_executor(
                    None,
                    lambda: pool_mod.dispatch_resilient(
                        self.pool,
                        payloads,
                        keys=[key for key, _component in tasks],
                    ),
                )
                for (key, _component), outcome in zip(tasks, outcomes):
                    pool_mod.merge_observations(outcome)
                    solved[key] = outcome.result
            if self.cache is not None:
                for key, component in tasks:
                    self.cache.store(
                        CacheToken(key=key, form=rep_forms[key]),
                        solved[key],
                    )

        result = assemble_components(
            method,
            [
                rebind_result(solved[key], rep_forms[key], form)
                for key, form in keys
            ],
        )

        payload: dict[str, Any] = {
            "method": result.method,
            "effective_cost": result.effective_cost,
            "raw_cost": result.raw_cost,
            "jumps": result.jumps,
            "optimal": result.optimal,
            "status": result.status,
            "components": len(keys),
            "cached_components": cached_components,
            "solved_components": len(tasks),
        }
        if result.provenance is not None:
            payload["degradations"] = list(result.provenance.degradations)
        if request.op == OP_SOLVE:
            payload["scheme"] = [
                [str(a), str(b)] for a, b in result.scheme.configurations
            ]
        return payload


__all__ = ["Dispatcher", "parse_graph_text"]
