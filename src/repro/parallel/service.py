"""``solve_many``: the parallel, cache-aware batch solve service.

Lemma 2.2 (additivity) is what makes this safe: the components of a join
graph are pebbled independently and their costs add, so per-component
work can fan out across processes and reassemble without changing any
answer.  The pipeline per batch:

1. **decompose** — every input graph is split once into its connected
   components by :func:`~repro.graphs.components.split_components`
   (isolated vertices dropped, matching the paper's convention);
2. **dedupe + cache** — each component is fingerprinted
   (:mod:`repro.parallel.fingerprint`); structurally identical
   components collapse into one task, and an installed
   :class:`~repro.parallel.cache.SolveCache` is consulted per unique
   fingerprint;
3. **fan out** — remaining tasks run on a ``ProcessPoolExecutor``
   (``jobs`` workers; ``jobs=1`` solves inline with identical code
   paths), each worker shipping its metrics/events home for merging
   (:mod:`repro.parallel.pool`);
4. **reassemble** — per input graph, component schemes are stitched in
   canonical component order in one concatenation; costs add per
   Lemma 2.2 (the stitched scheme's cost *equals* the sum of component
   costs, which :meth:`~repro.core.scheme.PebblingScheme.cost`
   re-derives), statuses merge to the most degraded, provenance is
   pooled.

Results are **deterministic in the job count**: ``jobs=4`` returns
byte-identical costs, schemes, and statuses to ``jobs=1``, because task
order, reassembly order, and counter merging are all fixed by input
order, never completion order.

Budgets survive the pool cooperatively: a ``deadline=`` for the whole
batch is split evenly across dispatch *waves* (``ceil(tasks / jobs)``
of them), so every worker solve gets an enforceable share and the batch
still lands inside the overall deadline.  Budget objects themselves
never cross the process boundary — only plain numbers do.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import replace
from typing import Any, Sequence

from repro.core.scheme import PebblingScheme
from repro.core.solvers.registry import METHODS, SolveResult, solve
from repro.errors import SolverError
from repro.graphs.components import split_components
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.parallel import pool as pool_mod
from repro.parallel.cache import (
    CacheToken,
    SolveCache,
    cache_key,
    current_cache,
    use_cache,
)
from repro.parallel.fingerprint import (
    CanonicalForm,
    canonical_form,
    decode_scheme,
    encode_scheme,
)
from repro.parallel.pool import SolveTask
from repro.runtime.anytime import (
    STATUS_BUDGET_EXHAUSTED,
    STATUS_COMPLETE,
    STATUS_OPTIMAL,
    STATUS_TIMED_OUT,
    SolveProvenance,
)

AnyGraph = pool_mod.AnyGraph

# Most-degraded-wins ordering for merging per-component statuses.
_STATUS_SEVERITY = {
    STATUS_OPTIMAL: 0,
    STATUS_COMPLETE: 1,
    STATUS_BUDGET_EXHAUSTED: 2,
    STATUS_TIMED_OUT: 3,
}


def split_deadline(
    deadline: float | None, tasks: int, jobs: int
) -> float | None:
    """The per-task deadline share: the batch deadline divided across
    dispatch waves (``ceil(tasks / jobs)``), so the whole batch finishes
    inside ``deadline`` no matter how tasks queue behind the workers.

    The share is clamped at 0.0: a zero (or already-overrun, i.e.
    negative-remaining) deadline yields a zero share, which is a *valid*
    cooperative budget — every solve trips on its first checkpoint and
    degrades through the ladder to an instant answer — rather than a
    ``Budget`` constructor error deep inside a worker.
    """
    if deadline is None or tasks == 0:
        return None
    waves = math.ceil(tasks / max(1, jobs))
    return max(0.0, deadline / waves)


def _merge_status(statuses: Sequence[str]) -> str:
    if not statuses:
        return STATUS_OPTIMAL
    return max(statuses, key=lambda s: _STATUS_SEVERITY.get(s, 1))


def _merge_provenance(
    results: Sequence[SolveResult],
) -> SolveProvenance | None:
    """Pool per-component provenance: nodes and elapsed time add (total
    work), lower bounds add (Lemma 2.2), degradations concatenate in
    component order."""
    carrying = [r.provenance for r in results if r.provenance is not None]
    if not carrying:
        return None
    bounds = [p.lower_bound for p in carrying]
    return SolveProvenance(
        nodes_expanded=sum(p.nodes_expanded for p in carrying),
        elapsed_seconds=sum(p.elapsed_seconds for p in carrying),
        lower_bound=None
        if any(b is None for b in bounds)
        else sum(b for b in bounds if b is not None),
        degradations=tuple(
            step for p in carrying for step in p.degradations
        ),
    )


def assemble_components(
    method: str,
    component_results: Sequence[SolveResult],
) -> SolveResult:
    """Stitch per-component results back into one graph-level result.

    ``component_results`` holds one result per connected component with
    at least one edge, in canonical component order, so ``β₀`` is their
    number.  Component schemes concatenate in that order, in one pass;
    the transition between two components always moves both pebbles, so
    the stitched raw cost is exactly the sum of component raw costs
    (Lemma 2.2).  It is recomputed from the stitched scheme rather than
    trusted, and the effective cost is that raw cost minus ``β₀``.
    """
    if not component_results:
        empty = PebblingScheme(())
        return SolveResult(
            scheme=empty,
            method=method,
            effective_cost=0,
            raw_cost=0,
            jumps=0,
            optimal=True,
            status=STATUS_OPTIMAL,
        )
    if len(component_results) == 1:
        return component_results[0]
    scheme = PebblingScheme(
        config for part in component_results for config in part.scheme
    )
    raw_cost = scheme.cost()
    methods = {r.method for r in component_results}
    merged_method = methods.pop() if len(methods) == 1 else method
    status = _merge_status([r.status for r in component_results])
    optimal = all(r.optimal for r in component_results)
    return SolveResult(
        scheme=scheme,
        method=merged_method,
        effective_cost=raw_cost - len(component_results),
        raw_cost=raw_cost,
        jumps=scheme.jumps(),
        optimal=optimal and status == STATUS_OPTIMAL,
        status=status,
        provenance=_merge_provenance(component_results),
    )


def solve_many(
    graphs: Sequence[AnyGraph],
    method: str = "auto",
    jobs: int = 1,
    cache: SolveCache | None = None,
    deadline: float | None = None,
    memo_cap: int | None = None,
    pool: pool_mod.WorkerPool | None = None,
    **options: Any,
) -> list[SolveResult]:
    """Solve PEBBLE on every graph in ``graphs``; results in input order.

    ``jobs`` is the worker-process count (1 = inline, no pool).
    ``cache`` overrides the ambient solve cache installed by
    :func:`repro.parallel.cache.use_cache`; structurally identical
    components are solved once per call even with no cache at all.
    ``deadline`` / ``memo_cap`` are cooperative batch budgets, split
    across workers (see :func:`split_deadline`); remaining ``options``
    are forwarded to :func:`repro.core.solvers.registry.solve`.

    ``pool`` shares a long-lived :class:`~repro.parallel.pool.WorkerPool`
    across calls (the ``repro serve`` path): tasks are submitted to the
    existing executor, which is **not** shut down afterwards, and the
    pool's ``jobs`` governs the wave math.  Without it, a throwaway
    executor is built per call exactly as before.
    """
    if method not in METHODS:
        raise SolverError(f"unknown method {method!r}; choose from {METHODS}")
    if pool is not None:
        jobs = pool.jobs
    if jobs < 1:
        raise SolverError(f"jobs must be >= 1, got {jobs}")
    graphs = list(graphs)
    the_cache = cache if cache is not None else current_cache()

    with obs_trace.span(
        "parallel.solve_many", graphs=len(graphs), jobs=jobs, method=method
    ):
        return _solve_many(
            graphs, method, jobs, the_cache, deadline, memo_cap, options, pool
        )


def _detect_skew(tasks: Sequence[tuple[str, AnyGraph]], jobs: int) -> None:
    """Flag a wave dominated by one huge component (ROADMAP item 3's
    measurement hook).

    ``solve_many`` dedupes components but never *splits* one, so a batch
    whose largest component holds the majority of the edges parallelizes
    badly: every other worker drains its queue and idles while one
    grinds.  When that happens (>1 task and the largest component has
    more edges than all others combined) a ``pool.skew`` event and
    counter record the shape, so sharded/skew-aware work has a baseline
    to beat.  Detection only — behaviour is unchanged.
    """
    if len(tasks) < 2:
        return
    if not (obs_metrics.METRICS.enabled or obs_events.EVENTS.enabled):
        return
    sizes = [component.num_edges for _key, component in tasks]
    total = sum(sizes)
    biggest = max(sizes)
    if biggest * 2 <= total:
        return
    dominant_key = tasks[sizes.index(biggest)][0]
    if obs_metrics.METRICS.enabled:
        obs_metrics.inc("parallel.pool.skew")
    if obs_events.EVENTS.enabled:
        obs_events.emit(
            obs_events.EVENT_POOL_SKEW,
            fingerprint=dominant_key.split(":", 1)[0][:12],
            edges=biggest,
            total_edges=total,
            tasks=len(tasks),
            jobs=jobs,
        )


def _solve_many(
    graphs: list[AnyGraph],
    method: str,
    jobs: int,
    cache: SolveCache | None,
    deadline: float | None,
    memo_cap: int | None,
    options: dict[str, Any],
    pool: pool_mod.WorkerPool | None = None,
) -> list[SolveResult]:
    # 1+2. Decompose and dedupe.  `plans` maps each input graph to its
    # components' (key, canonical form) pairs, in canonical component
    # order; `pending` holds one representative subgraph per unique
    # uncached key.  `rep_forms` remembers which component's labels each
    # deduped result is bound to, so reassembly can rehydrate the scheme
    # onto structurally identical siblings with different labels.
    plans: list[list[tuple[str, CanonicalForm]]] = []
    solved: dict[str, SolveResult] = {}
    rep_forms: dict[str, CanonicalForm] = {}
    pending: dict[str, AnyGraph] = {}
    total_components = 0
    for graph in graphs:
        keys: list[tuple[str, CanonicalForm]] = []
        for component in split_components(graph):
            form = canonical_form(component)
            key = cache_key(form, method, options)
            keys.append((key, form))
            total_components += 1
            if key in solved or key in pending:
                continue
            rep_forms[key] = form
            if cache is not None:
                hit, _token = cache.consult(component, method, options)
                if hit is not None:
                    solved[key] = hit
                    continue
            pending[key] = component
        plans.append(keys)

    if obs_metrics.METRICS.enabled:
        obs_metrics.inc("parallel.solve_many.calls")
        obs_metrics.inc("parallel.solve_many.graphs", len(graphs))
        obs_metrics.inc("parallel.solve_many.components", total_components)
        obs_metrics.inc("parallel.pool.tasks", len(pending))

    # 3. Fan out (or solve inline) the unique uncached components.
    tasks = list(pending.items())
    share = split_deadline(deadline, len(tasks), jobs)
    if tasks:
        _detect_skew(tasks, jobs)
        if (pool is None and jobs == 1) or len(tasks) == 1:
            for key, component in tasks:
                _emit_task_event(
                    obs_events.EVENT_POOL_TASK_START, key, method, jobs
                )
                # Mask the ambient cache: it was already consulted above,
                # and the per-solve consult must not double-count.
                with use_cache(None):
                    result = solve(
                        component,
                        method,
                        deadline=share,
                        memo_cap=memo_cap,
                        **options,
                    )
                solved[key] = result
                _emit_task_event(
                    obs_events.EVENT_POOL_TASK_END, key, method, jobs,
                    status=result.status,
                )
        else:
            payloads = [
                SolveTask(
                    graph=component,
                    method=method,
                    options=dict(options),
                    deadline=share,
                    memo_cap=memo_cap,
                    metrics_enabled=obs_metrics.METRICS.enabled,
                    events_enabled=obs_events.EVENTS.enabled,
                )
                for _key, component in tasks
            ]
            keys = [key for key, _component in tasks]
            # A shared WorkerPool outlives the call; a throwaway pool is
            # torn down with it.  Either way dispatch goes through the
            # self-healing dispatcher, which collects in submission order
            # (reassembly and obs merging stay deterministic) and
            # survives killed workers (docs/ROBUSTNESS.md).
            if pool is not None:
                pool_cm: Any = contextlib.nullcontext(pool)
            else:
                pool_cm = pool_mod.WorkerPool(max(1, min(jobs, len(tasks))))
            with pool_cm as live_pool:
                outcomes = pool_mod.dispatch_resilient(
                    live_pool, payloads, keys=keys
                )
            for key, outcome in zip(keys, outcomes):
                pool_mod.merge_observations(outcome)
                solved[key] = outcome.result
        if cache is not None:
            for key, component in tasks:
                cache.store(
                    CacheToken(key=key, form=rep_forms[key]),
                    solved[key],
                )

    # 4. Reassemble per input graph, in input order.
    return [
        assemble_components(
            method,
            [
                rebind_result(solved[key], rep_forms[key], form)
                for key, form in keys
            ],
        )
        for keys in plans
    ]


def rebind_result(
    result: SolveResult, source: CanonicalForm, target: CanonicalForm
) -> SolveResult:
    """Re-express a deduped result on a structurally identical component.

    The result's scheme is bound to the labels of the component that was
    actually solved (``source``); a sibling component with the same
    fingerprint has the same structure under *its* canonical order, so
    the scheme transfers as index pairs with every cost unchanged.
    Without this, stitching would reuse the representative's vertices
    verbatim and the scheme would never touch the sibling's edges.
    """
    if source.vertices == target.vertices:
        return result
    rebound = decode_scheme(encode_scheme(result.scheme, source), target)
    return replace(result, scheme=rebound)


def _emit_task_event(
    name: str, key: str, method: str, jobs: int, **extra: Any
) -> None:
    if obs_events.EVENTS.enabled:
        obs_events.emit(
            name,
            fingerprint=key.split(":", 1)[0][:12],
            method=method,
            jobs=jobs,
            **extra,
        )


__all__ = [
    "assemble_components",
    "rebind_result",
    "solve_many",
    "split_deadline",
]
