"""Per-layer tracing from outside the program.

The benchmark does not rely on spans inside ``src/``.  Instead it wraps
each layer's public functions at the place its caller looks them up —
``executor`` imports ``trace_report`` and ``registry`` imports
``solve_dfs_approx`` directly, so patching only the defining module
would miss those calls — and restores every name afterwards.

A wrapped call is a span.  A layer's self time is the sum of its spans'
durations minus the time of the spans nested inside them, so the
per-layer self times of one run add up to the traced work with nothing
counted twice.  Each span can also feed a work counter (pairs emitted,
edges built, ...), record ``(size, seconds)`` samples for exponent fits,
and account the part of its self time that fell after a deadline.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

Hook = Callable[["Tracer", Any, tuple, dict], None]
SizeOf = Callable[[tuple, dict], float]


class Tracer:
    """Span bookkeeping for one traced window."""

    def __init__(self) -> None:
        self.self_time: dict[str, float] = defaultdict(float)
        self.past_deadline: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        # Absolute perf_counter instant after which span time counts as
        # spent past the deadline (None: no deadline in force).
        self.deadline_at: float | None = None
        self._stack: list[list[float]] = []

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        on_result: Hook | None = None,
        size_of: SizeOf | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span of ``layer``."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            size = size_of(args, kwargs) if size_of is not None else None
            frame = [0.0, 0.0]  # child time, child time past the deadline
            tracer._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                elapsed = end - start
                past = 0.0
                if tracer.deadline_at is not None and end > tracer.deadline_at:
                    past = end - max(start, tracer.deadline_at)
                tracer.self_time[layer] += elapsed - frame[0]
                tracer.past_deadline[layer] += past - frame[1]
                tracer.calls[layer] += 1
                if tracer._stack:
                    parent = tracer._stack[-1]
                    parent[0] += elapsed
                    parent[1] += past
                if size is not None:
                    tracer.samples[layer].append((size, elapsed))
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        return traced

    def attributed(self, roots: tuple[str, ...]) -> float:
        """Self time of every layer except ``roots``: the time the named
        layers below the roots account for."""
        return sum(t for layer, t in self.self_time.items() if layer not in roots)

    def as_dict(self) -> dict[str, Any]:
        """The recorded totals as plain JSON data (see ``from_dict``)."""
        return {
            "self_time": dict(self.self_time),
            "past_deadline": dict(self.past_deadline),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "samples": {layer: list(points) for layer, points in self.samples.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Tracer":
        tracer = cls()
        tracer.self_time.update(data["self_time"])
        tracer.past_deadline.update(data["past_deadline"])
        tracer.calls.update(data["calls"])
        tracer.counts.update(data["counts"])
        for layer, points in data["samples"].items():
            tracer.samples[layer] = [tuple(point) for point in points]
        return tracer


class Patcher:
    """Installs wrapped names and restores the originals."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def everywhere(self, original: Callable[..., Any], wrapped: Callable[..., Any]) -> None:
        """Replace every module-level reference to ``original`` inside the
        ``repro`` package — the defining module and each module that
        imported the name directly."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _count(key: str, measure: Callable[[Any], float]) -> Hook:
    def hook(tracer: Tracer, result: Any, _args: tuple, _kwargs: dict) -> None:
        tracer.counts[key] += measure(result)

    return hook


def _solved_with(tracer: Tracer, result: Any, _args: tuple, _kwargs: dict) -> None:
    """Count a solved component under the method that solved it."""
    tracer.counts[f"core.solvers.components.{result.method}"] += 1


def _first_arg_edges(args: tuple, kwargs: dict) -> float:
    graph = args[0] if args else kwargs["graph"]
    return float(graph.num_edges)


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every measured layer's public functions (see README.md).

    ``parallel.pool``, ``obs``, ``analysis`` and ``relations`` are left
    alone on purpose; the root spans (``engine.execute``,
    ``parallel.solve_many``, ``core.solvers.registry``) are opened by the
    workload runners around their own calls.
    """
    # Modules by full name: several packages re-export a function under
    # its module's name (repro.graphs.line_graph is both).
    mod = importlib.import_module
    costs = mod("repro.core.costs")
    dfs_approx = mod("repro.core.solvers.dfs_approx")
    equijoin = mod("repro.core.solvers.equijoin")
    exact = mod("repro.core.solvers.exact")
    local_search = mod("repro.core.solvers.local_search")
    executor = mod("repro.engine.executor")
    engine_multiway = mod("repro.engine.multiway")
    planner = mod("repro.engine.planner")
    rtree = mod("repro.geometry.rtree")
    sweep = mod("repro.geometry.sweep")
    bipartite = mod("repro.graphs.bipartite")
    components = mod("repro.graphs.components")
    line_graph = mod("repro.graphs.line_graph")
    join_graph = mod("repro.joins.join_graph")
    trace = mod("repro.joins.trace")
    joins_multiway = mod("repro.joins.multiway")
    fingerprint = mod("repro.parallel.fingerprint")
    service = mod("repro.parallel.service")
    inverted = mod("repro.sets.inverted")

    def everywhere(layer: str, fn: Callable[..., Any], **hooks: Any) -> None:
        patcher.everywhere(fn, tracer.wrap(layer, fn, **hooks))

    # engine
    everywhere("engine.plan", planner.plan)
    everywhere("engine.plan", engine_multiway.plan_multiway)

    # joins: the executor fetches algorithms from the planner's table by
    # name, so the lookup itself is wrapped to hand out traced algorithms.
    pairs = _count("joins.algorithms.pairs", len)
    traced_algorithms: dict[str, Callable[..., Any]] = {}
    original_lookup = executor.algorithm_by_name

    def traced_lookup(name: str) -> Callable[..., Any] | None:
        algorithm = original_lookup(name)
        if algorithm is None:
            return None
        if name not in traced_algorithms:
            traced_algorithms[name] = tracer.wrap("joins.algorithms", algorithm, on_result=pairs)
        return traced_algorithms[name]

    patcher.set(executor, "algorithm_by_name", traced_lookup)
    patcher.set(
        executor,
        "block_nested_loops",
        tracer.wrap("joins.algorithms", executor.block_nested_loops, on_result=pairs),
    )
    everywhere(
        "joins.join_graph",
        join_graph.build_join_graph_cached,
        on_result=_count("joins.join_graph.edges", lambda g: g.num_edges),
    )
    everywhere("joins.trace", trace.trace_report)
    everywhere("joins.trace", trace.multiway_trace_report)

    def lftj_work(tracer: Tracer, result: Any, _args: tuple, _kwargs: dict) -> None:
        tracer.counts["joins.multiway.lftj_intermediates"] += result.intermediates

    everywhere("joins.multiway", joins_multiway.leapfrog_triejoin, on_result=lftj_work)
    everywhere("joins.multiway", joins_multiway.generic_join)
    everywhere("joins.multiway", joins_multiway.binary_cascade)

    # geometry and sets: the index structures under the join algorithms.
    for name in ("__init__", "join", "query"):
        patcher.set(rtree.RTree, name, tracer.wrap("geometry", getattr(rtree.RTree, name)))
    everywhere("geometry", sweep.sweep_rectangle_pairs)
    for name in ("__init__", "superset_candidates"):
        patcher.set(
            inverted.InvertedIndex, name, tracer.wrap("sets", getattr(inverted.InvertedIndex, name))
        )

    # graphs
    patcher.set(
        bipartite.BipartiteGraph,
        "subgraph",
        tracer.wrap("graphs.subgraph", bipartite.BipartiteGraph.subgraph),
    )
    everywhere("graphs.components", components.component_vertex_sets)
    everywhere("graphs.line_graph", line_graph.line_graph)

    # core
    everywhere("core.costs", costs.effective_cost_bounds)
    patcher.set(exact, "solve_exact", tracer.wrap("core.solvers.exact", exact.solve_exact))
    everywhere("core.solvers.equijoin", equijoin.solve_equijoin, size_of=_first_arg_edges)
    everywhere("core.solvers.dfs_approx", dfs_approx.solve_dfs_approx, size_of=_first_arg_edges)
    everywhere("core.solvers.local_search", local_search.polish_scheme)

    # parallel: solve_many solves each deduplicated component through the
    # registry it imported; count what each component was solved with.
    patcher.set(
        service,
        "solve",
        tracer.wrap("core.solvers.registry", service.solve, on_result=_solved_with),
    )
    seen = _count("parallel.components_seen", lambda _form: 1)
    patcher.set(
        service,
        "canonical_form",
        tracer.wrap("parallel.fingerprint", fingerprint.canonical_form, on_result=seen),
    )
    patcher.set(service, "cache_key", tracer.wrap("parallel.fingerprint", service.cache_key))


def install_server(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap the serve layers inside a ``repro serve`` process, on top of
    ``install``: request parsing and response encoding
    (``server.protocol``) and the dispatcher's own steps
    (``server.dispatch``: graph parsing, result assembly), plus the solver,
    fingerprint and cache calls at the names the dispatcher imported.

    Only synchronous functions are wrapped.  The event loop cannot switch
    requests inside one, so spans nest correctly while two connections
    interleave.
    """
    mod = importlib.import_module
    protocol = mod("repro.server.protocol")
    dispatch = mod("repro.server.dispatch")
    cache = mod("repro.parallel.cache")
    for name in ("parse_request", "ok_response", "error_response"):
        patcher.everywhere(getattr(protocol, name),
                           tracer.wrap("server.protocol", getattr(protocol, name)))
    for name in ("parse_graph_text", "assemble_components", "rebind_result"):
        patcher.set(dispatch, name, tracer.wrap("server.dispatch", getattr(dispatch, name)))

    patcher.set(
        dispatch,
        "registry_solve",
        tracer.wrap("core.solvers.registry", dispatch.registry_solve, on_result=_solved_with),
    )
    seen = _count("parallel.components_seen", lambda _form: 1)
    patcher.set(
        dispatch,
        "canonical_form",
        tracer.wrap("parallel.fingerprint", dispatch.canonical_form, on_result=seen),
    )
    patcher.set(dispatch, "cache_key", tracer.wrap("parallel.fingerprint", dispatch.cache_key))
    for name in ("consult", "store"):
        patcher.set(cache.SolveCache, name,
                    tracer.wrap("parallel.cache", getattr(cache.SolveCache, name)))
