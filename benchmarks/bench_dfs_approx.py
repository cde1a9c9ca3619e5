"""E-T3.1: the 1.25-approximation (Theorem 3.1 / Lemma 3.1).

Regenerates: the DFS-vs-exact quality table.  Times: the DFS algorithm on a
series from m = 1k to 16k edges and fits the log-log time exponent, which
checks Lemma 3.1's "linear time" claim as a measured number.
"""

import math
import time

from repro.analysis.experiments import dfs_approx_experiment
from repro.analysis.report import Table
from repro.graphs.generators import random_connected_bipartite
from repro.core.solvers.dfs_approx import solve_dfs_approx


def test_dfs_quality_table(benchmark, emit):
    table = benchmark(dfs_approx_experiment, 8, 6)
    emit("E-T3.1_dfs_quality", table)


# Edge counts of the runtime series; each graph is a random spanning tree
# on m/3 + m/3 vertices plus m/3 random extra edges.
RUNTIME_SIZES = (1000, 2000, 4000, 8000, 16000)


def time_exponent(points):
    """Least-squares slope of log(seconds) against log(m)."""
    xs = [math.log(m) for m, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return num / sum((x - mx) ** 2 for x in xs)


def test_dfs_runtime_series(benchmark, emit):
    graphs = {}
    for m in RUNTIME_SIZES:
        side = m // 3
        graphs[m] = random_connected_bipartite(
            side, side, extra_edges=m - (2 * side - 1), seed=1
        )

    def series():
        # Sizes are timed round-robin and each keeps its fastest of 5 runs,
        # so a drift in machine speed hits every size alike.
        best = dict.fromkeys(RUNTIME_SIZES, math.inf)
        results = {}
        for _ in range(5):
            for m in RUNTIME_SIZES:
                start = time.perf_counter()
                results[m] = solve_dfs_approx(graphs[m])
                best[m] = min(best[m], time.perf_counter() - start)
        table = Table(
            ["m", "pi_dfs", "guarantee", "seconds"],
            title="E-T3.1: DFS algorithm runtime scaling (Lemma 3.1)",
        )
        for m in RUNTIME_SIZES:
            result = results[m]
            table.add_row([m, result.effective_cost, result.guarantee, round(best[m], 4)])
        return table, [(m, best[m]) for m in RUNTIME_SIZES]

    table, points = benchmark.pedantic(series, rounds=1, iterations=1)
    emit("E-T3.1_dfs_runtime", table)
    emit(
        "E-T3.1_dfs_runtime",
        f"time exponent (log-log fit): m=1k-8k {time_exponent(points[:4]):.2f}, "
        f"m=1k-16k {time_exponent(points):.2f}",
    )


def test_dfs_single_solve(benchmark):
    g = random_connected_bipartite(40, 40, extra_edges=20, seed=3)
    result = benchmark(solve_dfs_approx, g)
    assert result.effective_cost <= result.guarantee
