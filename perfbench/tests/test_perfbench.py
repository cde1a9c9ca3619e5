"""Tests of the benchmark itself: BENCHMARK.json, metrics, oracles, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
Workloads run at a tiny scale here; the metric names and units must
still be the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import join_mix, layers, passes, pebble_solve, serve_zipf, solve_deadline  # noqa: E402
from perfbench.common import (  # noqa: E402
    Outcome,
    end_to_end,
    fit_exponent,
    quantile,
    tail_percentile,
)
from perfbench.run import WORKLOADS  # noqa: E402
from perfbench.tracer import Patcher, Tracer, install  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
PASS_MODULES = {
    "join-mix": join_mix,
    "pebble-solve": pebble_solve,
    "solve-deadline": solve_deadline,
}


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _e2e_units() -> dict[str, str]:
    return {
        name: unit for name, (_v, unit) in end_to_end(Outcome(elapsed=1.0), 0.0, 1.0, 90.0).items()
    }


# ----------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_is_well_formed(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert 1 <= len(spec["command"]) <= 32
    for arg in spec["command"]:
        assert len(arg) <= 200 and not arg.startswith("/") and ".." not in arg
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and ".." not in path and (ROOT / path).is_dir()
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_benchmark_json_matches_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == _e2e_units()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


# ---------------------------------------------------------------- workloads


def _assert_metrics(report: passes.Report, expected: dict[str, str]) -> None:
    assert {name: unit for name, (_v, unit) in report.metrics.items()} == expected
    for value, _unit in report.metrics.values():
        assert isinstance(value, float) or isinstance(value, int)
    assert report.attempted >= 1
    assert report.failed == 0, report.outcome.failures if report.outcome else None


@pytest.mark.parametrize("name", sorted(PASS_MODULES))
@pytest.mark.parametrize("trace", [False, True])
def test_pass_workload_emits_every_metric(name, trace):
    report = passes.run_pass_workload(
        PASS_MODULES[name], seed=3, seconds=0.01, trace=trace, scale=0.1
    )
    expected = dict(layers.PER_LAYER) if trace else _e2e_units()
    _assert_metrics(report, expected)
    if not trace:
        assert report.metrics["pi_ratio"][0] >= 1.0
        assert report.metrics["setup_s"][0] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_serve_zipf_emits_every_metric(trace):
    report = serve_zipf.run(seed=3, seconds=0.5, trace=trace, scale=0.02)
    expected = dict(layers.PER_LAYER) if trace else _e2e_units()
    _assert_metrics(report, expected)
    if trace:
        values = {name: value for name, (value, _unit) in report.metrics.items()}
        assert values["server.ping_rtt_p50_ms"] > 0
        assert 0 < values["parallel.cache.hit_rate"] <= 1
        # Measured inside the traced server process.
        assert values["server.protocol.ms"] > 0 and values["parallel.fingerprint.ms"] > 0
        assert values["core.solvers.components.exact"] + values[
            "core.solvers.components.equijoin"
        ] > 0
        assert 0 < values["unattributed_share"] < 1


def _traced_join_mix() -> dict[str, float]:
    report = passes.run_pass_workload(join_mix, seed=5, seconds=0.01, trace=True, scale=0.1)
    return {name: value for name, (value, _unit) in report.metrics.items()}


def test_join_mix_trace_attributes_the_work():
    values = _traced_join_mix()
    assert values["engine.plan.calls"] > 0
    assert values["joins.trace.ms"] > 0 and values["graphs.subgraph.calls"] > 0
    assert values["joins.algorithms.pairs"] == values["joins.join_graph.edges"]
    assert 0 < values["unattributed_share"] < 0.5


def test_an_unwrapped_layer_raises_the_unattributed_share(monkeypatch):
    covered = _traced_join_mix()
    wrap = Tracer.wrap

    def wrap_all_but_trace(self, layer, fn, **hooks):
        return fn if layer == "joins.trace" else wrap(self, layer, fn, **hooks)

    monkeypatch.setattr(Tracer, "wrap", wrap_all_but_trace)
    uncovered = _traced_join_mix()
    assert uncovered["joins.trace.ms"] == 0
    # trace_report is a large share of join-mix; unwrapped, its time
    # falls to the engine.execute root and counts as unattributed.
    assert uncovered["unattributed_share"] > covered["unattributed_share"] + 0.1


def test_same_seed_builds_the_same_inputs():
    first = pebble_solve.build(7, scale=0.1)
    second = pebble_solve.build(7, scale=0.1)
    assert [(op.kind, op.m) for op in first] == [(op.kind, op.m) for op in second]
    assert sorted(map(repr, first[0].graph.edges())) == sorted(map(repr, second[0].graph.edges()))


# ------------------------------------------------------------------ oracles


def test_join_mix_counts_a_dropped_row():
    ops = join_mix.build(2, scale=0.1)
    binary = next(op for op in ops if isinstance(op, join_mix.BinaryOp) and op.expected)
    runner = join_mix.Runner()

    def drop_last_row(query):
        result = join_mix.execute(query)
        return dataclasses.replace(result, pairs=result.pairs[:-1], rows=result.rows[:-1])

    runner.execute = drop_last_row
    outcome = Outcome()
    runner.run_op(binary, outcome)
    assert outcome.failed == 1 and outcome.attempted == 1


def test_join_mix_counts_wrong_bindings():
    ops = join_mix.build(2, scale=0.1)
    multiway = next(op for op in ops if isinstance(op, join_mix.MultiwayOp))
    wrong = dataclasses.replace(multiway, expected=set(multiway.expected) | {(-1,) * 4})
    outcome = Outcome()
    join_mix.Runner().run_op(wrong, outcome)
    assert outcome.failed == 1


def test_join_mix_counts_a_raising_query():
    ops = join_mix.build(2, scale=0.1)
    runner = join_mix.Runner()

    def boom(_query):
        raise RuntimeError("injected")

    runner.execute = runner.execute_multiway = boom
    outcome = Outcome()
    runner.run_op(ops[0], outcome)
    assert outcome.failed == 1 and not outcome.latencies


def _solved(op):
    return pebble_solve.solve_many([op.graph], method="auto", jobs=1)[0]


def test_pebble_check_counts_a_wrong_pi():
    op = next(op for op in pebble_solve.build(4, scale=0.1) if op.kind == "paged-equijoin")
    result = _solved(op)
    outcome = Outcome()
    assert pebble_solve.check(result, op, outcome)
    too_high = dataclasses.replace(result, effective_cost=op.upper + 1)
    assert not pebble_solve.check(too_high, op, outcome)
    too_low = dataclasses.replace(result, effective_cost=op.m - 1)
    assert not pebble_solve.check(too_low, op, outcome)
    assert outcome.failed == 2


def test_pebble_check_counts_an_invalid_scheme():
    op = next(op for op in pebble_solve.build(4, scale=0.1) if op.m > 4)
    result = _solved(op)
    partial = type(result.scheme)(result.scheme.configurations[:-1])
    outcome = Outcome()
    assert not pebble_solve.check(dataclasses.replace(result, scheme=partial), op, outcome)
    assert outcome.failed == 1


def test_solve_deadline_meets_the_oracle():
    ops = solve_deadline.build(6, scale=0.1)
    outcome = Outcome()
    runner = solve_deadline.Runner()
    for op in ops:
        runner.run_op(op, outcome)
    assert outcome.failed == 0 and outcome.attempted == len(ops)


def _faked_sent(text: str, ref, op: str, **changes) -> serve_zipf.Sent:
    graph_edges = [sorted(edge) for edge in ref.edges]
    result = {
        "effective_cost": ref.cost,
        "components": 1,
        "cached_components": 0,
        "scheme": graph_edges,
    }
    result.update(changes)
    return serve_zipf.Sent(op, text, 0.001, {"ok": True, "result": result})


def test_serve_check_counts_wrong_pi_and_missing_edges():
    setup = serve_zipf.build(3, requests=200, scale=0.01, start_server=False)
    text, ref = next(iter(setup.refs.items()))
    sent = [
        _faked_sent(text, ref, "solve"),
        _faked_sent(text, ref, "plan", effective_cost=ref.cost + 1),
        _faked_sent(text, ref, "solve", scheme=[sorted(e) for e in list(ref.edges)[1:]]),
        serve_zipf.Sent("solve", text, 0.001, {"ok": False, "error": {"code": "overloaded"}}),
    ]
    outcome = Outcome()
    serve_zipf.check(sent, setup.refs, outcome)
    assert outcome.attempted == 4 and outcome.failed == 3
    assert outcome.edges == ref.m


# ------------------------------------------------------------------ tracing


def test_self_times_add_up_and_exclude_children():
    tracer = Tracer()

    def child():
        return sum(range(20000))

    traced_child = tracer.wrap("child", child)

    def parent():
        return traced_child() + traced_child()

    traced_parent = tracer.wrap("parent", parent)
    traced_parent()
    assert tracer.calls == {"child": 2, "parent": 1}
    assert tracer.self_time["parent"] < tracer.self_time["child"]
    assert tracer.attributed(roots=("parent",)) == tracer.self_time["child"]
    assert Tracer.from_dict(json.loads(json.dumps(tracer.as_dict()))).self_time == tracer.self_time


def test_past_deadline_time_is_self_time_after_the_instant():
    import time

    tracer = Tracer()
    tracer.deadline_at = time.perf_counter() - 1.0
    tracer.wrap("late", lambda: sum(range(10000)))()
    assert tracer.past_deadline["late"] == pytest.approx(tracer.self_time["late"])


def test_install_patches_call_sites_and_restore_undoes_it():
    from repro.core.solvers import registry
    from repro.engine import executor
    from repro.graphs.bipartite import BipartiteGraph

    originals = (executor.trace_report, registry.solve_dfs_approx, BipartiteGraph.subgraph)
    patcher = Patcher()
    install(Tracer(), patcher)
    try:
        assert executor.trace_report is not originals[0]
        assert registry.solve_dfs_approx is not originals[1]
        assert BipartiteGraph.subgraph is not originals[2]
    finally:
        patcher.restore()
    assert (executor.trace_report, registry.solve_dfs_approx, BipartiteGraph.subgraph) == originals


def test_fit_exponent_recovers_a_power_law():
    points = [(m, 1e-6 * m**1.5) for m in (4, 8, 16, 32, 64, 128)]
    fit = fit_exponent(points, min_size=4)
    assert fit["exponent"] == pytest.approx(1.5)
    assert fit["samples"] == 6 and fit["edges_min"] == 4 and fit["edges_max"] == 128
    assert fit_exponent([(10, 0.1)])["exponent"] == 0.0


def test_quantile_interpolates():
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert quantile([], 0.9) == 0.0


def test_tail_percentiles_have_ten_samples_beyond_them():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(24) == 50.0
    assert join_mix.TAIL_PCT == pebble_solve.TAIL_PCT == 90.0
    assert serve_zipf.TAIL_PCT == 99.0
    assert solve_deadline.TAIL_PCT == 75.0


# ---------------------------------------------------------------- the CLI


def _copy_benchmark(dest: Path, with_src: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_cli_without_the_program_fails_without_a_result(tmp_path):
    _copy_benchmark(tmp_path, with_src=False)
    done = _cli(tmp_path, "--workload", "join-mix", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_cli_prints_the_result_last_and_writes_nothing(tmp_path):
    _copy_benchmark(tmp_path, with_src=True)
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    done = _cli(
        tmp_path, "--workload", "solve-deadline", "--seed", "2", "--seconds", "0.1", "--trace", "0"
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(_e2e_units())
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
