"""CLI surface of the cross-run observability layer: ``repro runs
{index,list,show,compare,trend}``, ``repro report --html``, and the bench
command's trajectory-feed publishing."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "runs"
REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture()
def runs_dir(tmp_path):
    target = tmp_path / "runs"
    shutil.copytree(FIXTURES, target)
    return target


class TestRunsList:
    def test_lists_all_runs_with_status(self, runs_dir, capsys):
        assert main(["runs", "list", "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        for run_id in ("run-a-baseline", "run-b-steady", "run-c-regressed",
                       "run-d-partial"):
            assert run_id in out
        assert "partial" in out and "failed" in out

    def test_limit(self, runs_dir, capsys):
        assert main(["runs", "list", "--runs-dir", str(runs_dir),
                     "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "run-d-partial" in out
        assert "run-a-baseline" not in out

    def test_empty_runs_dir(self, tmp_path, capsys):
        assert main(["runs", "list", "--runs-dir", str(tmp_path / "none")]) == 0
        assert "no runs" in capsys.readouterr().out


class TestRunsIndex:
    def test_index_persists_database(self, runs_dir, capsys):
        assert main(["runs", "index", "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "indexed 4 run(s)" in out
        assert (runs_dir / "registry.db").is_file()
        assert "run-d-partial" in out  # partial runs are called out


class TestRunsShow:
    def test_show_includes_provenance_and_events(self, runs_dir, capsys):
        assert main(["runs", "show", "run-a-baseline",
                     "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "aaaa111fixture" in out
        assert "alpha" in out and "beta" in out
        assert "run.start: 1" in out  # events.jsonl name counts

    def test_show_partial_lists_problems(self, runs_dir, capsys):
        assert main(["runs", "show", "run-d-partial",
                     "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "partial" in out
        assert "manifest.json" in out

    def test_show_unknown_run_exits_2(self, runs_dir, capsys):
        assert main(["runs", "show", "no-such",
                     "--runs-dir", str(runs_dir)]) == 2


class TestRunsCompare:
    def test_regression_exits_nonzero(self, runs_dir, capsys):
        code = main(["runs", "compare", "run-a-baseline", "run-c-regressed",
                     "--runs-dir", str(runs_dir)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out and "FAILED" in out

    def test_clean_compare_exits_zero(self, runs_dir, capsys):
        code = main(["runs", "compare", "run-a-baseline", "run-b-steady",
                     "--runs-dir", str(runs_dir)])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_unknown_run_exits_2(self, runs_dir):
        assert main(["runs", "compare", "run-a-baseline", "no-such",
                     "--runs-dir", str(runs_dir)]) == 2


class TestRunsTrend:
    def test_trend_prints_series_with_verdicts(self, runs_dir, capsys):
        assert main(["runs", "trend", "--scenario", "alpha",
                     "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "4 run(s)" in out
        assert "baseline" in out
        assert "REGRESSION" in out
        assert "1.82x" in out  # 20ms vs 11ms

    def test_trend_unknown_scenario_exits_2_and_lists_known(
        self, runs_dir, capsys
    ):
        assert main(["runs", "trend", "--scenario", "nope",
                     "--runs-dir", str(runs_dir)]) == 2
        err = capsys.readouterr().err
        assert "alpha" in err and "beta" in err

    def test_trend_custom_tolerance(self, runs_dir, capsys):
        assert main(["runs", "trend", "--scenario", "alpha",
                     "--tolerance", "0.05", "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        # with a 5% gate the 1.1x step is also flagged
        assert out.count("REGRESSION") >= 2


class TestRunsTraceRequest:
    TRACE_ID = "ab" * 16

    def _write_trace(self, runs_dir, request_id="req-9"):
        records = [
            {
                "name": "server.request",
                "index": 0,
                "parent": None,
                "depth": 0,
                "start_unix": 100.0,
                "duration_ns": 5_000_000,
                "attrs": {"id": request_id, "op": "solve"},
                "trace_id": self.TRACE_ID,
                "remote_parent": None,
            },
            {
                "name": "solver.solve",
                "index": 1,
                "parent": 0,
                "depth": 1,
                "start_unix": 100.001,
                "duration_ns": 2_000_000,
                "attrs": {"origin": "worker"},
                "trace_id": self.TRACE_ID,
                "remote_parent": None,
            },
        ]
        path = runs_dir / "run-a-baseline" / "trace.jsonl"
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )

    def test_assembles_one_requests_chrome_trace(
        self, runs_dir, tmp_path, capsys
    ):
        self._write_trace(runs_dir)
        target = tmp_path / "req.json"
        assert main(["runs", "trace-request", "run-a-baseline", "req-9",
                     "-o", str(target), "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 span(s)" in out
        assert self.TRACE_ID in out
        assert "perfetto" in out
        document = json.loads(target.read_text())
        assert document["otherData"]["request_id"] == "req-9"
        assert [e["name"] for e in document["traceEvents"]] == [
            "server.request", "solver.solve",
        ]
        assert {e["pid"] for e in document["traceEvents"]} == {1, 2}

    def test_unknown_request_id_exits_2(self, runs_dir, capsys):
        self._write_trace(runs_dir)
        assert main(["runs", "trace-request", "run-a-baseline", "nope",
                     "--runs-dir", str(runs_dir)]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_run_exits_2(self, runs_dir, capsys):
        assert main(["runs", "trace-request", "no-such", "r1",
                     "--runs-dir", str(runs_dir)]) == 2

    def test_run_without_trace_jsonl_exits_2_with_hint(self, runs_dir, capsys):
        assert main(["runs", "trace-request", "run-a-baseline", "r1",
                     "--runs-dir", str(runs_dir)]) == 2
        assert "--run-dir" in capsys.readouterr().err

    def test_garbage_lines_in_trace_jsonl_tolerated(
        self, runs_dir, tmp_path, capsys
    ):
        self._write_trace(runs_dir)
        path = runs_dir / "run-a-baseline" / "trace.jsonl"
        path.write_text(
            "not json\n\n[1, 2]\n" + path.read_text(), encoding="utf-8"
        )
        target = tmp_path / "req.json"
        assert main(["runs", "trace-request", "run-a-baseline", "req-9",
                     "-o", str(target), "--runs-dir", str(runs_dir)]) == 0
        assert "2 span(s)" in capsys.readouterr().out


class TestReport:
    def test_report_writes_self_contained_html(self, runs_dir, tmp_path, capsys):
        target = tmp_path / "report.html"
        assert main(["report", "--html", "-o", str(target),
                     "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "4 run(s)" in out
        document = target.read_text()
        assert document.startswith("<!DOCTYPE html>")
        assert "run-a-baseline" in document

    def test_report_default_format_is_html(self, runs_dir, tmp_path):
        target = tmp_path / "r.html"
        assert main(["report", "-o", str(target),
                     "--runs-dir", str(runs_dir)]) == 0
        assert target.is_file()


class TestBenchPublish:
    def test_bench_publishes_trajectory_snapshot(self, tmp_path, capsys):
        publish = tmp_path / "feed"
        code = main([
            "bench", "--smoke", "--scenario", "solver-exact",
            "--runs-dir", str(tmp_path / "runs"),
            "--out-dir", str(tmp_path),
            "--publish-dir", str(publish),
        ])
        assert code == 0
        snapshots = list(publish.glob("BENCH_*.json"))
        assert len(snapshots) == 1
        payload = json.loads(snapshots[0].read_text())
        assert payload["schema"] == "repro-bench/v2"
        assert "trajectory feed" in capsys.readouterr().out

    def test_default_bench_leaves_tracked_feed_untouched(
        self, tmp_path, capsys, monkeypatch
    ):
        feed = REPO_ROOT / "benchmarks" / "results"
        before = {p.name: p.read_bytes() for p in feed.iterdir()}
        monkeypatch.chdir(REPO_ROOT)  # where the old default pointed
        code = main([
            "bench", "--smoke",
            "--runs-dir", str(tmp_path / "runs"),
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert {p.name: p.read_bytes() for p in feed.iterdir()} == before
        assert "trajectory feed" not in capsys.readouterr().out

    def test_no_publish_skips_feed(self, tmp_path, capsys):
        publish = tmp_path / "feed"
        code = main([
            "bench", "--smoke", "--scenario", "solver-exact",
            "--runs-dir", str(tmp_path / "runs"),
            "--out-dir", str(tmp_path),
            "--publish-dir", str(publish), "--no-publish",
        ])
        assert code == 0
        assert not publish.exists()
        assert "trajectory feed" not in capsys.readouterr().out

    def test_bench_run_dir_carries_bench_json_and_events(self, tmp_path):
        code = main([
            "bench", "--smoke", "--scenario", "solver-exact",
            "--runs-dir", str(tmp_path / "runs"), "--no-bench-file",
            "--no-publish",
        ])
        assert code == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        payload = json.loads((run_dir / "bench.json").read_text())
        assert payload["scenarios"][0]["name"] == "solver-exact"
        from repro.obs import events

        text = (run_dir / "events.jsonl").read_text()
        assert events.validate_jsonl(text) == []
        names = [json.loads(line)["name"] for line in text.splitlines()]
        assert names[0] == "run.start"
        assert names[-1] == "run.end"
        assert "bench.scenario_start" in names


class TestRunsPlanQuality:
    @pytest.fixture()
    def plan_runs_dir(self, tmp_path):
        from repro.obs.planquality import CandidateRecord, PlanRecord

        runs = tmp_path / "plan-runs"
        for name, created, actual in (("run-x", 1000.0, 10), ("run-y", 2000.0, 40)):
            run_dir = runs / name
            run_dir.mkdir(parents=True)
            (run_dir / "manifest.json").write_text(
                json.dumps(
                    {
                        "run_id": name,
                        "created_unix": created,
                        "git_sha": f"{name}sha",
                        "extra": {"failed": [], "mode": "smoke"},
                    }
                )
            )
            record = PlanRecord(
                query="q",
                predicate="equality",
                left="R",
                right="S",
                left_size=2,
                right_size=2,
                algorithm="hash",
                reason="r",
                estimated_output=10.0,
                candidates=[CandidateRecord("hash", 1.0, "r", chosen=True)],
                actual_output=actual,
            )
            (run_dir / "plans.jsonl").write_text(
                json.dumps(record.as_dict(), sort_keys=True) + "\n"
            )
        return runs

    def test_trend_table_with_verdicts(self, plan_runs_dir, capsys):
        assert main(
            ["runs", "plan-quality", "--runs-dir", str(plan_runs_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "plan quality: equality / q_p90" in out
        assert "run-x" in out and "run-y" in out
        assert "4.00x" in out  # q-error 1.0 -> 4.0
        assert "REGRESSION" in out

    def test_metric_selection(self, plan_runs_dir, capsys):
        assert main(
            ["runs", "plan-quality", "--runs-dir", str(plan_runs_dir),
             "--metric", "misestimates"]
        ) == 0
        assert "misestimates" in capsys.readouterr().out

    def test_unknown_predicate_exits_two(self, plan_runs_dir, capsys):
        assert main(
            ["runs", "plan-quality", "--runs-dir", str(plan_runs_dir),
             "--predicate", "no-such"]
        ) == 2
        assert "known: equality" in capsys.readouterr().err

    def test_no_plan_records(self, runs_dir, capsys):
        # The perf fixtures carry no plans.jsonl at all.
        assert main(
            ["runs", "plan-quality", "--runs-dir", str(runs_dir)]
        ) == 0
        assert "no plan records indexed" in capsys.readouterr().out
