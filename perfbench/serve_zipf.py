"""serve-zipf: a zipf request mix against a live ``repro serve`` process.

Why: protocol parsing, admission, dispatch and ``parallel.cache`` /
``fingerprint`` do most of the work.  The solvers see cache reads beside
miss-path solves and stores: the read/write counterpart of pebble-solve.

A run is made of windows.  Each window sends the seeded mix of 5,000
requests to a fresh server (``--port 0``, defaults: one job, an
in-memory cache), so every window begins with a cold cache.  Two client
connections each send their next request only after the previous reply
(a closed loop).  A run makes ``--seconds`` / 5 windows, about
``--seconds`` of traffic at today's rate, and pools their samples.  The
count per window is fixed rather than the time, so the share of
cold-cache misses does not move with the machine's speed; at 5,000
requests the misses are 3.5-4.5% of them, so the p99 lies well inside
the misses and the requests queued behind them rather than at their
edge.  The mix comes from ``repro.workloads.loadgen.sample_mix``: a zipf
draw (skew 1.1) over 400 small graphs, 75% ``solve`` and 25% ``plan``,
redrawn until it holds about 195 distinct graphs.

The server's layers run in the other process.  The traced run sends the
mix twice, each time to a fresh server.  The first, plain server is
measured from outside: a ping burst for the transport floor, the
responses' ``cached_components`` for the hit/miss split, and the
``stats`` op for the cache hit rate and admission rejections.  The
second server runs under ``perfbench/traced_server.py``, which wraps the
layers inside it and reports their self times when it shuts down; the
two windows' client latencies give the cost of tracing.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.graphs.io import load_bipartite
from repro.parallel import solve_many
from repro.server.client import AsyncServeClient
from repro.server.protocol import OP_PING, OP_SHUTDOWN, OP_SOLVE, OP_STATS
from repro.workloads.loadgen import LoadSpec, sample_mix

from perfbench import layers
from perfbench.common import (
    Outcome,
    end_to_end,
    pick_in_band,
    quantile,
    tail_percentile,
    timed_setup,
)
from perfbench.passes import Report
from perfbench.tracer import Tracer

NAME = "serve-zipf"
# Client-side latency objective (the program never sees it).
OBJECTIVE_S = 0.01
CONNECTIONS = 2
UNIVERSE = 400
SKEW = 1.1
EDGES = 24
# Requests per second of --seconds (today's rate is 700-1,800/s,
# with the machine's load).
REQUESTS_PER_SECOND = 1000
WINDOW_REQUESTS = 5000
DISTINCT_GRAPHS = 195
TAIL_PCT = tail_percentile(WINDOW_REQUESTS)
# A window that takes this many times its share of --seconds stops
# sending early.
SAFETY_FACTOR = 6
PING_BURST = 200
START_TIMEOUT_S = 60.0
ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Reference:
    """The oracle for one distinct graph: its in-process solve."""

    cost: int
    m: int
    edges: frozenset  # each edge as a frozenset of the two vertex names


@dataclass
class Setup:
    mix: list  # (op, graph text) in send order
    refs: dict  # graph text -> Reference
    server: "Server"


@dataclass
class Sent:
    op: str
    text: str
    latency: float
    response: dict


class Server:
    """One ``repro serve`` subprocess on an ephemeral port; ``traced``
    starts it under ``perfbench/traced_server.py``."""

    def __init__(self, traced: bool = False) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if traced:
            command = [sys.executable, str(ROOT / "perfbench" / "traced_server.py")]
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            self.host, self.port = self._await_address()
        except BaseException:
            self.stop()
            raise

    def _await_address(self) -> tuple[str, int]:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not selector.select(timeout=START_TIMEOUT_S):
                raise RuntimeError("repro serve printed no address in time")
        finally:
            selector.close()
        line = self.proc.stdout.readline().strip()
        if not line.startswith("serving on "):
            raise RuntimeError(f"repro serve did not start: {line!r}")
        host, _, port = line[len("serving on "):].rpartition(":")
        return host, int(port)

    def stop(self) -> str:
        """Ask for shutdown, make sure the process has ended, and return
        what it printed after its address."""
        if self.proc.returncode is not None:
            return ""  # stopped before
        if self.proc.poll() is None and hasattr(self, "port"):
            try:
                asyncio.run(_one_request(self.host, self.port, OP_SHUTDOWN))
            except (OSError, ConnectionError):
                pass
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate(timeout=10)
        return out or ""


async def _one_request(host: str, port: int, op: str) -> dict:
    client = await AsyncServeClient.connect(host=host, port=port)
    try:
        return await client.request(op)
    finally:
        await client.close()


def _reference(text: str) -> Reference:
    graph = load_bipartite(text).without_isolated_vertices()
    result = solve_many([graph], method="auto", jobs=1)[0]
    edges = frozenset(frozenset((str(u), str(v))) for u in graph.left for v in graph.neighbors(u))
    return Reference(result.effective_cost, graph.num_edges, edges)


def _start(traced: bool = False) -> Server:
    """A started server that has answered one ping."""
    server = Server(traced)
    try:
        asyncio.run(_one_request(server.host, server.port, OP_PING))
    except BaseException:
        server.stop()
        raise
    return server


def build(seed: int, requests: int, scale: float = 1.0, start_server: bool = True) -> Setup:
    """The seeded mix, its oracle, and a started server (the set-up).

    The mix is drawn until its number of distinct graphs, which is the
    number of cold-cache misses a window meets, lies within 3% of the
    typical count, so seeds change which graphs are sent, not how many
    miss.
    """

    def mix_of(mix_seed: int) -> list:
        spec = LoadSpec(
            requests=requests,
            universe=max(4, round(UNIVERSE * scale)),
            skew=SKEW,
            edges=EDGES,
            plan_fraction=0.25,
            seed=mix_seed,
        )
        return sample_mix(spec)

    def distinct(mix: list) -> int:
        return len({text for _op, text in mix})

    # The typical count is the median over 40 seeds at 5,000 requests;
    # smaller mixes (tests) take what they draw.
    target = DISTINCT_GRAPHS if requests == WINDOW_REQUESTS and scale == 1.0 else None
    if target is None:
        mix = mix_of(seed)
    else:
        mix = pick_in_band(mix_of, distinct, target, random.Random(seed), band=0.03)
    refs = {text: _reference(text) for text in {text for _op, text in mix}}
    return Setup(mix, refs, _start() if start_server else None)


async def _drive(host: str, port: int, mix: list, seconds: float) -> tuple[list[Sent], float, int]:
    """Closed loop on ``CONNECTIONS`` connections through the whole mix
    (or until ``SAFETY_FACTOR * seconds`` pass).

    Returns the answered requests, the window's wall time and how many
    requests got no answer because the connection failed.
    """
    sent: list[Sent] = []
    lost = 0
    cursor = iter(mix)
    started = time.perf_counter()
    stop_at = started + SAFETY_FACTOR * seconds

    async def connection() -> None:
        nonlocal lost
        client = await AsyncServeClient.connect(host=host, port=port)
        try:
            # Workers share one iterator; there is no await around next().
            for op, text in cursor:
                if time.perf_counter() >= stop_at:
                    return
                t0 = time.perf_counter()
                try:
                    response = await client.request(op, text)
                except (ConnectionError, OSError):
                    lost += 1
                    continue
                sent.append(Sent(op, text, time.perf_counter() - t0, response))
        finally:
            await client.close()

    await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
    return sent, time.perf_counter() - started, lost


def check(sent: list[Sent], refs: dict, outcome: Outcome) -> None:
    """Fold answered requests into ``outcome``, checking each one: the
    effective cost must equal the in-process reference solve, and a
    ``solve`` scheme must cover every edge of the request graph."""
    for item in sent:
        outcome.attempted += 1
        outcome.latencies.append(item.latency)
        response = item.response
        if not response.get("ok"):
            code = response.get("error", {}).get("code", "unknown")
            outcome.fail(f"{item.op}: server answered {code}")
            continue
        result = response["result"]
        ref = refs[item.text]
        if result.get("effective_cost") != ref.cost:
            outcome.fail(
                f"{item.op}: effective_cost {result.get('effective_cost')} != reference {ref.cost}"
            )
            continue
        if item.op == OP_SOLVE:
            covered = {frozenset(pair) for pair in result.get("scheme", [])}
            if not ref.edges <= covered:
                outcome.fail(f"{item.op}: scheme misses {len(ref.edges - covered)} edge(s)")
                continue
        outcome.edges += ref.m
        outcome.pi += ref.cost


async def _probe(host: str, port: int) -> tuple[list[float], dict]:
    client = await AsyncServeClient.connect(host=host, port=port)
    try:
        rtts = []
        for _ in range(PING_BURST):
            t0 = time.perf_counter()
            await client.request(OP_PING)
            rtts.append(time.perf_counter() - t0)
        stats = await client.request(OP_STATS)
    finally:
        await client.close()
    return rtts, stats.get("result", {})


def server_layers(sent: list[Sent], rtts: list[float], stats: dict) -> dict[str, float]:
    """The serve layers as seen from outside the server process."""
    hits, misses = [], []
    for item in sent:
        result = item.response.get("result") if item.response.get("ok") else None
        if result is None:
            continue
        whole_hit = result.get("cached_components") == result.get("components")
        (hits if whole_hit else misses).append(item.latency)
    cache = stats.get("cache", {})
    cache_hits = cache.get("memory_hits", 0) + cache.get("persistent_hits", 0)
    consults = cache_hits + cache.get("misses", 0)
    return {
        "server.ping_rtt_p50_ms": quantile(rtts, 0.5) * 1e3,
        "server.hit_latency_p50_ms": quantile(hits, 0.5) * 1e3,
        "server.miss_latency_p50_ms": quantile(misses, 0.5) * 1e3,
        "parallel.cache.hit_rate": cache_hits / consults if consults else 0.0,
        "server.admission.rejected_total": float(
            stats.get("admission", {}).get("rejected_total", 0)
        ),
    }


def _window(server: Server, state: Setup, seconds: float, outcome: Outcome) -> list[Sent]:
    """Send the whole mix to ``server`` and fold the checked answers into
    ``outcome``."""
    sent, elapsed, lost = asyncio.run(_drive(server.host, server.port, state.mix, seconds))
    outcome.elapsed += elapsed
    check(sent, state.refs, outcome)
    for _ in range(lost):
        outcome.attempted += 1
        outcome.fail("connection lost")
    return sent


def run(seed: int, seconds: float, trace: bool, import_s: float = 0.0, scale: float = 1.0) -> Report:
    # Each set-up repeat starts its own server; all but the last are
    # stopped, and every further window starts its own, so each window
    # meets a fresh process with a cold cache.
    servers: list[Server] = []
    total = max(10, round(seconds * REQUESTS_PER_SECOND))
    windows = max(1, round(total / WINDOW_REQUESTS))
    window_s = seconds / windows

    def setup() -> Setup:
        state = build(seed, min(total, WINDOW_REQUESTS), scale)
        servers.append(state.server)
        return state

    def fresh(traced: bool = False) -> Server:
        servers.append(_start(traced))
        return servers[-1]

    try:
        state, setup_once = timed_setup(setup)
        for server in servers[:-1]:
            server.stop()
        outcome = Outcome()
        sent = _window(state.server, state, window_s, outcome)
        if not trace:
            for _ in range(windows - 1):
                server = fresh()
                sent += _window(server, state, window_s, outcome)
                server.stop()
        notes = [
            f"requests answered: {len(sent)} in {windows if not trace else 1} window(s)"
            f" of {len(state.mix)} over {CONNECTIONS} connections;"
            f" distinct graphs in the mix: {len(state.refs)}"
        ]
        if not trace:
            return Report(
                outcome.attempted,
                outcome.failed,
                end_to_end(outcome, import_s + setup_once, OBJECTIVE_S, TAIL_PCT),
                notes,
                outcome,
                TAIL_PCT,
            )
        rtts, stats = asyncio.run(_probe(state.server.host, state.server.port))
        traced_server = fresh(traced=True)
        traced = Outcome()
        _window(traced_server, state, window_s, traced)
        dump = json.loads(traced_server.stop().strip().splitlines()[-1])
        values = layers.from_tracer(Tracer.from_dict(dump["tracer"]), dump["cpu_s"], passes=1)
        values.update(server_layers(sent, rtts, stats))
        traced_s, untraced_s = sum(traced.latencies), sum(outcome.latencies)
        values["trace_overhead_share"] = layers.overhead_share(traced_s, untraced_s)
        metrics = {name: (values[name], unit) for name, unit in layers.PER_LAYER}
        notes += [
            f"the same mix sent again to a traced server: {dump['cpu_s']:.3f} s of server CPU",
            f"client latency summed: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s",
        ]
        merged = Outcome(
            attempted=outcome.attempted + traced.attempted,
            failed=outcome.failed + traced.failed,
            failures=outcome.failures + traced.failures,
        )
        return Report(merged.attempted, merged.failed, metrics, notes, merged, TAIL_PCT)
    finally:
        for server in servers:
            server.stop()
