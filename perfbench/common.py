"""Shared measurement helpers: set-up timing, closed loops, statistics.

Every workload module builds on these so that all four report their
numbers the same way: timings as medians and interpolated percentiles
of per-operation samples, throughput over timed wall clock only, and
set-up time as the median of several identical set-ups.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

# How many times each run builds its inputs; setup_s is the median.
SETUP_REPEATS = 3

# A drawn input is kept when its size lies within this share of the
# target size; after MAX_DRAWS draws the closest one is kept.
BAND = 0.15
MAX_DRAWS = 40

# Percentiles a tail may be reported at, highest first.
_TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10


def timed_setup(build: Callable[[], Any], repeats: int = SETUP_REPEATS) -> tuple[Any, float]:
    """Run ``build`` ``repeats`` times; return the last state and the
    median wall time of one build, in seconds.

    Every build gets the same seed, so the repeats build identical
    inputs; only the last state is kept.
    """
    durations = []
    state = None
    for _ in range(repeats):
        state = None  # let the previous state go before timing the next
        started = time.perf_counter()
        state = build()
        durations.append(time.perf_counter() - started)
    return state, statistics.median(durations)


def pick_in_band(
    make: Callable[[int], Any],
    size_of: Callable[[Any], float],
    target: float,
    rng: random.Random,
    band: float = BAND,
) -> Any:
    """Draw ``make(seed)`` with seeds from ``rng`` until the input's size
    lies within ``band`` of ``target``.

    This fixes the shape of the work a seed produces (how large each
    operation is) while the seed still decides the contents, so runs
    with different seeds measure the same amount of work.  It never
    fails: after ``MAX_DRAWS`` draws the closest one is kept.
    """
    best, best_gap = None, math.inf
    for _ in range(MAX_DRAWS):
        candidate = make(rng.randrange(2**31))
        gap = abs(size_of(candidate) - target) / max(target, 1.0)
        if gap <= band:
            return candidate
        if gap < best_gap:
            best, best_gap = candidate, gap
    return best


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated q-quantile (0 <= q <= 1); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond
    it (50 when even the median has fewer).

    Each workload fixes its tail percentile with this rule at the sample
    count a run of it always reaches, so every run reports the same
    percentile; ``describe`` says when a run fell short.
    """
    for p in _TAIL_CANDIDATES:
        if samples_beyond(samples, p) >= TAIL_BEYOND:
            return p
    return 50.0


def samples_beyond(samples: int, percentile: float) -> float:
    """How many of ``samples`` lie beyond ``percentile``."""
    return samples * (1.0 - percentile / 100.0)


def fit_exponent(points: Sequence[tuple[float, float]], min_size: float = 1.0) -> dict[str, float]:
    """Least-squares slope of log(time) against log(size).

    ``points`` are ``(size, seconds)`` pairs; pairs with ``size <
    min_size`` or a non-positive time are dropped.  Returns the slope
    with its sample count and size range; the slope is 0.0 when fewer
    than 3 points or fewer than 2 distinct sizes remain.
    """
    kept = [(s, t) for s, t in points if s >= min_size and t > 0]
    out = {
        "exponent": 0.0,
        "samples": float(len(kept)),
        "edges_min": float(min((s for s, _ in kept), default=0)),
        "edges_max": float(max((s for s, _ in kept), default=0)),
    }
    if len(kept) < 3 or len({s for s, _ in kept}) < 2:
        return out
    xs = [math.log(s) for s, _ in kept]
    ys = [math.log(t) for _, t in kept]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    out["exponent"] = sxy / sxx
    return out


@dataclass
class Outcome:
    """What one timed window of a workload produced.

    ``latencies`` are per-operation wall times in seconds, ``elapsed`` is
    the timed wall clock of the whole window, ``edges`` the join-graph
    edges ``m`` the operations handled and ``pi`` their summed effective
    pebbling cost.  ``failed`` counts operations that raised or were
    refused plus outputs that failed their check.
    """

    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    latencies: list[float] = field(default_factory=list)
    edges: int = 0
    pi: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


def run_passes(seconds: float, one_pass: Callable[[], None]) -> tuple[float, int]:
    """Closed loop over whole passes: call ``one_pass()`` until ``seconds``
    of wall clock have gone by, at least once.

    Whole passes keep every run on the same multiset of operations.
    Returns the elapsed wall time and the number of passes made.
    """
    done = 0
    started = time.perf_counter()
    while done == 0 or time.perf_counter() - started < seconds:
        one_pass()
        done += 1
    return time.perf_counter() - started, done


def timed_call(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, float]:
    """Call ``fn`` and return its result with the wall time it took."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def end_to_end(
    outcome: Outcome,
    setup_s: float,
    objective_s: float,
    tail_pct: float,
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics every workload reports, with their units.

    ``objective_s`` is the deadline the operations ran under, or, for a
    workload without one, its latency objective (a client-side figure the
    program never sees); ``deadline_overshoot_p50`` is the median latency
    divided by it.  ``latency_tail_ms`` is taken at the workload's fixed
    ``tail_pct``.
    """
    lat = outcome.latencies
    completed = len(lat)
    elapsed = outcome.elapsed if outcome.elapsed > 0 else float("nan")
    overshoots = [t / objective_s for t in lat]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (completed / elapsed, "1/s"),
        "edges_per_s": (outcome.edges / elapsed, "1/s"),
        "latency_p50_ms": (quantile(lat, 0.50) * 1e3, "ms"),
        "latency_tail_ms": (quantile(lat, tail_pct / 100) * 1e3, "ms"),
        "pi_ratio": (outcome.pi / outcome.edges if outcome.edges else 0.0, "ratio"),
        "deadline_overshoot_p50": (quantile(overshoots, 0.50), "ratio"),
    }


def describe(outcome: Outcome, tail_pct: float) -> list[str]:
    """Human-readable lines on sample counts, the tail and errors."""
    n = len(outcome.latencies)
    share = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    lines = []
    if n:
        beyond = samples_beyond(n, tail_pct)
        lines += [
            f"samples: {n} operations timed over {outcome.elapsed:.3f} s",
            f"tail: latency_tail_ms is p{tail_pct:g} ({beyond:.1f} samples beyond it"
            + (")" if beyond >= TAIL_BEYOND else f"; fewer than {TAIL_BEYOND}, a short run)"),
        ]
    lines.append(
        f"error_share: {share:.6f} ({outcome.failed} failed of {outcome.attempted} attempted)"
    )
    lines.extend(f"failure: {message}" for message in outcome.failures)
    return lines
