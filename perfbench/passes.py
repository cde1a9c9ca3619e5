"""The closed loop shared by join-mix, pebble-solve and solve-deadline.

A workload module provides ``build(seed, scale)`` (the seeded operation
list and its oracles), ``warm_up(ops)``, a ``Runner`` class whose
``run_op`` times and checks one operation, ``OBJECTIVE_S``, ``TAIL_PCT``
and ``ROOT_LAYER`` (the span its traced runner opens around each
operation).

An untraced run sets up ``SETUP_REPEATS`` times, then runs whole passes
over the operations for at least ``seconds``.  A traced run alternates
untraced and traced passes over the same operations for at least
``seconds``, so tracing overhead is the difference between two timings
of identical work; per-layer values are per pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import ModuleType

from perfbench import layers
from perfbench.common import Outcome, end_to_end, run_passes, timed_setup
from perfbench.tracer import Patcher, Tracer, install


@dataclass
class Report:
    """The result of one benchmark run."""

    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str] = field(default_factory=list)
    outcome: Outcome | None = None
    tail_pct: float = 50.0


def run_pass_workload(
    module: ModuleType,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float = 0.0,
    scale: float = 1.0,
) -> Report:
    def setup():
        ops = module.build(seed, scale)
        module.warm_up(ops)
        return ops

    ops, setup_once = timed_setup(setup)
    setup_s = import_s + setup_once
    if not trace:
        outcome = Outcome()
        runner = module.Runner()

        def one_pass() -> None:
            for op in ops:
                runner.run_op(op, outcome)

        outcome.elapsed, passes = run_passes(seconds, one_pass)
        return Report(
            outcome.attempted,
            outcome.failed,
            end_to_end(outcome, setup_s, module.OBJECTIVE_S, module.TAIL_PCT),
            [f"operations per pass: {len(ops)}; passes: {passes}"],
            outcome,
            module.TAIL_PCT,
        )

    # Untraced and traced passes alternate, so both see the same machine
    # and their difference is the cost of tracing, not drift.
    plain, traced = Outcome(), Outcome()
    plain_runner = module.Runner()
    tracer = Tracer()
    runner = module.Runner(tracer)

    def both_passes() -> None:
        for op in ops:
            plain_runner.run_op(op, plain)
        patcher = Patcher()
        install(tracer, patcher)
        try:
            for op in ops:
                runner.run_op(op, traced)
        finally:
            patcher.restore()

    _elapsed, passes = run_passes(seconds, both_passes)
    traced_s, untraced_s = sum(traced.latencies), sum(plain.latencies)
    values = layers.from_tracer(tracer, traced_s, passes, (module.ROOT_LAYER,))
    values["trace_overhead_share"] = layers.overhead_share(traced_s, untraced_s)
    values.update(runner.extra_layers())
    if hasattr(module, "untraced_layers"):
        values.update(module.untraced_layers(plain))
    metrics = {name: (values[name], unit) for name, unit in layers.PER_LAYER}
    notes = [
        f"operations per pass: {len(ops)}; passes: {passes} untraced and {passes} traced, alternating",
        f"untraced: {untraced_s:.3f} s of operations; traced: {traced_s:.3f} s",
    ]
    merged = Outcome(
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        failures=plain.failures + traced.failures,
    )
    return Report(merged.attempted, merged.failed, metrics, notes, merged, module.TAIL_PCT)
