"""The no-op tracer's overhead budget: <5% on one simulation.

Three variants of the same ``run_workload`` are timed, interleaved and
best-of-*repeat* each: **untraced** (the ``NULL_TRACER`` default every
caller gets), **noop** (an explicitly disabled :class:`Tracer`, the
identical ``if tracer.enabled`` guard path) and **traced** (a fully
enabled tracer recording every event).  The no-op/untraced ratio is
the overhead the budget in ``docs/observability.md`` is about.

Timing tests are inherently jittery in CI, so the assertion retries:
it passes as soon as one measurement round lands inside the budget,
and only fails when every round exceeds it — a sustained regression,
not a scheduling hiccup.
"""

import time

import pytest

from repro.obs.tracer import Tracer
from repro.sim.config import INTEGRATED
from repro.sim.system import run_workload
from repro.workloads.base import get as get_workload

BUDGET = 0.05
ROUNDS = 5


def bench_tracing(scale, workload="SC", repeat=3):
    """Best-of-*repeat* wall seconds of the untraced, no-op and traced
    variants of one simulation, plus the traced run's event count."""
    kernel = get_workload(workload).build(INTEGRATED, scale)
    variants = (
        ("untraced", lambda: None),
        ("noop", lambda: Tracer(enabled=False)),
        ("traced", Tracer),
    )

    def timed(make_tracer):
        tracer = make_tracer()
        t0 = time.perf_counter()
        run_workload(kernel, "gpu", "drf0", INTEGRATED, tracer=tracer)
        elapsed = time.perf_counter() - t0
        return elapsed, len(tracer) if tracer is not None else 0

    # Warm up caches and the allocator, then interleave the variants so
    # drift (frequency scaling, GC) hits all three equally.
    for _, make_tracer in variants:
        timed(make_tracer)
    best = {}
    events = 0
    for _ in range(max(3, repeat)):
        for name, make_tracer in variants:
            elapsed, n = timed(make_tracer)
            best[name] = min(best.get(name, elapsed), elapsed)
            events = n or events
    return {
        "wall_s_untraced": best["untraced"],
        "wall_s_noop": best["noop"],
        "wall_s_traced": best["traced"],
        "noop_overhead": best["noop"] / best["untraced"] - 1.0,
        "events": events,
    }


@pytest.mark.obs
@pytest.mark.bench
def test_noop_tracer_overhead_under_budget():
    overheads = []
    for _ in range(ROUNDS):
        record = bench_tracing(scale=0.1, workload="SC", repeat=3)
        overheads.append(record["noop_overhead"])
        if record["noop_overhead"] < BUDGET:
            break
    else:
        pytest.fail(
            f"no-op tracer overhead exceeded {BUDGET:.0%} in all "
            f"{ROUNDS} rounds: {[f'{o:.1%}' for o in overheads]}"
        )


@pytest.mark.obs
@pytest.mark.bench
def test_bench_tracing_record_shape():
    """The traced variant really records (so the comparison is not
    between three idle runs), and every variant takes measurable time."""
    record = bench_tracing(scale=0.05, workload="SC", repeat=1)
    assert record["events"] > 0
    assert record["wall_s_untraced"] > 0
    assert record["wall_s_noop"] > 0
    assert record["wall_s_traced"] > 0
