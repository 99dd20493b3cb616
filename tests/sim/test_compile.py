"""The trace-compiled engine against the reference interpreter.

The compiled engine (:mod:`repro.sim.compile`) is a pure specialization:
it must reproduce the reference interpreter's timing and statistics
bit-for-bit on every workload and configuration — same float arithmetic
in the same order, not merely "close".  These tests are the oracle that
keeps the fast path honest; its speed shows in the benchmark's
``sim_sweep`` workload (``e2ebench/run.py``).
"""

import pytest

from repro.eval.export import energy_csv, time_csv
from repro.eval.harness import run_sweep
from repro.obs.tracer import Tracer
from repro.sim.compile import compile_kernel
from repro.sim.config import INTEGRATED
from repro.sim.system import (
    ENGINES,
    System,
    all_configurations,
    run_workload,
)
from repro.workloads.base import all_workloads, get

#: Small enough that the full workload x configuration product stays
#: test-suite cheap, large enough that every phase does real work.
SCALE = 0.05

WORKLOAD_NAMES = [w.name for w in all_workloads()]


def _snapshot(result):
    return (result.cycles, result.phase_cycles, dict(result.stats.counters))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_compiled_matches_reference(name):
    """Equal cycles, per-phase cycles, and the full stats-counter dict on
    every one of the six configurations."""
    kernel = get(name).build(INTEGRATED, SCALE)
    for protocol, model in all_configurations():
        ref = run_workload(
            kernel, protocol, model, INTEGRATED, engine="reference"
        )
        comp = run_workload(
            kernel, protocol, model, INTEGRATED, engine="compiled"
        )
        assert _snapshot(comp) == _snapshot(ref), (name, protocol, model)


def test_precompiled_kernel_reusable_across_configurations():
    """One compile_kernel() result serves all six (protocol, model)
    configurations: treatments are resolved per model inside the table."""
    kernel = get("SC").build(INTEGRATED, SCALE)
    compiled = compile_kernel(kernel, INTEGRATED)
    for protocol, model in all_configurations():
        ref = run_workload(
            kernel, protocol, model, INTEGRATED, engine="reference"
        )
        comp = run_workload(
            kernel, protocol, model, INTEGRATED,
            engine="compiled", compiled=compiled,
        )
        assert _snapshot(comp) == _snapshot(ref), (protocol, model)


def test_sweep_csvs_byte_identical_across_engines():
    names = ("H", "Flags", "SEQ")
    ref = run_sweep(names, scale=SCALE, engine="reference")
    comp = run_sweep(names, scale=SCALE, engine="compiled")
    assert time_csv(ref) == time_csv(comp)
    assert energy_csv(ref) == energy_csv(comp)


def test_run_sweep_rejects_unknown_engine():
    with pytest.raises(ValueError, match="engine"):
        run_sweep(("SC",), scale=SCALE, engine="jit")


def test_system_rejects_unknown_engine():
    kernel = get("SC").build(INTEGRATED, SCALE)
    with pytest.raises(ValueError, match="engine"):
        System("gpu", "drf0", INTEGRATED).run(kernel, engine="jit")
    assert set(ENGINES) == {"auto", "compiled", "vectorized", "reference"}


def test_live_tracer_forces_reference_fallback():
    """engine='compiled' with a live tracer silently runs the reference
    interpreter: identical result, and the trace actually has events."""
    kernel = get("SC").build(INTEGRATED, SCALE)
    ref = run_workload(kernel, "gpu", "drfrlx", INTEGRATED, engine="reference")
    tracer = Tracer()
    traced = run_workload(
        kernel, "gpu", "drfrlx", INTEGRATED, tracer=tracer, engine="compiled"
    )
    assert _snapshot(traced) == _snapshot(ref)
    assert len(tracer) > 0


def test_auto_engine_matches_both_named_engines():
    kernel = get("RC").build(INTEGRATED, SCALE)
    auto = run_workload(kernel, "denovo", "drf1", INTEGRATED, engine="auto")
    ref = run_workload(kernel, "denovo", "drf1", INTEGRATED, engine="reference")
    assert _snapshot(auto) == _snapshot(ref)
