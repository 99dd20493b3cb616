"""The compiled fast path against the reference interpreter.

The compiled engine (:mod:`repro.sim.compile`) is a pure specialization:
it must reproduce the reference interpreter's timing and statistics
bit-for-bit on every workload and configuration — same float arithmetic
in the same order, not merely "close".  Where it cannot be exact (a live
tracer, the MESI comparator, a trace with fractional statistics bumps)
``engine="auto"`` must run the reference interpreter instead.  These
tests are the oracle that keeps the fast path honest; its speed shows in
the benchmark's ``sim_sweep`` workload (``e2ebench/run.py``).  None of
them needs anything beyond the standard library.
"""

import pytest

import repro.sim.system as system_mod
from repro.api.schema import ENGINES as SCHEMA_ENGINES
from repro.cli import SIM_ENGINES
from repro.core.labels import AtomicKind
from repro.eval.export import energy_csv, time_csv
from repro.eval.harness import run_sweep
from repro.obs.tracer import Tracer
from repro.sim.compile import compile_kernel, run_compiled
from repro.sim.config import INTEGRATED
from repro.sim.system import (
    ENGINES,
    System,
    all_configurations,
    run_workload,
)
from repro.sim.trace import Compute, Kernel, Phase, WaitAll, ld, rmw, st
from repro.workloads.base import all_workloads, get

#: Small enough that the full workload x configuration product stays
#: test-suite cheap, large enough that every phase does real work.
SCALE = 0.05

WORKLOAD_NAMES = [w.name for w in all_workloads()]


def _snapshot(result):
    return (result.cycles, result.phase_cycles, dict(result.stats.counters))


def _resolutions(monkeypatch):
    """Every ``sim_engine`` resolution :meth:`System.run` records."""
    seen = []
    monkeypatch.setattr(
        system_mod, "record_resolution",
        lambda kind, choice: seen.append((kind, choice)),
    )
    return seen


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_compiled_matches_reference(name):
    """Equal cycles, per-phase cycles, and the full stats-counter dict on
    every one of the six configurations, run on the compiled stepper
    itself (``run_compiled`` refuses a kernel it cannot run exactly, so
    no fallback can hide here)."""
    kernel = get(name).build(INTEGRATED, SCALE)
    for protocol, model in all_configurations():
        ref = run_workload(
            kernel, protocol, model, INTEGRATED, engine="reference"
        )
        system = System(protocol, model, INTEGRATED)
        cycles, phases = run_compiled(
            system, kernel, compile_kernel(kernel, INTEGRATED)
        )
        comp = (cycles, phases, dict(system.stats.counters))
        assert comp == _snapshot(ref), (name, protocol, model)


def test_lowering_matches_the_protocol_helpers():
    """Each global access's line, word and home-bank slot equal what the
    interpreter's ``line_of``, ``word_of`` and ``L2System.home_node``
    derive for its address."""
    kernel = get("BC-1").build(INTEGRATED, SCALE)
    compiled = compile_kernel(kernel, INTEGRATED)
    system = System("denovo", "drf0", INTEGRATED)
    proto = system.cus[0].protocol
    checked = 0
    for phase in compiled._phases:
        for straces in phase.values():
            for s in straces:
                for i, key in enumerate(s.skeys):
                    if key is None:
                        assert (s.lines[i], s.words[i], s.slot_of[i]) == (-1, -1, -1)
                        continue
                    addr = s.arg[i]
                    assert s.lines[i] == proto.line_of(addr)
                    assert s.words[i] == proto.word_of(addr)
                    home = s.home_slots[s.slot_of[i]]
                    assert home == system.l2.home_node(s.lines[i])
                    checked += 1
    assert checked > 0


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
            engine="auto", compiled=compiled,
        )
        assert _snapshot(comp) == _snapshot(ref), (protocol, model)


def test_sweep_csvs_byte_identical_across_engines():
    names = ("H", "Flags", "SEQ")
    ref = run_sweep(names, scale=SCALE, engine="reference")
    fast = run_sweep(names, scale=SCALE, engine="auto")
    assert time_csv(ref) == time_csv(fast)
    assert energy_csv(ref) == energy_csv(fast)


def test_run_sweep_rejects_unknown_engine():
    for engine in ("jit", "compiled", "vectorized"):
        with pytest.raises(ValueError, match="engine"):
            run_sweep(("SC",), scale=SCALE, engine=engine)


def test_system_rejects_unknown_engine():
    kernel = get("SC").build(INTEGRATED, SCALE)
    with pytest.raises(ValueError, match="engine"):
        System("gpu", "drf0", INTEGRATED).run(kernel, engine="jit")
    assert ENGINES == ("auto", "reference")
    # The v1 schema and the CLI spell the same tuple out, so that
    # neither has to import the simulator.
    assert SCHEMA_ENGINES == ENGINES
    assert SIM_ENGINES == ENGINES


def test_live_tracer_forces_reference_fallback(monkeypatch):
    """engine='auto' with a live tracer runs the reference interpreter:
    identical result, and the trace actually has events."""
    kernel = get("SC").build(INTEGRATED, SCALE)
    ref = run_workload(kernel, "gpu", "drfrlx", INTEGRATED, engine="reference")
    tracer = Tracer()
    seen = _resolutions(monkeypatch)
    traced = run_workload(
        kernel, "gpu", "drfrlx", INTEGRATED, tracer=tracer, engine="auto"
    )
    assert _snapshot(traced) == _snapshot(ref)
    assert len(tracer) > 0
    assert seen == [("sim_engine", "reference")]


def test_auto_engine_matches_both_named_engines(monkeypatch):
    kernel = get("RC").build(INTEGRATED, SCALE)
    seen = _resolutions(monkeypatch)
    auto = run_workload(kernel, "denovo", "drf1", INTEGRATED, engine="auto")
    ref = run_workload(kernel, "denovo", "drf1", INTEGRATED, engine="reference")
    assert _snapshot(auto) == _snapshot(ref)
    assert seen == [("sim_engine", "compiled"), ("sim_engine", "reference")]


def test_mesi_protocol_falls_back_to_reference(monkeypatch):
    """The stepper inlines only the exact GPU/DeNovo handlers: a MESI run
    under ``auto`` runs the reference interpreter, and records that."""
    kernel = get("SC").build(INTEGRATED, SCALE)
    ref = run_workload(kernel, "mesi", "drf0", INTEGRATED, engine="reference")
    seen = _resolutions(monkeypatch)
    auto = run_workload(kernel, "mesi", "drf0", INTEGRATED, engine="auto")
    assert _snapshot(auto) == _snapshot(ref)
    assert seen == [("sim_engine", "reference")]
    with pytest.raises(ValueError, match="reference interpreter"):
        run_compiled(
            System("mesi", "drf0", INTEGRATED), kernel,
            compile_kernel(kernel, INTEGRATED),
        )


def _fractional_kernel() -> Kernel:
    """Two CUs of two warps whose traces mix every op kind with a
    fractional ALU bump, so batching CORE_OP would not be exact."""
    phase = Phase("p0")
    for cu in range(2):
        for w in range(2):
            base = 4096 * (2 * cu + w)
            phase.add_warp(cu, [
                ld(base), Compute(2.5), st(base + 64),
                rmw(8192, AtomicKind.PAIRED), ld(base + 128),
                rmw(8256, AtomicKind.COMMUTATIVE), Compute(1),
                ld(0, space="scratch"), WaitAll(), st(base, AtomicKind.PAIRED),
            ])
    return Kernel("fractional", [phase, Phase("p1", dict(phase.warps_per_cu))])


def test_fractional_trace_falls_back_to_reference(monkeypatch):
    """The lowering's integrality check marks a trace with ``Compute(2.5)``
    non-batchable; ``auto`` then runs the reference interpreter with its
    cycles, per-phase cycles and counters."""
    kernel = _fractional_kernel()
    compiled = compile_kernel(kernel, INTEGRATED)
    assert not compiled.batchable
    assert not any(
        s.batch for phase in compiled._phases
        for straces in phase.values() for s in straces
    )
    for protocol, model in all_configurations():
        ref = run_workload(
            kernel, protocol, model, INTEGRATED, engine="reference"
        )
        seen = _resolutions(monkeypatch)
        auto = run_workload(
            kernel, protocol, model, INTEGRATED, engine="auto",
            compiled=compiled,
        )
        assert _snapshot(auto) == _snapshot(ref), (protocol, model)
        assert seen == [("sim_engine", "reference")]
    with pytest.raises(ValueError, match="reference interpreter"):
        run_compiled(System("gpu", "drf0", INTEGRATED), kernel, compiled)
