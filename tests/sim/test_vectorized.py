"""The numpy-vectorized engine against the reference interpreter.

Like the compiled engine (see ``test_compile.py``), the vectorized
engine (:mod:`repro.sim.vectorize`) is a pure specialization: it must
reproduce the reference interpreter's timing and statistics bit-for-bit
on every workload and configuration — same float arithmetic in the same
order, not merely "close".  On top of that it is optional: without
numpy, ``auto`` silently degrades to the compiled engine and only an
*explicit* ``engine="vectorized"`` request raises.
"""

import subprocess
import sys
import textwrap

import pytest

import repro.sim.vectorize as vectorize
from repro.eval.export import energy_csv, time_csv
from repro.eval.harness import run_sweep
from repro.obs.tracer import Tracer
from repro.sim.compile import compile_kernel
from repro.sim.config import INTEGRATED
from repro.sim.system import System, all_configurations, run_workload
from repro.workloads.base import all_workloads, get

needs_numpy = pytest.mark.skipif(
    not vectorize.available(), reason="numpy not installed"
)

#: Small enough that the full workload x configuration product stays
#: test-suite cheap, large enough that every phase does real work.
SCALE = 0.05

WORKLOAD_NAMES = [w.name for w in all_workloads()]


def _snapshot(result):
    return (result.cycles, result.phase_cycles, dict(result.stats.counters))


@needs_numpy
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_vectorized_matches_reference(name):
    """Equal cycles, per-phase cycles, and the full stats-counter dict on
    every one of the six configurations."""
    kernel = get(name).build(INTEGRATED, SCALE)
    for protocol, model in all_configurations():
        ref = run_workload(
            kernel, protocol, model, INTEGRATED, engine="reference"
        )
        vec = run_workload(
            kernel, protocol, model, INTEGRATED, engine="vectorized"
        )
        assert _snapshot(vec) == _snapshot(ref), (name, protocol, model)


@needs_numpy
def test_prevectorized_kernel_reusable_across_configurations():
    """One vectorize_kernel() result serves all six (protocol, model)
    configurations, and also unwraps for the compiled engine."""
    kernel = get("SC").build(INTEGRATED, SCALE)
    fast = vectorize.vectorize_kernel(compile_kernel(kernel, INTEGRATED))
    for protocol, model in all_configurations():
        ref = run_workload(
            kernel, protocol, model, INTEGRATED, engine="reference"
        )
        vec = run_workload(
            kernel, protocol, model, INTEGRATED,
            engine="vectorized", compiled=fast,
        )
        comp = run_workload(
            kernel, protocol, model, INTEGRATED,
            engine="compiled", compiled=fast,
        )
        assert _snapshot(vec) == _snapshot(ref), (protocol, model)
        assert _snapshot(comp) == _snapshot(ref), (protocol, model)


@needs_numpy
def test_sweep_csvs_byte_identical_across_engines():
    names = ("H", "Flags", "SEQ")
    ref = run_sweep(names, scale=SCALE, engine="reference")
    vec = run_sweep(names, scale=SCALE, engine="vectorized")
    assert time_csv(ref) == time_csv(vec)
    assert energy_csv(ref) == energy_csv(vec)


@needs_numpy
def test_auto_prefers_vectorized(monkeypatch):
    """With numpy importable and no tracer, ``auto`` resolves to the
    vectorized engine (observed through the runner it dispatches to)."""
    calls = []
    real = vectorize.run_vectorized

    def spy(system, kernel, vectorized):
        calls.append(kernel.name)
        return real(system, kernel, vectorized)

    monkeypatch.setattr(vectorize, "run_vectorized", spy)
    kernel = get("SC").build(INTEGRATED, SCALE)
    ref = run_workload(kernel, "gpu", "drf0", INTEGRATED, engine="reference")
    auto = run_workload(kernel, "gpu", "drf0", INTEGRATED, engine="auto")
    assert calls == [kernel.name]
    assert _snapshot(auto) == _snapshot(ref)


@needs_numpy
def test_live_tracer_forces_reference_fallback():
    """engine='vectorized' with a live tracer silently runs the reference
    interpreter: identical result, and the trace actually has events."""
    kernel = get("SC").build(INTEGRATED, SCALE)
    ref = run_workload(kernel, "gpu", "drfrlx", INTEGRATED, engine="reference")
    tracer = Tracer()
    traced = run_workload(
        kernel, "gpu", "drfrlx", INTEGRATED, tracer=tracer, engine="vectorized"
    )
    assert _snapshot(traced) == _snapshot(ref)
    assert len(tracer) > 0


@needs_numpy
def test_mesi_protocol_falls_back_to_compiled():
    """The stepper only inlines the exact GPU/DeNovo handlers; the MESI
    comparator routes through the compiled engine with identical
    results."""
    kernel = get("SC").build(INTEGRATED, SCALE)
    ref = run_workload(kernel, "mesi", "drf0", INTEGRATED, engine="reference")
    vec = run_workload(kernel, "mesi", "drf0", INTEGRATED, engine="vectorized")
    assert _snapshot(vec) == _snapshot(ref)


@needs_numpy
def test_nonbatchable_kernel_falls_back_to_compiled():
    """A vectorized form whose counter batching was vetoed still runs —
    through the compiled stepper — with identical results."""
    kernel = get("RC").build(INTEGRATED, SCALE)
    fast = vectorize.vectorize_kernel(compile_kernel(kernel, INTEGRATED))
    fast.batchable = False
    ref = run_workload(kernel, "denovo", "drf1", INTEGRATED, engine="reference")
    vec = run_workload(
        kernel, "denovo", "drf1", INTEGRATED,
        engine="vectorized", compiled=fast,
    )
    assert _snapshot(vec) == _snapshot(ref)


class TestWithoutNumpy:
    """Degradation paths, simulated by clearing the module's captured
    numpy handle — the state an import failure leaves behind."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(vectorize, "_np", None)

    def test_available_reports_false(self, no_numpy):
        assert not vectorize.available()

    def test_auto_degrades_to_compiled(self, no_numpy, monkeypatch):
        from repro.sim import compile as compile_mod

        calls = []
        real = compile_mod.run_compiled

        def spy(system, kernel, compiled):
            calls.append(kernel.name)
            return real(system, kernel, compiled)

        monkeypatch.setattr(compile_mod, "run_compiled", spy)
        kernel = get("SC").build(INTEGRATED, SCALE)
        ref = run_workload(
            kernel, "gpu", "drf0", INTEGRATED, engine="reference"
        )
        auto = run_workload(kernel, "gpu", "drf0", INTEGRATED, engine="auto")
        assert calls == [kernel.name]
        assert _snapshot(auto) == _snapshot(ref)

    def test_explicit_vectorized_raises_actionable_error(self, no_numpy):
        kernel = get("SC").build(INTEGRATED, SCALE)
        with pytest.raises(RuntimeError, match="numpy"):
            System("gpu", "drf0", INTEGRATED).run(kernel, engine="vectorized")


def test_suite_without_numpy_import_blocked():
    """End to end with numpy genuinely unimportable: a finder that
    blocks the import, then a simulation on engine='auto' (must degrade
    to compiled) and a litmus check."""
    script = textwrap.dedent(
        """
        import sys

        class Block:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" or name.startswith("numpy."):
                    raise ImportError("numpy blocked for this test")
                return None

        sys.meta_path.insert(0, Block())

        from repro.core.model import check
        from repro.litmus.library import get as get_litmus
        from repro.sim.config import INTEGRATED
        from repro.sim.system import run_workload
        from repro.sim.vectorize import available
        from repro.workloads.base import get as get_workload

        assert not available()

        kernel = get_workload("SC").build(INTEGRATED, 0.05)
        auto = run_workload(kernel, "gpu", "drf0", INTEGRATED, engine="auto")
        ref = run_workload(
            kernel, "gpu", "drf0", INTEGRATED, engine="reference"
        )
        assert auto.cycles == ref.cycles
        assert dict(auto.stats.counters) == dict(ref.stats.counters)

        assert check(get_litmus("mp_paired").program, "drf0").legal
        print("ok")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
