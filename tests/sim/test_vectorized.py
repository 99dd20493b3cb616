"""The form the benchmark's traced replay runs.

``e2ebench/sim_sweep.py`` builds each Figure 3/4 kernel's fast form as
``vectorize_kernel(compile_kernel(kernel))`` and reuses it across the six
configurations.  :mod:`repro.sim.vectorize` keeps those two names as
identities over the one compiled fast path; these tests pin that the
replay's form runs every workload exactly like ``engine="auto"`` (which
``test_compile.py`` holds to the reference interpreter).
"""

import pytest

import repro.sim.vectorize as vectorize
from repro.energy.model import DEFAULT_ENERGY_MODEL
from repro.eval.export import energy_csv, time_csv
from repro.eval.harness import Observation, SweepResult, run_sweep
from repro.obs.tracer import Tracer
from repro.sim.compile import compile_kernel
from repro.sim.config import INTEGRATED
from repro.sim.system import CONFIG_ABBREV, all_configurations, run_workload
from repro.workloads.base import all_workloads, get

#: Small enough that the full workload x configuration product stays
#: test-suite cheap, large enough that every phase does real work.
SCALE = 0.05

WORKLOAD_NAMES = [w.name for w in all_workloads()]


def _snapshot(result):
    return (result.cycles, result.phase_cycles, dict(result.stats.counters))


def _replay_form(kernel):
    assert vectorize.available()
    compiled = compile_kernel(kernel, INTEGRATED)
    assert vectorize.vectorize_kernel(compiled) is compiled
    return compiled


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_vectorized_matches_reference(name):
    """One replay form per workload, reused across all six
    configurations, gives the same cycles, per-phase cycles and counters
    as a fresh ``auto`` run of each."""
    kernel = get(name).build(INTEGRATED, SCALE)
    fast = _replay_form(kernel)
    for protocol, model in all_configurations():
        auto = run_workload(kernel, protocol, model, INTEGRATED, engine="auto")
        replay = run_workload(
            kernel, protocol, model, INTEGRATED, engine="auto", compiled=fast,
        )
        assert _snapshot(replay) == _snapshot(auto), (name, protocol, model)


def test_prevectorized_kernel_reusable_across_configurations():
    """The replay form matches the reference interpreter on all six
    configurations."""
    kernel = get("SC").build(INTEGRATED, SCALE)
    fast = _replay_form(kernel)
    for protocol, model in all_configurations():
        ref = run_workload(
            kernel, protocol, model, INTEGRATED, engine="reference"
        )
        replay = run_workload(
            kernel, protocol, model, INTEGRATED, engine="auto", compiled=fast,
        )
        assert _snapshot(replay) == _snapshot(ref), (protocol, model)


def test_sweep_csvs_byte_identical_across_engines():
    """A sweep assembled from replay-form runs, the way the benchmark's
    replay builds it, exports the same CSVs as a reference sweep."""
    names = ("H", "Flags", "SEQ")
    ref = run_sweep(names, scale=SCALE, engine="reference")
    replay = SweepResult()
    for name in names:
        kernel = get(name).build(INTEGRATED, SCALE)
        fast = _replay_form(kernel)
        for protocol, model in all_configurations():
            result = run_workload(
                kernel, protocol, model, INTEGRATED, engine="auto",
                compiled=fast,
            )
            replay.add(Observation(
                workload=name, config=CONFIG_ABBREV[(protocol, model)],
                cycles=result.cycles,
                energy_nj=DEFAULT_ENERGY_MODEL.breakdown(result.stats),
            ))
    assert time_csv(ref) == time_csv(replay)
    assert energy_csv(ref) == energy_csv(replay)


def test_live_tracer_forces_reference_fallback():
    """A live tracer runs the reference interpreter even when a replay
    form is supplied: identical result, and the trace actually has
    events."""
    kernel = get("SC").build(INTEGRATED, SCALE)
    fast = _replay_form(kernel)
    ref = run_workload(kernel, "gpu", "drfrlx", INTEGRATED, engine="reference")
    tracer = Tracer()
    traced = run_workload(
        kernel, "gpu", "drfrlx", INTEGRATED, tracer=tracer, engine="auto",
        compiled=fast,
    )
    assert _snapshot(traced) == _snapshot(ref)
    assert len(tracer) > 0
