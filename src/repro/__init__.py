"""repro — a reproduction of "Chasing Away RAts: Semantics and Evaluation
for Relaxed Atomics on Heterogeneous Systems" (Sinclair, Alsop, Adve,
ISCA 2017).

The package has two halves, mirroring the paper:

- :mod:`repro.core` + :mod:`repro.litmus`: the DRFrlx memory model — SC
  execution enumeration, race classification for the five relaxed-atomic
  classes, the Herd-model transcription, and the system-centric relaxed
  machine.
- :mod:`repro.sim` + :mod:`repro.workloads` + :mod:`repro.energy` +
  :mod:`repro.eval`: the evaluation — a CPU-GPU timing simulator with GPU
  and DeNovo coherence under DRF0/DRF1/DRFrlx, the paper's workloads, and
  the harness that regenerates every table and figure.

The package and its ``core``, ``eval`` and ``sim`` facades resolve each
re-exported name on first use (:mod:`repro._lazy`), so an entry point
loads only the half it runs: a simulator sweep never imports the
checker, and ``python -m repro --help`` imports neither half.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.executions": ("enumerate_sc_executions",),
    "repro.core.labels": ("AtomicKind",),
    "repro.core.model": ("CheckResult", "check", "check_all_models"),
    "repro.core.quantum": ("quantum_equivalent",),
    "repro.core.races": ("RaceAnalysis",),
    "repro.core.system_model": ("run_system_model",),
    "repro.litmus.program": ("Program",),
})
__all__.append("__version__")
