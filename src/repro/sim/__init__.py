"""The heterogeneous CPU-GPU timing simulator (Section 4).

Entry points:

- :class:`repro.sim.system.System` / :func:`repro.sim.system.run_workload`
  — run a workload kernel on one of the six configurations,
- :mod:`repro.sim.config` — Table 2 parameters (integrated) and the
  discrete-GPU configuration for Figure 1,
- :mod:`repro.sim.trace` — the kernel/phase/warp-trace IR workloads emit.
"""

from repro._lazy import lazy_exports

#: Execution engines: "auto" runs the compiled fast path
#: (:mod:`repro.sim.compile`) where it is exact, and the reference
#: interpreter otherwise — with a live tracer (the fast path carries no
#: instrumentation), on a protocol other than GPU or DeNovo coherence,
#: and on a trace with fractional statistics bumps; "reference" forces
#: the interpreter.  Both produce identical results — the reference
#: interpreter is the oracle the fast path is tested against.
#: Defined here, not in :mod:`repro.sim.system`, so that the CLI parser
#: and the v1 request schema can name them without loading the simulator.
ENGINES = ("auto", "reference")

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.config": ("DISCRETE", "INTEGRATED", "SystemConfig", "table2_rows"),
    "repro.sim.consistency": ("DRF0", "DRF1", "DRFRLX", "ConsistencyModel", "table4_rows"),
    "repro.sim.system": (
        "CONFIG_ABBREV", "RunResult", "System", "all_configurations", "run_workload",
    ),
    "repro.sim.trace": ("Compute", "Kernel", "MemAccess", "Phase", "WaitAll"),
})
