"""The heterogeneous CPU-GPU timing simulator (Section 4).

Entry points:

- :class:`repro.sim.system.System` / :func:`repro.sim.system.run_workload`
  — run a workload kernel on one of the six configurations,
- :mod:`repro.sim.config` — Table 2 parameters (integrated) and the
  discrete-GPU configuration for Figure 1,
- :mod:`repro.sim.trace` — the kernel/phase/warp-trace IR workloads emit.
"""

from repro.sim.config import DISCRETE, INTEGRATED, SystemConfig, table2_rows
from repro.sim.consistency import DRF0, DRF1, DRFRLX, ConsistencyModel, table4_rows
from repro.sim.system import (
    CONFIG_ABBREV,
    RunResult,
    System,
    all_configurations,
    run_workload,
)
from repro.sim.trace import Compute, Kernel, MemAccess, Phase, WaitAll

__all__ = [
    "CONFIG_ABBREV",
    "Compute",
    "ConsistencyModel",
    "DISCRETE",
    "DRF0",
    "DRF1",
    "DRFRLX",
    "INTEGRATED",
    "Kernel",
    "MemAccess",
    "Phase",
    "RunResult",
    "System",
    "SystemConfig",
    "WaitAll",
    "all_configurations",
    "run_workload",
    "table2_rows",
    "table4_rows",
]
