"""Solver-backed model checking (the third checking engine).

``repro.solver`` lowers a litmus :class:`~repro.litmus.program.Program`
to CNF and enumerates its race-relevant execution classes with a small
dependency-free CDCL SAT solver, instead of walking every interleaving
the way :mod:`repro.core.executions` does.  The modules:

- :mod:`repro.solver.sat` — the CDCL core (two-watched-literal
  propagation, 1UIP learning, VSIDS activity, restarts; clauses added
  between ``solve()`` calls keep the learnt clauses warm);
- :mod:`repro.solver.encode` — per-thread symbolic grounding plus the
  CNF encoding over reads-from / coherence / order variables;
- :mod:`repro.solver.bridge` — the one AllSAT loop,
  :class:`SharedCore`, which decodes each model back into a concrete
  :class:`~repro.core.events.Execution` and packs them into an
  :class:`~repro.core.executions.SCEnumeration`, which is what
  ``model.check(engine="sat")`` consumes; cores are memoized per
  label-erased program structure.

See the "Solver-backed checking" section of ``docs/performance.md`` for
the encoding sketch and the engine-selection rules.
"""

from repro.solver.sat import SatStats, Solver
from repro.solver.encode import SolverCapacityError, erase_labels
from repro.solver.bridge import (
    SharedCore,
    SolverStats,
    clear_core_memo,
    sat_enumeration,
)

__all__ = [
    "SatStats",
    "SharedCore",
    "Solver",
    "SolverCapacityError",
    "SolverStats",
    "clear_core_memo",
    "erase_labels",
    "sat_enumeration",
]
