"""HRF — Heterogeneous-Race-Free scoped synchronization (comparator).

The paper's Section 7 discusses the HSA/OpenCL/HRF family of models,
which mitigate atomic overheads with *scoped* synchronization instead of
relaxed atomics, and argues (with [53]) that given a protocol like
DeNovo, scopes are not worth their complexity.  To reproduce that
comparison, this module implements a basic HRF0-style checker:

- Threads belong to *groups* (work-groups; on the simulated machine, a
  group shares a CU and its L1).
- A :data:`~repro.core.labels.AtomicKind.PAIRED_LOCAL` atomic
  synchronizes only threads of the same group.
- Two conflicting accesses from different threads must either be ordered
  by scoped happens-before, or both be atomics performed at *compatible
  scope* (both global, or both local within one group).  Anything else
  is a **heterogeneous race** — including two atomics to the same
  location at incompatible scopes, the famous strictness of HRF.

The checker enumerates SC executions exactly like the DRF checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.executions import enumerate_sc_executions
from repro.core.labels import AtomicKind
from repro.core.paths import Operation, OperationGraph
from repro.core.races import eid_pair_view
from repro.core.relations import Relation
from repro.litmus.program import Program

_GLOBAL_SYNC = AtomicKind.PAIRED
_LOCAL_SYNC = AtomicKind.PAIRED_LOCAL


@dataclass(frozen=True)
class HeterogeneousRace:
    first: Operation
    second: Operation
    reason: str  # "data" | "incompatible-scope"

    def __repr__(self) -> str:
        return f"HeterogeneousRace({self.reason}: {self.first!r} ~ {self.second!r})"


@dataclass(frozen=True)
class HrfCheckResult:
    program_name: str
    groups: Tuple[int, ...]
    legal: bool
    witnesses: Tuple[HeterogeneousRace, ...]
    executions_explored: int

    def summary(self) -> str:
        verdict = "LEGAL" if self.legal else "ILLEGAL"
        return (
            f"{self.program_name}: HRF {verdict} "
            f"(groups={list(self.groups)}; "
            f"{len(self.witnesses)} heterogeneous races)"
        )


def _scope_adequate(a: Operation, b: Operation, groups: Sequence[int]) -> bool:
    """Both atomics, performed at a scope including both threads."""
    ka, kb = a.label, b.label
    if ka is _GLOBAL_SYNC and kb is _GLOBAL_SYNC:
        return True
    if ka in (_GLOBAL_SYNC, _LOCAL_SYNC) and kb in (_GLOBAL_SYNC, _LOCAL_SYNC):
        # Any local participant restricts the common scope to its group.
        return groups[a.tid] == groups[b.tid]
    return False


def _scoped_hb(execution, groups: Sequence[int]) -> Relation:
    """Happens-before with scope-aware synchronization order."""
    sync_w = [
        e for e in execution.program_events
        if e.is_write and e.label in (_GLOBAL_SYNC, _LOCAL_SYNC)
    ]
    sync_r = [
        e for e in execution.program_events
        if e.is_read and e.label in (_GLOBAL_SYNC, _LOCAL_SYNC)
    ]
    pairs = []
    for w in sync_w:
        for r in sync_r:
            if not (w.conflicts_with(r) and execution.t_before(w, r)):
                continue
            # The synchronization only takes effect when its scope covers
            # both threads.
            if w.label is _GLOBAL_SYNC and r.label is _GLOBAL_SYNC:
                pairs.append((w, r))
            elif groups[w.tid] == groups[r.tid]:
                pairs.append((w, r))
    return (execution.po | execution.relation(pairs)).transitive_closure()


def check_hrf(
    program: Program,
    groups: Optional[Sequence[int]] = None,
    max_witnesses: int = 32,
) -> HrfCheckResult:
    """Check *program* against the HRF0-style scoped model.

    ``groups[tid]`` assigns each thread to a work-group; the default puts
    every thread in its own group (the most conservative reading, where
    local scope synchronizes nothing across threads)."""
    if groups is None:
        groups = tuple(range(program.num_threads))
    groups = tuple(groups)
    if len(groups) != program.num_threads:
        raise ValueError(
            f"groups has {len(groups)} entries for {program.num_threads} threads"
        )

    enumeration = enumerate_sc_executions(program)
    witnesses = []
    for execution in enumeration.executions:
        hb = _scoped_hb(execution, groups)
        hb_pairs = eid_pair_view(execution, hb)
        graph = OperationGraph(execution)
        ops = graph.operations
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                if a.tid == b.tid or not a.conflicts_with(b):
                    continue
                ordered = graph.hb1_holds(hb_pairs, a, b) or graph.hb1_holds(
                    hb_pairs, b, a
                )
                if ordered:
                    continue
                if a.is_atomic and b.is_atomic and _scope_adequate(a, b, groups):
                    continue
                reason = (
                    "data"
                    if (a.label is AtomicKind.DATA or b.label is AtomicKind.DATA)
                    else "incompatible-scope"
                )
                if len(witnesses) < max_witnesses:
                    first, second = (a, b) if graph.t_before(a, b) else (b, a)
                    witnesses.append(HeterogeneousRace(first, second, reason))
    return HrfCheckResult(
        program_name=program.name,
        groups=groups,
        legal=not witnesses,
        witnesses=tuple(witnesses),
        executions_explored=len(enumeration.executions),
    )
