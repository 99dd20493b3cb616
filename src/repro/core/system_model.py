"""System-centric model: an operational machine for DRFrlx-compliant
systems (Section 3.8).

The paper's system-centric Herd model "restricts program executions in a
way that preserves intuitive atomic reordering invariants.  For example,
successive unpaired accesses must occur in program order, paired reads may
not be reordered with subsequent memory accesses, and paired writes may
not be reordered with prior memory accesses."

We realize the same invariants operationally: each thread holds a window
of pending instructions; a memory instruction may be chosen for execution
when no earlier pending instruction *must* precede it.  The must-precede
rules, per consistency model:

========== ===========================================================
all models same resolved location stays in program order (per-location
           SC); register dependencies (incl. anti/output — the machine
           does not rename); control dependencies (no branch
           speculation); fences order everything
paired     a paired read blocks every later access; a paired write
           waits for every earlier access
DRF0       every atomic is paired
DRF1       as DRF0, except non-paired atomics (all treated unpaired)
           skip nothing w.r.t. data but stay program-ordered w.r.t.
           other atomics
DRFrlx     unpaired atomics stay ordered w.r.t. each other and paired;
           relaxed atomics (commutative / non-ordering / quantum /
           speculative) reorder freely w.r.t. data, unpaired and each
           other
========== ===========================================================

Enumerating every choice of next-instruction yields the full set of
executions such a machine can produce; comparing their outcomes against
the SC-reachable outcome set decides whether the program can exhibit
non-SC behavior on a compliant system.  Theorem 3.1 then predicts: no
non-SC outcomes unless the program has an illegal race or uses quantum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.core.executions import enumerate_sc_executions
from repro.core.labels import RELAXED_KINDS, AtomicKind, effective_kind, is_atomic
from repro.litmus.ast import (
    Assign,
    Fence,
    If,
    Instr,
    LitmusError,
    Load,
    Rmw,
    Store,
    Value,
    While,
)
from repro.litmus.program import Program

Outcome = Tuple[Tuple[str, int], ...]  # sorted (location, value) plus registers


def _regs_read(instr: Instr) -> FrozenSet[str]:
    if isinstance(instr, Load):
        return instr.loc.index.registers() if hasattr(instr.loc, "index") else frozenset()
    if isinstance(instr, Store):
        regs = instr.value.registers()
        if hasattr(instr.loc, "index"):
            regs |= instr.loc.index.registers()
        return regs
    if isinstance(instr, Rmw):
        regs = instr.operand.registers()
        if instr.operand2 is not None:
            regs |= instr.operand2.registers()
        if hasattr(instr.loc, "index"):
            regs |= instr.loc.index.registers()
        return regs
    if isinstance(instr, Assign):
        return instr.expr.registers()
    if isinstance(instr, (If, While)):
        return instr.cond.registers()
    return frozenset()


def _regs_written(instr: Instr) -> FrozenSet[str]:
    if isinstance(instr, (Load, Rmw)):
        return frozenset({instr.dst})
    if isinstance(instr, Assign):
        return frozenset({instr.dst})
    return frozenset()


def _possible_locs(instr: Instr) -> FrozenSet[str]:
    if isinstance(instr, (Load, Store, Rmw)):
        return frozenset(instr.loc.possible_names())
    return frozenset()


class _MachineThread:
    """One thread's pending-instruction window."""

    def __init__(self, tid: int, body: Sequence[Instr], model: str):
        self.tid = tid
        self.model = model
        self.window: List[Instr] = list(body)
        self.regs: Dict[str, Value] = {}
        self.loop_budget: Dict[int, int] = {}

    def clone(self) -> "_MachineThread":
        other = _MachineThread.__new__(_MachineThread)
        other.tid = self.tid
        other.model = self.model
        other.window = list(self.window)
        other.regs = dict(self.regs)
        other.loop_budget = dict(self.loop_budget)
        return other

    # -- control resolution ----------------------------------------------------
    def resolve_control(self) -> bool:
        """Execute every leading-eligible Assign / If / While whose register
        inputs are available.  Returns False when a loop bound is hit."""
        changed = True
        while changed:
            changed = False
            for i, instr in enumerate(self.window):
                if not isinstance(instr, (Assign, If, While)):
                    continue
                if self._blocked_by_registers(i, instr):
                    continue
                if isinstance(instr, Assign):
                    self.regs[instr.dst] = instr.expr.evaluate(self.regs)
                    del self.window[i]
                elif isinstance(instr, If):
                    cond = instr.cond.evaluate(self.regs)
                    branch = instr.then if cond.val else instr.orelse
                    self.window[i:i + 1] = list(branch)
                else:  # While
                    cond = instr.cond.evaluate(self.regs)
                    if cond.val:
                        key = id(instr)
                        used = self.loop_budget.get(key, 0) + 1
                        if used >= instr.max_iters:
                            return False
                        self.loop_budget[key] = used
                        self.window[i:i + 1] = list(instr.body) + [instr]
                    else:
                        del self.window[i]
                changed = True
                break
        return True

    def _blocked_by_registers(self, index: int, instr: Instr) -> bool:
        """True when an earlier pending instruction produces / clobbers a
        register this instruction touches (no renaming, no speculation)."""
        reads = _regs_read(instr)
        writes = _regs_written(instr)
        for earlier in self.window[:index]:
            ew = _regs_written(earlier)
            er = _regs_read(earlier)
            if ew & reads or ew & writes or er & writes:
                return True
            if isinstance(earlier, (If, While)):
                return True  # no control speculation: branches resolve in order
        return False

    # -- memory-instruction eligibility ------------------------------------------
    def ready_memory_indices(self) -> List[int]:
        out = []
        for i, instr in enumerate(self.window):
            if not isinstance(instr, (Load, Store, Rmw, Fence)):
                continue
            if isinstance(instr, Fence):
                continue  # fences retire via resolve_fences
            if self._blocked_by_registers(i, instr):
                continue
            if self._blocked_by_memory_order(i, instr):
                continue
            out.append(i)
        return out

    def resolve_fences(self) -> None:
        """Retire a leading fence once nothing precedes it."""
        while self.window and isinstance(self.window[0], Fence):
            del self.window[0]

    def _blocked_by_memory_order(self, index: int, instr: Instr) -> bool:
        kind = effective_kind(instr.kind, self.model)
        locs = _possible_locs(instr)
        for earlier in self.window[:index]:
            if isinstance(earlier, (Assign, If, While)):
                continue  # register/control blocking handled separately
            if isinstance(earlier, Fence):
                return True
            ekind = effective_kind(earlier.kind, self.model)
            if _possible_locs(earlier) & locs:
                return True  # per-location SC
            if self._ordered(ekind, earlier, kind, instr):
                return True
        return False

    def _ordered(
        self, ekind: AtomicKind, earlier: Instr, kind: AtomicKind, instr: Instr
    ) -> bool:
        """Must *earlier* complete before *instr* may execute?

        Paired atomics are full fences in both directions (weak-ordering
        style), as in the paper's GPU implementation, where a paired read
        invalidates the cache and a paired write flushes the store buffer;
        this subsumes the listed invariants "paired reads may not be
        reordered with subsequent accesses" and "paired writes may not be
        reordered with prior accesses".  Weaker paired ordering (plain
        RCsc acquire/release) is *not* DRFrlx compliant: it lets a later
        paired access bypass an earlier relaxed access, breaking the valid
        path that absolves a non-ordering race (cf. Figure 2(b)).
        """
        if ekind in (AtomicKind.PAIRED, AtomicKind.PAIRED_LOCAL) or kind in (
            AtomicKind.PAIRED,
            AtomicKind.PAIRED_LOCAL,
        ):
            # Paired atomics (either scope) are full fences: scope
            # weakens *visibility* actions (coherence), which the
            # abstract flat-memory machine does not model, not ordering.
            return True
        # Extension labels: an ACQUIRE blocks every later access; a
        # RELEASE waits for every earlier access.  (Their other side is
        # free with respect to data/relaxed accesses.)
        if ekind is AtomicKind.ACQUIRE:
            return True
        if kind is AtomicKind.RELEASE:
            return True
        earlier_atomic = is_atomic(ekind)
        later_atomic = is_atomic(kind)
        if earlier_atomic and later_atomic:
            # Atomics stay program-ordered among themselves unless at
            # least one side is a relaxed class under DRFrlx.
            if ekind in RELAXED_KINDS or kind in RELAXED_KINDS:
                return False
            return True
        return False

    def execute(self, index: int, memory: Dict[str, int]) -> None:
        instr = self.window.pop(index)
        loc, _ = instr.loc.resolve(self.regs)
        if loc not in memory:
            memory[loc] = 0
        if isinstance(instr, Load):
            self.regs[instr.dst] = Value(memory[loc], frozenset())
        elif isinstance(instr, Store):
            stored = instr.value.evaluate(self.regs)
            memory[loc] = stored.val
        elif isinstance(instr, Rmw):
            old = memory[loc]
            operand = instr.operand.evaluate(self.regs)
            operand2 = instr.operand2.evaluate(self.regs) if instr.operand2 else None
            memory[loc] = instr.apply(old, operand.val, operand2.val if operand2 else None)
            self.regs[instr.dst] = Value(old, frozenset())
        else:
            raise LitmusError(f"not executable: {instr!r}")


@dataclass(frozen=True)
class SystemModelReport:
    """Outcomes of the relaxed machine vs the SC outcome set.

    Two views, because the paper defines the *result* of an execution as
    the **final memory state** (Section 3.2.2) — deliberately excluding
    values sitting in registers.  Speculative atomics rely on this: a
    racy speculative load whose value is never observed may return a
    non-SC value without violating the model.  ``only_sc_results`` is
    the paper's guarantee; ``only_sc`` additionally compares final
    registers (the conventional litmus view) and is strictly stronger.
    """

    program_name: str
    model: str
    machine_outcomes: FrozenSet[Outcome]
    sc_outcomes: FrozenSet[Outcome]
    truncated_paths: int

    @property
    def non_sc_outcomes(self) -> FrozenSet[Outcome]:
        return self.machine_outcomes - self.sc_outcomes

    @property
    def only_sc(self) -> bool:
        """Register-inclusive comparison (stricter than the paper)."""
        return not self.non_sc_outcomes

    # -- the paper's result definition: final memory state only ---------------
    @property
    def machine_results(self) -> FrozenSet:
        return frozenset(mem for mem, _regs in self.machine_outcomes)

    @property
    def sc_results(self) -> FrozenSet:
        return frozenset(mem for mem, _regs in self.sc_outcomes)

    @property
    def non_sc_results(self) -> FrozenSet:
        return self.machine_results - self.sc_results

    @property
    def only_sc_results(self) -> bool:
        """The Section 3.2.2 guarantee: every machine result (final
        memory state) is the result of some SC execution."""
        return not self.non_sc_results


def _outcome(memory: Dict[str, int], threads: Sequence[_MachineThread]) -> Outcome:
    mem = tuple(sorted(memory.items()))
    regs = tuple(
        tuple(sorted((name, v.val) for name, v in t.regs.items())) for t in threads
    )
    return (mem, regs)  # type: ignore[return-value]


def _sc_outcomes(program: Program) -> Tuple[FrozenSet[Outcome], int]:
    enum = enumerate_sc_executions(program)
    outs = set()
    for ex in enum.executions:
        mem = tuple(sorted(ex.final_memory.items()))
        regs = tuple(
            tuple(sorted(r.items())) for r in ex.final_registers
        )
        outs.add((mem, regs))
    return frozenset(outs), enum.truncated_paths


def run_system_model(program: Program, model: str = "drfrlx") -> SystemModelReport:
    """Enumerate every execution of *program* on the relaxed machine for
    *model* and compare outcomes with the SC set.

    The outcome of an execution is its final memory state (the paper's
    "result", Section 3.2.2) plus each thread's final registers, which is
    how litmus tests conventionally observe behavior."""
    init_memory: Dict[str, int] = {
        loc: program.initial_value(loc) for loc in program.locations()
    }
    init_threads = [
        _MachineThread(tid, thread.body, model)
        for tid, thread in enumerate(program.threads)
    ]

    outcomes: Set[Outcome] = set()
    truncated = 0
    seen_states: Set[Tuple] = set()

    def state_key(threads: Sequence[_MachineThread], memory: Dict[str, int]) -> Tuple:
        return (
            tuple(
                (
                    tuple(id(i) for i in t.window),
                    tuple(sorted((k, v.val) for k, v in t.regs.items())),
                    tuple(sorted(t.loop_budget.items())),
                )
                for t in threads
            ),
            tuple(sorted(memory.items())),
        )

    stack: List[Tuple[List[_MachineThread], Dict[str, int]]] = [
        (init_threads, init_memory)
    ]
    while stack:
        threads, memory = stack.pop()
        ok = True
        for t in threads:
            if not t.resolve_control():
                truncated += 1
                ok = False
                break
            t.resolve_fences()
            if not t.resolve_control():
                truncated += 1
                ok = False
                break
        if not ok:
            continue
        key = state_key(threads, memory)
        if key in seen_states:
            continue
        seen_states.add(key)

        moves: List[Tuple[int, int]] = []
        for t_idx, t in enumerate(threads):
            for i in t.ready_memory_indices():
                moves.append((t_idx, i))
        if not moves:
            if all(not t.window for t in threads):
                outcomes.add(_outcome(memory, threads))
            # else: deadlock from truncation pruning; drop the path
            continue
        for t_idx, i in moves:
            new_threads = [t.clone() for t in threads]
            new_memory = dict(memory)
            new_threads[t_idx].execute(i, new_memory)
            stack.append((new_threads, new_memory))

    sc_outs, sc_truncated = _sc_outcomes(program)
    return SystemModelReport(
        program_name=program.name,
        model=model,
        machine_outcomes=frozenset(outcomes),
        sc_outcomes=sc_outs,
        truncated_paths=truncated + sc_truncated,
    )
