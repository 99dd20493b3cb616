"""Lower a litmus :class:`~repro.litmus.program.Program` to CNF.

The encoding has two stages:

**Per-thread symbolic grounding.**  Each thread is executed symbolically
by the same interpreter the enumerator uses
(:class:`repro.core.executions._ThreadState`), branching on the value
every load *could* return (a per-location value domain computed to a
fixpoint: initial values plus every value any grounded write can
produce) and on every quantum havoc choice.  Each complete branch is a
:class:`ThreadTrace`: the thread's dynamic events, dependency edges, RMW
pairs and final registers, all in thread-local positions.  Traces that
agree on everything *race-relevant* (events, deps, RMWs — final
registers excluded, exactly the projection of
:func:`repro.core.races.race_signature`) are grouped into one
:class:`Shape`, so the solver sees one boolean per execution class per
thread, not one per havoc outcome.

**CNF over selection / reads-from / order variables.**

- ``sel(t, s)`` — thread *t* runs shape *s* (exactly one per thread);
- ``rf(r, w)`` — read instance *r* reads from write instance *w*,
  created only for value- and location-matched candidates (each
  selected read picks exactly one, and the source must be selected and
  ordered before the read);
- ``o(a, b)`` — instance *a* precedes *b* in the SC total order T,
  created only for cross-thread pairs that some axiom mentions (all
  same-location write pairs — the coherence order — plus the pairs the
  reads-from / RMW clauses touch).  Program order, init-first and
  same-thread cases fold to constants, so the clause set stays
  polynomial in the grounded instances.

Axiom clauses mirror the SC semantics the enumerator executes: a read's
source is the *last* same-location write before it (no selected write
may land between source and read), and an RMW's two halves admit no
same-location write in between.  Coherence transitivity is eager per
location (write triples); cross-relation acyclicity of the remaining
order variables is enforced lazily by :mod:`repro.solver.bridge`, which
rejects models whose committed edges form a cycle with a guarded
blocking clause — the standard on-demand transitivity encoding.

Capacity is bounded: programs whose grounding explodes (huge value
domains, deep loops) or whose CNF outgrows the encoding caps (RMW-heavy
programs ground one write instance per over-approximated domain value,
and the coherence clauses are cubic per location) raise
:class:`SolverCapacityError`, and ``model.check`` falls back to the
explicit enumerator — which handles exactly those deep-value, few-thread
programs well.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.executions import _ThreadState, _Truncated, static_step_bound
from repro.core.labels import ATOMIC_KINDS, AtomicKind
from repro.litmus.ast import If, Load, Rmw, Store, Value, While
from repro.litmus.program import Program
from repro.solver.sat import Solver


class SolverCapacityError(Exception):
    """The program exceeds the encoder's grounding caps; callers should
    fall back to the explicit enumerator."""


#: Grounding caps: per-thread trace count and per-location value-domain
#: size.  Both bound the *local* branching, which is what the SAT engine
#: must keep polynomial-ish; the global interleaving count is unbounded.
MAX_TRACES_PER_THREAD = 4096
MAX_DOMAIN_VALUES = 64

#: Encoding caps.  The coherence clauses are cubic in the write instances
#: per location and the latest-write clauses are quadratic per reads-from
#: candidate, so RMW-heavy programs whose value domains over-approximate
#: (a fetch-add chain grounds one write instance per domain value) can
#: produce CNFs that take longer to build and solve than the enumerator
#: takes to finish outright.  Past these limits the encoder raises
#: :class:`SolverCapacityError` and ``model.check`` falls back.
MAX_WRITE_INSTANCES_PER_LOC = 160
MAX_CLAUSES = 50_000


# ---------------------------------------------------------------------------
# Per-thread grounding
# ---------------------------------------------------------------------------

#: One thread-local event: (pos, kind, loc, value, label).
LocalEvent = Tuple[int, str, str, int, AtomicKind]

#: Relabeling that erases every atomic annotation.  Two prepared
#: programs that differ only in labels (drf0 vs drf1 preparation of the
#: same litmus test, say) erase to byte-identical programs, which is
#: what lets :mod:`repro.solver.bridge` encode and solve once per
#: *structure* and decode once per *model*.
ERASE_LABELS = {kind: AtomicKind.DATA for kind in ATOMIC_KINDS}


def erase_labels(program: Program) -> Program:
    """*program* with every atomic label rewritten to ``DATA``.

    Labels never influence grounding (they are recorded into events, not
    branched on), so the erased program grounds to the same traces and
    encodes to the same CNF — only the decoded events' labels differ.

    Not :meth:`~repro.litmus.program.Program.relabel`: that rebuilds
    instructions without their ``havoc`` domains, and the quantum
    transformation (drfrlx preparation) branches on exactly those, so
    dropping them would change the grounding.  This walker rewrites the
    label field alone.
    """

    def erase_body(body) -> Tuple:
        out = []
        for instr in body:
            if isinstance(instr, Load):
                out.append(Load(
                    instr.dst, instr.loc, AtomicKind.DATA, havoc=instr.havoc,
                ))
            elif isinstance(instr, Store):
                out.append(Store(
                    instr.loc, instr.value, AtomicKind.DATA, havoc=instr.havoc,
                ))
            elif isinstance(instr, Rmw):
                out.append(Rmw(
                    instr.dst, instr.loc, instr.op, instr.operand,
                    instr.operand2, AtomicKind.DATA, havoc=instr.havoc,
                ))
            elif isinstance(instr, If):
                out.append(If(
                    instr.cond, erase_body(instr.then), erase_body(instr.orelse),
                ))
            elif isinstance(instr, While):
                out.append(While(
                    instr.cond, erase_body(instr.body), instr.max_iters,
                ))
            else:
                out.append(instr)
        return tuple(out)

    return Program(
        program.name,
        [erase_body(thread.body) for thread in program.threads],
        program.init,
    )


def static_memory_ops(program: Program) -> List:
    """Every ``Load``/``Store``/``Rmw`` of *program* in a fixed walk
    order (threads in order, bodies depth-first, ``If`` then-before-else).

    The walk is purely structural, so two programs related by
    :meth:`~repro.litmus.program.Program.relabel` — e.g. a prepared
    program and its label erasure — enumerate corresponding instructions
    at the same indices.  This is the alignment the shared program core
    uses to re-label decoded events per model.
    """
    ops: List = []

    def walk(body) -> None:
        for instr in body:
            if isinstance(instr, (Load, Store, Rmw)):
                ops.append(instr)
            elif isinstance(instr, If):
                walk(instr.then)
                walk(instr.orelse)
            elif isinstance(instr, While):
                walk(instr.body)

    for thread in program.threads:
        walk(thread.body)
    return ops


def label_kinds(program: Program) -> Tuple[AtomicKind, ...]:
    """The atomic kind of every static memory op of *program*, indexed
    like :func:`static_memory_ops` (the model's label vector)."""
    return tuple(op.kind for op in static_memory_ops(program))


@dataclass(frozen=True)
class ThreadTrace:
    """One complete symbolic execution of a single thread."""

    events: Tuple[LocalEvent, ...]
    deps: Tuple[Tuple[str, Tuple[Tuple[int, int], ...]], ...]  # name -> edges
    rmw_pairs: Tuple[Tuple[int, int], ...]
    rmw_info: Tuple[Tuple[int, str, int, Optional[int]], ...]
    final_regs: Tuple[Tuple[str, int], ...]
    #: Static-instruction index (see :func:`static_memory_ops`) of the
    #: op that emitted each event, aligned with ``events``.  Provenance
    #: only — never part of :meth:`class_key`, so the trace partition is
    #: unchanged.
    srcs: Tuple[int, ...] = ()

    def class_key(self) -> Tuple:
        """Race-relevant identity (everything but the final registers)."""
        return (
            tuple((p, k, l, v, lab.name) for p, k, l, v, lab in self.events),
            self.deps,
            self.rmw_pairs,
            self.rmw_info,
        )


@dataclass
class Shape:
    """An equivalence class of one thread's traces (same events, deps
    and RMW semantics; traces differ only in final register values)."""

    tid: int
    index: int
    events: Tuple[LocalEvent, ...]
    deps: Dict[str, Tuple[Tuple[int, int], ...]]
    rmw_pairs: Tuple[Tuple[int, int], ...]
    rmw_info: Tuple[Tuple[int, str, int, Optional[int]], ...]
    reg_variants: List[Dict[str, int]] = field(default_factory=list)
    #: Distinct per-event static-instruction provenance vectors of the
    #: traces grouped into this shape (usually one; more when two
    #: different instructions emit identical events on different
    #: branches).  The shared program core maps these through a model's
    #: label vector to re-label decoded events — and falls back to a
    #: fresh core over the labeled program when the vectors disagree on
    #: a label.
    src_variants: List[Tuple[int, ...]] = field(default_factory=list)


def _ground_op(
    state: _ThreadState,
    read_value: Optional[int],
    choice: Tuple,
    events: List[LocalEvent],
    deps: Dict[str, List[Tuple[int, int]]],
    rmw_pairs: List[Tuple[int, int]],
    rmw_info: List[Tuple[int, str, int, Optional[int]]],
    srcs: List[int],
    src_of: Dict[int, int],
) -> None:
    """Execute the pending memory op under an *assumed* read value.

    Mirrors :func:`repro.core.executions._apply_op` exactly — same event
    values, register updates, havoc semantics and taint flow — except
    that the value a load observes comes from the caller (the assumed
    domain value) instead of a shared memory, and taint tokens are
    thread-local positions instead of global eids.
    """
    instr = state.pending
    assert instr is not None
    state.pending = None
    ctrl_taint = state.pending_ctrl
    loc, addr_taint = instr.loc.resolve(state.regs)
    src = src_of.get(id(instr), -1)

    def record(pos: int, data_taint=frozenset()) -> None:
        deps["addr"].extend((t, pos) for t in addr_taint)
        deps["data"].extend((t, pos) for t in data_taint)
        deps["ctrl"].extend((t, pos) for t in ctrl_taint)

    if isinstance(instr, Load):
        assert read_value is not None
        pos = state.mem_count
        state.mem_count += 1
        events.append((pos, "R", loc, read_value, instr.kind))
        srcs.append(src)
        record(pos)
        result = choice[0] if instr.havoc else read_value
        state.regs[instr.dst] = Value(result, frozenset({pos}))
        return

    if isinstance(instr, Store):
        if instr.havoc:
            stored = Value(choice[0], frozenset())
        else:
            stored = instr.value.evaluate(state.regs)
        pos = state.mem_count
        state.mem_count += 1
        events.append((pos, "W", loc, stored.val, instr.kind))
        srcs.append(src)
        record(pos, stored.taint)
        return

    assert isinstance(instr, Rmw)
    assert read_value is not None
    old = read_value
    operand = instr.operand.evaluate(state.regs)
    operand2 = instr.operand2.evaluate(state.regs) if instr.operand2 else None
    r_pos = state.mem_count
    state.mem_count += 1
    events.append((r_pos, "R", loc, old, instr.kind))
    srcs.append(src)
    if instr.havoc:
        returned, new_value = choice
        operand_val = new_value  # the stored value is the random value
    else:
        returned = old
        new_value = instr.apply(old, operand.val, operand2.val if operand2 else None)
        operand_val = operand.val
    w_pos = state.mem_count
    state.mem_count += 1
    events.append((w_pos, "W", loc, new_value, instr.kind))
    srcs.append(src)
    rmw_pairs.append((r_pos, w_pos))
    rmw_info.append((
        w_pos,
        "exch" if instr.havoc else instr.op,
        operand_val,
        operand2.val if operand2 else None,
    ))
    data_taint = operand.taint | (operand2.taint if operand2 else frozenset())
    record(r_pos)
    record(w_pos, data_taint)
    state.regs[instr.dst] = Value(returned, frozenset({r_pos}))


def _branch_choices(state: _ThreadState, domains) -> List[Tuple[Optional[int], Tuple]]:
    """All (assumed read value, havoc choice) branches of the pending op."""
    instr = state.pending
    assert instr is not None
    if isinstance(instr, Store):
        return [(None, c) for c in state.choices()]
    loc = state.pending_loc()
    values = sorted(domains.get(loc, {0}))
    return [(v, c) for v in values for c in state.choices()]


def _ground_thread(
    tid: int, body, domains, max_traces: int = MAX_TRACES_PER_THREAD,
    src_of: Optional[Dict[int, int]] = None,
) -> Tuple[List[ThreadTrace], int, Set[Tuple[str, int]]]:
    """All symbolic executions of one thread under *domains*.

    Returns ``(traces, truncated, writes_seen)`` where *truncated* counts
    branches pruned by a While unrolling bound (the local analogue of the
    enumerator's truncated paths) and *writes_seen* holds every
    ``(loc, value)`` any branch wrote — including truncated prefixes,
    whose writes other threads may need to observe before this thread's
    own loops can exit (two spinning threads releasing each other would
    otherwise never leave the initial domains).
    """
    root = _ThreadState(tid, tuple(body))
    truncated = 0
    writes_seen: Set[Tuple[str, int]] = set()
    if src_of is None:
        src_of = {}
    try:
        root.advance()
    except _Truncated:
        return [], 1, writes_seen
    traces: List[ThreadTrace] = []
    Deps = Dict[str, List[Tuple[int, int]]]
    stack: List[Tuple[_ThreadState, List[LocalEvent], Deps, List, List, List]] = [
        (root, [], {"addr": [], "data": [], "ctrl": []}, [], [], [])
    ]
    while stack:
        state, events, deps, rmw_pairs, rmw_info, srcs = stack.pop()
        if state.pending is None:
            traces.append(ThreadTrace(
                events=tuple(events),
                deps=tuple(sorted(
                    (name, tuple(sorted(edges))) for name, edges in deps.items()
                )),
                rmw_pairs=tuple(rmw_pairs),
                rmw_info=tuple(rmw_info),
                final_regs=tuple(sorted(
                    (name, v.val) for name, v in state.regs.items()
                )),
                srcs=tuple(srcs),
            ))
            if len(traces) > max_traces:
                raise SolverCapacityError(
                    f"thread {tid} grounds to more than {max_traces} traces"
                )
            continue
        for read_value, choice in _branch_choices(state, domains):
            branch = state.clone()
            b_events = list(events)
            b_deps = {name: list(edges) for name, edges in deps.items()}
            b_rmw_pairs = list(rmw_pairs)
            b_rmw_info = list(rmw_info)
            b_srcs = list(srcs)
            _ground_op(
                branch, read_value, choice,
                b_events, b_deps, b_rmw_pairs, b_rmw_info, b_srcs, src_of,
            )
            for _pos, kind, loc, value, _label in b_events[len(events):]:
                if kind == "W":
                    writes_seen.add((loc, value))
            try:
                branch.advance()
            except _Truncated:
                truncated += 1
                continue
            stack.append(
                (branch, b_events, b_deps, b_rmw_pairs, b_rmw_info, b_srcs)
            )
    return traces, truncated, writes_seen


def ground_program(
    program: Program, max_traces: int = MAX_TRACES_PER_THREAD
) -> Tuple[List[List[Shape]], int]:
    """Ground every thread of *program* against the value-domain fixpoint.

    The per-location domains start at the initial values and absorb every
    value any grounded write can produce — truncated prefixes included,
    since a spinning thread may need a value another thread only writes
    before *its* own spin — iterated to a fixpoint (bounded by the static
    step count: a feasible value needs a reads-from chain no deeper than
    the number of dynamic writes).  Returns the per-thread shape lists
    plus the number of locally truncated branches.
    """
    domains: Dict[str, Set[int]] = {
        loc: {program.initial_value(loc)} for loc in program.locations()
    }
    src_of = {id(op): idx for idx, op in enumerate(static_memory_ops(program))}
    per_thread: List[List[ThreadTrace]] = []
    truncated = 0
    for _ in range(static_step_bound(program) + 2):
        per_thread = []
        truncated = 0
        changed = False
        for tid, thread in enumerate(program.threads):
            traces, trunc, writes_seen = _ground_thread(
                tid, thread.body, domains, max_traces, src_of
            )
            truncated += trunc
            per_thread.append(traces)
            for loc, value in writes_seen:
                if value not in domains.setdefault(loc, set()):
                    if len(domains[loc]) >= MAX_DOMAIN_VALUES:
                        raise SolverCapacityError(
                            f"value domain of {loc!r} exceeds "
                            f"{MAX_DOMAIN_VALUES} values"
                        )
                    domains[loc].add(value)
                    changed = True
        if not changed:
            break
    shapes: List[List[Shape]] = []
    for tid, traces in enumerate(per_thread):
        by_key: Dict[Tuple, Shape] = {}
        ordered: List[Shape] = []
        for trace in traces:
            key = trace.class_key()
            shape = by_key.get(key)
            if shape is None:
                shape = Shape(
                    tid=tid,
                    index=len(ordered),
                    events=trace.events,
                    deps={name: edges for name, edges in trace.deps},
                    rmw_pairs=trace.rmw_pairs,
                    rmw_info=trace.rmw_info,
                )
                by_key[key] = shape
                ordered.append(shape)
            regs = dict(trace.final_regs)
            if regs not in shape.reg_variants:
                shape.reg_variants.append(regs)
            if trace.srcs not in shape.src_variants:
                shape.src_variants.append(trace.srcs)
        shapes.append(ordered)
    return shapes, truncated


# ---------------------------------------------------------------------------
# CNF encoding
# ---------------------------------------------------------------------------


class Inst:
    """One grounded event instance (a potential dynamic event)."""

    __slots__ = ("gid", "tid", "shape", "pos", "kind", "loc", "value", "label",
                 "is_init")

    def __init__(self, gid, tid, shape, pos, kind, loc, value, label, is_init):
        self.gid = gid
        self.tid = tid
        self.shape = shape  # Optional[Shape]; None for init writes
        self.pos = pos
        self.kind = kind
        self.loc = loc
        self.value = value
        self.label = label
        self.is_init = is_init

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "init" if self.is_init else f"t{self.tid}s{self.shape.index}.{self.pos}"
        return f"<{tag} {self.kind} {self.loc}={self.value}>"


#: Marker returned by :meth:`Encoding.order_lit` for pairs that can never
#: coexist (different shapes of the same thread): any clause mentioning
#: the pair is vacuously satisfied and must be skipped.
VACUOUS = object()


class Encoding:
    """A program lowered to CNF, plus the decode-side variable maps."""

    def __init__(self, program: Program, max_traces: int = MAX_TRACES_PER_THREAD):
        t0 = time.perf_counter()
        self.program = program
        self.solver = Solver()
        self.shapes, self.truncated = ground_program(program, max_traces)
        self.sel_var: Dict[Tuple[int, int], int] = {}  # (tid, shape idx) -> var
        self.rf_var: Dict[Tuple[int, int], int] = {}  # (r gid, w gid) -> var
        self.o_var: Dict[Tuple[int, int], int] = {}  # (gid a < gid b) -> "a before b"
        self.insts: List[Inst] = []
        self.init_insts: List[Inst] = []
        self.rf_candidates: Dict[int, List[int]] = {}  # r gid -> candidate w gids
        self._build()
        self.encode_s = time.perf_counter() - t0

    # -- construction helpers ------------------------------------------------
    def _sel_lit(self, inst: Inst) -> Optional[int]:
        """Positive selection literal of *inst*'s shape (None when always
        selected, i.e. an init write)."""
        if inst.shape is None:
            return None
        return self.sel_var[(inst.tid, inst.shape.index)]

    def order_lit(self, a: Inst, b: Inst):
        """Literal (or constant) for "*a* precedes *b* in T"."""
        if a is b:
            return False
        if a.is_init:
            return True if not b.is_init else a.pos < b.pos
        if b.is_init:
            return False
        if a.tid == b.tid:
            if a.shape is b.shape:
                return a.pos < b.pos
            return VACUOUS  # different shapes of one thread never coexist
        key = (a.gid, b.gid) if a.gid < b.gid else (b.gid, a.gid)
        var = self.o_var.get(key)
        if var is None:
            var = self.solver.new_var()
            self.o_var[key] = var
        return var if a.gid < b.gid else -var

    def _add(self, lits) -> None:
        """Add a clause with constant folding; skips vacuous clauses."""
        out = []
        for lit in lits:
            if lit is True or lit is VACUOUS:
                return
            if lit is False:
                continue
            out.append(lit)
        self.solver.add_clause(out)
        if self.solver.num_clauses > MAX_CLAUSES:
            raise SolverCapacityError(
                f"encoding exceeds {MAX_CLAUSES} clauses"
            )

    # -- the encoding --------------------------------------------------------
    def _build(self) -> None:
        program = self.program
        solver = self.solver
        gid = 0
        for idx, loc in enumerate(program.locations()):
            inst = Inst(gid, -1, None, idx, "W", loc,
                        program.initial_value(loc), AtomicKind.DATA, True)
            self.init_insts.append(inst)
            self.insts.append(inst)
            gid += 1

        # Selection variables: exactly one shape per thread.
        shape_insts: List[Inst] = []
        for tid, shapes in enumerate(self.shapes):
            for shape in shapes:
                self.sel_var[(tid, shape.index)] = solver.new_var()
            vars_ = [self.sel_var[(tid, s.index)] for s in shapes]
            # No shapes (every local branch truncated): the empty clause
            # makes the CNF unsat, i.e. zero executions — matching the
            # enumerator, whose every path through this thread truncates.
            self._add(vars_)
            for i in range(len(vars_)):
                for j in range(i + 1, len(vars_)):
                    self._add([-vars_[i], -vars_[j]])
            for shape in shapes:
                for pos, kind, loc, value, label in shape.events:
                    inst = Inst(gid, tid, shape, pos, kind, loc, value,
                                label, False)
                    shape_insts.append(inst)
                    self.insts.append(inst)
                    gid += 1

        by_loc_writes: Dict[str, List[Inst]] = {}
        reads: List[Inst] = []
        for inst in self.insts:
            if inst.kind == "W":
                by_loc_writes.setdefault(inst.loc, []).append(inst)
            else:
                reads.append(inst)
        for loc, writes in by_loc_writes.items():
            if len(writes) > MAX_WRITE_INSTANCES_PER_LOC:
                raise SolverCapacityError(
                    f"{len(writes)} write instances to {loc!r} exceed "
                    f"{MAX_WRITE_INSTANCES_PER_LOC} (coherence clauses are "
                    f"cubic per location)"
                )

        # Coherence order: eager order variables for every cross-thread
        # same-location write pair (so blocking clauses can tell the two
        # co directions apart even when nothing reads the location), plus
        # eager per-location transitivity over write triples.
        for loc, writes in by_loc_writes.items():
            prog_writes = [w for w in writes if not w.is_init]
            for i, a in enumerate(prog_writes):
                for b in prog_writes[i + 1:]:
                    if a.tid != b.tid:
                        self.order_lit(a, b)
            for a in prog_writes:
                for b in prog_writes:
                    if a is b or (a.tid == b.tid and a.shape is not b.shape):
                        continue
                    for c in prog_writes:
                        if c is a or c is b:
                            continue
                        ab = self.order_lit(a, b)
                        bc = self.order_lit(b, c)
                        ac = self.order_lit(a, c)
                        self._add([
                            _neg(self._sel_lit(a)), _neg(self._sel_lit(b)),
                            _neg(self._sel_lit(c)),
                            _neg_lit(ab), _neg_lit(bc), ac,
                        ])

        # Reads-from: candidates, exactly-one, and the latest-write axiom.
        for r in reads:
            candidates: List[Inst] = []
            for w in by_loc_writes.get(r.loc, ()):
                if w.value != r.value:
                    continue
                if w.is_init:
                    candidates.append(w)
                elif w.tid != r.tid:
                    candidates.append(w)
                elif w.shape is r.shape and w.pos < r.pos:
                    candidates.append(w)
            r_sel = self._sel_lit(r)
            rf_vars: List[int] = []
            for w in candidates:
                var = solver.new_var()
                self.rf_var[(r.gid, w.gid)] = var
                rf_vars.append(var)
                self._add([-var, r_sel])
                w_sel = self._sel_lit(w)
                if w_sel is not None and w.shape is not r.shape:
                    self._add([-var, w_sel])
                self._add([-var, self.order_lit(w, r)])
                # Latest-write: no selected same-location write lands
                # strictly between the source and the read.
                for other in by_loc_writes.get(r.loc, ()):
                    if other is w:
                        continue
                    if other.tid == r.tid and other.shape is not r.shape:
                        continue  # cannot coexist with the read
                    if other.tid == w.tid and not other.is_init and \
                            not w.is_init and other.shape is not w.shape:
                        continue  # cannot coexist with the source
                    self._add([
                        -var,
                        _neg(self._sel_lit(other)),
                        self.order_lit(other, w),
                        self.order_lit(r, other),
                    ])
            self.rf_candidates[r.gid] = [w.gid for w in candidates]
            # Exactly one source when the read's shape is selected.
            self._add([_neg(r_sel)] + rf_vars)
            for i in range(len(rf_vars)):
                for j in range(i + 1, len(rf_vars)):
                    self._add([-rf_vars[i], -rf_vars[j]])

        # RMW atomicity: no same-location write between the two halves.
        # Same-thread and init intruders fold to constants (po places them
        # outside the pair), so only cross-thread program writes matter.
        for tid, shapes in enumerate(self.shapes):
            for shape in shapes:
                if not shape.rmw_pairs:
                    continue
                pos_to_inst = {
                    i.pos: i for i in shape_insts
                    if i.tid == tid and i.shape is shape
                }
                for r_pos, w_pos in shape.rmw_pairs:
                    r_inst, w_inst = pos_to_inst[r_pos], pos_to_inst[w_pos]
                    for other in by_loc_writes.get(r_inst.loc, ()):
                        if other.is_init or other.tid == tid:
                            continue
                        self._add([
                            _neg(self._sel_lit(r_inst)),
                            _neg(self._sel_lit(other)),
                            self.order_lit(other, r_inst),
                            self.order_lit(w_inst, other),
                        ])
        self.by_gid = {inst.gid: inst for inst in self.insts}


def _neg(sel_lit: Optional[int]):
    """Negation of an optional selection literal (None = always true)."""
    if sel_lit is None:
        return False
    return -sel_lit


def _neg_lit(lit):
    """Negation of an order literal / constant."""
    if lit is True:
        return False
    if lit is False:
        return True
    if lit is VACUOUS:
        return VACUOUS
    return -lit
