"""Operational enumeration of all SC executions of a litmus program.

The enumerator explores every interleaving of the program's threads at the
granularity of one memory operation per step (register computation and
branch evaluation are folded into the preceding scheduling step, since they
touch no shared state).  Each completed interleaving yields an
:class:`~repro.core.events.Execution`; interleavings that produce the same
per-thread events, reads-from and coherence order are collapsed into one
execution.

Two engines produce the same execution set:

* The **default engine** (``"por"``) applies sleep-set partial-order
  reduction (adjacent independent operations are only explored in
  canonical thread order) and shares immutable path prefixes
  copy-on-write instead of deep cloning the whole search state at every
  branch.  Every program takes it, however small.
  :attr:`SCEnumeration.stats` reports how many branches the reduction
  pruned.
* The **naive engine** (``naive=True``) is the original exhaustive
  interleaver with per-step full-state clones.  It is kept as the oracle
  for the equivalence tests (``tests/core/test_enumeration_equivalence.py``).

The soundness argument for the reduction is spelled out in
``docs/performance.md``.

Loops are bounded by each :class:`~repro.litmus.ast.While`'s ``max_iters``;
paths that exceed the bound are pruned and counted in
:attr:`SCEnumeration.truncated_paths`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.events import Event, Execution, RmwInfo
from repro.core.labels import AtomicKind
from repro.obs.tracer import NULL_TRACER, Tracer
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


class _Truncated(Exception):
    """A path exceeded a While loop's unrolling bound."""


@dataclass
class _Frame:
    """One level of structured control flow being executed."""

    body: Tuple[Instr, ...]
    idx: int
    ctrl: FrozenSet[int]  # taints of every enclosing branch condition
    loop: Optional[While]  # set when this frame is a While body
    iters: int = 0

    def clone(self) -> "_Frame":
        return _Frame(self.body, self.idx, self.ctrl, self.loop, self.iters)


class _ThreadState:
    """Interpreter state for one thread of the program."""

    def __init__(self, tid: int, body: Tuple[Instr, ...]):
        self.tid = tid
        self.regs: Dict[str, Value] = {}
        self.frames: List[_Frame] = [_Frame(tuple(body), 0, frozenset(), None)]
        self.pending: Optional[Instr] = None
        self.pending_ctrl: FrozenSet[int] = frozenset()
        self.done = False
        self.mem_count = 0  # po_index generator for this thread's events

    def clone(self) -> "_ThreadState":
        other = _ThreadState.__new__(_ThreadState)
        other.tid = self.tid
        other.regs = dict(self.regs)
        other.frames = [f.clone() for f in self.frames]
        other.pending = self.pending
        other.pending_ctrl = self.pending_ctrl
        other.done = self.done
        other.mem_count = self.mem_count
        return other

    def advance(self) -> None:
        """Run register/control instructions until a memory operation is
        pending or the thread finishes.  Raises :class:`_Truncated` when a
        loop bound is exceeded."""
        if self.pending is not None or self.done:
            return
        while self.frames:
            frame = self.frames[-1]
            if frame.idx >= len(frame.body):
                if frame.loop is not None:
                    cond = frame.loop.cond.evaluate(self.regs)
                    if cond.val:
                        frame.iters += 1
                        if frame.iters >= frame.loop.max_iters:
                            raise _Truncated()
                        frame.idx = 0
                        frame.ctrl = frame.ctrl | cond.taint
                        continue
                self.frames.pop()
                continue
            instr = frame.body[frame.idx]
            if isinstance(instr, (Load, Store, Rmw)):
                self.pending = instr
                self.pending_ctrl = frame.ctrl
                frame.idx += 1
                return
            frame.idx += 1
            if isinstance(instr, Assign):
                self.regs[instr.dst] = instr.expr.evaluate(self.regs)
            elif isinstance(instr, Fence):
                continue  # ordering only; no effect under SC
            elif isinstance(instr, If):
                cond = instr.cond.evaluate(self.regs)
                branch = instr.then if cond.val else instr.orelse
                if branch:
                    self.frames.append(
                        _Frame(branch, 0, frame.ctrl | cond.taint, None)
                    )
            elif isinstance(instr, While):
                cond = instr.cond.evaluate(self.regs)
                if cond.val:
                    if instr.max_iters < 1:
                        raise _Truncated()
                    self.frames.append(
                        _Frame(instr.body, 0, frame.ctrl | cond.taint, instr, 1)
                    )
            else:
                raise LitmusError(f"unknown instruction {instr!r}")
        self.done = True

    # -- pending memory operation --------------------------------------------
    def choices(self) -> Sequence[Tuple]:
        """Nondeterministic outcomes of the pending op (quantum havoc)."""
        instr = self.pending
        assert instr is not None
        if isinstance(instr, Load) and instr.havoc:
            return [(v,) for v in instr.havoc]
        if isinstance(instr, Store) and instr.havoc:
            return [(v,) for v in instr.havoc]
        if isinstance(instr, Rmw) and instr.havoc:
            return [(ret, stored) for ret in instr.havoc for stored in instr.havoc]
        return [()]

    def pending_loc(self) -> str:
        """Location the pending op will access (address operands are
        thread-local, so this is stable until the op executes)."""
        assert self.pending is not None
        return self.pending.loc.resolve(self.regs)[0]


@dataclass
class _Builder:
    """Accumulates events and relations along one DFS path (naive engine)."""

    events: List[Event] = field(default_factory=list)
    order: List[int] = field(default_factory=list)
    rf_map: Dict[int, int] = field(default_factory=dict)
    rmw_pairs: List[Tuple[int, int]] = field(default_factory=list)
    addr: List[Tuple[int, int]] = field(default_factory=list)
    data: List[Tuple[int, int]] = field(default_factory=list)
    ctrl: List[Tuple[int, int]] = field(default_factory=list)
    rmw_info: Dict[int, RmwInfo] = field(default_factory=dict)
    last_writer: Dict[str, int] = field(default_factory=dict)
    next_eid: int = 0

    def clone(self) -> "_Builder":
        return _Builder(
            list(self.events),
            list(self.order),
            dict(self.rf_map),
            list(self.rmw_pairs),
            list(self.addr),
            list(self.data),
            list(self.ctrl),
            dict(self.rmw_info),
            dict(self.last_writer),
            self.next_eid,
        )

    def fresh_eid(self) -> int:
        eid = self.next_eid
        self.next_eid += 1
        return eid

    def add_event(self, event: Event) -> None:
        self.events.append(event)
        self.order.append(event.eid)
        if event.is_write:
            self.last_writer[event.loc] = event.eid


def _execute_memory_op(
    state: _ThreadState,
    builder: _Builder,
    memory: Dict[str, int],
    choice: Tuple,
) -> None:
    """Execute the thread's pending memory instruction against *memory*."""
    instr = state.pending
    assert instr is not None
    state.pending = None
    ctrl_taint = state.pending_ctrl

    loc, addr_taint = instr.loc.resolve(state.regs)
    if loc not in memory:
        memory[loc] = 0

    def record_deps(eid: int, data_taint: FrozenSet[int] = frozenset()) -> None:
        builder.addr.extend((t, eid) for t in addr_taint)
        builder.data.extend((t, eid) for t in data_taint)
        builder.ctrl.extend((t, eid) for t in ctrl_taint)

    if isinstance(instr, Load):
        eid = builder.fresh_eid()
        read_value = memory[loc]
        event = Event(eid, state.tid, "R", loc, read_value, instr.kind, state.mem_count)
        state.mem_count += 1
        builder.add_event(event)
        if loc in builder.last_writer:
            builder.rf_map[eid] = builder.last_writer[loc]
        record_deps(eid)
        result = choice[0] if instr.havoc else read_value
        state.regs[instr.dst] = Value(result, frozenset({eid}))
        return

    if isinstance(instr, Store):
        if instr.havoc:
            stored = Value(choice[0], frozenset())
        else:
            stored = instr.value.evaluate(state.regs)
        eid = builder.fresh_eid()
        event = Event(eid, state.tid, "W", loc, stored.val, instr.kind, state.mem_count)
        state.mem_count += 1
        builder.add_event(event)
        record_deps(eid, stored.taint)
        memory[loc] = stored.val
        return

    if isinstance(instr, Rmw):
        old = memory[loc]
        operand = instr.operand.evaluate(state.regs)
        operand2 = instr.operand2.evaluate(state.regs) if instr.operand2 else None
        r_eid = builder.fresh_eid()
        r_event = Event(r_eid, state.tid, "R", loc, old, instr.kind, state.mem_count)
        state.mem_count += 1
        builder.add_event(r_event)
        if loc in builder.last_writer:
            builder.rf_map[r_eid] = builder.last_writer[loc]

        if instr.havoc:
            returned, new_value = choice
            operand_val = new_value  # the stored value is the random value
        else:
            returned = old
            new_value = instr.apply(old, operand.val, operand2.val if operand2 else None)
            operand_val = operand.val

        w_eid = builder.fresh_eid()
        w_event = Event(w_eid, state.tid, "W", loc, new_value, instr.kind, state.mem_count)
        state.mem_count += 1
        builder.add_event(w_event)
        builder.rmw_pairs.append((r_eid, w_eid))
        op_name = "exch" if instr.havoc else instr.op
        builder.rmw_info[w_eid] = RmwInfo(
            op_name, operand_val, operand2.val if operand2 else None
        )

        data_taint = operand.taint | (operand2.taint if operand2 else frozenset())
        record_deps(r_eid)
        record_deps(w_eid, data_taint)
        memory[loc] = new_value
        state.regs[instr.dst] = Value(returned, frozenset({r_eid}))
        return

    raise LitmusError(f"not a memory instruction: {instr!r}")


@dataclass
class EnumStats:
    """Work accounting for one enumeration run.

    ``steps`` counts executed memory operations (search-tree edges);
    ``por_pruned`` counts scheduling branches skipped by the partial-order
    reduction (0 under the naive engine).  ``memo_hits`` always reads 0;
    it stays while the benchmark's replay still reads it.
    """

    engine: str = "por"
    steps: int = 0
    completed_paths: int = 0
    por_pruned: int = 0
    memo_hits: int = 0


@dataclass
class SCEnumeration:
    """Result of enumerating the SC executions of a program."""

    program: Program
    executions: Tuple[Execution, ...]
    truncated_paths: int
    interleavings: int
    stats: EnumStats = field(default_factory=EnumStats)
    #: Solver counters/timings when a SAT engine produced this result
    #: (a :class:`repro.solver.bridge.SolverStats`); None for the
    #: explicit enumerators.  Typed loosely so ``repro.core`` keeps no
    #: import edge into ``repro.solver``.
    solver_stats: Optional[object] = None

    def final_results(self) -> Set[Tuple[Tuple[str, int], ...]]:
        """The set of results (final memory states) over all SC executions."""
        return {
            tuple(sorted(ex.final_memory.items())) for ex in self.executions
        }


# ---------------------------------------------------------------------------
# Default engine: sleep-set POR + copy-on-write prefixes.
# ---------------------------------------------------------------------------


class _Node:
    """One step of a search path; paths share prefixes as parent chains.

    Replaces the naive engine's per-branch :meth:`_Builder.clone` (which
    copies every event and relation accumulated so far) with an O(1)
    allocation holding only what this step added.
    """

    __slots__ = ("parent", "events", "rf", "rmw_pair", "rmw_entry",
                 "addr", "data", "ctrl")

    def __init__(self, parent, events, rf, rmw_pair, rmw_entry, addr, data, ctrl):
        self.parent = parent
        self.events = events  # Tuple[Event, ...] added this step
        self.rf = rf  # Tuple[(read_eid, write_eid), ...]
        self.rmw_pair = rmw_pair  # Optional[(r_eid, w_eid)]
        self.rmw_entry = rmw_entry  # Optional[(w_eid, RmwInfo)]
        self.addr = addr
        self.data = data
        self.ctrl = ctrl


class _Ctx:
    """Small mutable per-path state, copied on branch."""

    __slots__ = ("memory", "last_writer", "next_eid")

    def __init__(self, memory, last_writer, next_eid):
        self.memory = memory  # loc -> value
        self.last_writer = last_writer  # loc -> write eid
        self.next_eid = next_eid

    def branch(self) -> "_Ctx":
        return _Ctx(dict(self.memory), dict(self.last_writer), self.next_eid)


def _apply_op(
    state: _ThreadState, ctx: _Ctx, choice: Tuple, parent: _Node
) -> _Node:
    """Execute the pending op against *ctx*; returns the new path node."""
    instr = state.pending
    assert instr is not None
    state.pending = None
    ctrl_taint = state.pending_ctrl

    loc, addr_taint = instr.loc.resolve(state.regs)
    if loc not in ctx.memory:
        ctx.memory[loc] = 0

    def deps(eid: int, data_taint: FrozenSet[int] = frozenset()) -> Tuple:
        return (
            tuple((t, eid) for t in addr_taint),
            tuple((t, eid) for t in data_taint),
            tuple((t, eid) for t in ctrl_taint),
        )

    if isinstance(instr, Load):
        eid = ctx.next_eid
        ctx.next_eid += 1
        read_value = ctx.memory[loc]
        event = Event(eid, state.tid, "R", loc, read_value, instr.kind, state.mem_count)
        state.mem_count += 1
        writer = ctx.last_writer.get(loc)
        addr_e, data_e, ctrl_e = deps(eid)
        result = choice[0] if instr.havoc else read_value
        state.regs[instr.dst] = Value(result, frozenset({eid}))
        node = _Node(
            parent, (event,), ((eid, writer),) if writer is not None else (),
            None, None, addr_e, data_e, ctrl_e,
        )
    elif isinstance(instr, Store):
        if instr.havoc:
            stored = Value(choice[0], frozenset())
        else:
            stored = instr.value.evaluate(state.regs)
        eid = ctx.next_eid
        ctx.next_eid += 1
        event = Event(eid, state.tid, "W", loc, stored.val, instr.kind, state.mem_count)
        state.mem_count += 1
        ctx.last_writer[loc] = eid
        addr_e, data_e, ctrl_e = deps(eid, stored.taint)
        ctx.memory[loc] = stored.val
        node = _Node(
            parent, (event,), (), None, None, addr_e, data_e, ctrl_e,
        )
    elif isinstance(instr, Rmw):
        old = ctx.memory[loc]
        operand = instr.operand.evaluate(state.regs)
        operand2 = instr.operand2.evaluate(state.regs) if instr.operand2 else None
        r_eid = ctx.next_eid
        ctx.next_eid += 1
        r_event = Event(r_eid, state.tid, "R", loc, old, instr.kind, state.mem_count)
        state.mem_count += 1
        writer = ctx.last_writer.get(loc)

        if instr.havoc:
            returned, new_value = choice
            operand_val = new_value  # the stored value is the random value
        else:
            returned = old
            new_value = instr.apply(old, operand.val, operand2.val if operand2 else None)
            operand_val = operand.val

        w_eid = ctx.next_eid
        ctx.next_eid += 1
        w_event = Event(w_eid, state.tid, "W", loc, new_value, instr.kind, state.mem_count)
        state.mem_count += 1
        ctx.last_writer[loc] = w_eid
        op_name = "exch" if instr.havoc else instr.op
        info = RmwInfo(op_name, operand_val, operand2.val if operand2 else None)

        data_taint = operand.taint | (operand2.taint if operand2 else frozenset())
        r_addr, r_data, r_ctrl = deps(r_eid)
        w_addr, w_data, w_ctrl = deps(w_eid, data_taint)
        ctx.memory[loc] = new_value
        state.regs[instr.dst] = Value(returned, frozenset({r_eid}))
        node = _Node(
            parent, (r_event, w_event),
            ((r_eid, writer),) if writer is not None else (),
            (r_eid, w_eid), (w_eid, info),
            r_addr + w_addr, r_data + w_data, r_ctrl + w_ctrl,
        )
    else:
        raise LitmusError(f"not a memory instruction: {instr!r}")
    return node


def _chain(node: _Node) -> List[_Node]:
    """The path from the root to *node*, in execution order."""
    chain: List[_Node] = []
    cursor: Optional[_Node] = node
    while cursor is not None:
        chain.append(cursor)
        cursor = cursor.parent
    chain.reverse()
    return chain


def _leaf_key(chain: Sequence[_Node], states: Sequence[_ThreadState]) -> Tuple:
    """Execution identity computed straight off the path chain.

    Partition-equivalent to :meth:`Execution.canonical_key` — same
    per-thread events, reads-from, coherence order (as per-location write
    sequences rather than pair sets) and final register values — without
    constructing the :class:`Execution` and its relation objects, so
    duplicate interleavings are rejected cheaply.
    """
    ev_keys: List[Tuple] = []
    rf_pairs: List[Tuple[Tuple, Tuple]] = []
    co_seq: Dict[str, List[Tuple]] = {}
    key_of: Dict[int, Tuple] = {}
    for step in chain:
        for event in step.events:
            k = event.key()
            key_of[event.eid] = k
            if not event.is_init:
                ev_keys.append(k)
            if event.kind == "W":
                co_seq.setdefault(event.loc, []).append(k)
        for read, write in step.rf:
            rf_pairs.append((key_of[write], key_of[read]))
    return (
        tuple(sorted(ev_keys)),
        tuple(sorted(rf_pairs)),
        tuple(sorted((loc, tuple(seq)) for loc, seq in co_seq.items())),
        tuple(
            tuple(sorted((name, v.val) for name, v in s.regs.items()))
            for s in states
        ),
    )


def _materialize(
    chain: Sequence[_Node],
    memory: Dict[str, int],
    states: Sequence[_ThreadState],
) -> Execution:
    """Rebuild a full :class:`Execution` from a completed path chain."""
    events: List[Event] = []
    order: List[int] = []
    rf_map: Dict[int, int] = {}
    rmw_pairs: List[Tuple[int, int]] = []
    rmw_info: Dict[int, RmwInfo] = {}
    addr: List[Tuple[int, int]] = []
    data: List[Tuple[int, int]] = []
    ctrl: List[Tuple[int, int]] = []
    for step in chain:
        for event in step.events:
            events.append(event)
            order.append(event.eid)
        for read, write in step.rf:
            rf_map[read] = write
        if step.rmw_pair is not None:
            rmw_pairs.append(step.rmw_pair)
        if step.rmw_entry is not None:
            rmw_info[step.rmw_entry[0]] = step.rmw_entry[1]
        addr.extend(step.addr)
        data.extend(step.data)
        ctrl.extend(step.ctrl)

    return Execution(
        events=events,
        order=order,
        rf_map=rf_map,
        rmw_pairs=rmw_pairs,
        dep_edges={"addr": addr, "data": data, "ctrl": ctrl},
        final_memory=memory,
        final_registers=[
            {name: v.val for name, v in s.regs.items()} for s in states
        ],
        rmw_info=rmw_info,
    )


def _independent(op: Tuple[int, str, bool], loc: str, pure_read: bool) -> bool:
    """Two memory ops commute iff they touch different locations or are
    both pure reads (loads; RMWs count as writes)."""
    return loc != op[1] or (pure_read and op[2])


def _enumerate_por(
    program: Program,
    max_executions: Optional[int],
    tracer: Tracer = NULL_TRACER,
) -> SCEnumeration:
    stats = EnumStats(engine="por")
    root_events: List[Event] = []
    ctx = _Ctx({}, {}, 0)
    for idx, loc in enumerate(program.locations()):
        val = program.initial_value(loc)
        eid = ctx.next_eid
        ctx.next_eid += 1
        event = Event(eid, -1, "W", loc, val, AtomicKind.DATA, idx, is_init=True)
        root_events.append(event)
        ctx.last_writer[loc] = eid
        ctx.memory[loc] = val
    root = _Node(None, tuple(root_events), (), None, None, (), (), ())

    states = [
        _ThreadState(tid, thread.body) for tid, thread in enumerate(program.threads)
    ]
    truncated = 0
    try:
        for state in states:
            state.advance()
    except _Truncated:
        return SCEnumeration(program, (), 1, 0, stats)

    seen: Set[Tuple] = set()
    executions: List[Execution] = []
    trace_on = tracer.enabled
    enum_scope = tracer.scope(f"enumerate:{program.name}", cycle=0.0, component="enum")

    # Entries: (thread states, ctx, path node, sleep set).  A sleep-set
    # entry (tid, loc, pure-read) records a thread whose pending op was
    # already explored at an ancestor node and commutes with everything
    # executed since: scheduling it now would re-derive an execution the
    # sibling subtree already covers (Godefroid-style sleep sets).
    Sleep = FrozenSet[Tuple[int, str, bool]]
    stack: List[Tuple[List[_ThreadState], _Ctx, _Node, Sleep]] = [
        (states, ctx, root, frozenset())
    ]

    while stack:
        states, ctx, node, sleep = stack.pop()
        runnable = [s for s in states if s.pending is not None]
        if not runnable:
            stats.completed_paths += 1
            chain = _chain(node)
            key = _leaf_key(chain, states)
            if key not in seen:
                seen.add(key)
                executions.append(_materialize(chain, ctx.memory, states))
                if trace_on:
                    tracer.emit(
                        stats.steps, "enum", "execution",
                        distinct=len(executions), path=stats.completed_paths,
                    )
                if max_executions is not None and len(executions) >= max_executions:
                    break
            elif trace_on:
                tracer.emit(
                    stats.steps, "enum", "duplicate_path",
                    path=stats.completed_paths,
                )
            continue

        sleeping_tids = {op[0] for op in sleep}
        explored: List[Tuple[int, str, bool]] = []
        for state in runnable:
            if state.tid in sleeping_tids:
                stats.por_pruned += 1
                if trace_on:
                    tracer.emit(stats.steps, "enum", "por_prune", tid=state.tid)
                continue
            loc = state.pending_loc()
            pure_read = isinstance(state.pending, Load)
            # Earlier siblings (and inherited sleepers) stay asleep only
            # while independent of this op; a dependent op wakes them.
            child_sleep = frozenset(
                op
                for ops in (sleep, explored)
                for op in ops
                if _independent(op, loc, pure_read)
            )
            for choice in state.choices():
                new_ctx = ctx.branch()
                target = state.clone()
                new_node = _apply_op(target, new_ctx, choice, node)
                stats.steps += 1
                if trace_on:
                    tracer.emit(
                        stats.steps, "enum", "step",
                        tid=state.tid, loc=loc, depth=new_ctx.next_eid,
                    )
                try:
                    target.advance()
                except _Truncated:
                    truncated += 1
                    continue
                new_states = [target if s.tid == state.tid else s for s in states]
                stack.append((new_states, new_ctx, new_node, child_sleep))
            explored.append((state.tid, loc, pure_read))

    enum_scope.close(stats.steps)
    return SCEnumeration(
        program=program,
        executions=tuple(executions),
        truncated_paths=truncated,
        interleavings=stats.completed_paths,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Naive engine (original implementation): the oracle and perf baseline.
# ---------------------------------------------------------------------------


def _enumerate_naive(
    program: Program,
    max_executions: Optional[int],
    tracer: Tracer = NULL_TRACER,
) -> SCEnumeration:
    stats = EnumStats(engine="naive")
    trace_on = tracer.enabled
    enum_scope = tracer.scope(f"enumerate:{program.name}", cycle=0.0, component="enum")
    init_builder = _Builder()
    init_memory: Dict[str, int] = {}
    # Initial writes: one per location, first in T, excluded from races.
    for idx, loc in enumerate(program.locations()):
        val = program.initial_value(loc)
        eid = init_builder.fresh_eid()
        event = Event(eid, -1, "W", loc, val, AtomicKind.DATA, idx, is_init=True)
        init_builder.add_event(event)
        init_memory[loc] = val

    init_states = [
        _ThreadState(tid, thread.body) for tid, thread in enumerate(program.threads)
    ]

    seen: Set[Tuple] = set()
    executions: List[Execution] = []
    truncated = 0
    interleavings = 0

    # Each stack entry is (thread states, memory, builder); all cloned on branch.
    stack: List[Tuple[List[_ThreadState], Dict[str, int], _Builder]] = [
        (init_states, init_memory, init_builder)
    ]

    while stack:
        states, memory, builder = stack.pop()

        # Advance every thread to its next memory op (or completion).
        truncated_here = False
        for state in states:
            try:
                state.advance()
            except _Truncated:
                truncated += 1
                truncated_here = True
                break
        if truncated_here:
            continue

        runnable = [s for s in states if s.pending is not None]
        if not runnable:
            interleavings += 1
            stats.completed_paths += 1
            execution = Execution(
                events=builder.events,
                order=builder.order,
                rf_map=builder.rf_map,
                rmw_pairs=builder.rmw_pairs,
                dep_edges={
                    "addr": builder.addr,
                    "data": builder.data,
                    "ctrl": builder.ctrl,
                },
                final_memory=memory,
                final_registers=[
                    {name: v.val for name, v in s.regs.items()} for s in states
                ],
                rmw_info=builder.rmw_info,
            )
            key = execution.canonical_key()
            if key not in seen:
                seen.add(key)
                executions.append(execution)
                if trace_on:
                    tracer.emit(
                        stats.steps, "enum", "execution",
                        distinct=len(executions), path=stats.completed_paths,
                    )
                if max_executions is not None and len(executions) >= max_executions:
                    break
            continue

        for state in runnable:
            for choice in state.choices():
                new_states = [s.clone() for s in states]
                new_memory = dict(memory)
                new_builder = builder.clone()
                target = next(s for s in new_states if s.tid == state.tid)
                _execute_memory_op(target, new_builder, new_memory, choice)
                stats.steps += 1
                if trace_on:
                    tracer.emit(stats.steps, "enum", "step", tid=state.tid)
                stack.append((new_states, new_memory, new_builder))

    enum_scope.close(stats.steps)
    return SCEnumeration(
        program=program,
        executions=tuple(executions),
        truncated_paths=truncated,
        interleavings=interleavings,
        stats=stats,
    )


def _body_step_bound(body) -> int:
    """Upper bound on the memory operations one pass of *body* executes."""
    total = 0
    for instr in body:
        if isinstance(instr, (Load, Store, Rmw)):
            total += 1
        elif isinstance(instr, If):
            total += max(
                _body_step_bound(instr.then), _body_step_bound(instr.orelse)
            )
        elif isinstance(instr, While):
            total += instr.max_iters * _body_step_bound(instr.body)
    return total


def static_step_bound(program: Program) -> int:
    """Static bound on the memory operations any execution of *program*
    performs (loops weighted by their unrolling bound).  It is cheap,
    purely syntactic, and monotone in the interleaving space the
    enumerator would have to search; the router, the batch scheduler and
    the SAT encoder use it as a size measure.

    The bound is memoized on the (frozen, immutable) program instance,
    so each program's AST is walked at most once.
    """
    cached = program.__dict__.get("_step_bound")
    if cached is None:
        cached = sum(_body_step_bound(thread.body) for thread in program.threads)
        object.__setattr__(program, "_step_bound", cached)
    return cached


def enumerate_sc_executions(
    program: Program,
    max_executions: Optional[int] = None,
    naive: bool = False,
    tracer: Optional[Tracer] = None,
    cache=None,
) -> SCEnumeration:
    """Enumerate every SC execution of *program* (deduplicated).

    ``max_executions`` bounds the number of distinct executions collected
    (a safety valve for property tests); ``None`` means exhaustive.
    ``naive=True`` selects the original full-clone interleaver — the
    oracle used by equivalence tests; every other call takes the POR
    engine.
    ``tracer`` records one event per search step / POR prune / duplicate
    path / distinct execution ("cycle" is the step count); the default is
    the no-op tracer.
    ``cache`` is accepted and ignored: enumerations are not cached on
    disk (only results are; see :mod:`repro.perf.cache`).
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    engine = _enumerate_naive if naive else _enumerate_por
    return engine(program, max_executions, tracer=tracer)
