"""AllSAT bridge: decode solver models into concrete executions.

:func:`sat_enumeration` is the solver-backed twin of
:func:`repro.core.executions.enumerate_sc_executions`: it returns an
:class:`~repro.core.executions.SCEnumeration` whose executions are the
program's race-relevant execution classes, one per satisfying
assignment.  The loop is:

1. ``solve()`` the encoding (incremental — learnt clauses persist);
2. check the committed order edges (program order, reads-from, assigned
   order variables) for cycles; a cyclic model is rejected with a
   *guarded* blocking clause (the ``sel`` guards keep the clause valid
   for every other shape selection) and the solver re-run — this is the
   lazy half of the order-variable transitivity encoding;
3. topologically sort the selected instances into a concrete SC total
   order T and decode the class once into a :class:`_DecodedClass` (the
   instances in T order plus rf, deps, RMW pairs and final state over
   eids); each served labeling turns it into a full
   :class:`~repro.core.events.Execution` whose events are built once per
   (eid, instance, label), so the existing race analyses run unchanged
   and their per-event memos hit across classes and models;
4. block the model's *race signature* — the selected shapes, the
   reads-from choice and the coherence order (the same projection
   :func:`repro.core.races.race_signature` dedups on) — so the solver
   yields exactly one model per execution class, and continue until
   UNSAT.

Because one class stands in for its whole havoc fan-out,
``executions_explored`` counts classes (the enumerator counts all
distinct executions) and ``truncated_paths`` counts locally truncated
thread branches (the enumerator counts truncated interleavings); race
verdicts and printed witnesses are identical.  ``expand_registers=True``
re-expands every final-register variant of each class into its own
execution — the mode the differential tests use to compare canonical
execution sets against the enumerator one-to-one.

The loop lives in one place, :meth:`SharedCore.ensure`.  An untraced
check is served by the core memoized for its label-erased structure; a
traced check, and a program whose labels collide in that core, get a
fresh, unmemoized core over the labeled program, whose loop emits the
tracer's ``sat:<name>`` scope and its ``order_cycle``/``execution``
events.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.events import Event, Execution, RmwInfo
from repro.core.executions import EnumStats, SCEnumeration
from repro.core.labels import AtomicKind
from repro.obs.metrics import RUNTIME, metric
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.litmus.program import Program, structure_key
from repro.solver.encode import (
    MAX_TRACES_PER_THREAD,
    Encoding,
    Inst,
    SolverCapacityError,
    erase_labels,
    label_kinds,
)
from repro.solver.sat import SatStats

#: Safety valve on distinct classes enumerated when the caller sets none.
DEFAULT_MAX_CLASSES = 100_000


@dataclass
class SolverStats:
    """Work accounting for one solver-backed enumeration.

    The integer counters are deterministic per (program structure, class
    cap) — the CDCL search is deterministic and a core serves per-class
    snapshots of them, equal to what a fresh core capped at the same
    class count reports — so they are safe to expose in reproducible
    payloads (``audit --json``, v1 check responses) via
    :meth:`counters`.  The wall times depend on machine load and stay
    out of those payloads.  The ``shared`` flag is deterministic too,
    and payloads carry it beside the counters: it is False only when a
    fresh core served the check — a tracer was enabled, or the
    program's labels collide in the label-erased core (a property of
    the program) — never because of which request warmed the core.
    """

    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0
    learned: int = 0
    #: Execution classes enumerated (== ``executions_explored`` pre-expand).
    classes: int = 0
    #: Wall seconds spent building the CNF (grounding + clauses): the
    #: serving core's one-time encode, reported identically by every
    #: check it serves.
    encode_s: float = 0.0
    #: Wall seconds spent inside ``solve()`` calls.
    solve_s: float = 0.0
    #: True when served from a memoized (label-erased, name-free) core.
    shared: bool = False

    def counters(self) -> Dict[str, int]:
        """The deterministic integer counters, for api/audit payloads."""
        return {
            "decisions": self.decisions,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned": self.learned,
            "classes": self.classes,
        }

    @classmethod
    def from_sat(
        cls, stats: SatStats, classes: int,
        encode_s: float, solve_s: float, shared: bool,
    ) -> "SolverStats":
        return cls(
            decisions=stats.decisions,
            conflicts=stats.conflicts,
            propagations=stats.propagations,
            restarts=stats.restarts,
            learned=stats.learned,
            classes=classes,
            encode_s=encode_s,
            solve_s=solve_s,
            shared=shared,
        )


def _selected_shapes(enc: Encoding):
    solver = enc.solver
    chosen = []
    for tid, shapes in enumerate(enc.shapes):
        picked = [s for s in shapes if solver.value(enc.sel_var[(tid, s.index)])]
        assert len(picked) == 1, "exactly-one selection violated"
        chosen.append(picked[0])
    return chosen


def _model_edges(enc: Encoding, shapes) -> Tuple[Dict[int, List], Dict[int, int]]:
    """Committed order edges among the selected program instances, with
    provenance tags for cycle blocking, plus each read's rf source."""
    solver = enc.solver
    selected = {
        i.gid for i in enc.insts
        if not i.is_init and i.shape is shapes[i.tid]
    }
    edges: Dict[int, List[Tuple[int, Tuple]]] = {gid: [] for gid in selected}
    # Program order: chain consecutive events of each selected shape.
    by_gid = enc.by_gid
    per_thread: Dict[int, List[Inst]] = {}
    for gid in selected:
        per_thread.setdefault(by_gid[gid].tid, []).append(by_gid[gid])
    for insts in per_thread.values():
        insts.sort(key=lambda i: i.pos)
        for a, b in zip(insts, insts[1:]):
            edges[a.gid].append((b.gid, ("po",)))
    # Reads-from: source write precedes the read (init sources are first
    # in T by construction and need no edge).
    rf_source: Dict[int, int] = {}
    for r_gid, cands in enc.rf_candidates.items():
        if r_gid not in selected:
            continue
        for w_gid in cands:
            var = enc.rf_var[(r_gid, w_gid)]
            if solver.value(var):
                rf_source[r_gid] = w_gid
                w = by_gid[w_gid]
                if not w.is_init and w.gid in selected:
                    edges[w_gid].append((r_gid, ("rf", var)))
                break
    # Assigned order variables (both polarities) between selected pairs.
    for (a_gid, b_gid), var in enc.o_var.items():
        if a_gid in selected and b_gid in selected:
            if solver.value(var):
                edges[a_gid].append((b_gid, ("o", var)))
            else:
                edges[b_gid].append((a_gid, ("o", -var)))
    return edges, rf_source


def _find_cycle(edges: Dict[int, List]) -> Optional[Tuple[List[int], List[Tuple]]]:
    """One cycle in the committed-edge digraph, as (nodes, edge tags)."""
    color = dict.fromkeys(edges, 0)  # 0 white, 1 gray, 2 black
    for root in edges:
        if color[root]:
            continue
        path = [root]
        entry_tag: List[Optional[Tuple]] = [None]
        iters = [iter(edges[root])]
        pos_in_path = {root: 0}
        color[root] = 1
        while path:
            try:
                dst, tag = next(iters[-1])
            except StopIteration:
                done = path.pop()
                iters.pop()
                entry_tag.pop()
                del pos_in_path[done]
                color[done] = 2
                continue
            c = color.get(dst, 2)
            if c == 2:
                continue
            if c == 1:
                i = pos_in_path[dst]
                return path[i:], entry_tag[i + 1:] + [tag]
            color[dst] = 1
            pos_in_path[dst] = len(path)
            path.append(dst)
            entry_tag.append(tag)
            iters.append(iter(edges[dst]))
    return None


def _cycle_clause(enc: Encoding, nodes: List[int], tags: List[Tuple]) -> List[int]:
    """Blocking clause for one order cycle, guarded by the selection of
    every shape involved so the clause stays valid globally."""
    lits: set = set()
    for gid in nodes:
        inst = enc.by_gid[gid]
        lits.add(-enc.sel_var[(inst.tid, inst.shape.index)])
    for tag in tags:
        if tag[0] in ("rf", "o"):
            lits.add(-tag[1])
    return sorted(lits, key=abs)


def _blocking_clause(
    enc: Encoding, shapes, edges: Dict[int, List], rf_source: Dict[int, int],
) -> List[int]:
    """Negation of the model's race signature: shape selection, rf choice
    and coherence order (same-location cross-thread write order).  The
    selected instances are the keys of the model's *edges*."""
    solver = enc.solver
    lits = [-enc.sel_var[(tid, s.index)] for tid, s in enumerate(shapes)]
    for r_gid, w_gid in rf_source.items():
        lits.append(-enc.rf_var[(r_gid, w_gid)])
    by_gid = enc.by_gid
    for (a_gid, b_gid), var in enc.o_var.items():
        if a_gid not in edges or b_gid not in edges:
            continue
        a, b = by_gid[a_gid], by_gid[b_gid]
        if a.kind == "W" and b.kind == "W" and a.loc == b.loc:
            lits.append(-var if solver.value(var) else var)
    return lits


class _DecodedClass:
    """One execution class decoded from an acyclic model: everything an
    :class:`Execution` needs but its events' labels and final registers.

    ``insts`` lists the selected instances in T order (so an event's eid
    is its index there); the relations are over those eids and are
    shared, never copied, by every execution built from the class.
    """

    __slots__ = ("shapes", "insts", "order", "rf_map", "rmw_pairs",
                 "dep_edges", "final_memory", "rmw_info")

    def __init__(self, shapes, insts, rf_map, rmw_pairs, dep_edges,
                 final_memory, rmw_info):
        self.shapes: Tuple = shapes
        self.insts: Tuple[Inst, ...] = insts
        self.order: Tuple[int, ...] = tuple(range(len(insts)))
        self.rf_map: Dict[int, int] = rf_map
        self.rmw_pairs: List[Tuple[int, int]] = rmw_pairs
        self.dep_edges: Dict[str, List[Tuple[int, int]]] = dep_edges
        self.final_memory: Dict[str, int] = final_memory
        self.rmw_info: Dict[int, RmwInfo] = rmw_info

    def events(self, label_of: Dict[int, AtomicKind],
               table: Dict[Tuple, Event]) -> List[Event]:
        """The class's events under the labeling *label_of* (instance
        gid -> label), each built once per ``(eid, gid, label)`` in
        *table* — so executions built under one table share the objects
        of every event they agree on, across classes and models."""
        events: List[Event] = []
        append = events.append
        for eid, inst in enumerate(self.insts):
            gid = inst.gid
            label = label_of[gid]
            key = (eid, gid, label)
            event = table.get(key)
            if event is None:
                event = table[key] = Event(
                    eid, inst.tid, inst.kind, inst.loc, inst.value, label,
                    inst.pos, inst.is_init,
                )
            append(event)
        return events

    def executions(self, events: List[Event],
                   expand_registers: bool) -> List[Execution]:
        """The class's representative execution over *events* — plus,
        with *expand_registers*, every other final-register variant."""
        if expand_registers:
            variants = _register_products(self.shapes)
        else:
            variants = [[dict(s.reg_variants[0]) for s in self.shapes]]
        return [
            Execution(
                events=events,
                order=self.order,
                rf_map=self.rf_map,
                rmw_pairs=self.rmw_pairs,
                dep_edges=self.dep_edges,
                final_memory=self.final_memory,
                final_registers=combo,
                rmw_info=self.rmw_info,
            )
            for combo in variants
        ]


def _decode(
    enc: Encoding,
    shapes,
    edges: Dict[int, List],
    rf_source: Dict[int, int],
) -> _DecodedClass:
    """Decode an acyclic model into its execution class.

    The total order is the *lexicographically least* (by thread id)
    linear extension of the committed edges, scheduled at instruction
    granularity — an RMW's two halves are emitted back to back, exactly
    like the enumerator's atomic steps.  The enumerator's DFS tries
    thread 0 first at every step, so its first-found member of each
    execution class is this same greedy schedule: the two engines then
    print byte-identical witnesses, not merely equivalent ones.
    """
    by_gid = enc.by_gid
    # Group the selected events into scheduling steps: an RMW pair is one
    # step, every other event its own.  ``step_of`` maps gid -> step key;
    # a step is (tid, first pos, [gids in po order]).
    step_of: Dict[int, Tuple[int, int]] = {}
    step_gids: Dict[Tuple[int, int], List[int]] = {}
    rmw_read_of: Dict[Tuple[int, int], int] = {}  # (tid, w_pos) -> r_pos
    for tid, shape in enumerate(shapes):
        for r_pos, w_pos in shape.rmw_pairs:
            rmw_read_of[(tid, w_pos)] = r_pos
    for gid in edges:
        inst = by_gid[gid]
        anchor = rmw_read_of.get((inst.tid, inst.pos), inst.pos)
        key = (inst.tid, anchor)
        step_of[gid] = key
        step_gids.setdefault(key, []).append(gid)
    for gids in step_gids.values():
        gids.sort(key=lambda g: by_gid[g].pos)
    # Kahn over steps: a step is ready when every cross-step in-edge of
    # every event in it is satisfied; ties break on the lowest thread id.
    indeg = dict.fromkeys(step_gids, 0)
    for src, outs in edges.items():
        src_step = step_of[src]
        for dst, _tag in outs:
            dst_step = step_of[dst]
            if dst_step != src_step:
                indeg[dst_step] += 1
    heap = [key for key, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    t_order: List[Inst] = list(enc.init_insts)
    while heap:
        key = heapq.heappop(heap)
        for gid in step_gids[key]:
            t_order.append(by_gid[gid])
            for dst, _tag in edges[gid]:
                dst_step = step_of[dst]
                if dst_step == key:
                    continue
                indeg[dst_step] -= 1
                if not indeg[dst_step]:
                    heapq.heappush(heap, dst_step)

    eid_of: Dict[int, int] = {}
    final_memory: Dict[str, int] = {}
    for eid, inst in enumerate(t_order):
        eid_of[inst.gid] = eid
        if inst.kind == "W":
            final_memory[inst.loc] = inst.value

    rf_map = {eid_of[r]: eid_of[w] for r, w in rf_source.items()}
    # Thread-local positions -> eids, for deps and RMW pairs.
    pos_eid: Dict[Tuple[int, int], int] = {
        (inst.tid, inst.pos): eid_of[inst.gid]
        for inst in t_order if not inst.is_init
    }
    rmw_pairs: List[Tuple[int, int]] = []
    rmw_info: Dict[int, RmwInfo] = {}
    dep_edges: Dict[str, List[Tuple[int, int]]] = {"addr": [], "data": [], "ctrl": []}
    for tid, shape in enumerate(shapes):
        for r_pos, w_pos in shape.rmw_pairs:
            rmw_pairs.append((pos_eid[(tid, r_pos)], pos_eid[(tid, w_pos)]))
        for w_pos, op, operand, operand2 in shape.rmw_info:
            rmw_info[pos_eid[(tid, w_pos)]] = RmwInfo(op, operand, operand2)
        for name, local_edges in shape.deps.items():
            dep_edges[name].extend(
                (pos_eid[(tid, s)], pos_eid[(tid, d)]) for s, d in local_edges
            )
    return _DecodedClass(
        tuple(shapes), tuple(t_order), rf_map, rmw_pairs, dep_edges,
        final_memory, rmw_info,
    )


def _register_products(shapes) -> List[List[Dict[str, int]]]:
    """Every combination of the per-thread final-register variants, the
    representative (first variant everywhere) first."""
    combos: List[List[Dict[str, int]]] = [[]]
    for shape in shapes:
        combos = [
            prefix + [dict(variant)]
            for prefix in combos
            for variant in shape.reg_variants
        ]
    return combos


# ---------------------------------------------------------------------------
# Shared (label-erased) program cores
# ---------------------------------------------------------------------------


class _LabelCollision(Exception):
    """One erased shape groups traces that disagree on an atomic label
    under the requested model, so the shared core cannot relabel its
    decoded executions soundly; the caller falls back to a fresh core
    over the labeled program (identical results, no sharing)."""


class _ClassRecord:
    """One enumerated execution class of a :class:`SharedCore`.

    ``stats``/``solve_s`` snapshot the solver counters and cumulative
    solve time right after this class's blocking clause was added —
    exactly the state a fresh core capped at this class count stops in,
    which is what makes served counters independent of how far earlier
    requests drove the core.
    """

    __slots__ = ("decoded", "stats", "solve_s")

    def __init__(self, decoded: _DecodedClass, stats: SatStats,
                 solve_s: float):
        self.decoded = decoded
        self.stats = stats
        self.solve_s = solve_s


def _shape_labels(
    kinds: Tuple[AtomicKind, ...], key: Tuple[int, int], shape,
) -> Dict[int, AtomicKind]:
    """One shape's event position -> label under *kinds*, or
    :class:`_LabelCollision` when its traces disagree on a label."""
    tid, index = key
    vectors = set()
    for srcs in shape.src_variants:
        if any(s < 0 for s in srcs):
            raise _LabelCollision(
                f"shape t{tid}s{index} has events without static provenance"
            )
        vectors.add(tuple(kinds[s] for s in srcs))
    if len(vectors) > 1:
        raise _LabelCollision(
            f"shape t{tid}s{index} groups traces whose labels disagree "
            "under this model"
        )
    return {
        ev[0]: kinds[src]
        for ev, src in zip(shape.events, shape.src_variants[0])
    }


class SharedCore:
    """One label-erased core for every labeling and name of one structure.

    The labelings, names and model preparations of one structure differ
    only in labels and names (drfrlx additionally quantum-transforms, in
    which case its erased structure — and hence its core — may differ),
    and neither reaches grounding or the CNF, so the erased structure
    encodes once and its AllSAT loop runs once, warm: the CDCL instance
    keeps its learnt clauses, VSIDS activity and saved phases across
    blocking iterations *and* across the requests/caps served.  Each
    class is decoded once; :meth:`serve` labels it per request by
    mapping each shape's static-instruction provenance through the
    program's label vector, building every served :class:`Event` once
    per (eid, instance, label) in the core's event table — so one
    core's executions share event objects across classes and labelings,
    as the enumerator's do, and the per-event memos of
    :func:`repro.core.races.race_signature` and :class:`Event` hit.

    Everything served is byte-identical to what a fresh core over the
    labeled program serves: no label collision (checked per serve)
    means the labeled trace partition equals the erased one, so the
    CNF, the deterministic solver run, the class order and the per-class
    counter snapshots all coincide; :meth:`ensure` resumes the loop
    exactly where a capped run stopped.  Such a fresh, unmemoized core
    is what a traced check and a label collision get; ``shared`` is
    True only for the memo's cores.

    Once exhausted the encoding and solver are dropped (``enc = None``)
    — the records alone serve any cap.  The event table grows with the
    records and dies with the core.
    """

    def __init__(self, program: Program, max_traces: int = MAX_TRACES_PER_THREAD):
        self.enc: Optional[Encoding] = Encoding(program, max_traces)
        self.encode_s = self.enc.encode_s
        self.truncated = self.enc.truncated
        #: Counters right after encoding (root units already propagate
        #: during ``add_clause``) — what a cap-0 serve reports.
        self.initial_stats = replace(self.enc.solver.stats)
        self.records: List[_ClassRecord] = []
        self.exhausted = False
        self.final_stats: Optional[SatStats] = None
        self.final_solve_s = 0.0
        self._solve_s = 0.0
        #: (eid, gid, label) -> the one Event served for it
        self._events: Dict[Tuple, Event] = {}
        #: Set by the core memo; a fresh core serves unshared.
        self.shared = False

    def ensure(self, cap: int, tracer: Tracer = NULL_TRACER) -> None:
        """Enumerate classes until *cap* are recorded or UNSAT, emitting
        an ``order_cycle`` event per rejected cyclic model and an
        ``execution`` event per class into *tracer*."""
        if self.exhausted:
            return
        enc = self.enc
        assert enc is not None
        solver = enc.solver
        trace_on = tracer.enabled
        while len(self.records) < cap:
            t0 = time.perf_counter()
            sat = solver.solve()
            self._solve_s += time.perf_counter() - t0
            if not sat:
                self.exhausted = True
                self.final_stats = replace(solver.stats)
                self.final_solve_s = self._solve_s
                self.enc = None  # records alone serve from here on
                break
            shapes = _selected_shapes(enc)
            edges, rf_source = _model_edges(enc, shapes)
            cycle = _find_cycle(edges)
            if cycle is not None:
                # Lazy transitivity: reject this order assignment and retry.
                solver.add_clause(_cycle_clause(enc, *cycle))
                if trace_on:
                    tracer.emit(0, "solver", "order_cycle",
                                length=len(cycle[0]))
                continue
            decoded = _decode(enc, shapes, edges, rf_source)
            solver.add_clause(_blocking_clause(enc, shapes, edges, rf_source))
            self.records.append(_ClassRecord(
                decoded, replace(solver.stats), self._solve_s,
            ))
            if trace_on:
                tracer.emit(0, "solver", "execution",
                            distinct=len(self.records))

    def _labels(
        self, kinds: Tuple[AtomicKind, ...], records: List[_ClassRecord],
    ) -> Dict[int, AtomicKind]:
        """Per instance of the served classes, gid -> model label.

        Raises :class:`_LabelCollision` when a shape's provenance
        vectors disagree on any label under *kinds* — the one case where
        the labeled program's trace partition is finer than the erased
        one and sharing would be unsound.
        """
        label_of: Dict[int, AtomicKind] = {}
        by_shape: Dict[Tuple[int, int], Dict[int, AtomicKind]] = {}
        for rec in records:
            for inst in rec.decoded.insts:
                if inst.gid in label_of:
                    continue
                if inst.is_init:
                    label_of[inst.gid] = inst.label
                    continue
                shape = inst.shape
                key = (inst.tid, shape.index)
                by_pos = by_shape.get(key)
                if by_pos is None:
                    by_pos = by_shape[key] = _shape_labels(kinds, key, shape)
                label_of[inst.gid] = by_pos[inst.pos]
        return label_of

    def serve(
        self,
        program: Program,
        max_executions: Optional[int],
        expand_registers: bool,
        tracer: Tracer = NULL_TRACER,
    ) -> SCEnumeration:
        """The enumeration of *program* (any labeling and name of this
        core's structure), byte-identical to a fresh core's.  *tracer*
        records the loop this call runs in a ``sat:<name>`` scope that
        closes at the served conflict count."""
        cap = (
            max_executions if max_executions is not None
            else DEFAULT_MAX_CLASSES
        )
        scope = tracer.scope(f"sat:{program.name}", cycle=0.0,
                             component="solver")
        self.ensure(cap, tracer)
        n = min(cap, len(self.records))
        served = self.records[:n]
        label_of = self._labels(label_kinds(program), served)
        table = self._events
        executions: List[Execution] = []
        for rec in served:
            decoded = rec.decoded
            executions += decoded.executions(
                decoded.events(label_of, table), expand_registers
            )
        # The counters a fresh core capped at `cap` would report:
        # the snapshot after the cap-th blocking clause when the cap cut
        # enumeration short, the post-UNSAT totals otherwise.
        if cap <= len(self.records):
            snap = served[-1].stats if n else self.initial_stats
            solve_s = served[-1].solve_s if n else 0.0
        else:
            assert self.exhausted and self.final_stats is not None
            snap = self.final_stats
            solve_s = self.final_solve_s
        scope.close(snap.conflicts)
        stats = EnumStats(engine="sat")
        stats.steps = snap.propagations
        stats.completed_paths = n
        return SCEnumeration(
            program=program,
            executions=tuple(executions),
            truncated_paths=self.truncated,
            interleavings=n,
            stats=stats,
            solver_stats=SolverStats.from_sat(
                snap, n, self.encode_s, solve_s, shared=self.shared,
            ),
        )


CORE_BUILT = metric(
    "solver_core_built", "solver", unit="cores",
    doc="shared SAT cores encoded (memo misses that grounded)",
)
CORE_REUSED = metric(
    "solver_core_reused", "solver", unit="cores",
    doc="shared SAT cores served from the in-process memo",
)
CORE_EVICTED = metric(
    "solver_core_evicted", "solver", unit="cores",
    doc="core memo entries dropped to make room (oldest first)",
)

#: In-process core memo: (structure key of the label-erased program,
#: max_traces) -> SharedCore, or the SolverCapacityError its construction
#: raised (negative caching — one doomed grounding per structure, not one
#: per labeling per request).
_CORE_MEMO: Dict[Tuple[Tuple, int], object] = {}
_CORE_MEMO_MAX = 32


def clear_core_memo() -> None:
    """Drop every memoized shared core (tests and long-lived services)."""
    _CORE_MEMO.clear()


def _memo_put(key: Tuple[Tuple, int], value: object) -> None:
    if key not in _CORE_MEMO and len(_CORE_MEMO) >= _CORE_MEMO_MAX:
        _CORE_MEMO.pop(next(iter(_CORE_MEMO)))
        RUNTIME.bump(CORE_EVICTED)
    _CORE_MEMO[key] = value


def _core_for(erased: Program, max_traces: int) -> SharedCore:
    key = (structure_key(erased), max_traces)
    hit = _CORE_MEMO.get(key)
    if isinstance(hit, SolverCapacityError):
        raise SolverCapacityError(*hit.args)
    if isinstance(hit, SharedCore):
        RUNTIME.bump(CORE_REUSED)
        return hit
    try:
        core = SharedCore(erased, max_traces)
    except SolverCapacityError as exc:
        # A raised exception's traceback pins its frames (the calling
        # pipeline and everything it made), so the memo keeps a bare
        # copy and every hit raises a fresh one.
        _memo_put(key, SolverCapacityError(*exc.args))
        raise
    RUNTIME.bump(CORE_BUILT)
    core.shared = True
    _memo_put(key, core)
    return core


def sat_enumeration(
    program: Program,
    max_executions: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    cache=None,
    expand_registers: bool = False,
    max_traces: int = MAX_TRACES_PER_THREAD,
) -> SCEnumeration:
    """Enumerate *program*'s execution classes with the SAT engine.

    The result mirrors :func:`enumerate_sc_executions` (and is consumed
    by the same ``classify_enumeration``), with the counting differences
    described in the module docstring.  Raises
    :class:`SolverCapacityError` when grounding exceeds the caps —
    callers fall back to the explicit enumerator.  ``cache`` is accepted
    and ignored: neither enumerations nor cores are cached on disk (only
    results are; see :mod:`repro.perf.cache`).

    The check is served from the :class:`SharedCore` memo, keyed on the
    label-erased, name-free structure, so every labeling and name of one
    structure encodes and solves once.  A traced check gets a fresh core
    over *program* instead — its events should describe this run, not
    whichever request warmed the memo's core — and so does a program
    whose labels collide in the erased core.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    if not tracer.enabled:
        core = _core_for(erase_labels(program), max_traces)
        try:
            return core.serve(program, max_executions, expand_registers)
        except _LabelCollision:
            pass  # sound fallback: a fresh core over the labeled program
    return SharedCore(program, max_traces).serve(
        program, max_executions, expand_registers, tracer,
    )
