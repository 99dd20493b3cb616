"""Operations, the program/conflict graph, and ordering/valid paths.

The paper's race definitions (Section 3.3.3) speak of *operations* —
loads, stores, and read-modify-writes — while an execution is made of
read/write *events* (an RMW is two events).  This module lifts events to
operations, builds the program/conflict graph, and implements ordering
paths and valid paths precisely (per-edge disjunction of the three
validity clauses), which the Herd transcription in
:mod:`repro.core.herd_model` can only approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.core.util import cached_property
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from operator import attrgetter

from repro.core.events import Event, Execution
from repro.core.labels import ORDERED_ATOMIC_KINDS, AtomicKind

_PROGRAM_ORDER_KEY = attrgetter("tid", "po_index")


@dataclass(frozen=True)
class Operation:
    """A memory operation: a load, a store, or an RMW (read+write).

    The scalar views below are ``cached_property`` rather than
    ``property``: the race scans consult them once per operation *pair*,
    and ``cached_property`` writes to ``__dict__`` directly, which works
    on a frozen dataclass (and does not participate in field-based
    ``__eq__``/``__hash__``)."""

    events: Tuple[Event, ...]

    @cached_property
    def tid(self) -> int:
        return self.events[0].tid

    @cached_property
    def loc(self) -> str:
        return self.events[0].loc

    @cached_property
    def label(self) -> AtomicKind:
        return self.events[0].label

    @cached_property
    def is_rmw(self) -> bool:
        return len(self.events) == 2

    @cached_property
    def has_read(self) -> bool:
        return any(e.is_read for e in self.events)

    @cached_property
    def has_write(self) -> bool:
        return any(e.is_write for e in self.events)

    @cached_property
    def read_event(self) -> Optional[Event]:
        for e in self.events:
            if e.is_read:
                return e
        return None

    @cached_property
    def write_event(self) -> Optional[Event]:
        for e in self.events:
            if e.is_write:
                return e
        return None

    @cached_property
    def is_atomic(self) -> bool:
        return self.events[0].is_atomic

    @cached_property
    def po_index(self) -> int:
        return self.events[0].po_index

    def conflicts_with(self, other: "Operation") -> bool:
        return self.loc == other.loc and (self.has_write or other.has_write)

    def __repr__(self) -> str:
        shape = "RMW" if self.is_rmw else self.events[0].kind
        return f"<op t{self.tid}.{self.po_index} {shape} {self.loc} {self.label.name}>"


class OperationGraph:
    """Operation-level view of an execution: the program/conflict graph
    plus reachability queries used by the non-ordering race definition."""

    def __init__(self, execution: Execution):
        self.execution = execution
        self.operations = self._lift_operations(execution)
        self._event_to_op: Dict[int, Operation] = {}
        for op in self.operations:
            for e in op.events:
                self._event_to_op[e.eid] = op

    @staticmethod
    def _lift_operations(execution: Execution) -> Tuple[Operation, ...]:
        # _rmw_pairs already holds the (read eid, write eid) pairing; the
        # rmw *relation* is not needed here.
        rmw_partner = dict(execution._rmw_pairs)
        taken: Set[int] = set()
        ops: List[Operation] = []
        for e in sorted(execution.program_events, key=_PROGRAM_ORDER_KEY):
            if e.eid in taken:
                continue
            if e.eid in rmw_partner:
                w = execution.by_eid[rmw_partner[e.eid]]
                taken.add(w.eid)
                ops.append(Operation((e, w)))
            else:
                ops.append(Operation((e,)))
        return tuple(ops)

    def op_of(self, event: Event) -> Operation:
        return self._event_to_op[event.eid]

    # -- op-level orders -----------------------------------------------------
    def t_before(self, a: Operation, b: Operation) -> bool:
        return self.execution.t_before(a.events[0], b.events[0])

    def hb1_holds(self, hb1_event_pairs,
                  a: Operation, b: Operation) -> bool:
        """hb1 lifted to operations: any event of *a* hb1-before any of *b*.

        *hb1_event_pairs* is anything answering ``(eid, eid) in ...`` —
        a frozenset of eid pairs or the dense bitmask view
        (:func:`repro.core.races.eid_pair_view`)."""
        return any(
            (ea.eid, eb.eid) in hb1_event_pairs
            for ea in a.events
            for eb in b.events
        )

    @cached_property
    def po_edges(self) -> FrozenSet[Tuple[Operation, Operation]]:
        """Immediate program-order edges between operations."""
        by_thread: Dict[int, List[Operation]] = {}
        for op in self.operations:
            by_thread.setdefault(op.tid, []).append(op)
        edges: Set[Tuple[Operation, Operation]] = set()
        for ops in by_thread.values():
            ops.sort(key=lambda op: op.po_index)
            for a, b in zip(ops, ops[1:]):
                edges.add((a, b))
        return frozenset(edges)

    @cached_property
    def conflict_edges(self) -> FrozenSet[Tuple[Operation, Operation]]:
        """Conflict-order edges: conflicting operations, T-ordered."""
        edges: Set[Tuple[Operation, Operation]] = set()
        for a in self.operations:
            for b in self.operations:
                if a is b or a.tid == b.tid:
                    continue
                if a.conflicts_with(b) and self.t_before(a, b):
                    edges.add((a, b))
        return frozenset(edges)

    @cached_property
    def graph_edges(self) -> FrozenSet[Tuple[Operation, Operation]]:
        """All edges of the program/conflict graph."""
        return self.po_edges | self.conflict_edges

    # -- reachability with program-order tracking ------------------------------
    @cached_property
    def _position(self) -> Dict[int, int]:
        """``id(operation)`` -> its bit in the reachability rows."""
        return {id(op): i for i, op in enumerate(self.operations)}

    def _reach_rows(self, edge_ok=None) -> Tuple[List[int], List[int]]:
        """``(reach_any, reach_po)`` as one int bitmask row per operation:
        bit *j* of row *i* is set when a path of graph edges (those
        passing *edge_ok*, or all) leads from operation *i* to *j*; in
        ``reach_po``, a path containing at least one program-order edge."""
        pos = self._position
        n = len(self.operations)
        succ = [0] * n
        po_succ = [0] * n
        po_edges = self.po_edges
        for u, v in self.graph_edges:
            if edge_ok is not None and not edge_ok(u, v):
                continue
            i, bit = pos[id(u)], 1 << pos[id(v)]
            succ[i] |= bit
            if (u, v) in po_edges:
                po_succ[i] |= bit
        # Warshall's closure over bitmask rows: paths of length >= 1.
        reach = succ
        for k in range(n):
            k_bit, k_row = 1 << k, reach[k]
            for i in range(n):
                if reach[i] & k_bit:
                    reach[i] |= k_row
        # A path with a po edge is s ->* u ->po v ->* t, each ->* of
        # length >= 0.
        reach_po = []
        for s in range(n):
            via = _union_rows(po_succ, reach[s] | (1 << s))
            reach_po.append(via | _union_rows(reach, via))
        return reach, reach_po

    @cached_property
    def _full_reach(self) -> Tuple[List[int], List[int]]:
        return self._reach_rows()

    def _holds(self, rows: List[int], a: Operation, b: Operation) -> bool:
        pos = self._position
        return bool(rows[pos[id(a)]] >> pos[id(b)] & 1)

    def reaches(self, a: Operation, b: Operation) -> bool:
        return self._holds(self._full_reach[0], a, b)

    def reaches_with_po(self, a: Operation, b: Operation) -> bool:
        return self._holds(self._full_reach[1], a, b)

    def has_ordering_path(self, a: Operation, b: Operation) -> bool:
        """An ordering path: a path from *a* to *b* with at least one
        program-order edge, where *a* and *b* conflict (Section 3.3.3)."""
        return a.conflicts_with(b) and self.reaches_with_po(a, b)

    # -- valid paths ---------------------------------------------------------
    #
    # Section 3.3.3 lists three validity clauses.  Figure 2(a) shows that
    # clause (1) "hb1" cannot mean "any hb1 edge is a valid path edge" —
    # po edges are always hb1, which would validate the very path the
    # figure flags as racy.  The Herd encoding (Listing 7), which the
    # paper states is their model, realizes validity as two *uniform*
    # path families: all edges between accesses to the same address
    # (enforced by per-location SC), or all edges between paired/unpaired
    # accesses (classes the system never reorders among themselves).
    # Clause (1) corresponds to the endpoints being ordered by hb1
    # outright (the ordering a DRF1 system already enforces).  We
    # implement exactly that.

    @cached_property
    def _same_address_reach_po(self) -> List[int]:
        """Clause (2): uniform paths of same-address atomic edges."""
        return self._reach_rows(
            lambda u, v: u.loc == v.loc and u.is_atomic and v.is_atomic
        )[1]

    @cached_property
    def _ordered_reach_po(self) -> List[int]:
        """Clause (3): uniform paths between accesses the system keeps
        program-ordered among themselves — paired/unpaired in the paper,
        plus the acquire/release extension labels (also never reordered
        with respect to other non-relaxed atomics)."""
        return self._reach_rows(
            lambda u, v: u.label in ORDERED_ATOMIC_KINDS
            and v.label in ORDERED_ATOMIC_KINDS
        )[1]

    def has_valid_path(
        self,
        a: Operation,
        b: Operation,
        hb1_event_pairs,
    ) -> bool:
        """True when the ordering a -> b is enforced by a valid path:
        the endpoints are hb1-ordered, or a uniform same-address atomic
        path exists, or a uniform paired/unpaired path exists.  Neither
        uniform family depends on the endpoints, so each one's
        reachability is computed once per graph."""
        if not a.conflicts_with(b):
            return False
        if self.hb1_holds(hb1_event_pairs, a, b):
            return True
        return self._holds(self._same_address_reach_po, a, b) or self._holds(
            self._ordered_reach_po, a, b
        )


def _union_rows(rows: List[int], mask: int) -> int:
    """The union of ``rows[i]`` over the set bits *i* of *mask*."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out
