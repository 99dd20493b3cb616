"""One-pass race kernel: the checker's fast race classifier.

:class:`repro.core.races.RaceAnalysis` classifies the races of an
execution through operation objects, relation objects and the
:class:`repro.core.paths.OperationGraph`.  This module decides the same
five illegal-race classes (Sections 2.3.2, 3.2.3, 3.3.3, 3.4.3, 3.5.3 of
the paper) on plain integers and shares no analysis code with it, so the
two check each other: ``RaceAnalysis`` stays the oracle that
:func:`repro.core.model.classify_enumeration` runs, and
:meth:`repro.core.model.Pipeline._classify` runs this kernel.

For one :class:`~repro.core.events.Execution`, :func:`race_pools`

- walks the events in T order and lifts them to operations (an RMW is
  one operation), numbered in T order of their first events;
- builds the so1 rows and closes hb1 = (po | so1)+ in one pass in T
  order, since every po and so1 edge points T-forward;
- scans the conflicting cross-thread pairs once for the racy ones, in
  the order the oracle lists them: by (thread, program order) of the
  one in the lower thread, then of the other;
- filters the racy pairs into each requested class.  Data, quantum and
  speculative races are label filters; commutative races use
  :func:`repro.core.races.write_effects_commute`; non-ordering races use
  bitmask reachability over the program/conflict graph and its two
  uniform valid-path families.

A pool is a tuple of ``(first, second)`` operation numbers, *first*
before *second* in T; ``ops[i]`` is the event tuple of operation *i*, as
in :attr:`repro.core.paths.Operation.events`.  Bit *i* of every row
stands for operation *i*.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.labels import (
    ORDERED_ATOMIC_KINDS,
    SYNC_READ_KINDS,
    SYNC_WRITE_KINDS,
    AtomicKind,
)
from repro.core.races import write_effects_commute

_DATA = AtomicKind.DATA
_COMMUTATIVE = AtomicKind.COMMUTATIVE
_NON_ORDERING = AtomicKind.NON_ORDERING
_QUANTUM = AtomicKind.QUANTUM
_SPECULATIVE = AtomicKind.SPECULATIVE

#: Label sets by object id: ``id(label) in ...`` skips the enum's
#: Python-level ``__hash__``.
_SYNC_WRITE_IDS = frozenset(map(id, SYNC_WRITE_KINDS))
_SYNC_READ_IDS = frozenset(map(id, SYNC_READ_KINDS))

Pool = Tuple[Tuple[int, int], ...]


def _bits(mask: int):
    """The set bit positions of *mask*, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Kernel:
    """The operation table, hb1 rows and racy pairs of one execution,
    plus the per-class filters over the racy pairs."""

    def __init__(self, execution) -> None:
        self.execution = execution
        by_eid = execution.by_eid
        partner = dict(execution._rmw_pairs)
        joined = set(partner.values())
        ops: List[Tuple] = []
        tid: List[int] = []
        loc: List[str] = []
        label: List[AtomicKind] = []
        writes: List[bool] = []
        #: thread -> mask of its operations; a thread's operations in T
        #: order are its operations in program order
        thread_mask: Dict[int, int] = {}
        loc_mask: Dict[str, int] = {}
        writer_mask: Dict[str, int] = {}
        sync_writers: Dict[str, int] = {}
        sync_readers = 0
        bit = 1
        for eid in execution.order:
            e = by_eid[eid]
            if e.is_init or eid in joined:
                continue  # an RMW's write joined its read, just before it
            w = e
            if eid in partner:
                w = by_eid[partner[eid]]
                ops.append((e, w))
            else:
                ops.append((e,))
            t, x = e.tid, e.loc
            tid.append(t)
            loc.append(x)
            label.append(e.label)
            thread_mask[t] = thread_mask.get(t, 0) | bit
            loc_mask[x] = loc_mask.get(x, 0) | bit
            if w.kind == "W":
                writes.append(True)
                writer_mask[x] = writer_mask.get(x, 0) | bit
                if id(w.label) in _SYNC_WRITE_IDS:
                    sync_writers[x] = sync_writers.get(x, 0) | bit
            else:
                writes.append(False)
            if e.kind == "R" and id(e.label) in _SYNC_READ_IDS:
                sync_readers |= bit
            bit <<= 1
        n = len(ops)
        self.n = n
        self.ops = tuple(ops)
        self.tid, self.loc, self.label, self.writes = tid, loc, label, writes
        self.thread_mask, self.loc_mask = thread_mask, loc_mask
        self.writer_mask = writer_mask
        # so1: a synchronizing write before a synchronizing read of the
        # same location in T.  ``anc[i]`` is the set of operations
        # hb1-before operation i, closed in one pass in T order.
        anc = [0] * n
        if sync_readers:
            so1 = [0] * n
            for i in _bits(sync_readers):
                so1[i] = sync_writers.get(loc[i], 0) & ((1 << i) - 1)
            cover = [1 << i for i in range(n)]  # i and everything before it
            for i in range(n):
                a = thread_mask[tid[i]] & ((1 << i) - 1)  # po-before i
                if a:
                    a |= cover[a.bit_length() - 1]
                preds = so1[i]
                while preds:
                    low = preds & -preds
                    preds ^= low
                    a |= cover[low.bit_length() - 1]
                anc[i] = a
                cover[i] = a | 1 << i
        else:
            for i in range(n):
                anc[i] = thread_mask[tid[i]] & ((1 << i) - 1)
        self.anc = anc
        # The racy pairs: conflicting, different threads, hb1-unordered,
        # each oriented by T.
        racy = []
        threads = sorted(thread_mask)
        for k, t in enumerate(threads):
            higher = threads[k + 1:]
            above = 0
            for u in higher:
                above |= thread_mask[u]
            for i in _bits(thread_mask[t]):
                x = loc[i]  # inline conflicts(i)
                other = (loc_mask[x] if writes[i] else writer_mask.get(x, 0)) & above
                if not other:
                    continue
                for u in higher:
                    m = other & thread_mask[u]
                    while m:
                        low = m & -m
                        m ^= low
                        j = low.bit_length() - 1
                        if i < j:
                            if not anc[j] >> i & 1:
                                racy.append((i, j))
                        elif not anc[i] & low:
                            racy.append((j, i))
        self.racy = racy

    # -- helpers ---------------------------------------------------------------
    def conflicts(self, i: int) -> int:
        """The operations that conflict with operation *i* (itself
        included when it writes)."""
        x = self.loc[i]
        return self.loc_mask[x] if self.writes[i] else self.writer_mask.get(x, 0)

    def _observed_reads(self):
        """Eids of the reads whose value another instruction uses (the
        paper's addr|data|ctrl approximation)."""
        by_eid = self.execution.by_eid
        return {
            a
            for edges in self.execution._dep_edges.values()
            for a, b in edges
            if a in by_eid and b in by_eid
        }

    def _observed(self, i: int, observed) -> bool:
        e = self.ops[i][0]
        return e.kind == "R" and e.eid in observed

    def _commute(self, a: int, b: int) -> bool:
        if not (self.writes[a] and self.writes[b]):
            return False
        info = self.execution.rmw_info
        wa, wb = self.ops[a][-1], self.ops[b][-1]
        return write_effects_commute(
            wa.value, info.get(wa.eid), wb.value, info.get(wb.eid)
        )

    def _commutative_race(self, a: int, b: int, observed) -> bool:
        label = self.label
        if label[a] is not _COMMUTATIVE and label[b] is not _COMMUTATIVE:
            return False
        if label[a] is _DATA or label[b] is _DATA:
            return False
        return (
            not self._commute(a, b)
            or self._observed(a, observed)
            or self._observed(b, observed)
        )

    # -- classes ---------------------------------------------------------------
    def data(self) -> Pool:
        label = self.label
        return tuple(
            (a, b) for a, b in self.racy if label[a] is _DATA or label[b] is _DATA
        )

    def quantum(self) -> Pool:
        label = self.label
        return tuple(
            (a, b) for a, b in self.racy
            if (label[a] is _QUANTUM) != (label[b] is _QUANTUM)
        )

    def commutative(self) -> Pool:
        observed = self._observed_reads()
        return tuple(
            (a, b) for a, b in self.racy if self._commutative_race(a, b, observed)
        )

    def speculative(self) -> Pool:
        label, writes = self.label, self.writes
        observed = self._observed_reads()
        out = []
        for a, b in self.racy:
            if label[a] is not _SPECULATIVE and label[b] is not _SPECULATIVE:
                continue
            if writes[a] and writes[b]:
                out.append((a, b))
            elif any(self._observed(i, observed) for i in (a, b) if not writes[i]):
                out.append((a, b))
        return tuple(out)

    def non_ordering(self) -> Pool:
        label = self.label
        candidates = [
            (x, y) for x, y in self.racy
            if label[x] is _NON_ORDERING or label[y] is _NON_ORDERING
        ]
        if not candidates:
            return ()
        observed = self._observed_reads()
        graph = None
        out = []
        for x, y in candidates:
            # Data and commutative races are reported as such, and a
            # non-ordering race is between two atomics.
            if label[x] is _DATA or label[y] is _DATA:
                continue
            if self._commutative_race(x, y, observed):
                continue
            if graph is None:
                graph = _PathRows(self)
            if graph.unbacked(x, y):
                out.append((x, y))
        return tuple(out)


class _PathRows:
    """Reachability over the program/conflict graph (Section 3.3.3) as
    bitmask rows: ``reach`` (paths of one or more edges), ``reach_po``
    (paths holding a program-order edge) and ``valid`` (the operations
    each one reaches by a valid path: hb1, or a uniform path of
    same-address atomic edges, or of edges between ordered atomics)."""

    def __init__(self, k: _Kernel) -> None:
        self.k = k
        n, tid, loc, label = k.n, k.tid, k.loc, k.label
        # Each operation's immediate po successor, and the T-later
        # conflicting operations of other threads.
        po_next = [0] * n
        conflict = [0] * n
        for i in range(n):
            later = ~((2 << i) - 1)
            same_thread = k.thread_mask[tid[i]]
            successors = same_thread & later
            po_next[i] = successors & -successors
            conflict[i] = k.conflicts(i) & ~same_thread & later
        atomic = ordered = 0
        for i in range(n):
            if label[i] is not _DATA:
                atomic |= 1 << i
            if label[i] in ORDERED_ATOMIC_KINDS:
                ordered |= 1 << i
        self.reach, self.reach_po = self._close(po_next, conflict)
        same_address = self._close(
            [
                po_next[i] & atomic
                if atomic >> i & 1 and po_next[i]
                and loc[po_next[i].bit_length() - 1] == loc[i]
                else 0
                for i in range(n)
            ],
            [conflict[i] & atomic if atomic >> i & 1 else 0 for i in range(n)],
        )[1]
        ordered_path = self._close(
            [po_next[i] & ordered if ordered >> i & 1 else 0 for i in range(n)],
            [conflict[i] & ordered if ordered >> i & 1 else 0 for i in range(n)],
        )[1]
        hb1_after = [0] * n
        for b, row in enumerate(k.anc):
            for a in _bits(row):
                hb1_after[a] |= 1 << b
        self.valid = [
            hb1_after[i] | same_address[i] | ordered_path[i] for i in range(n)
        ]

    def _close(self, po_succ: List[int], conflict_succ: List[int]):
        """``(reach, reach_po)`` of the graph with these edges, one pass
        in reverse T order (every edge points T-forward)."""
        n = self.k.n
        reach = [0] * n
        reach_po = [0] * n
        for i in range(n - 1, -1, -1):
            r = rp = 0
            for j in _bits(po_succ[i]):
                r |= 1 << j | reach[j]
                rp |= 1 << j | reach[j]
            for j in _bits(conflict_succ[i]):
                r |= 1 << j | reach[j]
                rp |= reach_po[j]
            reach[i] = r
            reach_po[i] = rp
        return reach, reach_po

    def unbacked(self, x: int, y: int) -> bool:
        """Does the conflict edge x -> y lie on an ordering path from
        some A to a conflicting B in another thread with no valid path
        from A to B?"""
        k = self.k
        reach, reach_po = self.reach, self.reach_po
        after = 1 << y | reach[y]
        for a in range(k.n):
            if a != x and not reach[a] >> x & 1:
                continue
            b = after & k.conflicts(a) & ~k.thread_mask[k.tid[a]]
            # The whole path needs a program-order edge; the x -> y
            # conflict edge contributes none.
            if not reach_po[a] >> x & 1:
                b &= reach_po[y]
            if b & ~self.valid[a]:
                return True
        return False


_CLASS_FILTERS = {
    "data": _Kernel.data,
    "commutative": _Kernel.commutative,
    "non_ordering": _Kernel.non_ordering,
    "quantum": _Kernel.quantum,
    "speculative": _Kernel.speculative,
}


def race_pools(execution, classes: Tuple[str, ...]) -> Tuple[Tuple, Tuple[Pool, ...]]:
    """``(ops, pools)``: the operations of *execution* as event tuples,
    and one pool of ``(first, second)`` operation numbers per class in
    *classes*, each in the order
    ``RaceAnalysis(execution).illegal_races((cls,))`` lists its races."""
    kernel = _Kernel(execution)
    if not kernel.racy:
        return kernel.ops, ((),) * len(classes)
    return kernel.ops, tuple(_CLASS_FILTERS[cls](kernel) for cls in classes)
