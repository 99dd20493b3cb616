"""Race definitions of DRF1 and DRFrlx (Sections 2.3.2, 3.2.3, 3.3.3,
3.4.3, 3.5.3 of the paper), evaluated over one SC execution.

All classification is done at *operation* granularity (an RMW is one
operation), matching the paper's terminology; happens-before-1 is computed
at event granularity and lifted.

:class:`RaceAnalysis` is the oracle: it states each definition over
operation objects, relations and :class:`repro.core.paths.OperationGraph`,
and :func:`repro.core.model.classify_enumeration` runs it.  The checking
pipeline classifies with :mod:`repro.core.race_kernel` instead, which
decides the same classes on bitmask rows with no code shared beyond the
value types (:class:`Race`) and the write semantics of
:func:`write_effects_commute`.  :func:`race_signature` keys the memos of
both.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from repro.core.util import cached_property
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

_CO_LOC_KEY = itemgetter(0)

from repro.core.events import Execution, RmwInfo
from repro.core.labels import AtomicKind
from repro.core.paths import Operation, OperationGraph
from repro.core.relations import DENSE_BACKEND, DenseRelation, Relation


class _EidPairView:
    """``(eid_a, eid_b) in view`` over a dense relation, without ever
    materializing the pair set.  The dense ids of an execution's events
    are their positions in the SC total order, so membership is two dict
    lookups and one shift."""

    __slots__ = ("_rows", "_pos")

    def __init__(self, relation: DenseRelation, order_pos: Dict[int, int]):
        self._rows = relation.rows
        self._pos = order_pos

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        a, b = pair
        return bool(self._rows[self._pos[a]] >> self._pos[b] & 1)


def eid_pair_view(execution: Execution, relation) -> object:
    """Eid-pair membership for :meth:`OperationGraph.hb1_holds`: a
    zero-copy view when *relation* is a dense bitset, a frozenset
    otherwise."""
    if isinstance(relation, DenseRelation):
        return _EidPairView(relation, execution._order_pos)
    return frozenset((a.eid, b.eid) for a, b in relation)


@dataclass(frozen=True)
class Race:
    """One racy operation pair, tagged with its illegal-race class.

    ``kind`` is one of ``"data"``, ``"commutative"``, ``"non_ordering"``,
    ``"quantum"``, ``"speculative"``.  ``first`` precedes ``second`` in the
    execution's SC total order.
    """

    kind: str
    first: Operation
    second: Operation

    def __repr__(self) -> str:
        return f"Race({self.kind}: {self.first!r} ~ {self.second!r})"


#: Values of M probed by the semantic commutativity check, in addition to
#: the operand values involved.
_COMMUTE_PROBES = (-3, -1, 0, 1, 2, 3, 5, 8, 1 << 16, (1 << 16) - 1)


def _write_effect(value: int, info: Optional[RmwInfo]):
    """Return f(M) -> M' for a write of *value*, or of an RMW whose
    semantics *info* holds."""
    if info is None:
        return lambda m: value
    return lambda m: _apply_rmw(info, m)


def _apply_rmw(info: RmwInfo, old: int) -> int:
    op, a, b = info.op, info.operand, info.operand2
    if op == "add":
        return old + a
    if op == "sub":
        return old - a
    if op == "and":
        return old & a
    if op == "or":
        return old | a
    if op == "xor":
        return old ^ a
    if op == "min":
        return min(old, a)
    if op == "max":
        return max(old, a)
    if op == "exch":
        return a
    if op == "cas":
        return b if old == a else old
    raise AssertionError(op)


def write_effects_commute(
    value_a: int,
    info_a: Optional[RmwInfo],
    value_b: int,
    info_b: Optional[RmwInfo],
) -> bool:
    """Whether two writes to one location, each a store of its value or
    an RMW with its :class:`RmwInfo`, leave the same value in either
    order, over a probe set of memory values."""
    f = _write_effect(value_a, info_a)
    g = _write_effect(value_b, info_b)
    probes = set(_COMMUTE_PROBES)
    for info in (info_a, info_b):
        if info is not None:
            probes.add(info.operand)
            if info.operand2 is not None:
                probes.add(info.operand2)
    probes.add(value_a)
    probes.add(value_b)
    return all(f(g(m)) == g(f(m)) for m in probes)


def writes_commute(
    op_a: Operation,
    op_b: Operation,
    rmw_info: Dict[int, RmwInfo],
) -> bool:
    """Section 3.2.3 commutativity: the two stores/RMWs to the same
    location yield the same value for it in either order.

    Checked semantically over a probe set of memory values (the write
    functions in the paper's use cases — fetch-and-phi and constant stores
    — are all decided exactly by this probe set).  Loads are never
    commutative with anything.
    """
    if not (op_a.has_write and op_b.has_write):
        return False
    if op_a.loc != op_b.loc:
        return True  # different locations never interfere
    wa, wb = op_a.write_event, op_b.write_event
    return write_effects_commute(
        wa.value, rmw_info.get(wa.eid), wb.value, rmw_info.get(wb.eid)
    )


class RaceAnalysis:
    """All race classes of one SC execution, under the labels as given.

    The caller chooses the model by relabeling the program before
    enumeration (see :mod:`repro.core.model`):  under DRF0 every atomic is
    PAIRED; under DRF1 every relaxed class is UNPAIRED; DRFrlx keeps all
    six classes.
    """

    def __init__(self, execution: Execution):
        self.execution = execution

    @cached_property
    def graph(self) -> OperationGraph:
        """Operation-level view, built on first use: the dense race scan
        proves most executions race-free at event granularity and never
        needs it."""
        return OperationGraph(self.execution)

    # -- synchronization order and happens-before-1 ---------------------------
    @cached_property
    def so1(self) -> Relation:
        """Synchronization order: a paired/release synchronization write
        before a conflicting paired/acquire read in T.  (PAIRED-only in
        the paper; RELEASE->ACQUIRE is this library's extension.)"""
        ex = self.execution
        return ex._relation_from_eid_pairs(ex._so1_eid_pairs)

    @cached_property
    def hb1(self) -> Relation:
        """Happens-before-1 = (po | so1)+ (Section 2.3.2)."""
        ex = self.execution
        if ex.backend == DENSE_BACKEND:
            return DenseRelation(ex.dense_index, self._hb1_rows)
        return (ex.po | self.so1).transitive_closure()

    @cached_property
    def _hb1_rows(self) -> List[int]:
        """hb1 as dense bitmask rows, computed without intermediate
        relation objects (dense backend).  po and so1 edges always point
        T-forward, so the ids (= T positions) are a topological order and
        one reverse accumulation pass closes the union."""
        ex = self.execution
        pos = ex._order_pos
        rows = [0] * len(ex.order)
        for evs in ex._po_threads:
            mask_later = 0
            for e in reversed(evs):
                i = pos[e.eid]
                rows[i] |= mask_later
                mask_later |= 1 << i
        for a, b in ex._so1_eid_pairs:
            rows[pos[a]] |= 1 << pos[b]
        for i in range(len(rows) - 1, -1, -1):
            row = rows[i]
            acc = row
            while row:
                low = row & -row
                acc |= rows[low.bit_length() - 1]
                row ^= low
            rows[i] = acc
        return rows

    @cached_property
    def _hb1_eids(self):
        return eid_pair_view(self.execution, self.hb1)

    @cached_property
    def _op_bits(self) -> Dict[Operation, Tuple[List[int], int]]:
        """Per-operation dense event positions and their combined mask,
        for bit-parallel hb1 lifting (dense backend only)."""
        pos = self.execution._order_pos
        out: Dict[Operation, Tuple[List[int], int]] = {}
        for op in self.graph.operations:
            ids = [pos[e.eid] for e in op.events]
            mask = 0
            for i in ids:
                mask |= 1 << i
            out[op] = (ids, mask)
        return out

    def _hb1_ordered(self, a: Operation, b: Operation) -> bool:
        if self.execution.backend == DENSE_BACKEND:
            rows = self._hb1_rows
            ids_a, mask_a = self._op_bits[a]
            ids_b, mask_b = self._op_bits[b]
            return any(rows[i] & mask_b for i in ids_a) or any(
                rows[i] & mask_a for i in ids_b
            )
        return self.graph.hb1_holds(self._hb1_eids, a, b) or self.graph.hb1_holds(
            self._hb1_eids, b, a
        )

    # -- races ----------------------------------------------------------------
    @cached_property
    def races(self) -> Tuple[Tuple[Operation, Operation], ...]:
        """All racy operation pairs: conflicting, different threads, not
        hb1-ordered either way.  Each pair is reported once, in T order."""
        return tuple(pair for pair, _, _ in self._races_info)

    @cached_property
    def _races_info(self) -> Tuple[Tuple[Tuple[Operation, Operation], AtomicKind, AtomicKind], ...]:
        """Racy pairs with both labels, precomputed so the per-class
        scans below never re-read operation attributes.  Each entry is
        ``((first, second), first.label, second.label)`` in T order."""
        # The pair scan is the hot loop of the checker; precompute each
        # operation's tid/loc/write flag and dense bits once so the inner
        # loop touches no properties.  (Nearly every deduplicated
        # representative is racy — the race-free bulk collapses into a
        # handful of classes — so there is no profit in a cheaper
        # event-level pre-scan here.)
        ex = self.execution
        pos = ex._order_pos
        # Dense: read the closure rows directly (no relation object, no
        # EventIndex).  Each op carries the OR of its events' hb1 rows
        # (``out``-reachability) and the mask of its events' T positions,
        # so "some event of a hb1-before some event of b" is one AND.
        dense = ex.backend == DENSE_BACKEND
        rows = self._hb1_rows if dense else None
        info = []
        for op in self.graph.operations:
            evs = op.events
            e0 = evs[0]
            p0 = pos[e0.eid]
            mask = 1 << p0
            combined = rows[p0] if dense else 0
            for e in evs[1:]:
                p = pos[e.eid]
                mask |= 1 << p
                if dense:
                    combined |= rows[p]
            w = e0.kind == "W" or (len(evs) > 1 and evs[1].kind == "W")
            info.append((op, e0.tid, e0.loc, w, p0, combined, mask, e0.label))
        out = []
        for i, (a, ta, la, wa, pa, ca, ma, ka) in enumerate(info):
            for b, tb, lb, wb, pb, cb, mb, kb in info[i + 1:]:
                if ta == tb or la != lb or not (wa or wb):
                    continue
                if dense:
                    if ca & mb or cb & ma:
                        continue
                elif self._hb1_ordered(a, b):
                    continue
                # T order of the pair: dense ids are T positions; the
                # first event of each op decides (same rule as t_before).
                if pa < pb:
                    out.append(((a, b), ka, kb))
                else:
                    out.append(((b, a), kb, ka))
        return tuple(out)

    def _observed(self, op: Operation) -> bool:
        """Whether the value loaded by *op* is used by another instruction
        in its thread (the paper's addr|data|ctrl approximation)."""
        read = op.read_event
        return read is not None and read in self.execution.observed_reads

    # -- per-class classification ----------------------------------------------
    @cached_property
    def data_races(self) -> Tuple[Race, ...]:
        data = AtomicKind.DATA
        return tuple(
            Race("data", a, b)
            for (a, b), ka, kb in self._races_info
            if ka is data or kb is data
        )

    @cached_property
    def commutative_races(self) -> Tuple[Race, ...]:
        """Section 3.2.3: a race involving a commutative atomic where the
        pair is not commutative, or a loaded value is observed."""
        out = []
        info = self.execution.rmw_info
        comm, data = AtomicKind.COMMUTATIVE, AtomicKind.DATA
        for (a, b), ka, kb in self._races_info:
            if ka is not comm and kb is not comm:
                continue
            if ka is data or kb is data:
                continue  # already a data race
            if not writes_commute(a, b, info) or self._observed(a) or self._observed(b):
                out.append(Race("commutative", a, b))
        return tuple(out)

    @cached_property
    def non_ordering_races(self) -> Tuple[Race, ...]:
        """Section 3.3.3: the racing pair lies on an ordering path between
        conflicting operations A and B with no valid path from A to B."""
        non_ordering = AtomicKind.NON_ORDERING
        candidates = [
            (x, y)
            for (x, y), kx, ky in self._races_info
            if kx is non_ordering or ky is non_ordering
        ]
        if not candidates:
            return ()
        already = {
            (r.first, r.second) for r in self.data_races + self.commutative_races
        }
        out = []
        for x, y in candidates:
            if (x, y) in already:
                continue
            if not (x.is_atomic and y.is_atomic):
                continue
            if self._creates_unbacked_order(x, y):
                out.append(Race("non_ordering", x, y))
        return tuple(out)

    def _creates_unbacked_order(self, x: Operation, y: Operation) -> bool:
        """Does the conflict edge x -> y lie on an ordering path from some
        A to some conflicting B that has no valid alternative path?"""
        g = self.graph
        ops = g.operations
        for a in ops:
            pre_any = a is x or g.reaches(a, x)
            if not pre_any:
                continue
            pre_po = a is not x and g.reaches_with_po(a, x)
            for b in ops:
                if not a.conflicts_with(b) or a is b:
                    continue
                post_any = b is y or g.reaches(y, b)
                if not post_any:
                    continue
                post_po = b is not y and g.reaches_with_po(y, b)
                # The whole path needs at least one program-order edge
                # (the x->y conflict edge contributes none).
                if not (pre_po or post_po):
                    continue
                if a.tid == b.tid:
                    continue  # same-thread conflicts are ordered by po itself
                if not g.has_valid_path(a, b, self._hb1_eids):
                    return True
        return False

    @cached_property
    def quantum_races(self) -> Tuple[Race, ...]:
        """Section 3.4.3: quantum operations may only race with quantum."""
        quantum = AtomicKind.QUANTUM
        return tuple(
            Race("quantum", a, b)
            for (a, b), ka, kb in self._races_info
            if (ka is quantum) != (kb is quantum)
        )

    @cached_property
    def speculative_races(self) -> Tuple[Race, ...]:
        """Section 3.5.3: a race involving a speculative atomic where both
        sides write, or the racy load's value is observed."""
        spec = AtomicKind.SPECULATIVE
        out = []
        for (a, b), ka, kb in self._races_info:
            if ka is not spec and kb is not spec:
                continue
            if a.has_write and b.has_write:
                out.append(Race("speculative", a, b))
                continue
            loads = [op for op in (a, b) if not op.has_write]
            if any(self._observed(op) for op in loads):
                out.append(Race("speculative", a, b))
        return tuple(out)

    _RACE_POOL_ATTRS = {
        "data": "data_races",
        "commutative": "commutative_races",
        "non_ordering": "non_ordering_races",
        "quantum": "quantum_races",
        "speculative": "speculative_races",
    }

    def _race_pool(self, cls: str) -> Tuple[Race, ...]:
        return getattr(self, self._RACE_POOL_ATTRS[cls])

    def illegal_races(self, classes: Tuple[str, ...]) -> Tuple[Race, ...]:
        """Union of the requested race classes, in a stable order."""
        out: List[Race] = []
        for cls in classes:
            out.extend(self._race_pool(cls))
        return tuple(out)

    def first_illegal_race(self, classes: Tuple[str, ...]) -> Optional[Race]:
        """The first illegal race in the :meth:`illegal_races` order, or
        ``None`` — evaluated class by class, so a data race is reported
        without ever running the (expensive) non-ordering analysis.
        This is the per-execution half of the checker's early-exit
        witness mode (``exhaustive=False``)."""
        for cls in classes:
            pool = self._race_pool(cls)
            if pool:
                return pool[0]
        return None


#: Key under which a :func:`race_signature` intern dict keeps its memo
#: token.  Events hold the token rather than the dict, so an event that
#: outlives its batch (a memoized solver core serves the same objects to
#: later calls) pins no batch's interned keys.
_INTERN_TAG = object()


def race_signature(
    execution: Execution, intern: Optional[Dict[Tuple, int]] = None
) -> Tuple:
    """Canonical race-relevant signature of one SC execution.

    Two executions with equal signatures have identical race analyses
    (same race classes, same racy operation pairs, printed identically):
    every input of :class:`RaceAnalysis` — the per-thread dynamic events
    (labels, locations, values), reads-from, coherence, the dependency
    edges behind ``observed_reads``, and the RMW pairing/semantics — is
    captured below in interleaving-independent form.  The SC total order
    itself is deliberately absent: the T-order of every *conflicting*
    pair (all the analysis consults) is already determined by rf and co,
    and non-conflicting T-order never influences a race verdict.  Final
    registers are also race-irrelevant, which is exactly what makes the
    checker's execution-class deduplication collapse the havoc fan-out
    of quantum-equivalent programs.

    *intern* (a mutable dict shared across one batch of calls) maps
    canonical event keys to small integers, so the signature sorts,
    hashes, and compares over ints instead of nested tuples.  Interning
    is injective, hence signature equality under a shared *intern* dict
    coincides with equality of the un-interned signatures; signatures
    built under different (or no) *intern* dicts are not comparable.
    The dict also keeps, under :data:`_INTERN_TAG`, the token its
    per-event memos are tagged with.
    """
    if intern is None:
        intern = {}
    tag = intern.get(_INTERN_TAG)
    if tag is None:
        tag = intern[_INTERN_TAG] = object()
    by_eid = execution.by_eid
    # One pass over the events: intern each key and record the per-thread
    # multiset and per-location write sequence (T order) as we go.
    local: Dict[int, int] = {}  # eid -> interned key id, this execution
    per_thread: List[int] = []
    co_flat: List[Tuple[str, int]] = []
    setdefault = intern.setdefault
    for eid in execution.order:
        e = by_eid[eid]
        d = e.__dict__
        # The enumerator shares Event objects across the executions of
        # one enumeration (common interleaving prefixes), so the interned
        # id and the flags below are memoized on the event, tagged with
        # the intern dict's token so a new batch never sees a stale id.
        memo = d.get("_sig_memo")
        if memo is None or memo[0] is not tag:
            # setdefault evaluates len(intern) before any insertion, so
            # the id handed to a new key is exactly the next free one.
            k = setdefault(e.key(), len(intern))
            memo = (
                tag,
                k,
                not e.is_init,
                (e.loc, k) if e.kind == "W" else None,
            )
            d["_sig_memo"] = memo
        k = memo[1]
        local[eid] = k
        if memo[2]:
            per_thread.append(k)
        ce = memo[3]
        if ce is not None:
            co_flat.append(ce)
    per_thread.sort()
    # Pair keys are packed into single ints (interned ids stay far below
    # 2**24, so the packing is injective): int sorts and compares are
    # several times cheaper than tuple ones in this, the hottest loop of
    # the deduplicating checker.
    rf_key = sorted(
        [(local[w] << 24) | local[r] for r, w in execution._rf_map.items()]
    )
    # Stable sort on location only: within one location the T order of
    # the writes (= coherence) is preserved, so this flat form is
    # injectively equivalent to a per-location grouping.
    co_flat.sort(key=_CO_LOC_KEY)
    dep_key = (
        tuple(sorted(
            [
                (name, tuple(sorted(
                    [(local[a] << 24) | local[b]
                     for a, b in edges
                     if a in local and b in local]
                )))
                for name, edges in execution._dep_edges.items()
                if edges
            ]
        ))
        if execution._dep_edges
        else ()
    )
    rmw_pairs = execution._rmw_pairs
    rmw_key = (
        tuple(sorted([(local[r] << 24) | local[w] for r, w in rmw_pairs]))
        if rmw_pairs
        else ()
    )
    rmw_info = execution.rmw_info
    rmw_info_key = (
        tuple(sorted(
            [(local[w], (info.op, info.operand, info.operand2))
             for w, info in rmw_info.items()]
        ))
        if rmw_info
        else ()
    )
    return (
        tuple(per_thread), tuple(rf_key), tuple(co_flat), dep_key,
        rmw_key, rmw_info_key,
    )
