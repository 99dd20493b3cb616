"""Dynamic memory events and complete executions.

An :class:`Execution` is one finished SC interleaving of a litmus program:
the dynamic events in their SC total order ``T`` plus the derived
relations the paper's model definitions use — program order ``po``,
reads-from ``rf``, coherence ``co``, from-reads ``fr``, the dependency
relations ``addr``/``data``/``ctrl``, and the RMW pairing relation.
Terminology follows Section 2.3.1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.core.util import cached_property
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.labels import AtomicKind, is_atomic
from repro.core.relations import DenseRelation, EventIndex


@dataclass(frozen=True)
class Event:
    """One dynamic memory operation (a read or a write).

    An RMW contributes two events — its read and its write — adjacent in
    the SC total order and linked by the execution's ``rmw`` relation
    (footnote 1 of the paper).
    """

    eid: int
    tid: int
    kind: str  # "R" or "W"
    loc: str
    value: int
    label: AtomicKind
    po_index: int  # position among this thread's events (canonical id)
    is_init: bool = False

    @property
    def is_read(self) -> bool:
        return self.kind == "R"

    @property
    def is_write(self) -> bool:
        return self.kind == "W"

    @property
    def is_atomic(self) -> bool:
        return is_atomic(self.label)

    def conflicts_with(self, other: "Event") -> bool:
        """Same location and at least one is a store (Section 2.3.1)."""
        return self.loc == other.loc and (self.is_write or other.is_write)

    def key(self) -> Tuple:
        """Canonical identity stable across different interleavings.

        Memoized (the enumerator hashes keys heavily); the label appears
        by name so key tuples hash without Python-level enum dispatch.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = (
                self.tid, self.po_index, self.kind, self.loc, self.value,
                self.label.name,
            )
            self.__dict__["_key"] = cached
        return cached

    def __hash__(self) -> int:
        """Memoized (events key sets/dicts throughout the enumerator and
        the relational kernel; the dataclass-generated hash re-hashes
        every field — including the enum label — on each call)."""
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((
                self.eid, self.tid, self.kind, self.loc, self.value,
                self.label.name, self.po_index, self.is_init,
            ))
            self.__dict__["_hash"] = cached
        return cached

    def __repr__(self) -> str:
        tag = "init" if self.is_init else f"t{self.tid}.{self.po_index}"
        return f"<{tag} {self.kind}{self.label.name[0].lower()} {self.loc}={self.value}>"


@dataclass(frozen=True)
class RmwInfo:
    """Extra semantics of the write half of an RMW, for commutativity."""

    op: str
    operand: int
    operand2: Optional[int] = None


class Execution:
    """A complete SC execution with its derived relations.

    Relations are exposed as :class:`~repro.core.relations.DenseRelation`
    objects over :class:`Event` instances (dense ids are positions in
    T) and computed lazily.
    """

    def __init__(
        self,
        events: Sequence[Event],
        order: Sequence[int],
        rf_map: Mapping[int, int],
        rmw_pairs: Sequence[Tuple[int, int]],
        dep_edges: Mapping[str, Sequence[Tuple[int, int]]],
        final_memory: Mapping[str, int],
        final_registers: Sequence[Mapping[str, int]],
        rmw_info: Optional[Mapping[int, RmwInfo]] = None,
    ):
        self.events: Tuple[Event, ...] = tuple(events)
        self.by_eid: Dict[int, Event] = {e.eid: e for e in self.events}
        #: eids in SC total order T (initial writes first).
        self.order: Tuple[int, ...] = tuple(order)
        self._order_pos = {eid: i for i, eid in enumerate(self.order)}
        self._rf_map = dict(rf_map)  # read eid -> write eid
        self._rmw_pairs = tuple(rmw_pairs)
        self._dep_edges = {k: tuple(v) for k, v in dep_edges.items()}
        self.final_memory: Dict[str, int] = dict(final_memory)
        self.final_registers: Tuple[Dict[str, int], ...] = tuple(
            dict(regs) for regs in final_registers
        )
        #: write-event eid -> RMW semantics, for the commutativity check.
        self.rmw_info: Dict[int, RmwInfo] = dict(rmw_info or {})

    # -- relation factory ------------------------------------------------------
    @cached_property
    def dense_index(self) -> EventIndex:
        """Interned dense ids for this execution's events (T order)."""
        return EventIndex(self.by_eid[eid] for eid in self.order)

    def relation(
        self, pairs: Iterable[Tuple[Event, Event]] = ()
    ) -> DenseRelation:
        """Build a relation over this execution's events from pairs."""
        return self.dense_index.relation(pairs)

    # -- event sets ----------------------------------------------------------
    @cached_property
    def program_events(self) -> Tuple[Event, ...]:
        """All non-initial events, i.e. those issued by program threads."""
        return tuple(e for e in self.events if not e.is_init)

    @cached_property
    def reads(self) -> FrozenSet[Event]:
        return frozenset(e for e in self.program_events if e.is_read)

    @cached_property
    def writes(self) -> FrozenSet[Event]:
        return frozenset(e for e in self.program_events if e.is_write)

    @cached_property
    def _so1_eid_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """Synchronization-order edges as eid pairs (see
        :attr:`repro.core.races.RaceAnalysis.so1`), computed once per
        execution."""
        from repro.core.labels import SYNC_READ_KINDS, SYNC_WRITE_KINDS

        pos = self._order_pos
        sync_w = [
            e for e in self.program_events
            if e.kind == "W" and e.label in SYNC_WRITE_KINDS
        ]
        sync_r = [
            e for e in self.program_events
            if e.kind == "R" and e.label in SYNC_READ_KINDS
        ]
        return tuple(
            (w.eid, r.eid)
            for w in sync_w
            for r in sync_r
            if w.loc == r.loc and pos[w.eid] < pos[r.eid]
        )

    # -- T helpers -----------------------------------------------------------
    def t_before(self, a: Event, b: Event) -> bool:
        """True when *a* precedes *b* in the SC total order T."""
        return self._order_pos[a.eid] < self._order_pos[b.eid]

    def in_t_order(self) -> Tuple[Event, ...]:
        return tuple(self.by_eid[eid] for eid in self.order)

    @cached_property
    def _po_threads(self) -> Tuple[Tuple[Event, ...], ...]:
        """Program events grouped per thread, in program-text order."""
        by_thread: Dict[int, List[Event]] = {}
        for e in self.program_events:
            by_thread.setdefault(e.tid, []).append(e)
        for evs in by_thread.values():
            evs.sort(key=lambda e: e.po_index)
        return tuple(tuple(evs) for evs in by_thread.values())

    def _chain_rows(self, chains: Iterable[Sequence[Event]]) -> List[int]:
        """Bitmask rows ordering each chain's events, earlier before every
        later one (a strict total order per chain, none across chains).
        Dense ids are positions in T, so no per-pair Event hashing."""
        pos = self._order_pos
        rows = [0] * len(self.order)
        for chain in chains:
            mask_later = 0
            for e in reversed(chain):
                i = pos[e.eid]
                rows[i] |= mask_later
                mask_later |= 1 << i
        return rows

    # -- base relations --------------------------------------------------------
    @cached_property
    def po(self) -> DenseRelation:
        """Program order: same thread, program-text order (transitive)."""
        return DenseRelation(self.dense_index, self._chain_rows(self._po_threads))

    def _relation_from_eid_pairs(self, eid_pairs) -> DenseRelation:
        """Relation from (eid, eid) pairs; rows are written directly from
        T positions, skipping per-pair Event hashing."""
        pos = self._order_pos
        rows = [0] * len(self.order)
        for a, b in eid_pairs:
            rows[pos[a]] |= 1 << pos[b]
        return DenseRelation(self.dense_index, rows)

    @cached_property
    def rf(self) -> DenseRelation:
        """Reads-from: (store, load) pairs, including from initial writes."""
        return self._relation_from_eid_pairs(
            (w, r) for r, w in self._rf_map.items()
        )

    @cached_property
    def co(self) -> DenseRelation:
        """Coherence: total order on writes to each location (T restricted),
        with the location's initial write first."""
        per_loc: Dict[str, List[Event]] = {}
        for eid in self.order:
            e = self.by_eid[eid]
            if e.is_write:
                per_loc.setdefault(e.loc, []).append(e)
        return DenseRelation(self.dense_index, self._chain_rows(per_loc.values()))

    @cached_property
    def fr(self) -> DenseRelation:
        """From-reads: ``rf^-1 ; co`` (a read before the writes that
        overwrite what it read)."""
        return self.rf.inverse().compose(self.co)

    @cached_property
    def rmw(self) -> DenseRelation:
        return self._relation_from_eid_pairs(self._rmw_pairs)

    # -- dependency relations ---------------------------------------------------
    def _dep_relation(self, name: str) -> DenseRelation:
        by_eid = self.by_eid
        return self._relation_from_eid_pairs(
            (a, b)
            for a, b in self._dep_edges.get(name, ())
            if a in by_eid and b in by_eid
        )

    @cached_property
    def addr(self) -> DenseRelation:
        return self._dep_relation("addr")

    @cached_property
    def data(self) -> DenseRelation:
        return self._dep_relation("data")

    @cached_property
    def ctrl(self) -> DenseRelation:
        return self._dep_relation("ctrl")

    @cached_property
    def deps(self) -> DenseRelation:
        """``addr | data | ctrl`` — how a loaded value is "observed"."""
        return self.addr | self.data | self.ctrl

    @cached_property
    def observed_reads(self) -> FrozenSet[Event]:
        """Reads whose returned value is used by another instruction
        (directly or transitively feeds an address, store value or branch).

        Computed straight from the dependency edges — equivalent to
        ``deps.successors(e)`` being non-empty, without materializing the
        addr/data/ctrl relations."""
        by_eid = self.by_eid
        sources = {
            a
            for edges in self._dep_edges.values()
            for a, b in edges
            if a in by_eid and b in by_eid
        }
        return frozenset(e for e in self.reads if e.eid in sources)

    # -- result & identity ---------------------------------------------------------
    def result(self) -> Dict[str, int]:
        """The result of the execution = final memory state (Section 3.2.2)."""
        return dict(self.final_memory)

    def canonical_key(self) -> Tuple:
        """Identity under which two interleavings are the same execution:
        same per-thread events, same reads-from, same coherence order."""
        per_thread = tuple(
            sorted((e.key() for e in self.program_events), key=repr)
        )
        rf_key = tuple(
            sorted(
                (self.by_eid[w].key(), self.by_eid[r].key())
                for r, w in self._rf_map.items()
            )
        )
        co_key = tuple(sorted((a.key(), b.key()) for a, b in self.co))
        # Final registers distinguish executions whose events coincide but
        # whose havoc'd (quantum random) values differ.
        reg_key = tuple(tuple(sorted(regs.items())) for regs in self.final_registers)
        return (per_thread, rf_key, co_key, reg_key)
