"""Direct transcription of Listing 7 — the paper's Herd (cat) model of
DRFrlx — into our relational algebra, evaluated over one SC execution.

This is kept deliberately close to the listing, event-by-event and
relation-by-relation, including Herd's endpoint approximations of
path-containment (``pcoPO & aloNO`` instead of true "path contains a
non-ordering edge").  The precise operation-level analysis lives in
:mod:`repro.core.races`; the test suite checks the two agree on the
litmus library.

One deviation: the listing defines ``pcoPO-NO-pco`` identically to
``pcoPO & aloNO`` (an apparent typo).  We implement the evidently
intended ``(pcoPO & aloNO) ; pco`` so that paths extending beyond the
non-ordering segment on either side are covered, matching the prose
definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.core.util import cached_property
from typing import Dict, FrozenSet

from typing import Optional

from repro.core.events import Event, Execution
from repro.core.labels import AtomicKind
from repro.core.races import writes_commute
from repro.core.paths import OperationGraph
from repro.core.relations import (
    DENSE_BACKEND,
    EventIndex,
    Relation,
    at_least_one,
    product,
)


class HerdModel:
    """Evaluates Listing 7's relations for one SC execution.

    ``backend`` selects the relation representation for every derived
    relation (see :mod:`repro.core.relations`); by default the
    execution's own (auto-resolved) backend is used.
    """

    def __init__(self, execution: Execution, backend: Optional[str] = None):
        if backend is not None:
            execution.set_backend(backend)
        self.ex = execution
        events = execution.program_events
        self.universe: FrozenSet[Event] = frozenset(events)
        self.R = frozenset(e for e in events if e.is_read)
        self.W = frozenset(e for e in events if e.is_write)
        self._by_label: Dict[AtomicKind, FrozenSet[Event]] = {
            kind: frozenset(e for e in events if e.label is kind)
            for kind in AtomicKind
        }

    def label_set(self, kind: AtomicKind) -> FrozenSet[Event]:
        return self._by_label[kind]

    @property
    def _index(self) -> Optional[EventIndex]:
        """The execution's event index when relations evaluate densely."""
        return (
            self.ex.dense_index
            if self.ex.backend == DENSE_BACKEND
            else None
        )

    # --- base relations (program events only; IW excluded as in the listing) ---
    @cached_property
    def po(self) -> Relation:
        return self.ex.po

    def _program_only(self, rel: Relation) -> Relation:
        return rel.filter(lambda a, b: not a.is_init and not b.is_init)

    @cached_property
    def rf(self) -> Relation:
        return self._program_only(self.ex.rf)

    @cached_property
    def co(self) -> Relation:
        return self._program_only(self.ex.co)

    @cached_property
    def fr(self) -> Relation:
        return self._program_only(self.ex.fr)

    # --- Listing 7, line by line ---
    @cached_property
    def so1(self) -> Relation:
        """``so1 = (PairedW * PairedR) & (rf | fr | co)+``
        (extended with ReleaseW / AcquireR for the extension labels)."""
        from repro.core.labels import SYNC_READ_KINDS, SYNC_WRITE_KINDS

        sync_w = frozenset(
            e for e in self.W if e.label in SYNC_WRITE_KINDS
        )
        sync_r = frozenset(
            e for e in self.R if e.label in SYNC_READ_KINDS
        )
        com_plus = (self.rf | self.fr | self.co).transitive_closure()
        return com_plus & product(sync_w, sync_r, index=self._index)

    @cached_property
    def hb1(self) -> Relation:
        """``hb1 = (po | so1)+``"""
        return (self.po | self.so1).transitive_closure()

    @cached_property
    def conflict(self) -> Relation:
        """``conflict = at-least-one W & loc``"""
        alo_w = at_least_one(self.W, self.universe, index=self._index)
        return alo_w.filter(lambda a, b: a.loc == b.loc and a is not b)

    @cached_property
    def race(self) -> Relation:
        """``race = (conflict & ext & ~(hb1 | hb1^-1)) \\ (IW*_)``

        Initial writes are excluded already (universe is program events);
        ``ext`` means different threads."""
        ordered = self.hb1 | self.hb1.inverse()
        return self.conflict.filter(
            lambda a, b: a.tid != b.tid and (a, b) not in ordered
        )

    @cached_property
    def deps(self) -> Relation:
        """``addr | data | ctrl``"""
        return self._program_only(self.ex.deps)

    # --- commutative races ---
    @cached_property
    def comm_pair(self) -> Relation:
        """Pairs of events belonging to pairwise-commutative memory
        operations (the listing omits the precise definition; we use the
        Section 3.2.3 semantic check at operation granularity and relate
        every event of the two operations, so an RMW's read half is
        covered alongside its write half)."""
        graph = OperationGraph(self.ex)
        info = self.ex.rmw_info
        pairs = []
        seen = set()
        for a in self.W:
            for b in self.W:
                if a is b:
                    continue
                op_a, op_b = graph.op_of(a), graph.op_of(b)
                if op_a is op_b or (op_a, op_b) in seen:
                    continue
                seen.add((op_a, op_b))
                if writes_commute(op_a, op_b, info):
                    for ea in op_a.events:
                        for eb in op_b.events:
                            pairs.append((ea, eb))
        return self.ex.relation(pairs)

    @cached_property
    def comm_race(self) -> Relation:
        alo_comm = at_least_one(
            self.label_set(AtomicKind.COMMUTATIVE), self.universe,
            index=self._index,
        )
        racy_comm = self.race & alo_comm
        comm_race1 = racy_comm - self.comm_pair
        # ``(race & aloComm) ; (addr | data | ctrl)`` flags races whose
        # loaded value is observed; we keep the race pairs themselves.
        observable = self.deps.domain()
        comm_race2 = racy_comm.filter(lambda a, b: a in observable or b in observable)
        return comm_race1 | comm_race2

    # --- non-ordering races ---
    @cached_property
    def pco(self) -> Relation:
        """``pco = (po | co | rf | fr)+``"""
        return (self.po | self.co | self.rf | self.fr).transitive_closure()

    @cached_property
    def pco_po(self) -> Relation:
        """``pco-po = po | (po ; pco) | (pco ; po ; pco) | (pco ; po)``"""
        po, pco = self.po, self.pco
        return (
            po
            | po.compose(pco)
            | pco.compose(po).compose(pco)
            | pco.compose(po)
        )

    @cached_property
    def opath_alo_no(self) -> Relation:
        alo_no = at_least_one(
            self.label_set(AtomicKind.NON_ORDERING), self.universe,
            index=self._index,
        )
        core = self.pco_po & alo_no
        pco_po_alo_no = core | core.compose(self.pco) | self.pco.compose(core)
        return pco_po_alo_no & self.conflict

    def _valid_opath(self, edge_filter) -> Relation:
        """Shared shape of valid-opath1 / valid-opath2."""
        base = (self.po | self.co | self.rf | self.fr).filter(edge_filter)
        valid_pco = base.transitive_closure()
        valid_po = self.po.filter(edge_filter)
        valid_pco_po = (
            valid_po
            | valid_po.compose(valid_pco)
            | valid_pco.compose(valid_po).compose(valid_pco)
            | valid_pco.compose(valid_po)
        )
        return valid_pco_po & self.conflict

    @cached_property
    def valid_opath1(self) -> Relation:
        """Valid path clause 2: all edges between accesses to the same address."""
        return self._valid_opath(lambda a, b: a.loc == b.loc)

    @cached_property
    def valid_opath2(self) -> Relation:
        """Valid path clause 3: all edges between accesses of the
        program-ordered atomic classes (paired/unpaired in the paper,
        plus the acquire/release extension)."""
        from repro.core.labels import ORDERED_ATOMIC_KINDS

        strong = frozenset(
            e for e in self.universe if e.label in ORDERED_ATOMIC_KINDS
        )
        return self._valid_opath(lambda a, b: a in strong and b in strong)

    @cached_property
    def non_order_race(self) -> Relation:
        data_race = self.data_race
        pending = (self.race - data_race - self.comm_race) & self.opath_alo_no
        return pending - self.valid_opath1 - self.valid_opath2

    # --- remaining race classes ---
    @cached_property
    def data_race(self) -> Relation:
        alo_data = at_least_one(
            self.label_set(AtomicKind.DATA), self.universe,
            index=self._index,
        )
        return self.race & alo_data

    @cached_property
    def quantum_race(self) -> Relation:
        quantum = self.label_set(AtomicKind.QUANTUM)
        alo_q = at_least_one(quantum, self.universe, index=self._index)
        return (self.race & alo_q) - product(quantum, quantum, index=self._index)

    @cached_property
    def speculative_race(self) -> Relation:
        spec = self.label_set(AtomicKind.SPECULATIVE)
        alo_s = at_least_one(spec, self.universe, index=self._index)
        racy_spec = self.race & alo_s
        spec1 = racy_spec & product(self.W, self.W, index=self._index)
        observable = self.deps.domain()
        spec2 = racy_spec.filter(lambda a, b: a in observable or b in observable)
        return spec1 | spec2

    @cached_property
    def illegal_race(self) -> Relation:
        return (
            self.data_race
            | self.comm_race
            | self.non_order_race
            | self.quantum_race
            | self.speculative_race
        )

    def flags(self) -> Dict[str, bool]:
        """Herd-style flags: which illegal-race classes are non-empty."""
        return {
            "data": bool(self.data_race),
            "commutative": bool(self.comm_race),
            "non_ordering": bool(self.non_order_race),
            "quantum": bool(self.quantum_race),
            "speculative": bool(self.speculative_race),
            "illegal": bool(self.illegal_race),
        }

    def assert_sc_axioms(self) -> None:
        """The listing's final constraints: SC acyclicity and RMW atomicity
        hold by construction of our enumerator; verify anyway."""
        sc = self.po | self.rf | self.co | self.fr
        if not sc.is_acyclic():
            raise AssertionError("po|rf|co|fr has a cycle in an SC execution")
        rmw = self._program_only(self.ex.rmw)
        fre_coe = self.fr.filter(lambda a, b: a.tid != b.tid).compose(
            self.co.filter(lambda a, b: a.tid != b.tid)
        )
        if rmw & fre_coe:
            raise AssertionError("an RMW was not atomic")
