"""Operation lifting, the program/conflict graph, and path queries."""

import pytest

from repro.core.executions import enumerate_sc_executions
from repro.core.labels import ORDERED_ATOMIC_KINDS, AtomicKind
from repro.core.model import MODELS, _prepare
from repro.core.paths import OperationGraph
from repro.core.races import RaceAnalysis
from repro.litmus.ast import load, rmw, store
from repro.litmus.corpus import load_corpus
from repro.litmus.program import Program

DATA = AtomicKind.DATA
PAIRED = AtomicKind.PAIRED
UNPAIRED = AtomicKind.UNPAIRED
NO = AtomicKind.NON_ORDERING


def first_execution(program):
    return enumerate_sc_executions(program).executions[0]


class TestOperationLifting:
    def test_rmw_is_one_operation(self):
        p = Program("p", [[rmw("r", "x", "add", 1, PAIRED)]])
        g = OperationGraph(first_execution(p))
        assert len(g.operations) == 1
        op = g.operations[0]
        assert op.is_rmw and op.has_read and op.has_write
        assert op.read_event is not None and op.write_event is not None

    def test_load_and_store_are_separate(self):
        p = Program("p", [[load("r", "x"), store("y", 1)]])
        g = OperationGraph(first_execution(p))
        assert len(g.operations) == 2
        kinds = {(op.has_read, op.has_write) for op in g.operations}
        assert kinds == {(True, False), (False, True)}

    def test_op_of_maps_both_rmw_events(self):
        p = Program("p", [[rmw("r", "x", "add", 1, PAIRED)]])
        ex = first_execution(p)
        g = OperationGraph(ex)
        ops = {g.op_of(e) for e in ex.program_events}
        assert len(ops) == 1

    def test_conflicts(self):
        p = Program("p", [[store("x", 1)], [load("r", "x")], [load("s", "x")]])
        g = OperationGraph(first_execution(p))
        st_op = next(o for o in g.operations if o.has_write)
        ld_ops = [o for o in g.operations if not o.has_write]
        assert all(st_op.conflicts_with(o) for o in ld_ops)
        assert not ld_ops[0].conflicts_with(ld_ops[1])  # read-read


class TestGraphEdges:
    def test_po_edges_are_immediate(self):
        p = Program("p", [[store("a", 1), store("b", 1), store("c", 1)]])
        g = OperationGraph(first_execution(p))
        assert len(g.po_edges) == 2  # a->b, b->c (not a->c)

    def test_conflict_edges_follow_t(self):
        p = Program("p", [[store("x", 1)], [load("r", "x")]])
        for ex in enumerate_sc_executions(p).executions:
            g = OperationGraph(ex)
            for a, b in g.conflict_edges:
                assert g.t_before(a, b)

    def test_reachability_with_po_tracking(self):
        # T0: Wx -> Wy(po); T1: Ry -> Rx(po); execution T0 first.
        p = Program(
            "p",
            [[store("x", 1, NO), store("y", 1, NO)],
             [load("r1", "y", NO), load("r2", "x", NO)]],
        )
        ex = next(
            e for e in enumerate_sc_executions(p).executions
            if e.final_registers[1] == {"r1": 1, "r2": 1}
        )
        g = OperationGraph(ex)
        ops = {(-(o.tid + 1), o.po_index): o for o in g.operations}
        wx, wy = ops[(-1, 0)], ops[(-1, 1)]
        ry, rx = ops[(-2, 0)], ops[(-2, 1)]
        assert g.reaches(wx, rx)
        assert g.reaches_with_po(wx, rx)  # via po edges on both sides
        assert g.has_ordering_path(wx, rx)
        assert not g.reaches(rx, wx)


class TestValidPaths:
    def _analysis(self, program, pick=None):
        executions = enumerate_sc_executions(program).executions
        ex = executions[0] if pick is None else next(e for e in executions if pick(e))
        return RaceAnalysis(ex)

    def test_paired_chain_is_valid(self):
        p = Program(
            "p",
            [[store("x", 3, UNPAIRED), store("z", 1, PAIRED)],
             [load("r0", "z", PAIRED), load("r2", "x", UNPAIRED)]],
        )
        a = self._analysis(p, pick=lambda e: e.final_registers[1].get("r0") == 1)
        g = a.graph
        ops = sorted(g.operations, key=lambda o: (o.tid, o.po_index))
        wx, wz, rz, rx = ops
        assert g.has_valid_path(wx, rx, a._hb1_eids)

    def test_relaxed_chain_is_not_valid(self):
        p = Program(
            "p",
            [[store("x", 3, UNPAIRED), store("y", 2, NO)],
             [load("r1", "y", NO), load("r2", "x", UNPAIRED)]],
        )
        a = self._analysis(p, pick=lambda e: e.final_registers[1].get("r1") == 2)
        g = a.graph
        ops = sorted(g.operations, key=lambda o: (o.tid, o.po_index))
        wx, wy, ry, rx = ops
        assert not g.has_valid_path(wx, rx, a._hb1_eids)

    def test_same_location_chain_is_valid(self):
        # All ops on one location: per-location SC enforces the order.
        p = Program(
            "p",
            [[store("y", 1, NO), store("y", 2, NO)],
             [load("r0", "y", NO), load("r1", "y", NO)]],
        )
        a = self._analysis(
            p, pick=lambda e: e.final_registers[1] == {"r0": 1, "r1": 2}
        )
        g = a.graph
        ops = sorted(g.operations, key=lambda o: (o.tid, o.po_index))
        w1, w2, r0, r1 = ops
        assert g.has_valid_path(w1, r1, a._hb1_eids)

    def test_valid_path_requires_conflict(self):
        p = Program("p", [[store("x", 1, PAIRED)], [load("r", "y", PAIRED)]])
        a = self._analysis(p)
        g = a.graph
        op_x, op_y = g.operations
        assert not g.has_valid_path(op_x, op_y, a._hb1_eids)


def _reference_reach_with_po(nodes, edges, po_edges):
    """(reach_any, reach_po) as pair sets, by breadth-first search over
    (operation, path-has-a-po-edge) states from every start."""
    succ = {}
    for a, b in edges:
        succ.setdefault(a, []).append((b, (a, b) in po_edges))
    reach_any, reach_po = set(), set()
    for start in nodes:
        seen = set()
        frontier = list(succ.get(start, []))
        while frontier:
            node, has_po = frontier.pop()
            if (node, has_po) in seen:
                continue
            seen.add((node, has_po))
            reach_any.add((start, node))
            if has_po:
                reach_po.add((start, node))
            for nxt, is_po in succ.get(node, []):
                frontier.append((nxt, has_po or is_po))
    return reach_any, reach_po


def _reference_valid_path(g, a, b, hb1_event_pairs):
    """The per-query definition of :meth:`OperationGraph.has_valid_path`:
    each uniform family's edges are filtered and searched afresh for
    every (a, b), exactly as Section 3.3.3 states it."""

    def uniform(edge_ok):
        edges = frozenset((u, v) for u, v in g.graph_edges if edge_ok(u, v))
        po_valid = frozenset(e for e in edges if e in g.po_edges)
        return (a, b) in _reference_reach_with_po(g.operations, edges, po_valid)[1]

    if not a.conflicts_with(b):
        return False
    if g.hb1_holds(hb1_event_pairs, a, b):
        return True
    return uniform(
        lambda u, v: u.loc == v.loc and u.is_atomic and v.is_atomic
    ) or uniform(
        lambda u, v: u.label in ORDERED_ATOMIC_KINDS
        and v.label in ORDERED_ATOMIC_KINDS
    )


@pytest.mark.parametrize("entry", load_corpus(), ids=lambda entry: entry.name)
def test_path_queries_match_the_per_query_definitions(entry):
    """On every execution of every model's view of a corpus program, the
    once-per-graph bitmask reachability answers every (a, b) query as
    the per-query searches do."""
    queries = 0
    for model in MODELS:
        for execution in enumerate_sc_executions(_prepare(entry.program, model)).executions:
            analysis = RaceAnalysis(execution)
            g = analysis.graph
            reach_any, reach_po = _reference_reach_with_po(
                g.operations, g.graph_edges, g.po_edges
            )
            for a in g.operations:
                for b in g.operations:
                    assert g.reaches(a, b) == ((a, b) in reach_any)
                    assert g.reaches_with_po(a, b) == ((a, b) in reach_po)
                    expected = _reference_valid_path(g, a, b, analysis._hb1_eids)
                    assert g.has_valid_path(a, b, analysis._hb1_eids) == expected
                    queries += 1
    assert queries
