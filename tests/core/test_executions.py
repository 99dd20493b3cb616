"""The SC enumerator: unit tests plus property tests over random programs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executions import enumerate_sc_executions
from repro.core.labels import AtomicKind
from repro.litmus.ast import BinOp, Const, If, LocSelect, Reg, While, assign, load, rmw, store
from repro.litmus.program import Program

DATA = AtomicKind.DATA
PAIRED = AtomicKind.PAIRED


def results_of(program):
    return enumerate_sc_executions(program).final_results()


class TestSingleThread:
    def test_store_then_load(self):
        p = Program("p", [[store("x", 5), load("r", "x")]])
        enum = enumerate_sc_executions(p)
        assert len(enum.executions) == 1
        ex = enum.executions[0]
        assert ex.final_memory["x"] == 5
        assert ex.final_registers[0]["r"] == 5

    def test_initial_value(self):
        p = Program("p", [[load("r", "x")]], init={"x": 7})
        ex = enumerate_sc_executions(p).executions[0]
        assert ex.final_registers[0]["r"] == 7

    def test_default_initial_is_zero(self):
        p = Program("p", [[load("r", "x")]])
        ex = enumerate_sc_executions(p).executions[0]
        assert ex.final_registers[0]["r"] == 0

    def test_rmw_fetch_add_returns_old(self):
        p = Program("p", [[rmw("r", "x", "add", 3)]], init={"x": 10})
        ex = enumerate_sc_executions(p).executions[0]
        assert ex.final_registers[0]["r"] == 10
        assert ex.final_memory["x"] == 13

    def test_cas_success_and_failure(self):
        ok = Program("p", [[rmw("r", "x", "cas", 0, operand2=9)]])
        ex = enumerate_sc_executions(ok).executions[0]
        assert ex.final_memory["x"] == 9
        fail = Program("p", [[rmw("r", "x", "cas", 5, operand2=9)]])
        ex = enumerate_sc_executions(fail).executions[0]
        assert ex.final_memory["x"] == 0

    def test_if_taken_and_untaken(self):
        p = Program(
            "p",
            [[load("r", "x"), If(Reg("r"), [store("y", 1)], [store("y", 2)])]],
            init={"x": 1},
        )
        ex = enumerate_sc_executions(p).executions[0]
        assert ex.final_memory["y"] == 1

    def test_while_loop_executes_bounded(self):
        p = Program(
            "p",
            [[
                assign("i", 0),
                While(BinOp("<", Reg("i"), Const(3)),
                      [rmw("__", "x", "add", 1, DATA),
                       assign("i", BinOp("+", Reg("i"), Const(1)))],
                      max_iters=10),
            ]],
        )
        ex = enumerate_sc_executions(p).executions[0]
        assert ex.final_memory["x"] == 3

    def test_while_truncation_counted(self):
        p = Program(
            "p",
            [[While(Const(1), [store("x", 1)], max_iters=2)]],
        )
        enum = enumerate_sc_executions(p)
        assert enum.truncated_paths > 0
        assert len(enum.executions) == 0

    def test_loc_select_address_dependency(self):
        p = Program(
            "p",
            [[load("i", "idx"), store(LocSelect(("a", "b"), Reg("i")), 1)]],
            init={"idx": 1},
        )
        ex = enumerate_sc_executions(p).executions[0]
        assert ex.final_memory["b"] == 1
        assert ex.final_memory["a"] == 0
        assert len(ex.addr) == 1


class TestInterleavings:
    def test_two_independent_writers(self):
        p = Program("p", [[store("x", 1)], [store("y", 1)]])
        enum = enumerate_sc_executions(p, naive=True)
        assert len(enum.executions) == 1  # same events/rf/co either way
        assert enum.interleavings == 2
        # The default engine's partial-order reduction explores only the
        # canonical one of the two equivalent orderings, even on a
        # program this small.
        default = enumerate_sc_executions(p)
        assert default.stats.engine == "por"
        assert len(default.executions) == 1
        assert default.interleavings == 1
        assert default.stats.por_pruned == 1

    def test_conflicting_writers_two_coherence_orders(self):
        p = Program("p", [[store("x", 1)], [store("x", 2)]])
        enum = enumerate_sc_executions(p)
        finals = {ex.final_memory["x"] for ex in enum.executions}
        assert finals == {1, 2}

    def test_sb_all_outcomes_but_not_both_zero(self):
        p = Program(
            "sb",
            [
                [store("x", 1), load("r0", "y")],
                [store("y", 1), load("r1", "x")],
            ],
        )
        enum = enumerate_sc_executions(p)
        outcomes = {
            (ex.final_registers[0]["r0"], ex.final_registers[1]["r1"])
            for ex in enum.executions
        }
        assert (0, 0) not in outcomes  # forbidden under SC
        assert {(1, 1), (0, 1), (1, 0)} <= outcomes

    def test_rmw_atomicity_two_incrementers(self):
        p = Program(
            "inc2",
            [[rmw("a", "x", "add", 1)], [rmw("b", "x", "add", 1)]],
        )
        enum = enumerate_sc_executions(p)
        assert all(ex.final_memory["x"] == 2 for ex in enum.executions)

    def test_mp_conditional_read(self):
        p = Program(
            "mp",
            [
                [store("d", 42), store("f", 1)],
                [load("r0", "f"), If(Reg("r0"), [load("r1", "d")])],
            ],
        )
        enum = enumerate_sc_executions(p)
        for ex in enum.executions:
            if ex.final_registers[1].get("r0"):
                assert ex.final_registers[1]["r1"] == 42


class TestRelationsOfExecutions:
    def _one(self, program):
        return enumerate_sc_executions(program).executions[0]

    def test_po_is_per_thread_total(self):
        p = Program("p", [[store("x", 1), store("y", 1), load("r", "x")]])
        ex = self._one(p)
        assert len(ex.po) == 3  # 3 events -> 3 ordered pairs

    def test_rf_points_to_latest_store(self):
        p = Program("p", [[store("x", 1), store("x", 2), load("r", "x")]])
        ex = self._one(p)
        (w, r), = [(w, r) for w, r in ex.rf if not w.is_init]
        assert w.value == 2

    def test_fr_relates_read_to_overwriting_store(self):
        p = Program("p", [[load("r", "x"), store("x", 1)]])
        ex = self._one(p)
        fr_pairs = [(a, b) for a, b in ex.fr if not b.is_init]
        assert len(fr_pairs) == 1

    def test_ctrl_dependency_recorded(self):
        p = Program(
            "p", [[load("r", "x"), If(Reg("r"), [store("y", 1)])]], init={"x": 1}
        )
        ex = self._one(p)
        assert len(ex.ctrl) == 1

    def test_data_dependency_recorded(self):
        p = Program("p", [[load("r", "x"), store("y", Reg("r"))]])
        ex = self._one(p)
        assert len(ex.data) == 1

    def test_observed_reads(self):
        p = Program("p", [[load("r", "x"), store("y", Reg("r")), load("s", "x")]])
        ex = self._one(p)
        observed_values = {e.po_index for e in ex.observed_reads}
        assert observed_values == {0}


# -- property tests over random straight-line programs -------------------------

LOCS = ("x", "y")


@st.composite
def small_programs(draw):
    n_threads = draw(st.integers(1, 3))
    threads = []
    for tid in range(n_threads):
        n_ops = draw(st.integers(1, 3))
        body = []
        for k in range(n_ops):
            loc = draw(st.sampled_from(LOCS))
            kind = draw(st.sampled_from([AtomicKind.DATA, AtomicKind.PAIRED]))
            which = draw(st.integers(0, 2))
            if which == 0:
                body.append(store(loc, draw(st.integers(1, 3)), kind))
            elif which == 1:
                body.append(load(f"r{tid}_{k}", loc, kind))
            else:
                body.append(rmw(f"r{tid}_{k}", loc, "add", 1, kind))
        threads.append(body)
    return Program("random", threads)


@given(small_programs())
@settings(max_examples=40, deadline=None)
def test_every_execution_satisfies_sc_axioms(program):
    enum = enumerate_sc_executions(program)
    assert enum.executions, "at least one SC execution exists"
    for ex in enum.executions:
        # T consistent with program order.
        for a, b in ex.po:
            assert ex.t_before(a, b)
        # rf: the read returns the value of the rf-source write.
        for w, r in ex.rf:
            assert w.loc == r.loc and w.value == r.value
            assert ex.t_before(w, r)
        # every read has exactly one rf source (init writes included).
        read_count = sum(1 for e in ex.program_events if e.is_read)
        assert len(ex.rf) == read_count
        # co is a strict total order per location.
        assert ex.co.is_acyclic()
        # fr goes forward in T.
        for a, b in ex.fr:
            assert ex.t_before(a, b)
        # the com union is acyclic together with po (SC).
        assert (ex.po | ex.rf | ex.co | ex.fr).is_acyclic()


@given(small_programs())
@settings(max_examples=30, deadline=None)
def test_rmw_pairs_adjacent_in_t(program):
    enum = enumerate_sc_executions(program)
    for ex in enum.executions:
        for r, w in ex.rmw:
            pos = {eid: i for i, eid in enumerate(ex.order)}
            assert pos[w.eid] == pos[r.eid] + 1


class TestSmallProgramGate:
    """Small programs: the static step bound (the size measure of the
    router, the batch scheduler and the SAT encoder), and the default
    engine on programs of a handful of steps, which takes the reduction
    like any other program."""

    def test_static_step_bound_straight_line(self):
        from repro.core.executions import static_step_bound

        p = Program("p", [[store("x", 1), load("r", "x")], [store("y", 1)]])
        assert static_step_bound(p) == 3

    def test_static_step_bound_if_takes_max_branch(self):
        from repro.core.executions import static_step_bound

        p = Program(
            "p",
            [[
                load("r", "x"),
                If(Reg("r"), [store("a", 1)], [store("b", 1), store("c", 1)]),
            ]],
        )
        assert static_step_bound(p) == 3  # 1 load + max(1, 2)

    def test_static_step_bound_while_multiplies_by_max_iters(self):
        from repro.core.executions import static_step_bound

        p = Program(
            "p",
            [[While(Const(1), [store("x", 1), load("r", "x")], max_iters=3)]],
        )
        assert static_step_bound(p) == 6

    def test_small_and_large_defaults_both_reduce(self):
        from repro.core.executions import static_step_bound

        small = Program("mp", [
            [store("data", 1), store("flag", 1)],
            [load("r0", "flag"), load("r1", "data")],
        ])
        assert static_step_bound(small) == 4
        enum = enumerate_sc_executions(small)
        assert enum.stats.engine == "por"
        assert enum.stats.memo_hits == 0
        tiny = Program("p", [[store("x", 1)], [store("y", 1)]])
        assert enumerate_sc_executions(tiny).stats.por_pruned == 1

        large = Program("mp3", [
            [store("data", 1), store("flag", 1)],
            [load("r0", "flag"), load("r1", "data")],
            [store("z0", 1), store("z1", 1)],
        ])
        enum = enumerate_sc_executions(large)
        assert enum.stats.engine == "por"
        assert enum.stats.por_pruned > 0

    def test_gated_path_agrees_with_reduction(self):
        programs = [
            Program("mp", [
                [store("data", 1), store("flag", 1)],
                [load("r0", "flag"), load("r1", "data")],
            ]),
            Program("sb", [
                [store("x", 1), load("r0", "y")],
                [store("y", 1), load("r1", "x")],
            ]),
            Program("rmw2", [
                [rmw("r0", "x", "add", 1)], [rmw("r1", "x", "add", 1)],
            ]),
        ]
        for p in programs:
            default = enumerate_sc_executions(p)
            oracle = enumerate_sc_executions(p, naive=True)
            assert (
                {e.canonical_key() for e in default.executions}
                == {e.canonical_key() for e in oracle.executions}
            ), p.name
