"""The one-pass race kernel against its oracle, pool by pool.

:func:`repro.core.race_kernel.race_pools` and
:class:`repro.core.races.RaceAnalysis` share no analysis code.  For every
execution (not just one per race-relevant class) of every program below,
under each model, each class's pool from the kernel must be the
oracle's ``illegal_races((cls,))``: the same races, of the same kind,
printed identically, in the same order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executions import enumerate_sc_executions
from repro.core.labels import AtomicKind
from repro.core.model import MODELS, _prepare
from repro.core.paths import Operation
from repro.core.race_kernel import race_pools
from repro.core.races import Race, RaceAnalysis
from repro.litmus.ast import load, store
from repro.litmus.corpus import load_corpus
from repro.litmus.fuzz import generate_program
from repro.litmus.library import all_tests, scaled_chain, scaled_mp
from repro.litmus.program import Program
from repro.solver import SolverCapacityError, sat_enumeration

CLASSES = ("data", "commutative", "non_ordering", "quantum", "speculative")


def kernel_races(execution, cls):
    ops, (pool,) = race_pools(execution, (cls,))
    return [Race(cls, Operation(ops[a]), Operation(ops[b])) for a, b in pool]


def assert_pools_match(execution, where):
    analysis = RaceAnalysis(execution)
    for cls in CLASSES:
        expected = list(analysis.illegal_races((cls,)))
        got = kernel_races(execution, cls)
        assert [repr(r) for r in got] == [repr(r) for r in expected], (where, cls)
        assert got == expected, (where, cls)


def executions(program, model, engine):
    """The executions of *program* prepared for *model*; none under
    ``sat`` past the solver's grounding capacity."""
    prepared = _prepare(program, model)
    if engine == "enum":
        return enumerate_sc_executions(prepared).executions
    try:
        return sat_enumeration(prepared).executions
    except SolverCapacityError:
        return ()


def check_programs(programs, engines):
    checked = 0
    for program in programs:
        for model in MODELS:
            for engine in engines:
                for index, execution in enumerate(
                    executions(program, model, engine)
                ):
                    assert_pools_match(
                        execution, (program.name, model, engine, index)
                    )
                    checked += 1
    assert checked


SCALED_KINDS = (
    AtomicKind.UNPAIRED, AtomicKind.PAIRED, AtomicKind.NON_ORDERING,
    AtomicKind.QUANTUM, AtomicKind.COMMUTATIVE,
)


@pytest.mark.parametrize("engine", ["enum", "sat"])
def test_library(engine):
    check_programs([test.program for test in all_tests()], (engine,))


@pytest.mark.parametrize("engine", ["enum", "sat"])
def test_corpus(engine):
    check_programs([entry.program for entry in load_corpus()], (engine,))


@pytest.mark.parametrize("engine", ["enum", "sat"])
def test_scaled_families(engine):
    check_programs(
        [family(n, kind) for family in (scaled_mp, scaled_chain)
         for n in (2, 3, 4) for kind in SCALED_KINDS],
        (engine,),
    )


@pytest.mark.parametrize("start", range(0, 200, 50))
def test_fuzz_campaign_enum(start):
    check_programs(
        [generate_program(17, i) for i in range(start, start + 50)], ("enum",)
    )


@pytest.mark.parametrize("start", range(0, 200, 50))
def test_fuzz_campaign_sat(start):
    check_programs(
        [generate_program(17, i) for i in range(start, start + 50)], ("sat",)
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       index=st.integers(min_value=0, max_value=500))
def test_random_programs(seed, index):
    check_programs([generate_program(seed, index)], ("enum",))


def test_rmw_is_one_operation():
    """An RMW's read and write make one operation, read first."""
    execution = next(
        execution for entry in load_corpus()
        for execution in enumerate_sc_executions(entry.program).executions
        if execution._rmw_pairs
    )
    ops, _ = race_pools(execution, ())
    rmw_ops = [op for op in ops if len(op) == 2]
    assert len(rmw_ops) == len(execution._rmw_pairs)
    assert all(op[0].kind == "R" and op[1].kind == "W" for op in rmw_ops)


def test_so1_needs_the_write_first_in_t():
    """Unguarded message passing: where the paired flag is read before
    it is written, nothing orders the data accesses after the read with
    the flag write or the data write, so they race; where it is read
    after, so1 orders them."""
    program = Program(
        "mp_unguarded",
        [
            [store("d", 1), store("f", 1, AtomicKind.PAIRED)],
            [load("r", "f", AtomicKind.PAIRED), load("s", "f"), load("t", "d")],
        ],
    )
    racy = []
    for execution in enumerate_sc_executions(program).executions:
        assert_pools_match(execution, program.name)
        ops, (pool,) = race_pools(execution, ("data",))
        flag_read_first = next(
            e for e in execution.in_t_order() if e.loc == "f" and not e.is_init
        ).kind == "R"
        assert bool(pool) == flag_read_first
        racy.append(bool(pool))
    assert True in racy and False in racy
