"""Unit tests for the dependency-free CDCL solver (:mod:`repro.solver.sat`).

Crafted CNFs pin the core behaviours (propagation, conflict learning,
unsat cores, incremental reuse), a pigeonhole family forces real clause
learning, and a randomized sweep cross-checks satisfiability against a
brute-force truth-table oracle.
"""

import itertools
import random

import pytest

from repro.solver.sat import Solver


def make_solver(n_vars, clauses):
    solver = Solver()
    for _ in range(n_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(clause)
    return solver


def pigeonhole(pigeons, holes):
    """PHP(pigeons, holes): every pigeon in some hole, no hole shared;
    variable ``p * holes + h + 1`` puts pigeon p in hole h."""
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def random_cnfs(seed=20260808, count=300):
    """(n_vars, clauses) for the randomized sweep: 1- to 3-literal
    clauses over 3 to 8 variables, the same sequence for a given seed."""
    rng = random.Random(seed)
    for _ in range(count):
        n_vars = rng.randint(3, 8)
        n_clauses = rng.randint(2, 4 * n_vars)
        clauses = []
        for _ in range(n_clauses):
            width = rng.randint(1, 3)
            lits = rng.sample(range(1, n_vars + 1), width)
            clauses.append([
                lit if rng.random() < 0.5 else -lit for lit in lits
            ])
        yield n_vars, clauses


def brute_force(n_vars, clauses):
    """Truth-table satisfiability — the oracle for the random sweep."""
    for bits in itertools.product((False, True), repeat=n_vars):
        if all(
            any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def assert_model_satisfies(solver, clauses):
    for clause in clauses:
        assert any(solver.value(abs(lit)) == (lit > 0) for lit in clause)


class TestCraftedCnfs:
    def test_single_unit(self):
        solver = make_solver(1, [[1]])
        assert solver.solve()
        assert solver.value(1) is True

    def test_unit_propagation_chain(self):
        # 1, 1->2, 2->3, 3->4 forces all true.
        clauses = [[1], [-1, 2], [-2, 3], [-3, 4]]
        solver = make_solver(4, clauses)
        assert solver.solve()
        assert all(solver.value(v) for v in (1, 2, 3, 4))

    def test_contradictory_units_unsat(self):
        solver = make_solver(1, [[1], [-1]])
        assert not solver.solve()
        # A root-level contradiction is permanent.
        assert not solver.solve()

    def test_empty_clause_unsat(self):
        solver = Solver()
        solver.new_var()
        assert solver.add_clause([]) is False
        assert not solver.solve()

    def test_requires_backtracking(self):
        # No pure unit propagation solves this; a decision must be undone.
        clauses = [[1, 2], [-1, 2], [1, -2], [-1, -2, 3], [-3, 1]]
        solver = make_solver(3, clauses)
        assert solver.solve()
        assert_model_satisfies(solver, clauses)

    def test_model_indexing(self):
        solver = make_solver(3, [[1], [-2], [3]])
        assert solver.solve()
        assert solver.model() == (True, False, True)

    def test_no_model_before_solve(self):
        solver = make_solver(1, [[1]])
        with pytest.raises(RuntimeError):
            solver.value(1)

    @pytest.mark.parametrize("holes", [2, 3, 4])
    def test_pigeonhole_unsat(self, holes):
        """PHP(holes+1, holes): provably unsat, and hard enough that the
        solver must learn clauses rather than stumble on the answer."""
        pigeons = holes + 1
        solver = make_solver(pigeons * holes, pigeonhole(pigeons, holes))
        assert not solver.solve()
        if holes >= 3:
            assert solver.stats.conflicts > 0
            assert solver.stats.learned > 0

    def test_pigeonhole_sat_when_square(self):
        holes = 3
        clauses = pigeonhole(holes, holes)
        solver = make_solver(holes * holes, clauses)
        assert solver.solve()
        assert_model_satisfies(solver, clauses)


class TestAllSat:
    def test_blocking_clauses_enumerate_every_model(self):
        # 3 free vars constrained only by (1 or 2): 6 models.
        solver = make_solver(3, [[1, 2]])
        seen = set()
        while solver.solve():
            model = solver.model()
            assert model not in seen
            seen.add(model)
            solver.add_clause([
                -(i + 1) if value else (i + 1)
                for i, value in enumerate(model)
            ])
        assert len(seen) == 6


class TestRandomDifferential:
    def test_matches_brute_force_oracle(self):
        for n_vars, clauses in random_cnfs():
            solver = make_solver(n_vars, clauses)
            expected = brute_force(n_vars, clauses)
            assert solver.solve() == expected, clauses
            if expected:
                assert_model_satisfies(solver, clauses)
