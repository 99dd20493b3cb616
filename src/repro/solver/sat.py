"""A dependency-free CDCL SAT solver (MiniSat-style).

The solver implements the classic conflict-driven clause-learning loop:

- **two-watched-literal propagation** — each clause watches two of its
  literals; only clauses watching the negation of a newly assigned
  literal are visited, so propagation cost tracks the watch lists, not
  the clause database;
- **1UIP clause learning** — every conflict is resolved back to the
  first unique implication point, the learnt clause is attached and the
  solver backjumps to its assertion level;
- **VSIDS-style activity** — variables involved in recent conflicts are
  preferred at decision time (exponentially decayed bumps, lazy
  max-heap), with phase saving for the branch polarity;
- **Luby restarts** — the search restarts on a Luby-sequence conflict
  schedule, keeping learnt clauses;
- **incremental solving** — clauses may be added between
  :meth:`Solver.solve` calls, and learnt clauses, activities and saved
  phases carry over, so the AllSAT loop in :mod:`repro.solver.bridge`
  re-solves warm after each blocking clause.

Literals use the DIMACS convention externally: variables are positive
integers handed out by :meth:`Solver.new_var`, a negative integer is the
negated literal.  Internally literal ``2*v`` is variable ``v`` and
``2*v + 1`` its negation, and the assignment is kept per *literal*
(``_vals[lit]`` is +1 true, -1 false, 0 unassigned), so the propagation
loop reads a literal's value with one list index.

The hot loops (:meth:`Solver._propagate`, :meth:`Solver._search`,
:meth:`Solver._analyze`, :meth:`Solver._cancel_until`) bind the solver
state they touch to locals; assignment goes through the one
:meth:`Solver._enqueue` and activity through :meth:`Solver._bump_var`.
The search itself — every decision, conflict, propagation, restart,
learnt clause and model — is pinned by ``tests/solver/golden``: the
counters ship in v1 ``solver_stats`` payloads and ``audit --json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class SatStats:
    """Work accounting for one solver instance (cumulative over calls)."""

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned: int = 0


class _Clause:
    """One clause; ``lits`` are internal literals, the first two watched."""

    __slots__ = ("lits", "learnt", "act", "deleted")

    def __init__(self, lits: List[int], learnt: bool):
        self.lits = lits
        self.learnt = learnt
        self.act = 0.0
        self.deleted = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = " ".join(str(_to_dimacs(l)) for l in self.lits)
        return f"<clause{' L' if self.learnt else ''} {body}>"


def _to_dimacs(lit: int) -> int:
    var = (lit >> 1) + 1
    return -var if lit & 1 else var


def _luby(x: int) -> int:
    """The x-th term (0-based) of the Luby restart sequence
    (1, 1, 2, 1, 1, 2, 4, ...)."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class Solver:
    """An incremental CDCL SAT solver over DIMACS-style literals."""

    def __init__(self):
        self.stats = SatStats()
        self._nvars = 0
        self._clauses: List[_Clause] = []
        self._learnts: List[_Clause] = []
        self._watches: List[List[_Clause]] = []
        self._vals: List[int] = []  # per literal: +1 true, -1 false, 0 unset
        self._level: List[int] = []
        self._reason: List[Optional[_Clause]] = []
        self._trail: List[int] = []  # internal literals, assignment order
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._activity: List[float] = []
        self._phase: List[bool] = []
        self._order: List[Tuple[float, int]] = []  # lazy (-activity, var) heap
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        self._max_learnts = 0.0
        self._ok = True
        self._model: List[int] = []

    # -- variables -----------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable; returns its (positive) DIMACS id."""
        self._nvars += 1
        self._vals += (0, 0)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        self._watches.append([])
        self._watches.append([])
        heappush(self._order, (0.0, self._nvars - 1))
        return self._nvars

    @property
    def num_clauses(self) -> int:
        """Problem clauses added so far (learnt clauses excluded)."""
        return len(self._clauses)

    def _lit(self, ext: int) -> int:
        var = abs(ext) - 1
        if not 0 <= var < self._nvars:
            raise ValueError(f"unknown variable in literal {ext}")
        return 2 * var + (1 if ext < 0 else 0)

    # -- clause management ---------------------------------------------------
    def add_clause(self, ext_lits: Iterable[int]) -> bool:
        """Add a clause (DIMACS literals).  Returns ``False`` when the
        solver becomes unconditionally unsatisfiable.  Must be called at
        decision level 0 (i.e. outside :meth:`solve`)."""
        assert not self._trail_lim, "add_clause only between solve calls"
        if not self._ok:
            return False
        vals = self._vals
        lits: List[int] = []
        seen: Dict[int, int] = {}
        for ext in ext_lits:
            lit = self._lit(ext)
            v = vals[lit]
            if v > 0:
                return True  # satisfied at level 0
            if v < 0:
                continue  # falsified at level 0; drop
            prev = seen.get(lit >> 1)
            if prev is None:
                seen[lit >> 1] = lit
                lits.append(lit)
            elif prev != lit:
                return True  # tautology x | ~x
        if not lits:
            self._ok = False
            return False
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            if self._propagate() is not None:
                self._ok = False
                return False
            return True
        clause = _Clause(lits, learnt=False)
        self._clauses.append(clause)
        self._attach(clause)
        return True

    def _attach(self, clause: _Clause) -> None:
        # A clause watching l is visited when ~l is assigned true.
        self._watches[clause.lits[0] ^ 1].append(clause)
        self._watches[clause.lits[1] ^ 1].append(clause)

    # -- assignment / propagation -------------------------------------------
    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> None:
        var = lit >> 1
        self._vals[lit] = 1
        self._vals[lit ^ 1] = -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = not lit & 1
        self._trail.append(lit)

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns a conflicting clause or ``None``."""
        trail = self._trail
        qhead = start = self._qhead
        if qhead >= len(trail):
            return None
        vals = self._vals
        watches = self._watches
        enqueue = self._enqueue
        conflict: Optional[_Clause] = None
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            false_lit = p ^ 1
            ws = watches[p]
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if c.deleted:
                    continue  # lazily dropped from the watch list
                lits = c.lits
                if lits[0] == false_lit:
                    lits[0] = lits[1]
                    lits[1] = false_lit
                first = lits[0]
                value = vals[first]
                if value > 0:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    other = lits[k]
                    if vals[other] >= 0:
                        lits[1] = other
                        lits[k] = false_lit
                        watches[other ^ 1].append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if value < 0:
                        conflict = c
                        break
                    enqueue(first, c)
            if conflict is not None:
                while i < n:
                    c = ws[i]
                    if not c.deleted:
                        ws[j] = c
                        j += 1
                    i += 1
                del ws[j:]
                self.stats.propagations += qhead - start
                self._qhead = len(trail)
                return conflict
            del ws[j:]
        self.stats.propagations += qhead - start
        self._qhead = qhead
        return None

    def _cancel_until(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        bound = trail_lim[level]
        vals = self._vals
        reason = self._reason
        activity = self._activity
        order = self._order
        for lit in reversed(trail[bound:]):
            var = lit >> 1
            vals[lit] = 0
            vals[lit ^ 1] = 0
            reason[var] = None
            heappush(order, (-activity[var], var))
        del trail[bound:]
        del trail_lim[level:]
        self._qhead = len(trail)

    # -- activity ------------------------------------------------------------
    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(self._nvars):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
        if self._vals[var << 1] == 0:
            heappush(self._order, (-self._activity[var], var))

    def _bump_clause(self, clause: _Clause) -> None:
        clause.act += self._cla_inc
        if clause.act > 1e20:
            for c in self._learnts:
                c.act *= 1e-20
            self._cla_inc *= 1e-20

    # -- conflict analysis ---------------------------------------------------
    def _analyze(self, conflict: _Clause) -> Tuple[List[int], int]:
        """1UIP analysis; returns (learnt clause, backjump level) with the
        asserting literal first."""
        level = self._level
        trail = self._trail
        reason = self._reason
        bump_var = self._bump_var
        learnt: List[int] = [0]
        seen = bytearray(self._nvars)
        counter = 0
        p: Optional[int] = None
        reason_lits: Sequence[int] = conflict.lits
        if conflict.learnt:
            self._bump_clause(conflict)
        index = len(trail) - 1
        cur_level = len(self._trail_lim)
        while True:
            for q in (reason_lits if p is None else reason_lits[1:]):
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    bump_var(var)
                    if level[var] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            var = p >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            clause = reason[var]
            assert clause is not None
            if clause.learnt:
                self._bump_clause(clause)
            reason_lits = clause.lits
        learnt[0] = p ^ 1
        if len(learnt) == 1:
            return learnt, 0
        # Backjump to the second-highest decision level in the clause and
        # put a literal of that level in the second watch position.
        max_i = 1
        for k in range(2, len(learnt)):
            if level[learnt[k] >> 1] > level[learnt[max_i] >> 1]:
                max_i = k
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, level[learnt[1] >> 1]

    # -- learnt DB reduction -------------------------------------------------
    def _reduce_db(self) -> None:
        locked = {id(r) for r in self._reason if r is not None}
        self._learnts.sort(key=lambda c: c.act)
        keep: List[_Clause] = []
        drop = len(self._learnts) // 2
        for idx, c in enumerate(self._learnts):
            if idx < drop and len(c.lits) > 2 and id(c) not in locked:
                c.deleted = True  # watch lists drop it lazily
            else:
                keep.append(c)
        self._learnts = keep

    # -- search --------------------------------------------------------------
    def solve(self) -> bool:
        """Solve the clauses added so far.

        ``True``: a model is available via :meth:`value` / :meth:`model`.
        ``False``: unsatisfiable, for good — clauses are only ever added.
        Learnt clauses persist across calls.
        """
        self._model = []
        self._cancel_until(0)
        if not self._ok:
            return False
        if self._propagate() is not None:
            self._ok = False
            return False
        if self._max_learnts <= 0:
            self._max_learnts = max(100.0, 2.0 * len(self._clauses))
        restart = 0
        while True:
            self.stats.restarts += restart > 0
            budget = 100 * _luby(restart)
            restart += 1
            status = self._search(budget)
            if status is not None:
                self._cancel_until(0)
                return status
            self._max_learnts *= 1.05
            self._cancel_until(0)

    def _search(self, budget: int) -> Optional[bool]:
        propagate = self._propagate
        trail = self._trail
        trail_lim = self._trail_lim
        vals = self._vals
        phase = self._phase
        order = self._order
        stats = self.stats
        conflicts = 0
        while True:
            conflict = propagate()
            if conflict is not None:
                stats.conflicts += 1
                conflicts += 1
                if not trail_lim:
                    self._ok = False
                    return False
                learnt, back_level = self._analyze(conflict)
                self._cancel_until(back_level)
                lit = learnt[0]
                if len(learnt) == 1:
                    clause = None
                else:
                    clause = _Clause(learnt, learnt=True)
                    self._learnts.append(clause)
                    stats.learned += 1
                    self._attach(clause)
                    self._bump_clause(clause)
                self._var_inc *= self._var_decay
                self._cla_inc *= self._cla_decay
            else:
                if conflicts >= budget:
                    return None  # restart
                if len(self._learnts) - len(trail) >= self._max_learnts:
                    self._reduce_db()
                # Branch on the most active unassigned variable (stale
                # heap entries are skipped lazily).
                while order:
                    var = heappop(order)[1]
                    if vals[var << 1] == 0:
                        break
                else:
                    self._model = vals[0::2]
                    return True
                stats.decisions += 1
                lit = 2 * var + (0 if phase[var] else 1)
                trail_lim.append(len(trail))
                clause = None
            self._enqueue(lit, clause)

    # -- results -------------------------------------------------------------
    def value(self, var: int) -> bool:
        """Value of *var* (positive DIMACS id) in the last model."""
        if not self._model:
            raise RuntimeError("no model: last solve() was not SAT")
        return self._model[var - 1] > 0

    def model(self) -> Tuple[bool, ...]:
        """The last model as a tuple indexed by ``var - 1``."""
        if not self._model:
            raise RuntimeError("no model: last solve() was not SAT")
        return tuple(v > 0 for v in self._model)
