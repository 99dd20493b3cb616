"""The CDCL search trajectory is pinned by a golden fixture.

``test_incremental.py`` compares memoized cores with fresh cores of
the *same* solver, so a change to the CDCL kernel that alters the search
passes it unnoticed.  The solver counters (decisions, conflicts,
propagations, restarts, learnt clauses) ship in v1 ``solver_stats``
payloads and in ``audit --json``, so they — and the models the search
lands on — must not move under a refactor of the solver's inner loops.

``golden/trajectory.json`` records, for the SAT engine:

- every model of every corpus program the solver can ground, and
  ``scaled_mp``/``scaled_chain`` over all :data:`SCALED_KINDS` for
  n <= 4, both from a fresh core over the labeled program (``oneshot``)
  and served from the core memo (``shared``), uncapped and capped at
  two classes: the counters, the class
  count, the truncation count and a digest of the decoded executions in
  class order;
- the :class:`~repro.solver.sat.SatStats` and the model of each
  pigeonhole CNF (one of them started near the activity-rescale
  threshold) and of the randomized brute-force sweep in ``test_sat.py``.

Regenerate only for an intended change to the search, after reviewing
why every counter moved::

    PYTHONPATH=src python -m tests.solver.test_trajectory --write
"""

import dataclasses
import hashlib
import json
import os
import sys

from repro.core.model import MODELS, _prepare
from repro.litmus.corpus import load_corpus
from repro.litmus.library import SCALED_KINDS, scaled_chain, scaled_mp
from repro.solver import SolverCapacityError, sat_enumeration
from repro.solver.bridge import SharedCore, clear_core_memo

from tests.solver.test_sat import make_solver, pigeonhole, random_cnfs

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "trajectory.json")


def _programs():
    """(fixture key, Program) for every pinned program."""
    out = [(f"corpus:{entry.name}", entry.program) for entry in load_corpus()]
    for family, build in (("mp", scaled_mp), ("chain", scaled_chain)):
        for n in range(2, 5):
            for kind_name, kind in SCALED_KINDS.items():
                out.append((f"{family}:{n}:{kind_name}", build(n, kind)))
    return out


def _digest(executions) -> str:
    text = repr([e.canonical_key() for e in executions])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _enumeration_record(program, model, shared, cap):
    prepared = _prepare(program, model)
    try:
        if shared:
            enumeration = sat_enumeration(prepared, max_executions=cap)
        else:
            enumeration = SharedCore(prepared).serve(prepared, cap, False)
    except SolverCapacityError:
        return None
    record = enumeration.solver_stats.counters()
    record["truncated"] = enumeration.truncated_paths
    record["executions"] = _digest(enumeration.executions)
    return record


def _solve_record(n_vars, clauses, var_inc=None):
    solver = make_solver(n_vars, clauses)
    if var_inc is not None:
        solver._var_inc = var_inc
    sat = solver.solve()
    record = dataclasses.asdict(solver.stats)
    record["model"] = (
        "".join("1" if v else "0" for v in solver.model()) if sat else None
    )
    return record


def trajectory():
    """The pinned counters, recomputed from the current sources."""
    programs = {}
    for name, program in _programs():
        # One warm core per program across its models, as the checking
        # pipeline uses it; the fresh cores never touch the memo.  The
        # capped runs pin the per-class snapshots a warm core serves.
        clear_core_memo()
        for model in MODELS:
            for shared in (False, True):
                mode = "shared" if shared else "oneshot"
                for cap in (None, 2):
                    suffix = "" if cap is None else f"/cap{cap}"
                    programs[f"{name}/{model}/{mode}{suffix}"] = (
                        _enumeration_record(program, model, shared, cap)
                    )
    clear_core_memo()
    cnfs = {}
    # PHP(6, 5) and PHP(7, 6) run long enough to restart and to reduce
    # the learnt-clause database.
    for holes in (2, 3, 4, 5, 6):
        cnfs[f"pigeonhole_{holes + 1}_{holes}"] = _solve_record(
            (holes + 1) * holes, pigeonhole(holes + 1, holes)
        )
    cnfs["pigeonhole_3_3"] = _solve_record(9, pigeonhole(3, 3))
    # Started near the 1e100 activity cap, PHP(6, 5) rescales the VSIDS
    # activities mid-search (thousands of conflicts would otherwise).
    cnfs["pigeonhole_6_5_rescaled"] = _solve_record(
        30, pigeonhole(6, 5), var_inc=1e98,
    )
    cnfs["random"] = [_solve_record(n, clauses) for n, clauses in random_cnfs()]
    return {"programs": programs, "cnfs": cnfs}


def test_search_trajectory_matches_golden():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    current = trajectory()
    assert current["cnfs"] == golden["cnfs"]
    moved = [
        key for key in golden["programs"]
        if current["programs"].get(key) != golden["programs"][key]
    ]
    assert not moved, f"search trajectory changed for {moved[:5]}"
    assert current["programs"].keys() == golden["programs"].keys()


def test_fixture_covers_the_solver():
    """Most pinned runs go through the solver, not the capacity gate."""
    with open(GOLDEN) as handle:
        programs = json.load(handle)["programs"]
    solved = [r for r in programs.values() if r is not None]
    assert len(solved) > 3 * (len(programs) - len(solved))
    assert any(r["conflicts"] > 0 for r in solved)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.solver.test_trajectory --write")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(trajectory(), handle, indent=1, sort_keys=True)
        handle.write("\n")
