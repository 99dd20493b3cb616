"""Hand measurements quoted in NOTES.md, reproducible with one command.

Usage (from the repository root)::

    PYTHONPATH=src:e2ebench python3 -m observations

1. ``repro.batch.check_many`` over ``COUNT`` fuzz programs of the
   benchmark's default seed with ``engine="enum"`` against
   ``engine="auto"`` (``jobs=1``, cache off), and the router's split of
   the same (program, model) cells: how many it sends to SAT and how
   long those cells take under each engine.
2. ``scaled_mp`` n=6 (quantum payload) with ``engine="auto"`` against
   ``engine="enum"``.

Each figure is one timing on whatever host runs it; they explain the
workload choices and are not benchmark results.
"""

from __future__ import annotations

import time

from common import DEFAULT_SEED

#: Fuzz programs in the ``check_many`` comparison.
COUNT = 500


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main() -> int:
    from repro.batch import check_many, clear_batch_state
    from repro.core.model import MODELS, _prepare, check
    from repro.litmus.fuzz import generate
    from repro.litmus.library import SCALED_KINDS, scaled_mp
    from repro.solver.router import decide

    programs = generate(DEFAULT_SEED, COUNT)
    for engine in ("enum", "auto"):
        clear_batch_state()
        took = _time(lambda: list(check_many(programs, engine=engine, jobs=1, cache=False)))
        print(f"check_many {COUNT} fuzz programs engine={engine}: {took:.2f} s")

    routed = [
        (program, model)
        for program in programs
        for model in MODELS
        if decide(_prepare(program, model)).engine == "sat"
    ]
    cells = len(programs) * len(MODELS)
    print(f"router sends {len(routed)} of {cells} cells to sat "
          f"(sat_share {len(routed) / cells:.3f})")
    for engine in ("enum", "sat"):
        took = _time(lambda: [check(p, m, engine=engine, cache=False) for p, m in routed])
        print(f"  those cells with engine={engine}: {took:.2f} s")

    program = scaled_mp(6, SCALED_KINDS["quantum"])
    for engine in ("auto", "enum"):
        took = _time(lambda: [check(program, m, engine=engine, cache=False) for m in MODELS])
        print(f"{program.name} engine={engine}: {took:.2f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
