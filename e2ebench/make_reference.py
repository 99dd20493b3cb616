"""Regenerate the benchmark's references: ``scaled_reference.json``, the
verdicts of the ``scaled_check`` workload, and ``sim_reference.json``, the
simulated event counts of the ``sim_sweep`` workload.

Usage (from the repository root)::

    python3 e2ebench/make_reference.py

Every program of the scaled families (see ``scaled_check.programs``) is
checked against all three models by the naive interleaving enumerator
(``check(..., naive=True)``, the repository's designated oracle) in a
child process with a time limit of ``NAIVE_TIMEOUT_S``.  Where the
oracle does not finish in time (and for the larger programs of the same
family and kind, which are not tried), the reference records a verdict
only where the explicit enumerator (``engine="enum"``) and the solver
engine (``engine="sat"``) agree, and says so in the entry's ``method``.

The simulated counts come from replaying every Figure 3/4 cell once
(``sim_sweep.replay_cells``), after checking that the replay reproduces
the committed ``results/csv`` files.  The benchmark itself never writes
either file; it only reads them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "scaled_reference.json")
SIM_OUT = os.path.join(HERE, "sim_reference.json")

#: Time limit of one naive-oracle child; the reference records it.
NAIVE_TIMEOUT_S = 60
#: Time limit of one ``enum`` or ``sat`` child.
ENUM_TIMEOUT_S = 300
#: (family, kind) series checked at once, each in its own child.
SERIES_JOBS = 2

#: Address-space cap for one child, so a blown-up enumeration fails
#: with MemoryError instead of starving the host.
CHILD_MEMORY_BYTES = 3 << 30

_CHILD = r"""
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({mem}, {mem}))
sys.path.insert(0, {here!r})
from scaled_check import programs
from repro.core.model import MODELS, check
program = dict(programs())[{name!r}]
mode = {mode!r}
out = {{}}
for model in MODELS:
    if mode == "naive":
        r = check(program, model, naive=True)
    else:
        r = check(program, model, engine=mode)
    out[model] = {{"legal": r.legal, "race_kinds": list(r.race_kinds)}}
print(json.dumps(out))
"""


def _run(name: str, mode: str, timeout: float):
    code = _CHILD.format(mem=CHILD_MEMORY_BYTES, here=HERE, name=name, mode=mode)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, "timeout"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["exit %d" % proc.returncode]
        return None, time.perf_counter() - t0, tail[0]
    return json.loads(proc.stdout), time.perf_counter() - t0, "ok"


def _scaled() -> None:
    from concurrent.futures import ThreadPoolExecutor

    from scaled_check import programs

    # One series per (family, kind), in increasing n: once the oracle
    # times out, it is not tried on the larger programs of the series.
    series = {}
    for name, _program in programs():
        series.setdefault(name.rsplit("_", 1)[0], []).append(name)

    def run_series(names):
        entries = {}
        naive_limit = None
        for name in names:
            verdicts = None
            if naive_limit is None:
                verdicts, took, status = _run(name, "naive", NAIVE_TIMEOUT_S)
                if verdicts is None:
                    naive_limit = f"naive {status} after {NAIVE_TIMEOUT_S}s"
            method = "naive"
            if verdicts is None:
                enum, t_enum, s_enum = _run(name, "enum", ENUM_TIMEOUT_S)
                sat, t_sat, s_sat = _run(name, "sat", ENUM_TIMEOUT_S)
                if enum is None or sat is None or enum != sat:
                    raise SystemExit(
                        f"{name}: no trusted verdict ({naive_limit}, enum {s_enum}, "
                        f"sat {s_sat}, agree={enum == sat})"
                    )
                verdicts, took = enum, t_enum + t_sat
                method = f"enum+sat agree ({naive_limit})"
            entries[name] = {"method": method, "models": verdicts}
            print(f"{name:34s} {method:50s} {took:8.2f}s", flush=True)
        return entries

    entries = {}
    with ThreadPoolExecutor(SERIES_JOBS) as pool:
        for part in pool.map(run_series, series.values()):
            entries.update(part)
    _write(OUT, entries)


def _sim() -> None:
    from common import Spans
    from sim_sweep import reference_csvs, replay_cells

    reference = reference_csvs()
    counts = {}
    for figure, (csvs, figure_counts, _ms) in replay_cells(Spans()).items():
        if csvs != reference[figure]:
            raise SystemExit(f"{figure}: replayed CSVs differ from results/csv")
        counts[figure] = figure_counts
        print(figure, figure_counts, flush=True)
    _write(SIM_OUT, counts)


def _write(path: str, value) -> None:
    with open(path, "w") as handle:
        json.dump(value, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main() -> int:
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    _sim()
    _scaled()
    return 0


if __name__ == "__main__":
    sys.exit(main())
