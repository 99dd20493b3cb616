"""Workload ``scaled_check``: large litmus programs through ``repro.api``.

The scaled message-passing and store-buffering-ring families of
``repro.litmus.library`` over all five relaxed-atomic kinds, checked one
``check_program(source=..., engine="auto")`` call per program with the
cache off and ``jobs=1``.  The router sends these programs to the SAT
engine, so this workload loads ``solver`` and the heavy ``core`` stages;
per-request overhead is a negligible share of each check.

Each pass over the program set runs in a fresh interpreter, so the
solver's shared-core memo and the prepared-program memo start cold in
every pass, as they do for a caller that starts a new process.  Each
pass checks the programs in its own order, drawn from the seed, so that
programs of one size are not all timed in the same few seconds of a
host whose speed drifts.

Worker modes (``python3 -m scaled_check setup | pass <seed> <pass> |
replay <seed> <spans>``): ``setup`` builds the inputs and exits,
``pass`` checks every program once, ``replay`` checks every program once
stage by stage with spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from random import Random
from typing import Dict, List, Tuple

from common import (
    HERE,
    best_times,
    median,
    percentile,
    peak_rss_mb,
    ready,
    run_worker,
    worker_output,
)

#: Largest thread counts.  A pass is about 8 s on a 2-CPU host.  The
#: store-buffering ring with quantum atomics grows far faster than the
#: other kinds (n=6 takes 5.9 s, n=7 55 s), so it stops earlier.
MP_MAX = 6
CHAIN_MAX = 8
CHAIN_QUANTUM_MAX = 5

REFERENCE = os.path.join(HERE, "scaled_reference.json")


def programs():
    """(name, Program) for every checked program, in check order."""
    from repro.litmus.library import SCALED_KINDS, scaled_chain, scaled_mp

    out = []
    for family, build, top in (("mp", scaled_mp, MP_MAX), ("chain", scaled_chain, CHAIN_MAX)):
        for n in range(2, top + 1):
            for kind_name, kind in SCALED_KINDS.items():
                if family == "chain" and kind_name == "quantum" and n > CHAIN_QUANTUM_MAX:
                    continue
                program = build(n, kind)
                out.append((program.name, program))
    return out


def _inputs() -> List[Tuple[str, str]]:
    from repro.litmus.render import render

    return [(name, render(program)) for name, program in programs()]


def _order(inputs, seed: int, pass_index: int):
    ordered = list(inputs)
    Random(seed * 1009 + pass_index).shuffle(ordered)
    return ordered


def _digest(response: dict) -> str:
    from repro.api.schema import encode

    return hashlib.sha256(encode(response).encode()).hexdigest()


def _verdicts(response: dict) -> Dict[str, list]:
    return {
        model: [payload["legal"], payload["race_kinds"]]
        for model, payload in response["result"]["models"].items()
    }


# -- worker --------------------------------------------------------------------

def _worker_pass(inputs) -> dict:
    from repro.api import check_program

    rows = []
    t_run = time.perf_counter()
    for name, source in inputs:
        t0 = time.perf_counter()
        response = check_program(source=source, engine="auto", cache=False, jobs=1)
        latency = time.perf_counter() - t0
        ok = bool(response.get("ok"))
        rows.append({
            "name": name,
            "latency_s": latency,
            "ok": ok,
            "verdicts": _verdicts(response) if ok else None,
            "digest": _digest(response),
        })
    return {
        "rows": rows,
        "wall_s": time.perf_counter() - t_run,
        "peak_rss_mb": peak_rss_mb(os.getpid()),
    }


def _worker_replay(inputs, spans_path: str) -> dict:
    from common import Spans
    from replay import Replayer, request_roots_ms

    spans = Spans()
    replayer = Replayer(spans, cache_dir=None)
    rows = []
    for name, source in inputs:
        body = json.dumps({
            "schema_version": 1, "kind": "check", "id": None,
            "program": {"source": source},
            "options": {"backend": None, "dedup": True, "exhaustive": True,
                        "max_executions": None, "trace": False,
                        "engine": "auto"},
        })
        spans.request = name
        text = replayer.replay_request(body)
        rows.append({"name": name,
                     "digest": hashlib.sha256(text.encode()).hexdigest()})
    spans.write(spans_path)
    return {
        "rows": rows,
        "wall_s": sum(request_roots_ms(spans)) / 1e3,
        "layers": replayer.metrics(),
    }


def main(argv: List[str]) -> int:
    mode = argv[0]
    from repro.api import check_program  # noqa: F401 - part of set-up

    inputs = _inputs()
    ready()
    if mode == "setup":
        result = {}
    elif mode == "pass":
        result = _worker_pass(_order(inputs, int(argv[1]), int(argv[2])))
    elif mode == "replay":
        result = _worker_replay(_order(inputs, int(argv[1]), 0), argv[2])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    worker_output(result)
    return 0


# -- orchestration -------------------------------------------------------------

#: Fresh interpreters timed for set-up besides the pass workers.
SETUP_PROBES = 6
#: Passes a run makes at the least, so that the sample count does not
#: depend on how many passes fit in the run's time.  Each program's time
#: is its best of the passes: the host's speed drifts over seconds, and
#: four passes spread each program's timings over about 25 s of it.
MIN_PASSES = 4


def _check_rows(rows, reference, failures: List[str]) -> int:
    failed = 0
    for row in rows:
        expected = reference.get(row["name"])
        got = row["verdicts"]
        want = (
            {m: [v["legal"], v["race_kinds"]] for m, v in expected["models"].items()}
            if expected is not None else None
        )
        if not row["ok"] or want is None or got != want:
            failed += 1
            failures.append(f"{row['name']}: got {got}, reference {want}")
    return failed


def orchestrate(ctx) -> dict:
    with open(REFERENCE) as handle:
        reference = json.load(handle)
    env = ctx.env
    setups = [
        run_worker("scaled_check", ["setup"], env, 120)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < ctx.seconds:
        passes.append(run_worker(
            "scaled_check", ["pass", str(ctx.seed), str(len(passes))], env, 170
        ))
    setups += [p["setup_s"] for p in passes]

    failures: List[str] = []
    rows = [row for p in passes for row in p["rows"]]
    failed = _check_rows(rows, reference, failures)
    best = best_times((row["name"], row["latency_s"] * 1e3) for row in rows)
    latencies = list(best.values())
    pass_ms = sum(latencies)
    n_models = 3
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "op_p50_ms": median(latencies),
        "op_p90_ms": percentile(latencies, 0.9),
        "bulk_ms": pass_ms,
        "work_per_s": len(best) * n_models / (pass_ms / 1e3),
    }
    samples = {
        "setup_s": len(setups), "op_ms": len(latencies),
        "timings_per_program": len(passes),
        "pass_ms_all": [round(sum(r["latency_s"] for r in p["rows"]) * 1e3, 1)
                        for p in passes],
    }
    layers = {}
    if ctx.trace:
        replay = run_worker(
            "scaled_check", ["replay", str(ctx.seed), ctx.spans_path], env, 170
        )
        untraced = passes[0]
        for mine, real in zip(replay["rows"], untraced["rows"]):
            if (mine["name"], mine["digest"]) != (real["name"], real["digest"]):
                failed += 1
                failures.append(f"{mine['name']}: stage replay payload differs")
        layers = replay["layers"]
        layers["trace.overhead"] = replay["wall_s"] / untraced["wall_s"]
    return {
        "attempted": len(rows) + (len(passes[0]["rows"]) if ctx.trace else 0),
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "samples": samples,
        "layers": layers,
        "notes": {"passes": len(passes), "programs": len(passes[0]["rows"])},
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
