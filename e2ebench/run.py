"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload serve_mix|scaled_check|sim_sweep \
        [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` it prints every end-to-end metric, with ``--trace 1``
every per-layer metric (from a separate traced run), each with its unit,
then one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
Every output is checked against a reference the code under test does not
produce; failed or wrong operations count in ``failed``.

This process is the orchestrator and never imports ``repro``: every
process of the system under test is a fresh interpreter, with the
program's tuning variables unset and a cache directory of its own under
``.bench_run/`` (removed at exit).  Spans of traced runs are written to
``.bench_out/``.  See ``e2ebench/NOTES.md`` for why each workload
exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    DEFAULT_SEED,
    OUT_ROOT,
    SRC,
    child_env,
    environment,
    make_run_dir,
    remove_run_dir,
)

WORKLOADS = ("serve_mix", "scaled_check", "sim_sweep")

#: End-to-end metrics (name -> unit); every workload reports each one.
#: What "op" and "bulk" mean per workload is in NOTES.md.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "bulk_ms": "ms",
    "work_per_s": "1/s",
}

#: Per-layer metrics (name -> unit), from the traced run.  A layer the
#: workload does not enter reads 0.
PER_LAYER = {
    "litmus.parse_ms": "ms",
    "core.prepare_ms": "ms",
    "core.prepare.events": "count",
    "core.executions.enumerate_ms": "ms",
    "core.executions.steps": "count",
    "core.executions.executions": "count",
    "core.executions.por_pruned": "count",
    "core.executions.memo_hits": "count",
    "core.races.classify_ms": "ms",
    "core.races.analyses_run": "count",
    "core.races.class_ratio": "ratio",
    "solver.router.decide_ms": "ms",
    "solver.router.sat_share": "ratio",
    "solver.encode_ms": "ms",
    "solver.solve_ms": "ms",
    "solver.conflicts": "count",
    "solver.decisions": "count",
    "solver.classes": "count",
    "batch.check_many_ms": "ms",
    "batch.amortization": "ratio",
    "api.validate_ms": "ms",
    "api.handle_ms": "ms",
    "api.encode_ms": "ms",
    "api.payload_bytes": "bytes",
    "serve.transport_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "perf.cache.get_ms": "ms",
    "perf.cache.put_ms": "ms",
    "workloads.build_ms": "ms",
    "sim.compile_ms": "ms",
    "sim.vectorize_ms": "ms",
    "sim.run_ms": "ms",
    "sim.host_ns_per_op": "ns",
    "sim.core_ops": "count",
    "sim.l1_hit_ratio": "ratio",
    "sim.noc_flit_hops": "count",
    "energy.breakdown_ms": "ms",
    "eval.sweep_overhead_ms": "ms",
    "eval.export_ms": "ms",
    "trace.overhead": "ratio",
}


class Context:
    def __init__(self, args, run_dir: str):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.run_dir = run_dir
        self.env = child_env(run_dir)
        self.spans_path = os.path.join(
            OUT_ROOT, f"{args.workload}-seed{args.seed}-{os.getpid()}.spans.jsonl"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2ebench: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    run_dir = make_run_dir(args.workload)
    t0 = time.perf_counter()
    try:
        module = importlib.import_module(args.workload)
        outcome = module.orchestrate(Context(args, run_dir))
    finally:
        remove_run_dir(run_dir)
    wall = time.perf_counter() - t0

    names = PER_LAYER if args.trace else END_TO_END
    source = outcome["layers"] if args.trace else outcome["metrics"]
    metrics = {
        name: {"value": float(source.get(name, 0.0)), "unit": unit}
        for name, unit in names.items()
    }
    attempted, failed = outcome["attempted"], outcome["failed"]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  wall {wall:.1f} s  {json.dumps(environment())}")
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:16.6f} {entry['unit']}")
    print(f"  samples {json.dumps(outcome['samples'], sort_keys=True)}")
    if outcome["notes"]:
        print(f"  notes {json.dumps(outcome['notes'], sort_keys=True)}")
    print(f"  failed_ratio {failed / attempted:.6f} ({failed} of {attempted})")
    for line in outcome["failures"][:20]:
        print(f"  FAIL {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
