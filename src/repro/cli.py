"""Unified command-line front-end: ``python -m repro <subcommand>``.

Subcommands:

- ``figures`` — regenerate every table/figure artifact;
- ``audit`` — parallel litmus-corpus verdict audit;
- ``trace`` — record one simulation or one litmus enumeration to JSONL
  and Chrome ``trace_event`` files (see :mod:`repro.obs`);
- ``litmus`` — check one library litmus test against all three models
  (or list the library);
- ``serve`` — run the checker as a long-lived service speaking the v1
  request protocol over stdin-JSONL or HTTP (see :mod:`repro.serve`
  and ``docs/serve.md``).

The shared flags ``--jobs``, ``--out`` and ``--trace`` are declared once
here and inherited by every subcommand; ``--trace``
defaults to the ``REPRO_TRACE`` environment variable, so
``REPRO_TRACE=out/ python -m repro figures`` traces without touching
the command line.

The verdict subcommands (``litmus``, ``audit``) are thin views over the
:mod:`repro.api` façade — the same code path the service runs — and
support ``--json``, which emits the request's v1 response envelope
(byte-identical to what ``serve`` would answer).  Their exit codes are
stable: ``0`` all verdicts as declared, ``1`` a verdict mismatch /
corpus failure, ``2`` usage or request errors (unknown test, bad
flags).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

# The facades define the engine tuples without loading the checker or
# the simulator, so parsing a command loads neither.
from repro.core import ENGINES as CHECK_ENGINES
from repro.sim import ENGINES as SIM_ENGINES

#: Environment variable supplying the default ``--trace`` directory.
TRACE_ENV = "REPRO_TRACE"


def _shared_flags(
    jobs_help: str = "worker processes for parallel stages "
                     "(default: REPRO_JOBS, then the CPU count)",
) -> argparse.ArgumentParser:
    """The flags every subcommand inherits, declared exactly once;
    *jobs_help* lets a subcommand say what ``--jobs`` fans out for it."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--jobs", type=int, default=None, metavar="N", help=jobs_help,
    )
    shared.add_argument(
        "--out", default=None, metavar="DIR",
        help="output directory (default depends on the subcommand)",
    )
    shared.add_argument(
        "--trace", default=os.environ.get(TRACE_ENV) or None, metavar="DIR",
        help="write per-run JSONL + Chrome trace_event files into DIR "
             f"(default: the {TRACE_ENV} environment variable)",
    )
    shared.add_argument(
        "--cache", dest="cache", action="store_true", default=None,
        help="serve repeated responses and sweep cells from the on-disk "
             "result cache (default: on for figures/audit; the directory "
             "is REPRO_CACHE_DIR, else ~/.cache/repro)",
    )
    shared.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="recompute everything, ignoring the result cache",
    )
    shared.add_argument(
        "--cache-clear", action="store_true",
        help="delete every result-cache entry before running",
    )
    shared.add_argument(
        "--engine",
        choices=SIM_ENGINES,
        default="auto",
        help="simulator execution engine: 'auto' (default) runs the "
             "compiled fast path, or the instrumented 'reference' "
             "interpreter when tracing or when the fast path cannot be "
             "exact. Both produce identical results",
    )
    return shared


def _add_check_engine(parser: argparse.ArgumentParser) -> None:
    """The ``--check-engine`` flag of the verdict subcommands."""
    parser.add_argument(
        "--check-engine", choices=CHECK_ENGINES,
        default="enum", metavar="E",
        help="model-checking engine: 'enum' walks every interleaving, "
             "'sat' enumerates execution classes with the CDCL solver, "
             "'auto' takes sat for a program with no RMW and more than "
             "10^4 bounded interleavings, enum otherwise "
             "(default enum). Verdicts are identical either way",
    )


def _cli_cache(args: argparse.Namespace, default: bool = True) -> bool:
    """The subcommand's cache spec from ``--cache/--no-cache/--cache-clear``."""
    from repro.perf.cache import ResultCache

    if args.cache_clear:
        removed = ResultCache().clear()
        print(f"cleared {removed} result-cache entries", file=sys.stderr)
    return args.cache if args.cache is not None else default


# -- subcommands ---------------------------------------------------------------

def cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate every table and figure artifact."""
    from repro.api import generate_figures

    artifacts = generate_figures(
        out_dir=args.out or "results",
        scale=args.scale,
        jobs=args.jobs,
        trace_dir=args.trace,
        cache=_cli_cache(args, default=True),
        engine=args.engine,
    )
    for name in sorted(artifacts):
        print(f"== {name} " + "=" * max(0, 60 - len(name)))
        print(artifacts[name])
        print()
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Re-check every corpus file against its declared verdicts."""
    from repro.api import audit_request, encode

    response = audit_request(
        engine=args.check_engine,
        cache=_cli_cache(args, default=True),
        jobs=args.jobs,
    )
    if args.json:
        print(encode(response))
        return 0 if response["ok"] and not response["result"]["failures"] else (
            1 if response["ok"] else 2
        )
    if not response["ok"]:
        error = response["error"]
        print(f"audit failed [{error['code']}]: {error['message']}", file=sys.stderr)
        return 2
    result = response["result"]
    for entry in result["files"]:
        status = "ok" if entry["ok"] else "FAIL"
        detail = " ".join(
            f"{model}={'legal' if v['actual'] else 'illegal'}"
            + (
                ""
                if v["expected"] == v["actual"]
                else f"(expected {'legal' if v['expected'] else 'illegal'})"
            )
            for model, v in entry["verdicts"].items()
        )
        print(f"{status:4s} {entry['name']}: {detail}")
    print(f"{result['failures']} failure(s)")
    return 1 if result["failures"] else 0


def _write_trace_files(tracer, out_dir: str, stem: str) -> List[str]:
    from repro.obs.export import write_chrome_trace, write_jsonl

    os.makedirs(out_dir, exist_ok=True)
    return [
        write_jsonl(tracer, os.path.join(out_dir, f"{stem}.jsonl")),
        write_chrome_trace(
            tracer, os.path.join(out_dir, f"{stem}.trace.json"),
            process_name=stem,
        ),
    ]


def cmd_trace(args: argparse.Namespace) -> int:
    """Trace one simulation (or litmus enumeration) to disk."""
    from repro.obs.tracer import Tracer

    out_dir = args.out or args.trace or "traces"
    tracer = Tracer()
    if args.litmus:
        from repro.core.executions import enumerate_sc_executions
        from repro.litmus.library import get as get_litmus

        enum = enumerate_sc_executions(
            get_litmus(args.target).program, tracer=tracer
        )
        paths = _write_trace_files(tracer, out_dir, f"litmus_{args.target}")
        print(
            f"{args.target}: {len(enum.executions)} distinct SC executions, "
            f"{enum.stats.steps} steps, {len(tracer)} trace events"
        )
    else:
        from repro.sim.config import INTEGRATED
        from repro.sim.system import CONFIG_ABBREV, run_workload
        from repro.workloads.base import get as get_workload

        protocol, model = {v: k for k, v in CONFIG_ABBREV.items()}[args.config]
        kernel = get_workload(args.target).build(INTEGRATED, args.scale)
        # A live tracer forces the reference interpreter whatever the
        # --engine flag says; run_workload handles the fallback.
        result = run_workload(
            kernel, protocol, model, INTEGRATED, tracer=tracer,
            engine=args.engine,
        )
        paths = _write_trace_files(
            tracer, out_dir, f"{args.target}_{args.config}"
        )
        print(
            f"{args.target} on {args.config}: {result.cycles:.0f} cycles, "
            f"{len(tracer)} trace events across "
            f"{len(tracer.components())} components"
        )
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_litmus(args: argparse.Namespace) -> int:
    """Check a library litmus test (or list the library)."""
    from repro.api import check_program, encode

    if args.list or args.name is None:
        from repro.litmus.library import all_tests

        for test in all_tests():
            print(f"{test.name:32s} {test.description}")
        return 0
    response = check_program(
        name=args.name,
        models=[args.model] if args.model else None,
        engine=args.check_engine,
        cache=_cli_cache(args, default=False),
        jobs=args.jobs,
    )
    if args.json:
        print(encode(response))
        if not response["ok"]:
            return 2
        return 1 if response["result"].get("mismatches") else 0
    if not response["ok"]:
        error = response["error"]
        print(f"litmus failed [{error['code']}]: {error['message']}", file=sys.stderr)
        return 2
    result = response["result"]
    expected = result.get("expected", {})
    mismatches = set(result.get("mismatches", ()))
    for model, payload in result["models"].items():
        verdict = "LEGAL" if payload["legal"] else "ILLEGAL"
        kinds = ",".join(payload["race_kinds"]) or "-"
        note = ""
        if model in mismatches:
            note = (
                f"  << expected {'LEGAL' if expected[model] else 'ILLEGAL'}"
            )
        # The solver engine counts execution classes, not interleavings;
        # tag its lines so the counts are not misread (enum stays as-is).
        if payload.get("engine") == "sat":
            count = f"{payload['executions']} execution classes [sat]"
        else:
            count = f"{payload['executions']} SC executions"
        print(
            f"{result['program']}: {model.upper()} {verdict} "
            f"(races: {kinds}; {count})" + note
        )
    return 1 if mismatches else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential litmus fuzzing: campaign mode, or replay a banked case."""
    from repro.litmus.fuzz import replay, run_campaign

    if args.replay:
        if args.replay[0] != "replay" or len(args.replay) < 2:
            print(
                "usage: repro fuzz [--seed S --count N --budget T] | "
                "repro fuzz replay PATH [PATH ...]",
                file=sys.stderr,
            )
            return 2
        exit_code = 0
        for path in args.replay[1:]:
            try:
                rows = replay(path)
            except OSError as err:
                print(f"repro fuzz replay: {err}", file=sys.stderr)
                return 2
            print(f"{path}:")
            by_config: dict = {}
            for config, model, verdict_str in rows:
                by_config.setdefault(config, []).append((model, verdict_str))
            reference = dict(by_config.get("enum", ()))
            for config, cells in by_config.items():
                diverged = [m for m, v in cells if reference.get(m) != v]
                status = (
                    "  DIVERGES" if config != "enum" and diverged else ""
                )
                print(
                    f"  {config:16s} "
                    + " ".join(f"{m}={v}" for m, v in cells)
                    + status
                )
                if diverged and config != "enum":
                    exit_code = 1
        return exit_code

    bank: dict = {}
    if args.no_bank:
        bank["bank_dir"] = None
    elif args.bank_dir:
        bank["bank_dir"] = args.bank_dir
    report = run_campaign(
        seed=args.seed,
        count=args.count,
        budget_s=args.budget,
        jobs=args.jobs,
        **bank,
    )
    print(report.summary())
    return 1 if report.divergences else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the checker service (stdin-JSONL, or HTTP with ``--http``)."""
    from repro.serve import main_serve

    _cli_cache(args, default=True)  # honor --cache-clear before booting
    if args.cache is None:
        args.cache = True  # a service defaults to the shared response cache
    return main_serve(args)


# -- parser / entry ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    shared = _shared_flags()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Chasing Away RAts' — unified front-end.",
    )
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    p = sub.add_parser(
        "figures", parents=[shared],
        help="regenerate every table/figure artifact (default --out results)",
    )
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload input scale (default 1.0)")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser(
        "audit", parents=[shared],
        help="re-check the litmus corpus against its declared verdicts",
    )
    p.add_argument("--json", action="store_true",
                   help="emit the v1 response envelope (one JSON line) "
                        "instead of per-file text; exit 0 ok / 1 failures "
                        "/ 2 request error")
    _add_check_engine(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "trace", parents=[shared],
        help="trace one simulation or litmus enumeration "
             "(default --out traces)",
    )
    p.add_argument("target", help="workload name (or litmus test with --litmus)")
    p.add_argument("--litmus", action="store_true",
                   help="trace the SC enumeration of a litmus test instead "
                        "of a simulation")
    p.add_argument("--config", default="GD0",
                   choices=("GD0", "GD1", "GDR", "DD0", "DD1", "DDR"),
                   help="simulated configuration (default GD0)")
    p.add_argument("--scale", type=float, default=0.25,
                   help="workload input scale (default 0.25)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "litmus",
        parents=[_shared_flags(
            jobs_help="no effect here: --jobs fans out batch, sweep and "
                      "audit shards, while a litmus check is one task that "
                      "checks all its models in one pipeline",
        )],
        help="check one library litmus test against the three models",
    )
    p.add_argument("name", nargs="?", help="litmus test name (omit to list)")
    p.add_argument("--model", choices=("drf0", "drf1", "drfrlx"),
                   help="check a single model (default: all three)")
    p.add_argument("--list", action="store_true", help="list the library")
    p.add_argument("--json", action="store_true",
                   help="emit the v1 response envelope (one JSON line) "
                        "instead of per-model text; exit 0 ok / 1 verdict "
                        "mismatch / 2 request error")
    _add_check_engine(p)
    p.set_defaults(func=cmd_litmus)

    p = sub.add_parser(
        "fuzz", parents=[shared],
        help="differential litmus fuzzing: generate seeded random "
             "programs, check them through every engine configuration "
             "via the batched pipeline, minimize and bank any verdict "
             "divergence; 'fuzz replay PATH' re-checks a banked case "
             "(see docs/fuzzing.md)",
    )
    p.add_argument("replay", nargs="*", metavar="replay PATH",
                   help="replay banked corpus case(s) instead of running "
                        "a campaign: print the per-configuration verdict "
                        "table, exit 1 on divergence")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign PRNG seed; same seed + count = same "
                        "programs, bit for bit (default 0)")
    p.add_argument("--count", type=int, default=500,
                   help="programs to generate and check (default 500)")
    p.add_argument("--budget", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget; the campaign stops early and "
                        "reports how far it got (default: none)")
    p.add_argument("--bank-dir", default=None, metavar="DIR",
                   help="where minimized divergence reproducers are "
                        "banked (default: the packaged "
                        "litmus/corpus/fuzz/ directory)")
    p.add_argument("--no-bank", action="store_true",
                   help="report divergences without writing corpus files")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "serve", parents=[shared],
        help="run the checker as a service: v1 JSON requests over "
             "stdin-JSONL (default) or HTTP (--http HOST:PORT); "
             "see docs/serve.md",
    )
    p.add_argument("--http", default=None, metavar="HOST:PORT",
                   help="serve HTTP instead of stdin-JSONL (POST a request "
                        "to any path; GET /healthz for status); port 0 "
                        "picks a free port")
    p.add_argument("--queue-limit", type=int, default=64, metavar="N",
                   help="bound on buffered requests; past it HTTP answers "
                        "429/busy and stdin stops reading (default 64)")
    p.add_argument("--concurrency", type=int, default=None, metavar="N",
                   help="in-flight request cap (default: the worker count)")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
