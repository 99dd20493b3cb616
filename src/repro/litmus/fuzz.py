"""Differential litmus fuzzing: generate, bulk-check, diff, minimize, bank.

ROADMAP item 1 asks for diy-style random litmus generation feeding a
differential harness over every checking configuration the repo has
grown: naive vs partial-order-reduced enumeration, the race kernel vs
the per-execution oracle classifier, the enum vs SAT engines, and cold
vs cached runs.  All of those compute the same programmer-centric verdict, so any
disagreement on ``(legal, race_kinds)`` for any model is a bug in one
of them — the fuzzer's job is to find such programs, shrink them, and
keep them.

The pipeline:

1. :func:`generate` — a seeded random program generator.  Programs are
   small (bounded :func:`~repro.core.executions.static_step_bound`),
   span threads x locations x the five relaxed-atomic classes x
   branches/RMWs, and stay inside the text DSL (no havoc values, no
   computed addresses) so every generated program can be rendered,
   re-parsed, and banked as a ``.litmus`` file.  The same seed yields a
   byte-identical program list on every run.
2. :func:`run_campaign` — reference verdicts come from one bulk
   :func:`repro.batch.check_many` call (the fuzz campaign is the batch
   engine's flagship workload); every differential configuration then
   re-checks each program and compares verdicts.
3. :func:`minimize` — delta debugging: greedily drop threads and
   instructions while the divergence predicate still holds.
4. :func:`bank_divergence` — write the minimized program into
   ``litmus/corpus/fuzz/`` with its reference expectations, making the
   disagreement a permanent regression test (the directory is collected
   by the tier-1 pytest run).

``python -m repro fuzz`` drives the campaign; ``python -m repro fuzz
replay <case>`` re-checks a banked case across every configuration.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.labels import AtomicKind
from repro.core.model import MODELS, CheckResult, check
from repro.litmus.ast import BinOp, Const, If, Instr, Load, Loc, Reg, Rmw, Store
from repro.litmus.corpus import CORPUS_DIR
from repro.litmus.program import Program, Thread
from repro.litmus.render import render
from repro.obs.metrics import RUNTIME, metric

# -- observability -------------------------------------------------------------

FUZZ_PROGRAMS = metric(
    "fuzz_program", "fuzz", unit="programs", doc="programs generated by fuzz campaigns"
)
FUZZ_CHECKS = metric(
    "fuzz_check", "fuzz", unit="checks", doc="(program, model, config) checks run"
)
FUZZ_DIVERGENCES = metric(
    "fuzz_divergence", "fuzz", unit="cases",
    doc="engine verdict disagreements found",
)

#: Where banked divergences live.  A subdirectory of the curated corpus:
#: :func:`repro.litmus.corpus.load_corpus` and the audit digest list the
#: corpus directory non-recursively, so banking new cases here never
#: perturbs existing audit results or cache keys.
FUZZ_CORPUS_DIR = os.path.join(CORPUS_DIR, "fuzz")

# -- generator -----------------------------------------------------------------

#: Cap on a generated program's static step bound.  Keeps every program
#: enumerable in milliseconds while still spanning the small-program
#: gate (<= 4 steps) and the POR/solver regime above it.
MAX_PROGRAM_STEPS = 10

_LOCATIONS = ("x", "y", "z")

#: Label palettes the generator draws from, with draw weights.  The
#: taxonomy follows the paper's model ladder: "sync" is plain SC-for-DRF
#: (data + paired atomics — every model prepares these identically),
#: "acqrel" is the release/acquire extension of drf1, and "relaxed"
#: spans unpaired plus the five relaxed-atomic classes of Table 2.  The
#: mix is throughput-oriented: most programs come from the small sync
#: palette, because differential fuzzing earns its keep on volume —
#: every engine must agree on the common path first — while the other
#: palettes keep the full label vocabulary in steady rotation.
_PALETTES: Tuple[Tuple[str, int, Tuple[Tuple[AtomicKind, int], ...]], ...] = (
    ("sync", 6, ((AtomicKind.DATA, 3), (AtomicKind.PAIRED, 2))),
    (
        "acqrel",
        2,
        (
            (AtomicKind.DATA, 2),
            (AtomicKind.PAIRED, 2),
            (AtomicKind.ACQUIRE, 2),
            (AtomicKind.RELEASE, 2),
        ),
    ),
    (
        "relaxed",
        2,
        (
            (AtomicKind.DATA, 3),
            (AtomicKind.PAIRED, 1),
            (AtomicKind.UNPAIRED, 2),
            (AtomicKind.COMMUTATIVE, 2),
            (AtomicKind.NON_ORDERING, 1),
            (AtomicKind.SPECULATIVE, 1),
            (AtomicKind.QUANTUM, 1),
        ),
    ),
)

_RMW_OPS = ("add", "add", "exch", "cas")


def _weighted(rng: Random, pairs):
    total = sum(weight for _item, weight in pairs)
    pick = rng.randrange(total)
    for item, weight in pairs:
        pick -= weight
        if pick < 0:
            return item
    raise AssertionError("unreachable")


def _store_kind(kind: AtomicKind) -> AtomicKind:
    """Acquire is a load label; stores get release instead."""
    return AtomicKind.RELEASE if kind is AtomicKind.ACQUIRE else kind


def _load_kind(kind: AtomicKind) -> AtomicKind:
    """Release is a store label; loads get acquire instead."""
    return AtomicKind.ACQUIRE if kind is AtomicKind.RELEASE else kind


def _rmw_kind(kind: AtomicKind) -> AtomicKind:
    """RMWs take the symmetric labels; acquire/release collapse to paired."""
    if kind in (AtomicKind.ACQUIRE, AtomicKind.RELEASE):
        return AtomicKind.PAIRED
    return kind


class _ThreadGen:
    """Generates one thread's body, tracking defined registers and the
    static step bound it contributes."""

    def __init__(self, rng: Random, locs: Sequence[str], kinds, reg_base: int):
        self.rng = rng
        self.locs = locs
        self.kinds = kinds
        self.regs: List[str] = []
        self.next_reg = reg_base
        self.steps = 0

    def _loc(self) -> Loc:
        return Loc(self.rng.choice(self.locs))

    def _kind(self) -> AtomicKind:
        return _weighted(self.rng, self.kinds)

    def _fresh_reg(self) -> str:
        name = f"r{self.next_reg}"
        self.next_reg += 1
        self.regs.append(name)
        return name

    def _value(self):
        if self.regs and self.rng.random() < 0.25:
            return Reg(self.rng.choice(self.regs))
        # Litmus idiom: message/flag values 1 and 2 (0 is the implicit
        # initial value, so writing it rarely distinguishes executions).
        return Const(self.rng.randrange(1, 3))

    def _memory_instr(self) -> Instr:
        roll = self.rng.random()
        if roll < 0.4:
            return Store(self._loc(), self._value(), _store_kind(self._kind()))
        if roll < 0.75:
            return Load(self._fresh_reg(), self._loc(), _load_kind(self._kind()))
        op = self.rng.choice(_RMW_OPS)
        operand = Const(self.rng.randrange(1, 3))
        operand2 = Const(self.rng.randrange(2)) if op == "cas" else None
        return Rmw(self._fresh_reg(), self._loc(), op, operand, operand2,
                   _rmw_kind(self._kind()))

    def body(self, budget: int) -> Tuple[Instr, ...]:
        out: List[Instr] = []
        n = self.rng.randint(1, 3)
        for _ in range(n):
            if self.steps >= budget:
                break
            # A branch on an observed value (control dependency) when a
            # register is available; plain memory instruction otherwise.
            if self.regs and self.steps + 1 < budget and self.rng.random() < 0.25:
                cond = BinOp(
                    self.rng.choice(("==", "!=")),
                    Reg(self.rng.choice(self.regs)),
                    Const(self.rng.randrange(2)),
                )
                # Registers defined inside the branch are conditionally
                # assigned; they must not leak into later conditions or
                # store values (reading an unset register is an error).
                saved = list(self.regs)
                then = (self._memory_instr(),)
                self.regs = saved
                out.append(If(cond, then))
                self.steps += 1
            else:
                out.append(self._memory_instr())
                self.steps += 1
        return tuple(out)


def generate_program(seed: int, index: int) -> Program:
    """The ``index``-th program of campaign ``seed`` (order-independent:
    any single program can be regenerated without its predecessors)."""
    rng = Random((seed << 20) ^ index)
    name = f"fuzz_{seed}_{index:04d}"
    n_threads = 3 if rng.random() < 0.35 else 2
    n_locs = 3 if rng.random() < 0.3 else 2
    locs = _LOCATIONS[:n_locs]
    kinds = _weighted(rng, [(p[2], p[1]) for p in _PALETTES])
    if n_threads == 3:
        # Quantum loads havoc over the value domain, and that fan-out
        # compounds with three-thread interleaving counts; keeping
        # quantum in two-thread programs bounds per-program cost the
        # same way the step budget does, without losing coverage.
        kinds = tuple((k, w) for k, w in kinds if k is not AtomicKind.QUANTUM)
    budget = MAX_PROGRAM_STEPS // n_threads
    threads = []
    reg_base = 0
    for _tid in range(n_threads):
        gen = _ThreadGen(rng, locs, kinds, reg_base)
        threads.append(gen.body(budget))
        reg_base = gen.next_reg
    init = {locs[0]: 1} if rng.random() < 0.2 else {}
    return Program(name, threads, init)


def generate(seed: int, count: int) -> List[Program]:
    """*count* deterministic programs for campaign *seed*.

    The same (seed, count) yields a byte-identical program list — i.e.
    ``[render(p) for p in generate(s, n)]`` is reproducible — which is
    what makes campaign reports and banked cases attributable to a
    seed.
    """
    return [generate_program(seed, i) for i in range(count)]


# -- differential configurations -----------------------------------------------

#: The comparison surface.  ``legal`` and ``race_kinds`` are defined to
#: be engine-independent (``found_race_kinds`` is never truncated by
#: ``max_witnesses`` and is order-independent); everything else on a
#: :class:`CheckResult` legitimately varies per engine.
def verdict(result: CheckResult) -> Tuple[bool, Tuple[str, ...]]:
    return (result.legal, tuple(result.race_kinds))


@dataclass(frozen=True)
class FuzzConfig:
    """One differential configuration: a name plus a check callable
    ``(program, model) -> CheckResult``."""

    name: str
    run: Callable[[Program, str], CheckResult]


def _config(name: str, **kwargs) -> FuzzConfig:
    return FuzzConfig(name, lambda program, model: check(program, model, **kwargs))


def default_configs() -> Tuple[FuzzConfig, ...]:
    """The engine matrix checked against the batch reference: the
    reference's own path one program at a time (``enum``), the naive
    oracle, the POR enumeration classified on every execution by
    :class:`~repro.core.races.RaceAnalysis` (``enum-nodedup``), and the
    solver."""
    return (
        _config("enum"),
        _config("enum-naive", naive=True),
        _config("enum-nodedup", dedup=False),
        _config("sat", engine="sat"),
    )


# -- minimizer -----------------------------------------------------------------

def _without_instr(body: Sequence[Instr], skip: int) -> Tuple[Instr, ...]:
    return tuple(instr for i, instr in enumerate(body) if i != skip)


def _reductions(program: Program):
    """Candidate one-step reductions, largest first: drop a thread, drop
    a top-level instruction, hoist a branch body in place of the If."""
    if len(program.threads) > 1:
        for tid in range(len(program.threads)):
            threads = [t.body for i, t in enumerate(program.threads) if i != tid]
            yield Program(program.name, threads, program.init)
    for tid, thread in enumerate(program.threads):
        for pos, instr in enumerate(thread.body):
            threads = [t.body for t in program.threads]
            threads[tid] = _without_instr(thread.body, pos)
            if threads[tid] or len(program.threads) > 1:
                yield Program(program.name, threads, program.init)
            if isinstance(instr, If) and instr.then:
                hoisted = list(thread.body)
                hoisted[pos:pos + 1] = list(instr.then)
                threads = [t.body for t in program.threads]
                threads[tid] = tuple(hoisted)
                yield Program(program.name, threads, program.init)


def minimize(program: Program, diverges: Callable[[Program], bool],
             max_tests: int = 200) -> Program:
    """Greedy delta debugging: repeatedly apply the first reduction that
    still satisfies *diverges*, until none does (1-minimal result).

    The predicate is re-evaluated on every candidate, so the returned
    program is guaranteed to still diverge; *max_tests* bounds the
    number of predicate evaluations for pathological cases.
    """
    tests = 0
    shrinking = True
    while shrinking and tests < max_tests:
        shrinking = False
        for candidate in _reductions(program):
            if not any(t.body for t in candidate.threads):
                continue
            tests += 1
            if tests > max_tests:
                break
            try:
                hit = diverges(candidate)
            except Exception:
                continue  # a reduction may make some engine choke; skip it
            if hit:
                program = candidate
                shrinking = True
                break
    return program


# -- divergence bank -----------------------------------------------------------

@dataclass
class Divergence:
    """One verdict disagreement, with its minimized reproducer."""

    program: Program
    model: str
    config: str
    expected: Tuple[bool, Tuple[str, ...]]
    got: Tuple[bool, Tuple[str, ...]]
    minimized: Optional[Program] = None
    banked_path: Optional[str] = None

    def describe(self) -> str:
        def fmt(v):
            legal, kinds = v
            tag = "legal" if legal else "illegal"
            return f"{tag}({','.join(kinds)})" if kinds else tag

        return (
            f"{self.program.name} [{self.model}] {self.config}: "
            f"expected {fmt(self.expected)}, got {fmt(self.got)}"
        )


def _expectation_line(program: Program) -> str:
    """The ``# expect:`` header from the reference engine's verdicts."""
    parts = []
    for model in MODELS:
        result = check(program, model)
        if result.legal:
            parts.append(f"{model}=legal")
        else:
            parts.append(f"{model}=illegal({','.join(result.race_kinds)})")
    return "# expect: " + " ".join(parts)


def bank_divergence(div: Divergence, directory: str = FUZZ_CORPUS_DIR) -> str:
    """Write the minimized reproducer as a permanent corpus case.

    The banked file records which configuration disagreed and carries
    reference-engine expectations, so the tier-1 corpus tests replay it
    forever.  Returns the path written.
    """
    program = div.minimized if div.minimized is not None else div.program
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{program.name}.litmus")
    header = [
        f"# fuzz divergence: config={div.config} model={div.model}",
        f"# expected {div.expected!r}, got {div.got!r}",
        _expectation_line(program),
    ]
    with open(path, "w") as handle:
        handle.write("\n".join(header) + "\n" + render(program))
    div.banked_path = path
    return path


# -- campaign ------------------------------------------------------------------

@dataclass
class CampaignReport:
    """What ``python -m repro fuzz`` prints."""

    seed: int
    count: int
    programs_checked: int = 0
    checks_run: int = 0
    elapsed_s: float = 0.0
    budget_exhausted: bool = False
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def checks_per_s(self) -> float:
        return self.checks_run / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def summary(self) -> str:
        status = "BUDGET EXHAUSTED" if self.budget_exhausted else "complete"
        lines = [
            f"fuzz seed={self.seed}: {self.programs_checked}/{self.count} programs, "
            f"{self.checks_run} checks in {self.elapsed_s:.1f}s "
            f"({self.checks_per_s:.0f} checks/s), "
            f"{len(self.divergences)} divergence(s) [{status}]"
        ]
        for div in self.divergences:
            lines.append("  DIVERGENCE " + div.describe())
            if div.banked_path:
                lines.append(f"    banked: {div.banked_path}")
        return "\n".join(lines)


def run_campaign(
    seed: int,
    count: int,
    budget_s: Optional[float] = None,
    configs: Optional[Sequence[FuzzConfig]] = None,
    models: Sequence[str] = MODELS,
    bank_dir: Optional[str] = FUZZ_CORPUS_DIR,
    jobs: Optional[int] = None,
) -> CampaignReport:
    """Generate *count* programs and differentially check them.

    Reference verdicts come from one :func:`repro.batch.check_many`
    call; each configuration in *configs* (default
    :func:`default_configs`) then re-checks every program and any
    ``(legal, race_kinds)`` disagreement is minimized and — when
    *bank_dir* is not None — banked as a corpus case.  *budget_s* stops
    the campaign early (reported, never an error).
    """
    # Late: importing the fuzzer does not start loading the process pool.
    from repro.batch import check_many

    if configs is None:
        configs = default_configs()
    report = CampaignReport(seed=seed, count=count)
    started = time.monotonic()
    deadline = started + budget_s if budget_s else None

    programs = generate(seed, count)
    RUNTIME.bump(FUZZ_PROGRAMS, len(programs))

    # Reference verdicts, in bulk.
    reference: Dict[Tuple[str, str], Tuple[bool, Tuple[str, ...]]] = {}
    for result in check_many(programs, models=models, jobs=jobs):
        reference[(result.program_name, result.model)] = verdict(result)
        report.checks_run += 1
    RUNTIME.bump(FUZZ_CHECKS, report.checks_run)

    by_name = {program.name: program for program in programs}
    out_of_budget = False
    for program in programs:
        if deadline is not None and time.monotonic() > deadline:
            out_of_budget = True
            break
        report.programs_checked += 1
        for config in configs:
            for model in models:
                result = config.run(program, model)
                report.checks_run += 1
                RUNTIME.bump(FUZZ_CHECKS)
                got = verdict(result)
                expected = reference[(program.name, model)]
                if got == expected:
                    continue
                RUNTIME.bump(FUZZ_DIVERGENCES)
                div = Divergence(
                    program=by_name[program.name], model=model,
                    config=config.name, expected=expected, got=got,
                )

                def diverges(candidate: Program, _c=config, _m=model) -> bool:
                    return verdict(_c.run(candidate, _m)) != verdict(
                        check(candidate, _m)
                    )

                div.minimized = minimize(program, diverges)
                if bank_dir is not None:
                    bank_divergence(div, bank_dir)
                report.divergences.append(div)

    report.budget_exhausted = out_of_budget
    report.elapsed_s = time.monotonic() - started
    return report


# -- replay --------------------------------------------------------------------

def replay(path: str, models: Sequence[str] = MODELS) -> List[Tuple[str, str, str]]:
    """Re-check a banked case across every configuration.

    Returns ``(config, model, verdict-string)`` rows — the reference
    path, ``enum``, first — for ``python -m repro fuzz replay`` to
    tabulate.
    """
    from repro.litmus.dsl import parse

    with open(path) as handle:
        program = parse(handle.read())
    rows: List[Tuple[str, str, str]] = []
    for config in default_configs():
        for model in models:
            try:
                legal, kinds = verdict(config.run(program, model))
            except Exception as exc:  # a broken engine is itself a verdict
                rows.append((config.name, model, f"error: {exc}"))
                continue
            tag = "legal" if legal else "illegal"
            rows.append(
                (config.name, model, f"{tag}({','.join(kinds)})" if kinds else tag)
            )
    return rows
