"""Programmer-centric checkers for DRF0, DRF1, and DRFrlx.

Each checker answers the paper's program-definition question: *is this
program race-free under the model's rules, over every SC execution?*
(For DRFrlx, over every SC execution of the quantum-equivalent program —
Section 3.4.3.)

The three models differ only in (a) how labels are interpreted and (b)
which race classes are illegal:

========  =======================================  ==============================
model     label interpretation                     illegal races
========  =======================================  ==============================
DRF0      every atomic is paired                   data races
DRF1      paired / everything else unpaired        data races
DRFrlx    all six classes honored                  data, commutative,
                                                   non-ordering, quantum,
                                                   speculative
========  =======================================  ==============================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.executions import (
    SCEnumeration,
    enumerate_sc_executions,
    static_step_bound,
)
from repro.core.labels import ATOMIC_KINDS, AtomicKind
from repro.core.quantum import quantum_equivalent
from repro.core.races import Race, RaceAnalysis, race_signature
from repro.litmus.program import Program
from repro.obs.metrics import record_resolution

MODELS = ("drf0", "drf1", "drfrlx")

#: The checking engines ``check(engine=...)`` accepts.  ``"enum"`` is the
#: explicit interleaving enumerator (the oracle), ``"sat"`` the
#: solver-backed class enumerator (:mod:`repro.solver`), ``"auto"``
#: routes each prepared program to whichever of the two the calibrated
#: cost model (:mod:`repro.solver.router`) predicts faster.
ENGINES = ("enum", "sat", "auto")

#: Fallback gate for ``engine="auto"`` when no router calibration is
#: loadable (mirrors :data:`repro.solver.router.GATE_STEPS`): stay on
#: the enumerator when the prepared program's static step bound is at or
#: below this.  See the crossover measurements in docs/performance.md.
SMALL_PROGRAM_STEPS = 4

from repro.core.labels import effective_kind

_DRF0_RELABEL = {kind: effective_kind(kind, "drf0") for kind in ATOMIC_KINDS}
_DRF1_RELABEL = {kind: effective_kind(kind, "drf1") for kind in ATOMIC_KINDS}

_ILLEGAL_CLASSES = {
    "drf0": ("data",),
    "drf1": ("data",),
    "drfrlx": ("data", "commutative", "non_ordering", "quantum", "speculative"),
}


@dataclass(frozen=True)
class RaceWitness:
    """A race found in a specific SC execution."""

    execution_index: int
    race: Race

    def __repr__(self) -> str:
        return f"RaceWitness(exec={self.execution_index}, {self.race!r})"


@dataclass(frozen=True)
class CheckResult:
    """Verdict of a programmer-centric model check."""

    program_name: str
    model: str
    legal: bool
    witnesses: Tuple[RaceWitness, ...]
    executions_explored: int
    truncated_paths: int
    checked_program: Program  # the (possibly relabeled/transformed) program
    #: Distinct race-relevant execution classes seen (== executions when
    #: deduplication is off or every execution is its own class).
    execution_classes: int = 0
    #: Race analyses actually run (<= executions_explored under dedup).
    analyses_run: int = 0
    #: The checking engine that actually ran ("enum" or "sat") — under
    #: ``engine="auto"`` or a solver capacity fallback this records the
    #: resolved choice, not the request.
    engine: str = "enum"
    #: Every race kind found across all execution classes.  Unlike
    #: ``witnesses`` this is never truncated by ``max_witnesses``, so it
    #: (and the ``race_kinds`` verdict built on it) is independent of
    #: enumeration order and of the checking engine.
    found_race_kinds: Tuple[str, ...] = ()
    #: Solver work accounting (a :class:`repro.solver.bridge.SolverStats`)
    #: when the sat engine produced this result; None under enum.  The
    #: integer counters are deterministic; the wall times are not.
    solver_stats: Optional[object] = None

    @property
    def race_kinds(self) -> Tuple[str, ...]:
        if self.found_race_kinds:
            return self.found_race_kinds
        return tuple(sorted({w.race.kind for w in self.witnesses}))

    def summary(self) -> str:
        verdict = "LEGAL" if self.legal else "ILLEGAL"
        kinds = ",".join(self.race_kinds) or "-"
        return (
            f"{self.program_name}: {self.model.upper()} {verdict} "
            f"(races: {kinds}; {self.executions_explored} SC executions)"
        )


def _program_key(program: Program) -> Optional[Tuple]:
    """Structural identity of a program, or ``None`` when unhashable
    (custom AST nodes); used to memoize the per-model preparation."""
    try:
        key = (program.name, program.threads, tuple(sorted(program.init.items())))
        hash(key)
    except TypeError:
        return None
    return key


#: (program key, model) -> prepared program.  DRFrlx preparation runs the
#: quantum transformation; without this memo every ``check`` call on the
#: same litmus test rebuilds the quantum-equivalent program from scratch.
_PREPARED_MEMO: Dict[Tuple, Program] = {}
_PREPARED_MEMO_MAX = 512


def _prepare_uncached(program: Program, model: str) -> Program:
    if model == "drf0":
        return program.relabel(_DRF0_RELABEL)
    if model == "drf1":
        return program.relabel(_DRF1_RELABEL)
    if model == "drfrlx":
        # DRFrlx has no scopes: a locally scoped paired atomic is
        # checked as a (global) paired atomic.
        program = program.relabel({AtomicKind.PAIRED_LOCAL: AtomicKind.PAIRED})
        return quantum_equivalent(program)
    raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")


def _prepare(program: Program, model: str) -> Program:
    key = _program_key(program)
    if key is None:
        return _prepare_uncached(program, model)
    memo_key = (key, model)
    prepared = _PREPARED_MEMO.get(memo_key)
    if prepared is None:
        prepared = _prepare_uncached(program, model)
        if len(_PREPARED_MEMO) >= _PREPARED_MEMO_MAX:
            _PREPARED_MEMO.clear()
        _PREPARED_MEMO[memo_key] = prepared
    return prepared


class ClassifiedRaces(tuple):
    """The ``(witnesses, execution_classes, analyses_run)`` triple of
    :func:`classify_enumeration`, unpacking exactly like the plain tuple
    it used to be, plus the full ``race_kinds`` union as an attribute.
    The witness list is capped by ``max_witnesses`` in enumeration
    order; ``race_kinds`` never is, so verdict surfaces built on it do
    not depend on which engine (or which interleaving order) produced
    the enumeration."""

    def __new__(cls, witnesses, execution_classes, analyses_run, race_kinds):
        self = super().__new__(cls, (witnesses, execution_classes, analyses_run))
        self.race_kinds = race_kinds
        return self


def classify_enumeration(
    enumeration: SCEnumeration,
    model: str,
    max_witnesses: int = 32,
    backend: Optional[str] = None,
    dedup: bool = True,
    exhaustive: bool = True,
) -> "ClassifiedRaces":
    """Race-classify every execution of *enumeration* under *model*.

    Returns ``(witnesses, execution_classes, analyses_run)`` (a
    :class:`ClassifiedRaces`, which also carries the uncapped
    ``race_kinds`` union).  This is the analysis half of :func:`check`,
    split out so the bench harness can time it against a shared
    enumeration.

    ``dedup=True`` projects each execution to its race-relevant
    signature (:func:`repro.core.races.race_signature`) and analyzes one
    representative per equivalence class; every member execution still
    reports the class's races under its own execution index, so the
    witness list is identical to the exhaustive per-execution scan
    (modulo internal event ids, which do not print).  ``backend``
    selects the relation backend for the analysis (see
    :mod:`repro.core.relations`).  ``exhaustive=False`` is the
    early-exit witness mode: stop at the first illegal race — same
    verdict, at most one witness.
    """
    classes = _ILLEGAL_CLASSES[model]
    witnesses: List[RaceWitness] = []
    class_races: Dict[int, Tuple[Race, ...]] = {}
    #: signature -> small class id; one hash of the (large) signature
    #: tuple per execution, everything downstream keys on the id.
    class_ids: Dict[Tuple, int] = {}
    intern: Dict[Tuple, int] = {}  # shared event-key interning (see race_signature)
    kinds_seen: set = set()
    analyses = 0
    _UNSEEN = object()
    for idx, execution in enumerate(enumeration.executions):
        races_found = _UNSEEN
        if dedup:
            sig_id = class_ids.setdefault(
                race_signature(execution, intern), len(class_ids)
            )
            races_found = class_races.get(sig_id, _UNSEEN)
        if races_found is _UNSEEN:
            execution.set_backend(backend)
            analysis = RaceAnalysis(execution)
            analyses += 1
            if exhaustive:
                races_found = analysis.illegal_races(classes)
            else:
                first = analysis.first_illegal_race(classes)
                races_found = (first,) if first is not None else ()
            if dedup:
                class_races[sig_id] = races_found
        if races_found:
            kinds_seen.update(race.kind for race in races_found)
            for race in races_found:
                if len(witnesses) < max_witnesses:
                    witnesses.append(RaceWitness(idx, race))
                else:
                    break
            if not exhaustive and witnesses:
                break
    n_classes = len(class_ids) if dedup else analyses
    return ClassifiedRaces(
        tuple(witnesses), n_classes, analyses, tuple(sorted(kinds_seen))
    )


def check(
    program: Program,
    model: str,
    max_executions: Optional[int] = None,
    max_witnesses: int = 32,
    naive: bool = False,
    cache=None,
    backend: Optional[str] = None,
    dedup: bool = True,
    exhaustive: bool = True,
    tracer=None,
    engine: str = "enum",
) -> CheckResult:
    """Check *program* against one of the three models.

    Enumerates every SC execution of the (relabeled / quantum-transformed)
    program and classifies every race.  ``max_witnesses`` caps how many
    race witnesses are retained; legality is still decided over all
    executions explored.  ``naive=True`` uses the unreduced enumeration
    engine (the oracle for equivalence tests).  ``cache`` (a
    :data:`repro.perf.cache.CacheSpec`) memoizes the enumeration on
    disk, keyed by the prepared program and the enumerator sources.

    ``backend`` picks the relation representation (``"dense"`` bitsets,
    ``"pairs"`` frozensets, ``None``/``"auto"`` chooses); ``dedup``
    analyzes one representative per race-relevant execution class (the
    default — verdicts and witnesses are identical either way);
    ``exhaustive=False`` stops at the first illegal race, returning at
    most one witness (same verdict, less work on illegal programs);
    ``tracer`` records the enumeration's search events (see
    :mod:`repro.obs` — the per-request trace capture behind the
    service's ``options.trace`` flag).

    ``engine`` selects the checking engine (one of :data:`ENGINES`):
    ``"enum"`` walks every interleaving explicitly, ``"sat"`` enumerates
    race-relevant execution classes with the CDCL solver of
    :mod:`repro.solver` (one model per class — verdicts and printed
    witnesses are identical, but ``executions_explored`` counts classes
    and ``truncated_paths`` counts locally truncated thread branches),
    and ``"auto"`` consults the calibrated cost model of
    :mod:`repro.solver.router` (falling back to the static
    :data:`SMALL_PROGRAM_STEPS` gate without a calibration).  The
    solver engine falls back to the enumerator when the program exceeds
    its grounding capacity (deep loops, huge value domains);
    ``naive=True`` always uses the enumerator.
    :attr:`CheckResult.engine` records the resolved choice.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    prepared = _prepare(program, model)
    engine_used = "enum"
    enumeration = None
    use_sat = engine == "sat"
    if engine == "auto" and not naive:
        from repro.solver.router import decide

        route = decide(prepared)
        use_sat = route.engine == "sat"
        record_resolution("check_engine_route", f"{route.source}:{route.engine}")
    if use_sat and not naive:
        from repro.solver import SolverCapacityError, sat_enumeration

        try:
            enumeration = sat_enumeration(
                prepared, max_executions=max_executions, cache=cache,
                tracer=tracer,
            )
            engine_used = "sat"
        except SolverCapacityError:
            pass  # fall back to the explicit enumerator
    if enumeration is None:
        enumeration = enumerate_sc_executions(
            prepared, max_executions=max_executions, naive=naive, cache=cache,
            tracer=tracer,
        )
    record_resolution("check_engine", engine_used)
    classified = classify_enumeration(
        enumeration,
        model,
        max_witnesses=max_witnesses,
        backend=backend,
        dedup=dedup,
        exhaustive=exhaustive,
    )
    witnesses, n_classes, analyses = classified
    return CheckResult(
        program_name=program.name,
        model=model,
        legal=not witnesses,
        witnesses=witnesses,
        executions_explored=len(enumeration.executions),
        truncated_paths=enumeration.truncated_paths,
        checked_program=prepared,
        execution_classes=n_classes,
        analyses_run=analyses,
        engine=engine_used,
        found_race_kinds=classified.race_kinds,
        solver_stats=getattr(enumeration, "solver_stats", None),
    )


def check_all_models(
    program: Program,
    max_executions: Optional[int] = None,
    backend: Optional[str] = None,
    engine: str = "enum",
) -> Dict[str, CheckResult]:
    """Run all three checkers; the per-model verdict table of Section 3.8."""
    return {
        model: check(program, model, max_executions, backend=backend,
                     engine=engine)
        for model in MODELS
    }
