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

Every checking entry point — :func:`check`, :func:`check_all_models`,
the corpus audit and :func:`repro.batch.check_many` — runs its
(program, model) cells through one :class:`Pipeline`: prepare → route →
enumerate (or solve) → classify.  A pipeline's memos share work between
the cells of one call and die with it; nothing is kept for the life of
the process.

The pipeline classifies with the one-pass race kernel
(:mod:`repro.core.race_kernel`); :func:`classify_enumeration` runs the
oracle, :class:`repro.core.races.RaceAnalysis`, and so do ``naive=True``
and the non-default modes ``dedup=False`` and ``exhaustive=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import ENGINES
from repro.core.events import Event, Execution
from repro.core.executions import SCEnumeration, enumerate_sc_executions
from repro.core.labels import AtomicKind, effective_kind
from repro.core.paths import Operation
from repro.core.quantum import quantum_equivalent
from repro.core.race_kernel import race_pools
from repro.core.races import Race, RaceAnalysis, race_signature
from repro.litmus.program import Program, structure_key
from repro.obs.metrics import RUNTIME, metric, record_resolution

MODELS = ("drf0", "drf1", "drfrlx")

#: model -> label map the model's preparation applies to every label
#: (data maps to itself under every model).
_MODEL_RELABEL = {
    model: {kind: effective_kind(kind, model) for kind in AtomicKind}
    for model in MODELS
}

_ILLEGAL_CLASSES = {
    "drf0": ("data",),
    "drf1": ("data",),
    "drfrlx": ("data", "commutative", "non_ordering", "quantum", "speculative"),
}

#: Each race class can only fire when one of the racing operations
#: carries its label (see the per-class filters in
#: :mod:`repro.core.races`): an enumeration whose label alphabet lacks
#: the label has a provably empty pool for that class.  Dropping such
#: classes from the classification key is therefore lossless — the
#: result tuple is identical — and lets e.g. drfrlx share a
#: classification with drf0/drf1 on data/paired-only programs.  The
#: alphabet that matters is the *instruction* kinds: race candidates are
#: lifted from ``program_events`` only, so the always-DATA init writes
#: never reach a pool and an all-atomic program provably has no data
#: races.
_CLASS_REQUIRED_LABEL = {
    "data": AtomicKind.DATA,
    "commutative": AtomicKind.COMMUTATIVE,
    "non_ordering": AtomicKind.NON_ORDERING,
    "quantum": AtomicKind.QUANTUM,
    "speculative": AtomicKind.SPECULATIVE,
}

ENUM_SHARED = metric(
    "batch_enum_shared", "batch", unit="checks",
    doc="checks served from an enumeration made earlier in the same call",
)


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


def _prepare(program: Program, model: str) -> Program:
    """*program* as *model* sees it: labels mapped to the ones the model
    honors, and for DRFrlx the quantum-equivalent program."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    prepared = program.relabel(_MODEL_RELABEL[model])
    return quantum_equivalent(prepared) if model == "drfrlx" else prepared


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
    ``race_kinds`` union).  This is the unshared classifier over
    :class:`repro.core.races.RaceAnalysis`: the ``naive=True`` oracle's
    last stage, and the reference the :class:`Pipeline`'s call-wide
    race-kernel classifier must match.

    ``dedup=True`` projects each execution to its race-relevant
    signature (:func:`repro.core.races.race_signature`) and analyzes one
    representative per equivalence class; every member execution still
    reports the class's races under its own execution index, so the
    witness list is identical to the exhaustive per-execution scan
    (modulo internal event ids, which do not print).
    ``exhaustive=False`` is the early-exit witness mode: stop at the
    first illegal race — same verdict, at most one witness.  ``backend``
    is accepted and ignored, like ``cache=`` elsewhere: relations have
    one representation (:class:`repro.core.relations.DenseRelation`).
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


def _label_signature(program: Program, model: str) -> Tuple:
    """The model's label map restricted to the kinds *program* uses —
    two models whose maps agree on this alphabet produce identical
    prepared programs, enumerations, and (for equal illegal-class sets)
    classifications."""
    mapping = _MODEL_RELABEL[model]
    return tuple(
        sorted((kind.name, mapping[kind].name) for kind in program.kinds_used())
    )


def _relabel_enumeration(base: SCEnumeration, prepared: Program,
                         model: str) -> SCEnumeration:
    """The enumeration of *prepared* derived from the label-bearing
    *base* enumeration of the original program.

    SC exploration never branches on atomic labels — events merely carry
    them — so the executions of a relabeled program are the executions
    of the original with each event's label mapped, in the same order
    and with identical work accounting.  (Event canonical keys include
    ``(tid, po_index)``, which already uniquely identify an instruction
    instance, so the label adds no discriminating power to the POR memo
    or the dedup either.)  Rebuilding events is O(events); all derived
    relations are eid-based and label-independent, so they copy by
    reference.
    """
    mapping = _MODEL_RELABEL[model]
    if all(mapping[kind] is kind for kind in base.program.kinds_used()):
        return base
    executions = []
    #: base event -> relabeled event, shared across executions (the
    #: enumerator shares Event objects along common interleaving
    #: prefixes; preserving that sharing keeps the per-event key/hash
    #: and signature memos warm).  Events whose label the model maps to
    #: itself — every data access, every init write — are reused as-is.
    relabeled: Dict[int, Event] = {}
    for ex in base.executions:
        changed = False
        events = []
        for e in ex.events:
            label = mapping[e.label]
            if label is e.label:
                events.append(e)
                continue
            changed = True
            twin = relabeled.get(id(e))
            if twin is None:
                twin = Event(e.eid, e.tid, e.kind, e.loc, e.value, label,
                             e.po_index, e.is_init)
                relabeled[id(e)] = twin
            events.append(twin)
        if not changed:
            # Identical event sequence -> identical execution: share the
            # object (and its lazily cached relations) outright.
            executions.append(ex)
            continue
        executions.append(
            Execution(
                tuple(events), ex.order, ex._rf_map, ex._rmw_pairs,
                ex._dep_edges, ex.final_memory, ex.final_registers,
                ex.rmw_info,
            )
        )
    return SCEnumeration(
        program=prepared,
        executions=tuple(executions),
        truncated_paths=base.truncated_paths,
        interleavings=base.interleavings,
        stats=base.stats,
        solver_stats=base.solver_stats,
    )


def _effective_classes(illegal: Tuple[str, ...], alphabet) -> Tuple[str, ...]:
    return tuple(
        cls
        for cls in illegal
        if cls not in _CLASS_REQUIRED_LABEL
        or _CLASS_REQUIRED_LABEL[cls] in alphabet
    )


def _result(program: Program, model: str, prepared: Program,
            enumeration: SCEnumeration, engine_used: str,
            classified: ClassifiedRaces) -> CheckResult:
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


class Pipeline:
    """The checking pipeline: prepare → route → enumerate → classify.

    One instance serves one call — :func:`check` (one cell),
    :func:`check_all_models` and the corpus audit (one program's
    models), one bin of :func:`repro.batch.check_many` — and its memos
    share work between that call's cells:

    - **Preparation** is memoized per (structure, model), so structural
      twins under different names share it.
    - **Routing** (``engine="auto"``) is decided once per prepared
      structure.
    - **Enumeration.**  SC exploration never branches on atomic labels,
      so each model's enumeration is a relabeled view of one
      label-bearing *base* enumeration of the original program
      (:func:`_relabel_enumeration`).  The SAT engine (whose classes
      depend on labels), DRFrlx's quantum transformation (which changes
      structure) and traced checks (whose tracer records the prepared
      program's search) enumerate the prepared program instead,
      memoized per prepared structure.
    - **Classification** runs the race kernel, is memoized per
      (enumeration, achievable illegal classes), and the per-signature
      race pools are shared across all the call's enumerations
      (:meth:`_classify`).

    ``naive=True`` bypasses every memo: the oracle prepares, enumerates
    with the naive interleaver and runs :func:`classify_enumeration`.
    Otherwise results are byte-identical to the unshared composition
    ``classify_enumeration(enumerate_sc_executions(_prepare(p, m)), m)``
    (or its ``sat_enumeration`` counterpart); only the work is shared,
    never the verdict logic.  The options are :func:`check`'s.
    """

    def __init__(
        self,
        engine: str = "enum",
        naive: bool = False,
        max_executions: Optional[int] = None,
        max_witnesses: int = 32,
        dedup: bool = True,
        exhaustive: bool = True,
        tracer=None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.engine = engine
        self.naive = naive
        self.max_executions = max_executions
        self.max_witnesses = max_witnesses
        self.dedup = dedup
        self.exhaustive = exhaustive
        self.tracer = tracer
        #: (structure key, model) -> (prepared program, prepared key)
        self.prepared: Dict[Tuple, Tuple[Program, Tuple]] = {}
        #: prepared key -> RouterDecision
        self.decisions: Dict[Tuple, object] = {}
        #: structure key -> base enumeration of the original program
        self.base_enums: Dict[Tuple, SCEnumeration] = {}
        #: enumeration key -> (enumeration, engine used)
        self.enums: Dict[Tuple, Tuple[SCEnumeration, str]] = {}
        #: (enumeration key, illegal classes) -> ClassifiedRaces
        self.classified: Dict[Tuple, ClassifiedRaces] = {}
        #: shared event-key interning: signatures are only comparable
        #: under one intern dict (see :func:`repro.core.races.race_signature`)
        self.sig_intern: Dict[Tuple, int] = {}
        #: (signature, class) -> (operations, that class's pool of
        #: operation-index pairs); see :func:`repro.core.race_kernel.race_pools`
        self.race_memo: Dict[Tuple, Tuple] = {}
        #: (signature, classes) -> the concatenated pools (see :meth:`_combine`)
        self.race_combined: Dict[Tuple, Tuple] = {}

    def check_models(self, program: Program,
                     models: Sequence[str]) -> List[CheckResult]:
        """One :class:`CheckResult` per model, in *models* order."""
        if self.naive:
            return [self._oracle(program, model) for model in models]
        structure = structure_key(program)
        return [self._check_cell(program, structure, model) for model in models]

    def _oracle(self, program: Program, model: str) -> CheckResult:
        prepared = _prepare(program, model)
        enumeration = enumerate_sc_executions(
            prepared, max_executions=self.max_executions, naive=True,
            tracer=self.tracer,
        )
        record_resolution("check_engine", "enum")
        classified = classify_enumeration(
            enumeration, model, max_witnesses=self.max_witnesses,
            dedup=self.dedup, exhaustive=self.exhaustive,
        )
        return _result(program, model, prepared, enumeration, "enum", classified)

    def _check_cell(self, program: Program, structure: Tuple,
                    model: str) -> CheckResult:
        prepared, prep_key = self._prepare(program, structure, model)
        use_sat = self._use_sat(prepared, prep_key)
        if use_sat or self.tracer is not None or (
            model == "drfrlx" and program.uses_quantum()
        ):
            enum_key = ("prepared", prep_key, use_sat)
            hit = self.enums.get(enum_key)
            if hit is None:
                hit = self.enums[enum_key] = self._enumerate(prepared, use_sat)
            else:
                RUNTIME.bump(ENUM_SHARED)
        else:
            base = self.base_enums.get(structure)
            if base is None:
                base = self.base_enums[structure] = enumerate_sc_executions(
                    program, max_executions=self.max_executions
                )
            else:
                RUNTIME.bump(ENUM_SHARED)
            enum_key = ("relabeled", structure, _label_signature(program, model))
            hit = self.enums.get(enum_key)
            if hit is None:
                hit = self.enums[enum_key] = (
                    _relabel_enumeration(base, prepared, model), "enum"
                )
        enumeration, engine_used = hit
        record_resolution("check_engine", engine_used)
        classes = _effective_classes(_ILLEGAL_CLASSES[model], prepared.kinds_used())
        classify_key = (enum_key, classes)
        classified = self.classified.get(classify_key)
        if classified is None:
            classified = self.classified[classify_key] = self._classify(
                enumeration, model, classes
            )
        return _result(program, model, prepared, enumeration, engine_used,
                       classified)

    def _prepare(self, program: Program, structure: Tuple,
                 model: str) -> Tuple[Program, Tuple]:
        """``(prepared program, its structure key)``, shared by twins."""
        hit = self.prepared.get((structure, model))
        if hit is None:
            prepared = _prepare(program, model)
            hit = self.prepared[(structure, model)] = (
                prepared, structure_key(prepared)
            )
        prepared, prep_key = hit
        if prepared.name != program.name:
            # A twin's preparation: reuse the relabeled thread bodies (the
            # expensive part) under this program's own name, so
            # ``checked_program`` carries the checked program's name.
            prepared = Program(program.name, prepared.threads, prepared.init)
        return prepared, prep_key

    def _use_sat(self, prepared: Program, prep_key: Tuple) -> bool:
        if self.engine != "auto":
            return self.engine == "sat"
        decision = self.decisions.get(prep_key)
        if decision is None:
            from repro.solver.router import decide

            decision = self.decisions[prep_key] = decide(prepared)
        record_resolution("check_engine_route", decision.engine)
        return decision.engine == "sat"

    def _enumerate(self, prepared: Program,
                   use_sat: bool) -> Tuple[SCEnumeration, str]:
        """Enumerate the prepared program itself; the solver engine
        falls back to the enumerator past its grounding capacity."""
        if use_sat:
            from repro.solver import SolverCapacityError, sat_enumeration

            try:
                return sat_enumeration(
                    prepared, max_executions=self.max_executions,
                    tracer=self.tracer,
                ), "sat"
            except SolverCapacityError:
                pass  # fall back to the explicit enumerator
        return enumerate_sc_executions(
            prepared, max_executions=self.max_executions, tracer=self.tracer,
        ), "enum"

    def _classify(self, enumeration: SCEnumeration, model: str,
                  classes: Tuple[str, ...]) -> ClassifiedRaces:
        """Race-classify with the one-pass kernel, the per-signature work
        shared call-wide.

        :func:`classify_enumeration` already deduplicates executions by
        :func:`repro.core.races.race_signature`, whose contract is that
        signature-equal executions have *identical, printed identically*
        race analyses.  The same contract holds across enumerations
        under one shared intern dict, so the pipeline keeps one
        ``(signature, class) -> pool`` memo: tiny random programs
        collide on signatures constantly (the same handful of message-
        passing / store-buffering shapes under different names and
        thread orders), and each shape's pools are computed once per
        call instead of once per program.

        Pools come from :func:`repro.core.race_kernel.race_pools` as
        operation-index pairs; :class:`Race` objects are built only for
        the witnesses a cell keeps (at most ``max_witnesses``).  The
        result is byte-identical to :func:`classify_enumeration` with
        ``dedup=True``, including its accounting: ``n_classes`` and
        ``analyses_run`` both equal the number of distinct signatures
        *within this enumeration*, however many were served from the
        memo.  Non-default modes (``dedup=False``, ``exhaustive=False``)
        change that accounting, so those run the stock classifier.
        """
        if not self.dedup or not self.exhaustive:
            return classify_enumeration(
                enumeration, model, max_witnesses=self.max_witnesses,
                dedup=self.dedup, exhaustive=self.exhaustive,
            )
        max_witnesses = self.max_witnesses
        intern = self.sig_intern
        combined = self.race_combined
        witnesses: List[RaceWitness] = []
        class_ids: Dict[Tuple, int] = {}
        kinds_seen: set = set()
        for idx, execution in enumerate(enumeration.executions):
            # Execution objects are shared wherever relabeling left them
            # untouched (base enum vs. per-model views), so memoize the
            # signature on the execution, tagged with the intern dict
            # (executions, unlike a solver core's events, die with the
            # call, so the tag pins nothing past it).
            d = execution.__dict__
            cached_sig = d.get("_batch_sig")
            if cached_sig is None or cached_sig[0] is not intern:
                sig = race_signature(execution, intern)
                d["_batch_sig"] = (intern, sig)
            else:
                sig = cached_sig[1]
            class_ids.setdefault(sig, len(class_ids))
            # Repeated signatures are the common case (that is what the
            # checker's dedup exploits), so the per-execution hot path is
            # a single lookup of the concatenated result.  On a miss the
            # pools are concatenated in class order, as
            # ``illegal_races(classes)`` does, each memoized per
            # (sig, class) so models with overlapping class sets share
            # them: drfrlx reuses the "data" pool drf0/drf1 computed.
            entry = combined.get((sig, classes))
            if entry is None:
                entry = combined[(sig, classes)] = self._combine(
                    execution, sig, classes
                )
            kinds, pairs, races = entry
            if kinds:
                kinds_seen.update(kinds)
                for k in range(min(len(pairs), max_witnesses - len(witnesses))):
                    race = races[k]
                    if race is None:
                        kind, ops, first, second = pairs[k]
                        race = races[k] = Race(
                            kind, Operation(ops[first]), Operation(ops[second])
                        )
                    witnesses.append(RaceWitness(idx, race))
        n_classes = len(class_ids)
        return ClassifiedRaces(
            tuple(witnesses), n_classes, n_classes, tuple(sorted(kinds_seen))
        )

    def _combine(self, execution: Execution, sig: Tuple,
                 classes: Tuple[str, ...]) -> Tuple:
        """``(kinds, pairs, races)`` of one signature: the race kinds
        found, the concatenated pools as ``(kind, ops, first, second)``
        entries, and a slot per entry for its :class:`Race`, which
        :meth:`_classify` builds the first time a witness shows it."""
        memo = self.race_memo
        missing = tuple(cls for cls in classes if (sig, cls) not in memo)
        if missing:
            ops, pools = race_pools(execution, missing)
            for cls, pool in zip(missing, pools):
                memo[(sig, cls)] = (ops, pool)
        pairs: List[Tuple] = []
        for cls in classes:
            ops, pool = memo[(sig, cls)]
            pairs.extend((cls, ops, first, second) for first, second in pool)
        kinds = tuple(cls for cls in classes if memo[(sig, cls)][1])
        return kinds, pairs, [None] * len(pairs)


def check(
    program: Program,
    model: str,
    max_executions: Optional[int] = None,
    max_witnesses: int = 32,
    naive: bool = False,
    cache=None,
    dedup: bool = True,
    exhaustive: bool = True,
    tracer=None,
    engine: str = "enum",
) -> CheckResult:
    """Check *program* against one of the three models.

    Enumerates every SC execution of the (relabeled / quantum-transformed)
    program and classifies every race: the one-cell case of the
    :class:`Pipeline` that :func:`repro.batch.check_many` runs per bin.
    ``max_witnesses`` caps how many race witnesses are retained;
    legality is still decided over all executions explored.
    ``naive=True`` runs the oracle: the unreduced enumeration engine and
    the unshared classifier.  ``cache`` is accepted and ignored: only
    whole responses are cached on disk (see :func:`repro.api.check_program`).

    ``dedup`` analyzes one representative per race-relevant execution
    class (the default — verdicts and witnesses are identical either
    way); ``exhaustive=False`` stops at the first illegal race, returning at
    most one witness (same verdict, less work on illegal programs);
    ``tracer`` records the prepared program's search events (see
    :mod:`repro.obs` — the per-request trace capture behind the
    service's ``options.trace`` flag).

    ``engine`` selects the checking engine (one of :data:`ENGINES`):
    ``"enum"`` walks every interleaving explicitly, ``"sat"`` enumerates
    race-relevant execution classes with the CDCL solver of
    :mod:`repro.solver` (one model per class — verdicts and printed
    witnesses are identical, but ``executions_explored`` counts classes
    and ``truncated_paths`` counts locally truncated thread branches),
    and ``"auto"`` applies the static rule of :mod:`repro.solver.router`
    (the solver iff the prepared program has no RMW and its interleaving
    bound exceeds :data:`~repro.solver.router.SAT_THRESHOLD`).
    The solver engine falls back to the enumerator when the program
    exceeds its grounding capacity (deep loops, huge value domains);
    ``naive=True`` always uses the enumerator.
    :attr:`CheckResult.engine` records the resolved choice.
    """
    pipeline = Pipeline(
        engine=engine, naive=naive, max_executions=max_executions,
        max_witnesses=max_witnesses, dedup=dedup,
        exhaustive=exhaustive, tracer=tracer,
    )
    return pipeline.check_models(program, (model,))[0]


def check_all_models(
    program: Program,
    max_executions: Optional[int] = None,
    engine: str = "enum",
) -> Dict[str, CheckResult]:
    """Run all three checkers; the per-model verdict table of Section 3.8.
    One pipeline serves the three, so they share one enumeration."""
    pipeline = Pipeline(engine=engine, max_executions=max_executions)
    return dict(zip(MODELS, pipeline.check_models(program, MODELS)))
