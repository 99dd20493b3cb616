"""Throughput-oriented bulk checking: ``check_many``.

Checking N programs as N independent :func:`repro.core.model.check`
calls pays program preparation, enumeration, classification, router
dispatch, and cache-store traffic from scratch for every (program,
model) cell.  A fuzzing campaign checks hundreds of structurally tiny
programs across all three models, and almost all of that work is
shared:

- **Preparation coincides across models.**  ``drf0``/``drf1``/``drfrlx``
  prepare a program by relabeling (and, for drfrlx, the quantum
  transformation) — for programs whose labels the models interpret the
  same way (e.g. data+paired only), the three prepared programs are
  structurally identical, so one SC enumeration serves all three.
- **Preparation coincides across programs.**  Random generators emit
  structural twins under different names; enumeration and
  classification depend only on structure, so twins share both.
- **Classification coincides across models.**  drf0 and drf1 flag the
  same illegal class set (data races), so even when their witness scan
  must run it runs once.
- **Store traffic batches.**  One :class:`repro.perf.cache.BatchHandle`
  per worker serves repeat reads within a call from memory and flushes
  writes per bin, instead of an open/encode/replace per check.

``check_many`` materializes the batch, predicts per-program cost with
the :mod:`repro.solver.router` feature vector, packs cost-balanced bins
(LPT — one heavy chain must not serialize a bin of tiny MPs), and ships
bins to the warm :mod:`repro.perf.pool` executor; worker-resident memos
(prepared programs, enumerations, classifications, the SharedCore memo
inside :mod:`repro.solver.bridge`) persist across bins for the life of
the worker.  Results stream back in input order and are byte-identical
to per-program ``check`` (compare :func:`repro.api.core._check_payload`
encodings).
"""

from __future__ import annotations

import gc
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.events import Event, Execution
from repro.core.executions import (
    SCEnumeration,
    enumerate_sc_executions,
    static_step_bound,
)
from repro.core.labels import AtomicKind, effective_kind
from repro.core.model import (
    ENGINES,
    MODELS,
    CheckResult,
    ClassifiedRaces,
    RaceWitness,
    _ILLEGAL_CLASSES,
    _prepare_uncached,
    classify_enumeration,
)
from repro.core.races import RaceAnalysis, race_signature
from repro.litmus.program import Program
from repro.obs.metrics import RUNTIME, metric, record_resolution
from repro.perf.cache import BatchHandle, CacheSpec, ResultCache, resolve_cache
from repro.perf.pool import parallel_map, resolve_jobs

BATCH_CHECKS = metric(
    "batch_check", "batch", unit="checks", doc="(program, model) cells checked in bulk"
)
BATCH_ENUM_SHARED = metric(
    "batch_enum_shared", "batch", unit="checks",
    doc="bulk checks served from an already-enumerated structural twin",
)

#: Worker-resident memo caps.  A batch of 500 programs x 3 models tops
#: out well under these for typical fuzz distributions; clearing on
#: overflow (like the prepared-program memo in ``repro.core.model``)
#: bounds memory without bookkeeping on the hot path.
_MEMO_MAX = 2048

#: How many programs a bulk loop checks between explicit cycle
#: collections while the automatic collector is paused (see
#: :func:`_gc_paused`).
_GC_EVERY = 256


class _gc_paused:
    """Pause the cyclic garbage collector around a bulk checking loop.

    Checking allocates container objects at a rate that trips the
    collector's allocation thresholds constantly, and every automatic
    collection eventually re-scans the batch's live memos (enumerations
    held for sharing), so collection costs grow with exactly the state
    that makes the batch fast — measured ~30% of the serial loop on a
    500-program batch.  Refcounting still reclaims all acyclic garbage
    immediately; pausing only defers *cycle* reclamation.

    While the collector is paused nothing is promoted, so everything
    allocated during the loop sits in generation 0; the explicit
    ``gc.collect(0)`` sweeps on exit (and every :data:`_GC_EVERY`
    programs) therefore scan only this call's allocations — never the
    older generations holding the long-lived memos — keeping the sweep
    cost proportional to the work done, even when ``check_many`` is
    called repeatedly against warm state (the API layer's 25-program
    shards).  Restores the collector's prior state even on error, and
    is a no-op if the caller already had it disabled.
    """

    def __enter__(self):
        self._was_enabled = gc.isenabled()
        if self._was_enabled:
            gc.disable()
        return self

    def __exit__(self, *exc):
        if self._was_enabled:
            gc.collect(0)
            gc.enable()
        return False


class _BatchState:
    """Per-process state kept alive across bins (module-global in each
    pool worker, so the second bin a worker receives starts warm)."""

    def __init__(self) -> None:
        #: (raw structural key, model) -> (prepared program, prep key)
        self.prepared: Dict[Tuple, Tuple[Program, Tuple]] = {}
        #: (raw structural key, enum knobs) -> label-bearing base
        #: SCEnumeration of the *original* program
        self.base_enums: Dict[Tuple, object] = {}
        #: (enum key) -> (enumeration, engine_used); enum keys name
        #: either a relabeled view of a base enumeration or a
        #: prepared-program enumeration (sat / quantum paths)
        self.enums: Dict[Tuple, Tuple[object, str]] = {}
        #: (enum key, illegal classes, classify knobs) -> ClassifiedRaces
        self.classified: Dict[Tuple, object] = {}
        #: prep key -> RouterDecision (engine="auto" routing)
        self.decisions: Dict[Tuple, object] = {}
        #: cache root -> BatchHandle over the disk store
        self.handles: Dict[str, BatchHandle] = {}
        #: shared event-key interning for cross-enumeration signatures
        #: (see :func:`repro.core.races.race_signature`: signatures are
        #: only comparable under one intern dict)
        self.sig_intern: Dict[Tuple, int] = {}
        #: (signature, class, backend) -> that class's race pool of the
        #: first execution analyzed with that signature, batch-wide
        self.race_memo: Dict[Tuple, Tuple] = {}
        #: (signature, classes, backend) -> the concatenated
        #: ``illegal_races(classes)`` tuple; one lookup on the
        #: per-execution hot path (repeated signatures are the common
        #: case), backed by the per-class pools above on miss
        self.race_combined: Dict[Tuple, Tuple] = {}

    def trim(self) -> None:
        """End-of-call (and end-of-bin) cleanup: release the handles'
        flushed entries and drop the memos once any outgrows its bound."""
        for handle in self.handles.values():
            handle.release()
        if (
            len(self.enums) > _MEMO_MAX
            or len(self.base_enums) > _MEMO_MAX
            or len(self.prepared) > _MEMO_MAX
            or len(self.race_memo) > 8 * _MEMO_MAX
        ):
            self.prepared.clear()
            self.base_enums.clear()
            self.enums.clear()
            self.classified.clear()
            self.decisions.clear()
            self.sig_intern.clear()
            self.race_memo.clear()
            self.race_combined.clear()


_STATE = _BatchState()


def clear_batch_state() -> None:
    """Drop all worker-resident memos (tests and bench fairness)."""
    global _STATE
    _STATE = _BatchState()


def _raw_key(program: Program) -> Tuple:
    """Structural identity of a program, name excluded — preparation,
    enumeration, and classification are all invariant under renaming."""
    return (repr(program.threads), tuple(sorted(program.init.items())))


def _prepare_shared(state: _BatchState, program: Program, raw: Tuple,
                    model: str) -> Tuple[Program, Tuple]:
    """The prepared program for (*program*, *model*), shared across
    structural twins.  Returns ``(prepared, prep_key)`` where the key
    identifies the prepared structure (what enumeration depends on)."""
    memo_key = (raw, model)
    hit = state.prepared.get(memo_key)
    if hit is None:
        prepared = _prepare_uncached(program, model)
        prep_key = (repr(prepared.threads), tuple(sorted(prepared.init.items())))
        state.prepared[memo_key] = hit = (prepared, prep_key)
    prepared, prep_key = hit
    if prepared.name != program.name:
        # A twin's preparation: reuse the relabeled thread bodies (the
        # expensive part) under this program's own name, so
        # ``checked_program`` matches what per-program check returns.
        prepared = Program(program.name, prepared.threads, prepared.init)
    return prepared, prep_key


#: model -> label map the model's preparation applies to every label
#: (data maps to itself under every model).
_MODEL_RELABEL = {
    model: {kind: effective_kind(kind, model) for kind in AtomicKind}
    for model in MODELS
}


def _label_signature(program: Program, model: str) -> Tuple:
    """The model's label map restricted to the kinds *program* uses —
    two models whose maps agree on this alphabet produce identical
    prepared programs, enumerations, and (for equal illegal-class sets)
    classifications."""
    mapping = _MODEL_RELABEL[model]
    return tuple(
        sorted((kind.name, mapping[kind].name) for kind in program.kinds_used())
    )


def _relabel_enumeration(base, prepared: Program, model: str):
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
                ex.rmw_info, backend=getattr(ex, "_backend", None),
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


def _effective_classes(illegal: Tuple[str, ...], alphabet) -> Tuple[str, ...]:
    return tuple(
        cls
        for cls in illegal
        if cls not in _CLASS_REQUIRED_LABEL
        or _CLASS_REQUIRED_LABEL[cls] in alphabet
    )


def _classify_shared(
    state: _BatchState,
    enumeration,
    model: str,
    classes: Tuple[str, ...],
    options: Dict,
) -> "ClassifiedRaces":
    """Race-classify with the per-signature work shared batch-wide.

    :func:`repro.core.model.classify_enumeration` already deduplicates
    executions by :func:`repro.core.races.race_signature`, whose
    contract is that signature-equal executions have *identical, printed
    identically* race analyses.  The same contract holds across
    enumerations under one shared intern dict, so the batch keeps one
    ``(signature, classes, backend) -> races`` memo: tiny random
    programs collide on signatures constantly (same handful of message-
    passing / store-buffering shapes under different names and thread
    orders), and each shape's analysis runs once per batch instead of
    once per program.

    The byte-level accounting matches ``classify_enumeration`` with
    ``dedup=True``: ``n_classes`` and ``analyses_run`` both equal the
    number of distinct signatures *within this enumeration* (what the
    per-program checker would have computed and reported), regardless of
    how many were served from the batch memo.  Non-default modes
    (``dedup=False``, ``exhaustive=False``) change that accounting, so
    they fall back to the stock classifier.
    """
    if not options["dedup"] or not options["exhaustive"]:
        return classify_enumeration(
            enumeration,
            model,
            max_witnesses=options["max_witnesses"],
            backend=options["backend"],
            dedup=options["dedup"],
            exhaustive=options["exhaustive"],
        )
    backend = options["backend"]
    max_witnesses = options["max_witnesses"]
    intern = state.sig_intern
    memo = state.race_memo
    combined = state.race_combined
    witnesses: List[RaceWitness] = []
    class_ids: Dict[Tuple, int] = {}
    kinds_seen: set = set()
    for idx, execution in enumerate(enumeration.executions):
        # Execution objects are shared wherever relabeling left them
        # untouched (base enum vs. per-model views), so memoize the
        # signature on the execution, tagged with the intern dict the
        # same way the per-event memo inside race_signature is.
        d = execution.__dict__
        cached_sig = d.get("_batch_sig")
        if cached_sig is None or cached_sig[0] is not intern:
            sig = race_signature(execution, intern)
            d["_batch_sig"] = (intern, sig)
        else:
            sig = cached_sig[1]
        class_ids.setdefault(sig, len(class_ids))
        # Repeated signatures are the common case (that is what the
        # checker's dedup exploits), so the per-execution hot path is a
        # single lookup of the concatenated result.  On miss,
        # ``illegal_races(classes)`` is reproduced byte-for-byte from
        # its definition — the per-class pools concatenated in class
        # order — with each pool memoized per (sig, class) so models
        # with overlapping class sets share them: drfrlx reuses the
        # "data" pool drf0/drf1 already computed instead of re-deriving.
        combined_key = (sig, classes, backend)
        races = combined.get(combined_key)
        if races is None:
            races_list: List = []
            analysis = None
            for cls in classes:
                memo_key = (sig, cls, backend)
                pool = memo.get(memo_key)
                if pool is None:
                    if analysis is None:
                        execution.set_backend(backend)
                        analysis = RaceAnalysis(execution)
                    pool = analysis.illegal_races((cls,))
                    memo[memo_key] = pool
                races_list.extend(pool)
            races = tuple(races_list)
            combined[combined_key] = races
        if races:
            kinds_seen.update(race.kind for race in races)
            for race in races:
                if len(witnesses) < max_witnesses:
                    witnesses.append(RaceWitness(idx, race))
                else:
                    break
    n_classes = len(class_ids)
    return ClassifiedRaces(
        tuple(witnesses), n_classes, n_classes, tuple(sorted(kinds_seen))
    )


def _check_one(
    state: _BatchState,
    program: Program,
    raw: Tuple,
    model: str,
    options: Dict,
    cache,
) -> CheckResult:
    """One (program, model) cell through the shared-state pipeline.

    Mirrors :func:`repro.core.model.check` decision-for-decision (auto
    routing, solver capacity fallback) so results are byte-identical;
    only the *work* is memoized, never the verdict logic.
    """
    engine = options["engine"]
    naive = options["naive"]
    max_executions = options["max_executions"]
    prepared, prep_key = _prepare_shared(state, program, raw, model)

    use_sat = engine == "sat" and not naive
    if engine == "auto" and not naive:
        decision = state.decisions.get(prep_key)
        if decision is None:
            from repro.solver.router import decide

            decision = decide(prepared)
            state.decisions[prep_key] = decision
        use_sat = decision.engine == "sat"
        record_resolution("check_engine_route",
                          f"{decision.source}:{decision.engine}")

    # The SAT engine enumerates race-relevant *classes*, whose structure
    # depends on labels, so it runs against the prepared program; the
    # quantum transformation changes program structure outright.  Both
    # memoize per prepared structure.  Everything else shares one
    # label-bearing base enumeration of the original program and derives
    # each model's view by relabeling events (see
    # :func:`_relabel_enumeration`).
    quantum_prep = model == "drfrlx" and program.uses_quantum()
    if use_sat or quantum_prep:
        enum_key = ("prep", prep_key, max_executions, naive, use_sat)
        hit = state.enums.get(enum_key)
        if hit is None:
            enumeration = None
            engine_used = "enum"
            if use_sat:
                from repro.solver import SolverCapacityError, sat_enumeration

                try:
                    enumeration = sat_enumeration(
                        prepared, max_executions=max_executions, cache=cache
                    )
                    engine_used = "sat"
                except SolverCapacityError:
                    enumeration = None
            if enumeration is None:
                enumeration = enumerate_sc_executions(
                    prepared, max_executions=max_executions, naive=naive,
                    cache=cache,
                )
            state.enums[enum_key] = hit = (enumeration, engine_used)
        else:
            RUNTIME.bump(BATCH_ENUM_SHARED)
        enumeration, engine_used = hit
    else:
        base_key = (raw, max_executions, naive)
        base = state.base_enums.get(base_key)
        if base is None:
            base = enumerate_sc_executions(
                program, max_executions=max_executions, naive=naive,
                cache=cache,
            )
            state.base_enums[base_key] = base
        else:
            RUNTIME.bump(BATCH_ENUM_SHARED)
        enum_key = ("relabel", base_key, _label_signature(program, model))
        hit = state.enums.get(enum_key)
        if hit is None:
            enumeration = _relabel_enumeration(base, prepared, model)
            state.enums[enum_key] = hit = (enumeration, "enum")
        enumeration, engine_used = hit
    record_resolution("check_engine", engine_used)

    # Key classification by the *achievable* illegal classes: classes
    # whose label the prepared program never uses have provably empty
    # pools (each needs its label on one side of the race), so e.g.
    # drfrlx shares drf0/drf1's classification outright on data/paired-
    # only programs (same enum key, same effective set).
    effective = _effective_classes(_ILLEGAL_CLASSES[model], prepared.kinds_used())
    classify_key = (
        enum_key,
        effective,
        options["max_witnesses"],
        options["backend"],
        options["dedup"],
        options["exhaustive"],
    )
    classified = state.classified.get(classify_key)
    if classified is None:
        classified = _classify_shared(state, enumeration, model, effective,
                                      options)
        state.classified[classify_key] = classified
    witnesses, n_classes, analyses = classified
    RUNTIME.bump(BATCH_CHECKS)
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


def _bin_cache(state: _BatchState, cache_root: Optional[str]):
    if cache_root is None:
        return None
    handle = state.handles.get(cache_root)
    if handle is None:
        handle = BatchHandle(ResultCache(cache_root))
        state.handles[cache_root] = handle
    return handle


def _check_bin(task) -> List[Tuple[int, CheckResult]]:
    """Check one bin of (index, program) pairs; the pool worker entry
    point.  Uses the module-global state so consecutive bins on the
    same worker share memos."""
    items, models, options, cache_root = task
    state = _STATE
    cache = _bin_cache(state, cache_root)
    out: List[Tuple[int, CheckResult]] = []
    with _gc_paused():
        for count, (index, program) in enumerate(items, 1):
            raw = _raw_key(program)
            for offset, model in enumerate(models):
                out.append(
                    (index + offset, _check_one(state, program, raw, model,
                                                options, cache))
                )
            if count % _GC_EVERY == 0:
                gc.collect(0)
    if cache is not None:
        cache.flush()
    state.trim()
    return out


def _predicted_cost(program: Program) -> float:
    """Relative cost weight for LPT binning, from the router's
    calibrated predictions when available; the static step bound's
    exponential growth proxy otherwise."""
    try:
        from repro.core.model import _prepare
        from repro.solver.router import decide

        decision = decide(_prepare(program, "drf0"))
        predicted = (
            decision.predicted_sat_s
            if decision.engine == "sat"
            else decision.predicted_enum_s
        )
        if predicted is not None and predicted > 0:
            return float(predicted)
    except Exception:
        pass
    return float(2 ** min(static_step_bound(program), 24))


def _pack_bins(
    programs: Sequence[Program], n_bins: int
) -> List[List[Tuple[int, Program]]]:
    """Longest-processing-time-first packing into *n_bins* cost-balanced
    bins.  Indices are model-strided so results re-merge in input
    order."""
    costed = sorted(
        ((i, program, _predicted_cost(program)) for i, program in
         enumerate(programs)),
        key=lambda item: (-item[2], item[0]),
    )
    bins: List[List[Tuple[int, Program]]] = [[] for _ in range(n_bins)]
    loads = [0.0] * n_bins
    for index, program, cost in costed:
        target = min(range(n_bins), key=lambda b: (loads[b], b))
        bins[target].append((index, program))
        loads[target] += cost
    return [sorted(b) for b in bins if b]


def check_many(
    programs: Iterable[Program],
    models: Sequence[str] = MODELS,
    engine: str = "enum",
    jobs: Optional[int] = None,
    cache: CacheSpec = None,
    max_executions: Optional[int] = None,
    max_witnesses: int = 32,
    naive: bool = False,
    backend: Optional[str] = None,
    dedup: bool = True,
    exhaustive: bool = True,
) -> Iterator[CheckResult]:
    """Check every program against every model, in bulk.

    Yields one :class:`CheckResult` per (program, model) cell in input
    order (program-major, *models*-minor), byte-identical to calling
    :func:`repro.core.model.check` per cell with the same options.
    ``jobs`` follows :func:`repro.perf.pool.resolve_jobs`; with one
    worker the whole batch runs in-process against one shared memo
    (amortization alone), with more the bins go to the warm executor.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    for model in models:
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    programs = list(programs)
    if not programs:
        return
    options = {
        "engine": engine,
        "naive": naive,
        "max_executions": max_executions,
        "max_witnesses": max_witnesses,
        "backend": backend,
        "dedup": dedup,
        "exhaustive": exhaustive,
    }
    base = resolve_cache(cache)
    cache_root = base.root if base is not None else None
    stride = len(models)
    n_jobs = resolve_jobs(jobs, n_tasks=len(programs))

    if n_jobs <= 1:
        # Serial: the whole batch runs in-process against the shared
        # state, no binning or pickling.  The loop runs eagerly under
        # one collector pause (a generator must not toggle gc state
        # across yields — caller code runs between them) and the
        # results stream out afterwards.
        state = _STATE
        handle = _bin_cache(state, cache_root)
        results_serial: List[CheckResult] = []
        with _gc_paused():
            for count, program in enumerate(programs, 1):
                raw = _raw_key(program)
                for model in models:
                    results_serial.append(
                        _check_one(state, program, raw, model, options, handle)
                    )
                if handle is not None:
                    handle.flush()
                if count % _GC_EVERY == 0:
                    gc.collect(0)
        state.trim()
        yield from results_serial
        return

    # Bins carry (result slot, program); slots are model-strided so the
    # merged stream comes back program-major, models-minor.
    tasks = [
        ([(pos * stride, program) for pos, program in bin_],
         tuple(models), options, cache_root)
        for bin_ in _pack_bins(programs, n_jobs)
    ]
    results: Dict[int, CheckResult] = {}
    for chunk in parallel_map(_check_bin, tasks, jobs=n_jobs, probe=False):
        for slot, result in chunk:
            results[slot] = result
    for slot in range(len(programs) * stride):
        yield results[slot]
