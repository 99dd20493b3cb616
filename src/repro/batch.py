"""Throughput-oriented bulk checking: ``check_many``.

Checking N programs as N independent :func:`repro.core.model.check`
calls pays program preparation, enumeration, classification and router
dispatch from scratch for every (program, model) cell.  A fuzzing
campaign checks hundreds of structurally tiny programs across all three
models, and almost all of that work is shared.  ``check_many`` runs each bin of programs through one
:class:`repro.core.model.Pipeline` — the same pipeline ``check`` runs
one cell through — whose memos share it:

- **Preparation coincides across models.**  ``drf0``/``drf1``/``drfrlx``
  prepare a program by relabeling (and, for drfrlx, the quantum
  transformation); SC enumeration never branches on labels, so one base
  enumeration, relabeled per model, serves all three.
- **Preparation coincides across programs.**  Random generators emit
  structural twins under different names; enumeration and
  classification depend only on structure, so twins share both.
- **Classification coincides across models and programs.**  Race pools
  are memoized per race signature, so each execution shape is analyzed
  once per bin.

Nothing here touches the on-disk result cache: a served ``batch``
request caches its whole response (:mod:`repro.api.core`), never the
enumerations behind it.

``check_many`` materializes the batch, weighs each program by its
static step bound, packs cost-balanced bins
(LPT — one heavy chain must not serialize a bin of tiny MPs), and ships
bins to the warm :mod:`repro.perf.pool` executor; with one worker the
whole batch is one bin checked in-process.  A bin's memos live as long
as the bin.  Results stream back in input order and are byte-identical
to per-program ``check`` (compare :func:`repro.api.core._check_payload`
encodings).
"""

from __future__ import annotations

import gc
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.executions import static_step_bound
from repro.core.model import ENGINES, MODELS, CheckResult, Pipeline
from repro.litmus.program import Program
from repro.obs.metrics import RUNTIME, metric
from repro.perf.pool import parallel_map, resolve_jobs

BATCH_CHECKS = metric(
    "batch_check", "batch", unit="checks", doc="(program, model) cells checked in bulk"
)

#: How many programs a bin checks between explicit cycle collections
#: while the automatic collector is paused (see :func:`_gc_paused`).
_GC_EVERY = 256


class _gc_paused:
    """Pause the cyclic garbage collector around a bulk checking loop.

    Checking allocates container objects at a rate that trips the
    collector's allocation thresholds constantly, and every automatic
    collection re-scans the bin's live memos (enumerations held for
    sharing), so collection costs grow with exactly the state that makes
    the batch fast — measured ~30% of the serial loop on a 500-program
    batch.  Refcounting still reclaims all acyclic garbage immediately;
    pausing only defers *cycle* reclamation.

    While the collector is paused nothing is promoted, so everything
    allocated during the loop sits in generation 0; the explicit
    ``gc.collect(0)`` sweeps on exit (and every :data:`_GC_EVERY`
    programs) therefore scan only this loop's allocations, keeping the
    sweep cost proportional to the work done.  Restores the collector's
    prior state even on error, and is a no-op if the caller already had
    it disabled.
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


def clear_batch_state() -> None:
    """No-op: checking memos live for one call (one bin), so there is
    no process-wide state to clear.  Kept for callers that reset it
    between timed runs."""


def _check_bin(task) -> List[Tuple[int, CheckResult]]:
    """Check one bin of (result slot, program) pairs against every
    model through one fresh pipeline; the pool worker entry point."""
    items, models, options = task
    out: List[Tuple[int, CheckResult]] = []
    with _gc_paused():
        pipeline = Pipeline(**options)
        for count, (slot, program) in enumerate(items, 1):
            for offset, result in enumerate(pipeline.check_models(program, models)):
                out.append((slot + offset, result))
            if count % _GC_EVERY == 0:
                gc.collect(0)
        # Drop the bin's memos before the sweep on leaving, so that it
        # scans what they leave behind rather than walking them live.
        del pipeline
    RUNTIME.bump(BATCH_CHECKS, len(out))
    return out


def _predicted_cost(program: Program) -> float:
    """Relative cost weight for LPT binning: the static step bound's
    exponential growth proxy."""
    return float(2 ** min(static_step_bound(program), 24))


def _pack_bins(
    programs: Sequence[Program], n_bins: int
) -> List[List[Tuple[int, Program]]]:
    """Longest-processing-time-first packing into *n_bins* cost-balanced
    bins of (input position, program) pairs."""
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
    cache=None,
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
    worker the whole batch is one bin checked in-process, with more the
    bins go to the warm executor.  ``cache`` is accepted and ignored
    (see the module docstring), and so is ``backend``: relations have
    one representation (:class:`repro.core.relations.DenseRelation`).
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
        "dedup": dedup,
        "exhaustive": exhaustive,
    }
    stride = len(models)
    n_jobs = resolve_jobs(jobs, n_tasks=len(programs))
    # Bins carry (result slot, program); slots are model-strided so the
    # merged stream comes back program-major, models-minor.
    bins = [list(enumerate(programs))] if n_jobs <= 1 else _pack_bins(programs, n_jobs)
    tasks = [
        ([(pos * stride, program) for pos, program in bin_],
         tuple(models), options)
        for bin_ in bins
    ]
    if n_jobs <= 1:
        # Serial: run the one bin in-process, eagerly (a generator must
        # not toggle the collector's state across yields — caller code
        # runs between them), then stream the results out.
        for _slot, result in _check_bin(tasks[0]):
            yield result
        return
    results: Dict[int, CheckResult] = {}
    for chunk in parallel_map(_check_bin, tasks, jobs=n_jobs, probe=False):
        for slot, result in chunk:
            results[slot] = result
    for slot in range(len(programs) * stride):
        yield results[slot]
