"""Parallel verdict audit of the litmus corpus.

Re-checks every ``*.litmus`` file against the verdicts declared in its
``# expect:`` header, fanning the per-file work (parse + enumerate + race
classification for each declared model) out over a process pool.  Each
worker re-reads its file from disk, so only the path crosses the process
boundary.

Each file is one shard of the v1 ``audit`` request (``python -m repro
audit``).  Nothing here touches the on-disk result cache: a repeated
audit is answered by the request's cached response
(:mod:`repro.api.core`), never by cached enumerations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.model import Pipeline
from repro.litmus.corpus import CORPUS_DIR, _parse_expectations
from repro.litmus.dsl import parse
from repro.perf.pool import parallel_map


@dataclass(frozen=True)
class AuditResult:
    """Verdict comparison for one corpus file."""

    name: str
    path: str
    #: model -> (expected legal, actual legal, actual race kinds)
    verdicts: Dict[str, Tuple[bool, bool, Tuple[str, ...]]]
    #: model -> checking engine that actually ran ("enum" or "sat").
    engines: Dict[str, str] = field(default_factory=dict)
    #: model -> deterministic solver counters (decisions, conflicts,
    #: propagations, ...) for the models the sat engine checked; empty
    #: for enum-only audits.
    solver_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(exp == act for exp, act, _ in self.verdicts.values())


def _audit_file(task: Tuple[str, Optional[str], bool, str]) -> AuditResult:
    """Worker: parse one corpus file and check every declared model.

    The task is the file path plus the relation ``backend``, ``dedup``
    and checking ``engine`` flags.  One
    :class:`repro.core.model.Pipeline` checks every declared model, so
    the models share one enumeration.
    """
    path, backend, dedup, engine = task
    with open(path) as handle:
        text = handle.read()
    program = parse(text)
    verdicts: Dict[str, Tuple[bool, bool, Tuple[str, ...]]] = {}
    engines: Dict[str, str] = {}
    solver_stats: Dict[str, Dict[str, int]] = {}
    expected = sorted(_parse_expectations(text).items())
    pipeline = Pipeline(backend=backend, dedup=dedup, engine=engine)
    results = pipeline.check_models(program, [model for model, _ in expected])
    for (model, (legal, _kinds)), result in zip(expected, results):
        verdicts[model] = (legal, result.legal, result.race_kinds)
        engines[model] = result.engine
        stats = getattr(result, "solver_stats", None)
        if stats is not None:
            solver_stats[model] = dict(stats.counters(), shared=stats.shared)
    return AuditResult(name=program.name, path=path, verdicts=verdicts,
                       engines=engines, solver_stats=solver_stats)


def audit_corpus(
    directory: str = CORPUS_DIR,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    dedup: bool = True,
    engine: str = "enum",
) -> Tuple[AuditResult, ...]:
    """Audit every corpus file; results in sorted-filename order.

    ``backend``/``dedup`` select the relation backend and
    execution-class deduplication for every check, and ``engine`` the
    checking engine (the verdicts are identical in all combinations;
    these are perf knobs).  Each result records the engine that actually
    ran per model in :attr:`AuditResult.engines`.
    """
    tasks = [
        (os.path.join(directory, filename), backend, dedup, engine)
        for filename in sorted(os.listdir(directory))
        if filename.endswith(".litmus")
    ]
    return tuple(parallel_map(_audit_file, tasks, jobs=jobs))
