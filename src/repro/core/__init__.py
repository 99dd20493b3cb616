"""The paper's primary contribution: DRF0/DRF1/DRFrlx formal semantics.

Public surface:

- :func:`repro.core.model.check` / :func:`repro.core.model.check_all_models`
  — programmer-centric race checking of a litmus program,
- :func:`repro.core.executions.enumerate_sc_executions` — exhaustive SC
  interleaving enumeration,
- :class:`repro.core.races.RaceAnalysis` — per-execution race classes,
- :class:`repro.core.herd_model.HerdModel` — the Listing 7 transcription,
- :func:`repro.core.system_model.run_system_model` — the relaxed machine,
- :func:`repro.core.quantum.quantum_equivalent` — the quantum transformation.
"""

from repro._lazy import lazy_exports

#: The checking engines ``check(engine=...)`` accepts.  ``"enum"`` is the
#: explicit interleaving enumerator (the oracle), ``"sat"`` the
#: solver-backed class enumerator (:mod:`repro.solver`), ``"auto"``
#: routes each prepared program to whichever of the two the calibrated
#: cost model (:mod:`repro.solver.router`) predicts faster.
#: Defined here, not in :mod:`repro.core.model`, so that the CLI parser
#: and the v1 request schema can name them without loading the checker.
ENGINES = ("enum", "sat", "auto")

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.cat_export": ("listing7_cat",),
    "repro.core.executions": ("SCEnumeration", "enumerate_sc_executions"),
    "repro.core.herd_model": ("HerdModel",),
    "repro.core.hrf": ("HrfCheckResult", "check_hrf"),
    "repro.core.labels": ("AtomicKind", "effective_kind", "is_atomic", "is_relaxed"),
    "repro.core.model": ("CheckResult", "check", "check_all_models", "classify_enumeration"),
    "repro.core.pretty": ("explain", "format_execution"),
    "repro.core.quantum": ("default_domain", "quantum_equivalent"),
    "repro.core.races": ("Race", "RaceAnalysis", "race_signature", "writes_commute"),
    "repro.core.relations": ("DenseRelation", "EventIndex", "Relation"),
    "repro.core.system_model": ("SystemModelReport", "run_system_model"),
})
