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

from repro.core.cat_export import listing7_cat
from repro.core.executions import SCEnumeration, enumerate_sc_executions
from repro.core.hrf import HrfCheckResult, check_hrf
from repro.core.pretty import explain, format_execution
from repro.core.herd_model import HerdModel
from repro.core.labels import AtomicKind, effective_kind, is_atomic, is_relaxed
from repro.core.model import CheckResult, check, check_all_models, classify_enumeration
from repro.core.quantum import default_domain, quantum_equivalent
from repro.core.races import Race, RaceAnalysis, race_signature, writes_commute
from repro.core.relations import (
    BACKENDS,
    DenseRelation,
    EventIndex,
    Relation,
    resolve_backend,
)
from repro.core.system_model import SystemModelReport, run_system_model

__all__ = [
    "AtomicKind",
    "BACKENDS",
    "CheckResult",
    "DenseRelation",
    "EventIndex",
    "HerdModel",
    "Race",
    "RaceAnalysis",
    "Relation",
    "SCEnumeration",
    "SystemModelReport",
    "check",
    "check_all_models",
    "check_hrf",
    "classify_enumeration",
    "explain",
    "format_execution",
    "listing7_cat",
    "default_domain",
    "effective_kind",
    "enumerate_sc_executions",
    "is_atomic",
    "is_relaxed",
    "quantum_equivalent",
    "race_signature",
    "resolve_backend",
    "run_system_model",
    "writes_commute",
]
