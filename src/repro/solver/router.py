"""Calibrated engine router: predict whether enum or sat checks faster.

``model.check(engine="auto")`` has to choose between the explicit
interleaving enumerator and the solver-backed class enumerator *before*
running either.  PR 8 gated on a single static rule (``static_step_bound
> 4``) which BENCH_20260808 shows mispredicts near the crossover — the
solver lost by 30x+ on RMW-heavy two-thread programs it was routed to.
This module replaces the gate with a small cost model:

- :func:`program_features` extracts cheap, deterministic static features
  from the *prepared* program (thread count, static step bound, memory
  op/write counts, an over-approximated value-domain size, havoc/loop
  counts) — nothing here runs the grounding or consults warm caches, so
  the decision is a pure function of the program and the calibration.
- :func:`fit_calibration` fits two log-linear least-squares cost models
  (pure python normal equations, no numpy needed) from measured
  3-model enum vs shared-core sat wall times, as measured by
  :func:`calibrate`.  Training rows where the fitted model would still
  pick the slower engine are written into ``pins`` (exact feature
  vector -> engine), so the router agrees with the measurements on every
  program it was calibrated on by construction.
- :func:`decide` consults the calibration (packaged
  ``solver/calibration.json`` by default, overridable via the
  ``REPRO_CALIBRATION`` env var) and falls back to the old static gate
  when none is loadable.

Refit by running ``python -m repro calibrate --out DIR``, which times
every training program under both engines, fits, checks that the fit
routes each training row to its measured-faster engine, and writes
``DIR/calibration.json``; copy it over the packaged one.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.executions import static_step_bound
from repro.litmus.ast import Load, Rmw, Store, While, If
from repro.litmus.program import Program
from repro.solver.encode import static_memory_ops

#: Env var naming an alternative calibration JSON (tests, experiments).
ENV_CALIBRATION = "REPRO_CALIBRATION"

#: Packaged default calibration, refreshed by :func:`calibrate`.
DEFAULT_CALIBRATION = Path(__file__).with_name("calibration.json")

#: Fallback gate when no calibration is loadable: PR 8's static rule
#: (solver for programs whose static step bound exceeds this).
GATE_STEPS = 4

#: Ordered feature names; the regression design matrix is ``[1.0] +
#: [float(features[name]) for name in FEATURES]`` and the targets are
#: ``log`` wall seconds.
FEATURES = (
    "threads", "steps", "ops", "writes", "rmws",
    "havoc", "whiles", "locs", "domain",
)


@dataclass(frozen=True)
class RouterDecision:
    """One routing decision, with the features and predictions behind it."""

    engine: str  # "enum" | "sat"
    features: Dict[str, int]
    #: "model" (cost model), "pin" (calibrated override) or "gate"
    #: (static fallback, no calibration loaded).
    source: str
    predicted_enum_s: float = 0.0
    predicted_sat_s: float = 0.0

    def payload(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "source": self.source,
            "features": dict(self.features),
            "predicted_enum_s": self.predicted_enum_s,
            "predicted_sat_s": self.predicted_sat_s,
        }


def _count_whiles(program: Program) -> int:
    count = 0

    def walk(body) -> None:
        nonlocal count
        for instr in body:
            if isinstance(instr, While):
                count += 1
                walk(instr.body)
            elif isinstance(instr, If):
                walk(instr.then)
                walk(instr.orelse)

    for thread in program.threads:
        walk(thread.body)
    return count


def program_features(program: Program) -> Dict[str, int]:
    """Deterministic static features of a prepared program.

    ``domain`` over-approximates the per-location value-domain size the
    grounder will reach (initial values plus every statically written or
    havoc'd value) — the feature that separates RMW chains (domains grow
    with the chain, enumeration wins) from wide message-passing tests
    (domains stay tiny, the solver wins).
    """
    ops = static_memory_ops(program)
    loads = stores = rmws = havoc = 0
    values = {program.initial_value(loc) for loc in program.locations()}
    for op in ops:
        if isinstance(op, Load):
            loads += 1
        elif isinstance(op, Store):
            stores += 1
            if isinstance(op.value, int):
                values.add(op.value)
        elif isinstance(op, Rmw):
            rmws += 1
            if isinstance(op.operand, int):
                values.add(op.operand)
            if isinstance(op.operand2, int):
                values.add(op.operand2)
        if op.havoc:
            havoc += 1
            values.update(op.havoc)
    return {
        "threads": len(program.threads),
        "steps": static_step_bound(program),
        "ops": len(ops),
        "writes": stores + rmws,
        "rmws": rmws,
        "havoc": havoc,
        "whiles": _count_whiles(program),
        "locs": len(program.locations()),
        "domain": len(values),
    }


def feature_key(features: Mapping[str, int]) -> str:
    """Canonical string form of a feature vector (the ``pins`` key)."""
    return ",".join(f"{name}={int(features[name])}" for name in FEATURES)


# ---------------------------------------------------------------------------
# Least-squares fit (pure python)
# ---------------------------------------------------------------------------


def _design_row(features: Mapping[str, int]) -> List[float]:
    return [1.0] + [float(features[name]) for name in FEATURES]


def _solve_normal(rows: List[List[float]], targets: List[float]) -> List[float]:
    """Coefficients minimising ||X c - y||² via ridge-stabilised normal
    equations and Gaussian elimination (no numpy dependency)."""
    k = len(rows[0])
    ata = [[sum(r[i] * r[j] for r in rows) for j in range(k)] for i in range(k)]
    aty = [sum(r[i] * y for r, y in zip(rows, targets)) for i in range(k)]
    for i in range(k):  # tiny ridge: keeps collinear features solvable
        ata[i][i] += 1e-6
    aug = [ata[i] + [aty[i]] for i in range(k)]
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(aug[r][col]))
        aug[col], aug[pivot] = aug[pivot], aug[col]
        div = aug[col][col]
        if abs(div) < 1e-12:
            continue
        aug[col] = [v / div for v in aug[col]]
        for row in range(k):
            if row != col and aug[row][col]:
                factor = aug[row][col]
                aug[row] = [v - factor * p for v, p in zip(aug[row], aug[col])]
    return [aug[i][k] for i in range(k)]


def _predict(coef: Sequence[float], features: Mapping[str, int]) -> float:
    """Predicted wall seconds (the model regresses log seconds)."""
    row = _design_row(features)
    return math.exp(sum(c * x for c, x in zip(coef, row)))


def fit_calibration(
    rows: Sequence[Mapping[str, object]], fitted: Optional[str] = None,
) -> Dict[str, object]:
    """Fit a calibration from measured rows.

    Each row carries ``features`` (the :func:`program_features` dict),
    ``enum_s`` and ``sat_s`` — comparable wall times for the same unit of
    work (:func:`measure` uses the full 3-model check, enum vs cold
    shared core).  Rows where ``sat_s`` is None (solver capacity
    fallback) train the enum model only and pin to ``"enum"``.
    """
    design: List[List[float]] = []
    enum_t: List[float] = []
    sat_design: List[List[float]] = []
    sat_t: List[float] = []
    for row in rows:
        x = _design_row(row["features"])
        design.append(x)
        enum_t.append(math.log(max(float(row["enum_s"]), 1e-9)))
        if row.get("sat_s") is not None:
            sat_design.append(x)
            sat_t.append(math.log(max(float(row["sat_s"]), 1e-9)))
    enum_coef = _solve_normal(design, enum_t)
    sat_coef = _solve_normal(sat_design, sat_t) if sat_design else [100.0] + [
        0.0
    ] * len(FEATURES)
    cal: Dict[str, object] = {
        "version": 1,
        "features": list(FEATURES),
        "enum_coef": enum_coef,
        "sat_coef": sat_coef,
        "pins": {},
        "training_rows": len(list(rows)),
    }
    if fitted:
        cal["fitted"] = fitted
    # Pin every training row the fitted model would misroute, so the
    # router agrees with the measurements it was calibrated on.
    pins: Dict[str, str] = {}
    for row in rows:
        feats = row["features"]
        if row.get("sat_s") is None:
            measured = "enum"
        else:
            measured = "sat" if float(row["sat_s"]) < float(row["enum_s"]) else "enum"
        predicted = (
            "sat"
            if _predict(sat_coef, feats) < _predict(enum_coef, feats)
            else "enum"
        )
        if predicted != measured:
            pins[feature_key(feats)] = measured
    cal["pins"] = pins
    return cal


# ---------------------------------------------------------------------------
# Loading + deciding
# ---------------------------------------------------------------------------

_CALIBRATION_MEMO: Dict[str, Optional[Dict[str, object]]] = {}


def clear_calibration_memo() -> None:
    _CALIBRATION_MEMO.clear()


def load_calibration(path: Optional[str] = None) -> Optional[Dict[str, object]]:
    """The active calibration dict, or None (fall back to the gate).

    Resolution order: explicit *path* argument, ``REPRO_CALIBRATION``
    env var, the packaged ``solver/calibration.json``.
    """
    resolved = path or os.environ.get(ENV_CALIBRATION) or str(DEFAULT_CALIBRATION)
    if resolved in _CALIBRATION_MEMO:
        return _CALIBRATION_MEMO[resolved]
    cal: Optional[Dict[str, object]] = None
    try:
        with open(resolved, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
        if (
            isinstance(loaded, dict)
            and loaded.get("version") == 1
            and list(loaded.get("features", [])) == list(FEATURES)
        ):
            cal = loaded
    except (OSError, ValueError):
        cal = None
    _CALIBRATION_MEMO[resolved] = cal
    return cal


def decide(
    program: Program, calibration: Optional[Dict[str, object]] = None,
) -> RouterDecision:
    """Route a *prepared* program to ``"enum"`` or ``"sat"``.

    Pure in the program and the calibration: no grounding runs, no warm
    state is consulted, so the same program always routes the same way
    within one calibration — ``check`` results stay deterministic.
    """
    features = program_features(program)
    cal = calibration if calibration is not None else load_calibration()
    if cal is None:
        return RouterDecision(
            engine="sat" if features["steps"] > GATE_STEPS else "enum",
            features=features,
            source="gate",
        )
    enum_pred = _predict(cal["enum_coef"], features)
    sat_pred = _predict(cal["sat_coef"], features)
    pin = cal.get("pins", {}).get(feature_key(features))
    if pin in ("enum", "sat"):
        return RouterDecision(
            engine=pin, features=features, source="pin",
            predicted_enum_s=enum_pred, predicted_sat_s=sat_pred,
        )
    return RouterDecision(
        engine="sat" if sat_pred < enum_pred else "enum",
        features=features,
        source="model",
        predicted_enum_s=enum_pred,
        predicted_sat_s=sat_pred,
    )


# ---------------------------------------------------------------------------
# Measuring + refitting (``python -m repro calibrate``)
# ---------------------------------------------------------------------------

#: Timing rounds per training program; each row keeps its best round.
CALIBRATION_REPEAT = 3


def training_programs() -> List[Program]:
    """What a refit measures: the litmus corpus and both scaling
    families at 2 to 6 threads (the sizes where the crossover lies)."""
    from repro.litmus.corpus import load_corpus
    from repro.litmus.library import scaled_chain, scaled_mp

    programs = [entry.program for entry in load_corpus()]
    for make in (scaled_chain, scaled_mp):
        programs += [make(n) for n in range(2, 7)]
    return programs


def measure(programs: Sequence[Program]) -> List[Dict[str, object]]:
    """Time each program's 3-model check under enum and under a cold
    shared-core sat, one row per feature vector.

    The router decides per feature vector (drf0/drf1 preparations of a
    program usually share one, drfrlx's quantum transformation gets its
    own), so that is the granularity of a row: a vector's times sum its
    models' best-of-:data:`CALIBRATION_REPEAT` checks over every
    program that has it, and a row's sat time is its share of the
    shared-core audit, so the amortized encode cost lands where it is
    paid.  ``sat_s`` is None
    when any of its checks fell back to enum (solver capacity).
    """
    from repro.core.model import MODELS, _prepare, check
    from repro.solver.bridge import clear_core_memo

    rows: Dict[str, Dict[str, object]] = {}
    for program in programs:
        keys: Dict[str, str] = {}
        for model in MODELS:
            prepared = _prepare(program, model)
            features = program_features(prepared)
            keys[model] = key = feature_key(features)
            rows.setdefault(key, {
                "features": features, "prepared": prepared, "programs": [],
                "enum_s": 0.0, "sat_s": 0.0,
            })
        best: Dict[Tuple[str, str], float] = {}
        fell_back = set()
        for _ in range(CALIBRATION_REPEAT):
            for engine in ("enum", "sat"):
                clear_core_memo()
                spent = dict.fromkeys(keys.values(), 0.0)
                for model in MODELS:
                    t0 = time.perf_counter()
                    result = check(program, model, engine=engine)
                    spent[keys[model]] += time.perf_counter() - t0
                    if result.engine != engine:
                        fell_back.add(keys[model])
                for key, elapsed in spent.items():
                    best[engine, key] = min(
                        best.get((engine, key), elapsed), elapsed
                    )
        for key in set(keys.values()):
            row = rows[key]
            row["programs"].append(program.name)
            row["enum_s"] += best["enum", key]
            if key in fell_back or row["sat_s"] is None:
                row["sat_s"] = None
            else:
                row["sat_s"] += best["sat", key]
    return list(rows.values())


def misroutes(
    rows: Sequence[Mapping[str, object]], calibration: Dict[str, object],
) -> List[str]:
    """The programs of every measured row that *calibration* routes to
    the slower engine (or to sat where the solver could not run)."""
    wrong: List[str] = []
    for row in rows:
        engine = decide(row["prepared"], calibration=calibration).engine
        chosen = row["sat_s"] if engine == "sat" else row["enum_s"]
        fastest = min(t for t in (row["enum_s"], row["sat_s"]) if t is not None)
        if chosen is None or chosen > fastest:
            wrong.append(",".join(row["programs"]))
    return wrong


def calibrate(
    out_dir: str, programs: Optional[Sequence[Program]] = None,
) -> Tuple[str, Dict[str, object]]:
    """Measure *programs* (default :func:`training_programs`), refit,
    and write ``out_dir/calibration.json``; returns its path and the
    calibration.  Raises ``AssertionError`` if the fit would route any
    measured row to the slower engine, which the pins rule out."""
    from datetime import date

    rows = measure(training_programs() if programs is None else programs)
    calibration = fit_calibration(rows, fitted=date.today().isoformat())
    wrong = misroutes(rows, calibration)
    if wrong:
        raise AssertionError(
            f"router picked the slower engine for {wrong} even after "
            "refitting; pins should have prevented this"
        )
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "calibration.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(calibration, handle, indent=2)
        handle.write("\n")
    return path, calibration
