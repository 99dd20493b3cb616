"""The calibrated engine router: features, fitting, loading, deciding.

The router replaces the static step-bound gate with a cost model fitted
from measured enum-vs-sat timings (``python -m repro calibrate``).  These tests pin the parts that must not drift: feature
extraction is a pure function of the prepared program, fitting pins
every training row it would misroute (training-set agreement by
construction), loading validates the schema and honors the
``REPRO_CALIBRATION`` override, and the packaged calibration routes
every corpus program to the engine measured as faster —
including the RMW-heavy programs the old gate sent to the solver at a
100x+ loss.
"""

import json
import os

from repro.core.model import MODELS, _prepare, check
from repro.litmus.corpus import load_corpus
from repro.litmus.library import get, scaled_chain, scaled_mp
from repro.solver import router
from repro.solver.router import (
    FEATURES,
    RouterDecision,
    decide,
    feature_key,
    fit_calibration,
    load_calibration,
    program_features,
)

#: Engine the packaged calibration must choose per corpus program.  A
#: bare string means every model routes the same way; a dict records a
#: per-model split (drfrlx's quantum transformation changes the program
#: the router sees).  Regenerate when the calibration is refitted: the
#: invariant behind this table is "the measured-faster engine", which
#: ``calibrate`` asserts, and the 2-thread RMW/havoc programs
#: staying on enum is precisely the regression BENCH_20260808 caught in
#: the old static gate.
CORPUS_ROUTES = {
    "acqrel_mp_dsl": "sat",
    "acqrel_seqlock_dsl": "enum",
    "event_counter_dsl": "enum",
    "event_counter_observed_dsl": "enum",
    "exchange_mislabel_dsl": "enum",
    "flags_polling_dsl": "enum",
    "mp_paired_dsl": "sat",
    "mp_unpaired_dsl": "sat",
    "quantum_mixed_dsl": "enum",
    "quantum_pair_dsl": {"drf0": "enum", "drf1": "enum", "drfrlx": "sat"},
    "ref_counter_dsl": "enum",
    "sb_relaxed_dsl": "sat",
    "spec_store_store_dsl": "sat",
    "spec_unobserved_dsl": "enum",
    "spinlock_dsl": "enum",
}


class TestFeatures:
    def test_features_cover_the_declared_vector(self):
        feats = program_features(_prepare(get("mp_paired").program, "drf0"))
        assert set(feats) == set(FEATURES)
        assert all(isinstance(v, int) and v >= 0 for v in feats.values())

    def test_features_are_deterministic_and_preparation_sensitive(self):
        program = get("mp_paired").program
        a = program_features(_prepare(program, "drf0"))
        b = program_features(_prepare(program, "drf0"))
        assert a == b
        # drfrlx's quantum transformation adds havoc: the router sees a
        # genuinely different program and may route it differently.
        drf0_key = feature_key(a)
        assert isinstance(drf0_key, str) and "threads=" in drf0_key

    def test_feature_key_orders_by_declared_feature_order(self):
        feats = program_features(_prepare(scaled_mp(3), "drf0"))
        key = feature_key(feats)
        assert [part.split("=")[0] for part in key.split(",")] == list(FEATURES)


class TestFitting:
    def _rows(self):
        programs = [scaled_chain(n) for n in (2, 3, 4, 5)]
        rows = []
        for i, program in enumerate(programs):
            feats = program_features(_prepare(program, "drf0"))
            # Synthetic but monotone: enum cost explodes with size, sat
            # stays flat — the shape the real measurements have.
            rows.append({
                "features": feats,
                "enum_s": 0.001 * (10 ** i),
                "sat_s": 0.01,
            })
        return rows

    def test_fit_agrees_with_training_measurements(self):
        rows = self._rows()
        cal = fit_calibration(rows, fitted="2026-08-08")
        for row in rows:
            measured = "sat" if row["sat_s"] < row["enum_s"] else "enum"
            decision = decide_features(row["features"], cal)
            assert decision == measured

    def test_capacity_rows_pin_enum(self):
        rows = self._rows()
        rows.append({
            "features": program_features(_prepare(scaled_mp(6), "drf0")),
            "enum_s": 5.0,
            "sat_s": None,  # solver capacity fallback: sat unusable
        })
        cal = fit_calibration(rows)
        assert decide_features(rows[-1]["features"], cal) == "enum"

    def test_calibration_roundtrips_through_json(self, tmp_path):
        cal = fit_calibration(self._rows(), fitted="2026-08-08")
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(cal))
        router.clear_calibration_memo()
        loaded = load_calibration(str(path))
        assert loaded == json.loads(json.dumps(cal))
        assert loaded["fitted"] == "2026-08-08"
        router.clear_calibration_memo()

    def test_calibrate_routes_its_training_rows_with_no_misroute(
        self, tmp_path,
    ):
        """The refit behind ``python -m repro calibrate``, on a slice of
        its training set: the fit sends every measured row to the engine
        measured faster (0 misroutes), a fit pinned the other way is
        caught, and the written file loads."""
        programs = [e.program for e in load_corpus()[:4]]
        programs += [scaled_mp(3), scaled_chain(4)]
        rows = router.measure(programs)
        cal = fit_calibration(rows)
        assert router.misroutes(rows, cal) == []
        flipped = dict(cal, pins={
            feature_key(row["features"]):
                "sat" if row["sat_s"] is None or row["enum_s"] < row["sat_s"]
                else "enum"
            for row in rows
        })
        assert router.misroutes(rows, flipped)

        path, written = router.calibrate(str(tmp_path), programs)
        router.clear_calibration_memo()
        try:
            assert load_calibration(path) == json.loads(json.dumps(written))
        finally:
            router.clear_calibration_memo()


def decide_features(features, cal):
    """Decide from a bare feature vector (test helper: rebuilds nothing)."""
    pin = cal.get("pins", {}).get(feature_key(features))
    if pin:
        return pin
    from repro.solver.router import _predict

    return (
        "sat"
        if _predict(cal["sat_coef"], features)
        < _predict(cal["enum_coef"], features)
        else "enum"
    )


class TestLoading:
    def test_packaged_calibration_loads(self):
        router.clear_calibration_memo()
        cal = load_calibration()
        assert cal is not None and cal["version"] == 1
        assert list(cal["features"]) == list(FEATURES)

    def test_env_override_wins(self, tmp_path, monkeypatch):
        path = tmp_path / "cal.json"
        cal = fit_calibration([{
            "features": program_features(_prepare(scaled_mp(3), "drf0")),
            "enum_s": 1.0, "sat_s": 2.0,
        }])
        path.write_text(json.dumps(cal))
        monkeypatch.setenv(router.ENV_CALIBRATION, str(path))
        router.clear_calibration_memo()
        try:
            assert load_calibration() == json.loads(json.dumps(cal))
        finally:
            router.clear_calibration_memo()

    def test_schema_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "features": []}))
        router.clear_calibration_memo()
        assert load_calibration(str(path)) is None
        router.clear_calibration_memo()

    def test_missing_file_falls_back_to_gate(self, monkeypatch):
        monkeypatch.setenv(router.ENV_CALIBRATION, "/nonexistent.json")
        router.clear_calibration_memo()
        try:
            decision = decide(_prepare(scaled_chain(6), "drf0"))
            assert decision.source == "gate"
            assert decision.engine == "sat"  # old static rule: steps > 4
        finally:
            router.clear_calibration_memo()


class TestDecisions:
    def test_decision_payload_is_json_serializable(self):
        decision = decide(_prepare(get("mp_paired").program, "drf0"))
        payload = decision.payload()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["engine"] in ("enum", "sat")
        assert payload["source"] in ("model", "pin", "gate")
        assert set(payload["features"]) == set(FEATURES)

    def test_decisions_are_pure(self):
        prepared = _prepare(scaled_mp(4), "drfrlx")
        assert decide(prepared) == decide(prepared)

    def test_corpus_programs_route_to_the_measured_faster_engine(self):
        """The regression the old static gate had: every corpus program
        must be routed to the engine measured as faster — in
        particular the 2-thread RMW/havoc programs stay on enum (the
        old gate's 100x+ misroutes) and the message-passing tests go to
        the solver."""
        seen = {}
        for entry in load_corpus():
            routes = {
                model: decide(_prepare(entry.program, model)).engine
                for model in MODELS
            }
            if len(set(routes.values())) == 1:
                seen[entry.name] = routes["drf0"]
            else:
                seen[entry.name] = routes
        assert seen == CORPUS_ROUTES

    def test_check_auto_and_decide_agree_on_the_corpus(self):
        for entry in load_corpus():
            for model in MODELS:
                expected = decide(_prepare(entry.program, model)).engine
                result = check(entry.program, model, engine="auto")
                # Capacity fallbacks surface as enum whatever was asked.
                if result.engine != expected:
                    assert (expected, result.engine) == ("sat", "enum")
                    continue
                assert result.engine == expected


class TestMetric:
    def test_route_resolution_recorded(self):
        from repro.obs.metrics import RUNTIME

        check(get("mp_paired").program, "drf0", engine="auto")
        recorded = [
            key for key in RUNTIME.as_dict()
            if key.startswith("check_engine_route_resolved:")
        ]
        assert recorded, "auto check must record its routing decision"
