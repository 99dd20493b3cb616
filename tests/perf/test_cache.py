"""The content-addressed result cache: keys, invalidation, robustness."""

import dataclasses
import glob
import io
import json
import os
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.api.core as api_core
import repro.perf.cache as cache_mod
from repro.api import check_batch, check_program, encode
from repro.core.executions import enumerate_sc_executions
from repro.energy.model import DEFAULT_ENERGY_MODEL
from repro.eval.harness import _cell_key
from repro.litmus.library import get as get_litmus
from repro.obs.tracer import Tracer
from repro.perf.cache import (
    CACHE_DIR_ENV,
    CACHE_ENV,
    ResultCache,
    code_fingerprint,
    default_cache_dir,
    resolve_cache,
)
from repro.sim.config import DISCRETE, INTEGRATED


@pytest.fixture
def store(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


def _files(store, suffix):
    return sorted(
        glob.glob(os.path.join(store.root, "**", f"*{suffix}"), recursive=True)
    )


#: Loads of the trap pickle below; a cache read must never add one.
_TRAP_LOADS = []


def _spring_trap():
    _TRAP_LOADS.append(1)
    return {"schema_version": 1, "value": "from the trap"}


class _Trap:
    """Pickles to a payload whose load calls :func:`_spring_trap`."""

    def __reduce__(self):
        return (_spring_trap, ())


class TestRoundTrip:
    def test_json_round_trip(self, store):
        key = store.key("unit", {"a": 1})
        assert store.get(key) == (False, None)
        store.put(key, {"cycles": 123.25, "energy_nj": {"l1": 0.5}})
        hit, value = store.get(key)
        assert hit and value == {"cycles": 123.25, "energy_nj": {"l1": 0.5}}
        assert (store.hits, store.misses, store.stores) == (1, 1, 1)

    def test_entry_is_one_compact_json_record(self, store):
        """``put`` encodes the record once; the bytes are exactly what
        ``json.dump`` streams to a file handle."""
        value = {"b": [1, 2.5, "x"], "nested": {"k": None}}
        path = store.put(store.key("unit", "compact"), value)
        expected = io.StringIO()
        json.dump({"schema_version": 1, "value": value}, expected,
                  separators=(",", ":"))
        with open(path, "rb") as handle:
            assert handle.read() == expected.getvalue().encode()
        assert path.endswith(".json")

    def test_float_values_byte_identical(self, store):
        """JSON float repr round-trips exactly, so cached observations
        reproduce cold-run CSV bytes."""
        value = {"cycles": 1234.000000000309, "frac": 0.1 + 0.2}
        key = store.key("unit", value)
        store.put(key, value)
        _, back = store.get(key)
        assert back == value  # exact float equality, not approx

    def test_clear_and_count(self, store):
        for i in range(3):
            store.put(store.key("unit", i), i)
        assert store.entry_count() == 3
        assert store.clear() == 3
        assert store.entry_count() == 0


class TestSharedStore:
    def test_counts_survive_concurrent_threads(self, store):
        """The service's dispatcher threads share one store: no hit, miss
        or store increment is lost to a thread switch."""
        present, absent = store.key("unit", {"a": 1}), store.key("unit", {"a": 2})
        store.put(present, [1])
        threads, rounds = 8, 100

        def traffic():
            for _ in range(rounds):
                store.get(present)
                store.get(absent)
                store.put(present, [1])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for future in [pool.submit(traffic) for _ in range(threads)]:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert store.hits == store.misses == threads * rounds
        assert store.stores == threads * rounds + 1


class TestKeyInvalidation:
    """Every key ingredient must change the key (satellite: scale,
    SystemConfig field, energy model, source fingerprint)."""

    def _task(self, scale=0.1, config=INTEGRATED, energy=DEFAULT_ENERGY_MODEL):
        return ("SC", "gpu", "drf0", config, scale, energy, None)

    def test_scale_changes_key(self, store):
        a = _cell_key(store, self._task(scale=0.1), "code")
        b = _cell_key(store, self._task(scale=0.2), "code")
        assert a != b

    def test_system_config_field_changes_key(self, store):
        tweaked = dataclasses.replace(INTEGRATED, l2_kb_total=INTEGRATED.l2_kb_total * 2)
        a = _cell_key(store, self._task(config=INTEGRATED), "code")
        b = _cell_key(store, self._task(config=tweaked), "code")
        assert a != b

    def test_whole_config_changes_key(self, store):
        a = _cell_key(store, self._task(config=INTEGRATED), "code")
        b = _cell_key(store, self._task(config=DISCRETE), "code")
        assert a != b

    def test_energy_model_changes_key(self, store):
        field = dataclasses.fields(DEFAULT_ENERGY_MODEL)[0].name
        tweaked = dataclasses.replace(
            DEFAULT_ENERGY_MODEL, **{field: getattr(DEFAULT_ENERGY_MODEL, field) + 1.0}
        )
        a = _cell_key(store, self._task(energy=DEFAULT_ENERGY_MODEL), "code")
        b = _cell_key(store, self._task(energy=tweaked), "code")
        assert a != b

    def test_code_fingerprint_changes_key(self, store):
        a = _cell_key(store, self._task(), "fingerprint-a")
        b = _cell_key(store, self._task(), "fingerprint-b")
        assert a != b

    def test_workload_name_changes_key(self, store):
        a = store.key("sweep_cell", {"workload": "SC"})
        b = store.key("sweep_cell", {"workload": "SEQ"})
        assert a != b

    def test_kind_partitions_keys(self, store):
        assert store.key("sweep_cell", {"x": 1}) != store.key("api_request", {"x": 1})


class TestCodeFingerprint:
    def test_stable_across_calls(self):
        pkgs = ("repro.sim", "repro.energy")
        assert code_fingerprint(pkgs) == code_fingerprint(pkgs)

    def test_source_edit_changes_fingerprint(self, tmp_path, monkeypatch):
        pkg = tmp_path / "fp_probe_pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("VALUE = 1\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        before = code_fingerprint(("fp_probe_pkg",))
        code_fingerprint.cache_clear()
        (pkg / "__init__.py").write_text("VALUE = 2\n")
        after = code_fingerprint(("fp_probe_pkg",))
        code_fingerprint.cache_clear()
        assert before != after


class TestSolverFingerprint:
    """The solver sources are a cache-key ingredient, so editing any
    fingerprinted module invalidates cached check responses end to end
    (a stale response can never answer a check)."""

    def test_solver_package_is_fingerprinted(self):
        packages = set(api_core.CHECK_CODE_PACKAGES)
        # A check depends on program preparation and relabeling, the
        # enumerator, the payload encoding, and the solver itself.
        assert {"repro.core", "repro.litmus", "repro.api", "repro.solver"} <= packages

    def test_editing_fingerprinted_module_invalidates_cached_checks(
        self, store, tmp_path, monkeypatch
    ):
        pkg = tmp_path / "fp_check_probe_pkg"
        pkg.mkdir()
        module = pkg / "__init__.py"
        module.write_text("VALUE = 1\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setattr(
            api_core, "CHECK_CODE_PACKAGES",
            api_core.CHECK_CODE_PACKAGES + ("fp_check_probe_pkg",),
        )
        code_fingerprint.cache_clear()
        try:
            cold = encode(check_program(name="mp_paired", engine="sat", cache=store))
            assert (store.hits, store.stores) == (0, 1)
            # Same sources: the second request is answered from the cache.
            warm = encode(check_program(name="mp_paired", engine="sat", cache=store))
            assert (store.hits, store.stores) == (1, 1)
            # Edit a fingerprinted module: the cached response must be a
            # miss, and the recomputed response is stored under a new key.
            module.write_text("VALUE = 2\n")
            code_fingerprint.cache_clear()
            edited = encode(check_program(name="mp_paired", engine="sat", cache=store))
            assert (store.hits, store.stores) == (1, 2)
            assert len(_files(store, ".json")) == 2
            assert cold == warm == edited
        finally:
            code_fingerprint.cache_clear()


class TestCorruption:
    """Satellite: corrupted/truncated entries are a miss, never a crash."""

    @pytest.mark.parametrize(
        "garbage",
        [b"", b"{", b"not json at all \x00\xff", b'{"schema_version": 999}',
         b'{"no_value": true}', b"[1, 2, 3]"],
        ids=["empty", "truncated", "binary", "bad-schema", "no-value", "non-dict"],
    )
    def test_garbage_json_entry_is_miss(self, store, garbage):
        key = store.key("unit", "x")
        path = store.put(key, {"ok": 1})
        with open(path, "wb") as handle:
            handle.write(garbage)
        hit, value = store.get(key)
        assert not hit and value is None
        # and the garbage entry was dropped so a re-put recovers it
        store.put(key, {"ok": 2})
        assert store.get(key) == (True, {"ok": 2})

    def test_truncated_pickle_entry_is_miss(self, store):
        """An orphaned ``.pkl`` entry of an older version under the
        key's name is never opened: the read is a miss and the file is
        left as it was (only ``clear`` removes it)."""
        key = store.key("unit", "y")
        path = os.path.join(store.root, key[:2], f"{key}.pkl")
        os.makedirs(os.path.dirname(path))
        blob = pickle.dumps({"schema_version": 1, "value": list(range(100))})
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        assert store.get(key) == (False, None)
        with open(path, "rb") as handle:
            assert handle.read() == blob[: len(blob) // 2]
        assert store.entry_count() == 1
        assert store.clear() == 1 and not os.path.exists(path)

    def test_cache_module_cannot_unpickle(self):
        assert not hasattr(cache_mod, "pickle")

    def test_missing_directory_reads_clean(self, tmp_path):
        store = ResultCache(str(tmp_path / "never-created"))
        assert store.get(store.key("unit", 1)) == (False, None)
        assert store.entry_count() == 0
        assert store.clear() == 0


class TestResolution:
    def test_cache_dir_env_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "custom"))
        assert default_cache_dir() == str(tmp_path / "custom")
        assert resolve_cache(True).root == str(tmp_path / "custom")

    def test_none_consults_repro_cache_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "envcache"))
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert resolve_cache(None) is None
        monkeypatch.setenv(CACHE_ENV, "1")
        assert resolve_cache(None).root == str(tmp_path / "envcache")
        monkeypatch.setenv(CACHE_ENV, "0")
        assert resolve_cache(None) is None

    def test_false_disables(self):
        assert resolve_cache(False) is None

    def test_string_and_instance_pass_through(self, tmp_path):
        assert resolve_cache(str(tmp_path)).root == str(tmp_path)
        store = ResultCache(str(tmp_path))
        assert resolve_cache(store) is store


class TestEnumerationCache:
    """Enumerations are no longer cached on disk; what the enumeration
    entries guaranteed is pinned where caching now happens, at the v1
    response of a check request.  The enumeration layer still accepts
    ``cache=`` and leaves the store untouched."""

    def test_hit_returns_equal_enumeration(self, store):
        program = get_litmus("mp_paired").program
        direct = enumerate_sc_executions(program)
        through = enumerate_sc_executions(program, cache=store)
        assert {e.canonical_key() for e in through.executions} == {
            e.canonical_key() for e in direct.executions
        }
        assert through.stats == direct.stats
        assert (store.hits, store.misses, store.stores) == (0, 0, 0)
        assert store.entry_count() == 0
        # The response, enumeration counts included, replays from one hit.
        cold = check_program(name="mp_paired", cache=store)
        warm = check_program(name="mp_paired", cache=store)
        assert store.hits == 1
        assert encode(warm) == encode(cold)

    def test_different_programs_different_entries(self, store):
        check_program(name="mp_paired", cache=store)
        check_program(name="sb_paired", cache=store)
        assert store.entry_count() == 2

    def test_tracer_bypasses_cache(self, store):
        program = get_litmus("mp_paired").program
        enumerate_sc_executions(program, cache=store, tracer=Tracer())
        check_program(name="mp_paired", trace=True, cache=store)
        assert store.entry_count() == 0

    def test_corrupted_entry_recomputes(self, store):
        cold = encode(check_program(name="mp_paired", cache=store))
        (path,) = _files(store, ".json")
        with open(path, "wb") as handle:
            handle.write(b"\x80garbage")
        again = encode(check_program(name="mp_paired", cache=store))
        assert again == cold
        assert (store.misses, store.stores) == (2, 2)
        assert _files(store, ".json") == [path]


class TestResponseCache:
    """A served request writes exactly one JSON entry, its response, and
    a warm replay of it is one hit with the same bytes."""

    @pytest.mark.parametrize("engine", ["enum", "auto", "sat"])
    def test_cold_check_leaves_one_json_entry(self, store, engine):
        cold = encode(check_program(name="mp_paired", engine=engine, cache=store))
        assert len(_files(store, ".json")) == 1
        assert _files(store, ".pkl") == []
        warm_store = ResultCache(store.root)
        warm = encode(check_program(name="mp_paired", engine=engine,
                                    cache=warm_store))
        assert warm == cold
        assert (warm_store.hits, warm_store.misses, warm_store.stores) == (1, 0, 0)

    def test_cold_batch_leaves_one_json_entry(self, store):
        programs = [{"name": "mp_paired"}, {"name": "sb_paired"},
                    {"name": "lb_paired"}]
        cold = encode(check_batch(programs, cache=store))
        assert len(_files(store, ".json")) == 1
        assert _files(store, ".pkl") == []
        warm_store = ResultCache(store.root)
        warm = encode(check_batch(programs, cache=warm_store))
        assert warm == cold == encode(check_batch(programs))
        assert (warm_store.hits, warm_store.stores) == (1, 0)

    def test_orphaned_pkl_entries_are_never_loaded(self, store):
        """Garbage and code-carrying ``.pkl`` files beside a request's
        entry neither load nor change the response."""
        cold = encode(check_program(name="mp_paired", cache=store))
        (entry,) = _files(store, ".json")
        stem = entry[: -len(".json")]
        trap = pickle.dumps(_Trap())
        orphans = {stem + ".pkl": trap, entry + ".pkl": b"\x80garbage\x00"}
        for path, blob in orphans.items():
            with open(path, "wb") as handle:
                handle.write(blob)
        del _TRAP_LOADS[:]
        warm_store = ResultCache(store.root)
        warm = encode(check_program(name="mp_paired", cache=warm_store))
        assert warm == cold
        assert warm_store.hits == 1
        assert _TRAP_LOADS == []
        for path, blob in orphans.items():
            with open(path, "rb") as handle:
                assert handle.read() == blob
        assert warm_store.entry_count() == 3
        assert warm_store.clear() == 3
