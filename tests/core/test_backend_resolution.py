"""Backend resolution: ``resolve_backend`` argument handling, the
checker without numpy, and the one-time observability counters."""

import sys

import pytest

from repro.core.relations import BACKENDS, DENSE_MAX_ELEMENTS, resolve_backend
from repro.obs import metrics


class TestResolveBackend:
    def test_explicit_choices_pass_through(self):
        assert resolve_backend("dense") == "dense"
        assert resolve_backend("pairs") == "pairs"

    def test_auto_small_universe_is_dense(self):
        assert resolve_backend("auto", n_elements=8) == "dense"
        assert resolve_backend(None, n_elements=DENSE_MAX_ELEMENTS) == "dense"

    def test_auto_no_size_is_dense(self):
        assert resolve_backend(None) == "dense"

    def test_unknown_argument_raises_with_allowed_set(self):
        for value in ("bitvector", "numpy"):
            with pytest.raises(ValueError) as err:
                resolve_backend(value)
            message = str(err.value)
            assert value in message
            for allowed in BACKENDS:
                assert allowed in message


class TestWithoutNumpy:
    @pytest.fixture
    def no_numpy(self, monkeypatch):
        # A None entry makes ``import numpy`` raise ImportError.
        monkeypatch.setitem(sys.modules, "numpy", None)

    def test_auto_large_universe_falls_back_to_pairs(self, no_numpy):
        assert (
            resolve_backend("auto", n_elements=DENSE_MAX_ELEMENTS + 1)
            == "pairs"
        )
        assert resolve_backend("auto", n_elements=8) == "dense"

    def test_model_check_still_works(self, no_numpy):
        from repro.core.model import check
        from repro.litmus.library import get as get_litmus

        result = check(get_litmus("mp_paired").program, "drf0")
        assert result.legal


class TestResolutionMetrics:
    def test_resolution_recorded_once_per_choice(self):
        before = metrics.RUNTIME.get("relation_backend_resolved:dense")
        resolve_backend("dense")
        after_first = metrics.RUNTIME.get("relation_backend_resolved:dense")
        resolve_backend("dense")
        resolve_backend("dense")
        after_more = metrics.RUNTIME.get("relation_backend_resolved:dense")
        # Recorded at most once per process, never per call.
        assert after_first in (before, 1.0)
        assert after_more == after_first

    def test_record_resolution_is_idempotent(self):
        metrics.record_resolution("sim_engine", "test-choice")
        first = metrics.RUNTIME.get("sim_engine_resolved:test-choice")
        metrics.record_resolution("sim_engine", "test-choice")
        assert metrics.RUNTIME.get("sim_engine_resolved:test-choice") == first
        assert first == 1.0
