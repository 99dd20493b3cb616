"""``repro.batch.check_many``: byte-identical to the per-program checker.

The pipeline's whole contract is that amortization (shared enumerations
relabeled per model, batch-wide classification memo, memoized engine
routing) is invisible in the results: every payload field a response
carries must match a fresh ``model.check`` call exactly.
"""

import json

from repro.api.core import _check_payload
from repro.batch import check_many, clear_batch_state
from repro.core.model import MODELS, check
from repro.litmus.fuzz import generate
from repro.litmus.library import get as get_litmus

LIBRARY_NAMES = (
    "mp_paired", "mp_data", "sb_data", "sb_paired", "lb_non_ordering",
    "flags", "split_counter",
)


def _programs():
    programs = [get_litmus(name).program for name in LIBRARY_NAMES]
    programs += generate(13, 8)
    return programs


def _payload(result):
    return json.dumps(_check_payload(result), sort_keys=True, default=repr)


def _assert_identical(programs, **kwargs):
    clear_batch_state()
    batched = list(check_many(programs, jobs=1, **kwargs))
    index = 0
    for program in programs:
        for model in MODELS:
            result = batched[index]
            index += 1
            assert result.program_name == program.name
            assert result.model == model
            expected = check(program, model, **kwargs)
            assert _payload(result) == _payload(expected), (
                program.name, model, kwargs,
            )
    assert index == len(batched)


def test_identical_to_naive_loop_default_options():
    _assert_identical(_programs())


def test_identical_with_pairs_backend():
    _assert_identical(generate(17, 5), backend="pairs")


def test_identical_without_dedup():
    # dedup=False changes the per-execution accounting, which routes the
    # batch through the stock classifier — results must still match.
    _assert_identical(generate(19, 5), dedup=False)


def test_identical_early_exit():
    _assert_identical(generate(23, 5), exhaustive=False)


def test_identical_with_execution_cap():
    _assert_identical(generate(29, 5), max_executions=10)


def test_identical_sat_engine():
    _assert_identical(generate(31, 4), engine="sat")


def test_identical_auto_engine():
    _assert_identical(generate(37, 4), engine="auto")


def test_parallel_matches_serial():
    programs = generate(41, 10)
    clear_batch_state()
    serial = [_payload(r) for r in check_many(programs, jobs=1)]
    clear_batch_state()
    parallel = [_payload(r) for r in check_many(programs, jobs=2)]
    assert serial == parallel


def test_model_subset_and_order():
    programs = generate(43, 4)
    clear_batch_state()
    results = list(check_many(programs, models=("drfrlx", "drf0"), jobs=1))
    assert [(r.program_name, r.model) for r in results] == [
        (p.name, m) for p in programs for m in ("drfrlx", "drf0")
    ]
    for result in results:
        program = next(p for p in programs if p.name == result.program_name)
        assert _payload(result) == _payload(check(program, result.model))


def test_batch_state_is_bounded():
    import repro.batch as batch_module

    clear_batch_state()
    list(check_many(generate(47, 6), jobs=1))
    assert len(batch_module._STATE.prepared) <= batch_module._MEMO_MAX
    assert len(batch_module._STATE.race_memo) <= 8 * batch_module._MEMO_MAX


def test_empty_batch():
    clear_batch_state()
    assert list(check_many([], jobs=1)) == []


def test_handle_keeps_at_most_one_call_of_entries(tmp_path):
    import repro.batch as batch_module

    root = str(tmp_path)
    first, second = generate(53, 6), generate(59, 6)
    clear_batch_state()
    cold = [_payload(r) for r in check_many(first, jobs=1, cache=root)]
    handle = batch_module._STATE.handles[root]
    stored = handle.stores
    assert stored > 0
    assert len(handle._memory) <= stored
    list(check_many(second, jobs=1, cache=root))
    assert batch_module._STATE.handles[root] is handle
    # Call two's entries replace call one's instead of adding to them.
    assert len(handle._memory) <= handle.stores - stored
    warm = [_payload(r) for r in check_many(first, jobs=1, cache=root)]
    assert warm == cold
    fresh = [_payload(check(p, m)) for p in first for m in MODELS]
    assert cold == fresh
