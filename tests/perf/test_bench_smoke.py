"""Smoke test for the corpus audit that backs ``python -m repro audit``."""

from repro.perf.audit import audit_corpus


def test_audit_corpus_all_ok():
    results = audit_corpus(jobs=1)
    assert len(results) >= 10
    failures = [r.name for r in results if not r.ok]
    assert failures == []
    # Deterministic sorted-filename order.
    assert [r.path for r in results] == sorted(r.path for r in results)
