"""Smoke test for the corpus audit that backs ``python -m repro audit``."""

import os

from repro.api import audit_request
from repro.litmus.corpus import CORPUS_DIR
from repro.litmus.dsl import parse


def test_audit_corpus_all_ok():
    result = audit_request()["result"]
    assert result["total"] >= 10
    failures = [f["name"] for f in result["files"] if not f["ok"]]
    assert failures == []
    # Deterministic sorted-filename order.
    names = []
    for filename in sorted(os.listdir(CORPUS_DIR)):
        if filename.endswith(".litmus"):
            with open(os.path.join(CORPUS_DIR, filename)) as handle:
                names.append(parse(handle.read()).name)
    assert [f["name"] for f in result["files"]] == names
