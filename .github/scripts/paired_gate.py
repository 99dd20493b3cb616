"""Same-host paired benchmark gate: base tree against head tree.

Usage::

    python3 .github/scripts/paired_gate.py BASE_DIR HEAD_DIR

Both directories are full checkouts (CI makes them with ``git
worktree``).  For each workload of the head's ``BENCHMARK.json``, the
benchmark command runs ``run_seconds`` long in each tree, in
:data:`PAIRS` pairs whose order alternates (base first, then head
first, ...), so slow drift of the host lands on both sides alike.  An
end-to-end metric fails the gate when the head median is worse than the
base median by more than the metric's ``bound`` in ``BENCHMARK.json``
*and* lies outside the base runs' interquartile range on the worse
side; a head that fails a larger share of its operations than the base
also fails.  Exit 0 passes, 1 fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence

#: Alternating base/head pairs per workload.
PAIRS = 5


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median and third quartile of *values*."""
    return statistics.quantiles(values, n=4, method="inclusive")


def regressed(metric: Dict, base: Sequence[float],
              head: Sequence[float]) -> bool:
    """Whether *head* is worse than *base* by more than *metric*'s
    relative ``bound`` and outside the base interquartile range, in the
    direction of its ``better`` (``"lower"`` or ``"higher"``)."""
    q1, base_median, q3 = quartiles(base)
    head_median = statistics.median(head)
    bound = metric["bound"]
    if metric["better"] == "lower":
        return head_median > base_median * (1 + bound) and head_median > q3
    return head_median < base_median * (1 - bound) and head_median < q1


def _values(values: Sequence[float]) -> str:
    return "[" + " ".join(f"{v:.4g}" for v in sorted(values)) + "]"


def run_once(tree: str, command: List[str], workload: str,
             seconds: float) -> Dict:
    """One benchmark run in *tree*; returns its final JSON line."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seconds", f"{seconds:g}",
                   "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} in {tree} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(lines[-1])


def gate_workload(spec: Dict, base_dir: str, head_dir: str,
                  workload: str) -> bool:
    """Run :data:`PAIRS` alternating pairs of *workload*, print one line
    per metric, and return whether the workload passes."""
    runs: Dict[str, List[Dict]] = {"base": [], "head": []}
    trees = {"base": base_dir, "head": head_dir}
    for index in range(PAIRS):
        for side in ("base", "head") if index % 2 == 0 else ("head", "base"):
            runs[side].append(run_once(
                trees[side], spec["command"], workload, spec["run_seconds"]
            ))
    ok = True
    failed = {
        side: sum(r["failed"] for r in rs)
        / max(1, sum(r["attempted"] for r in rs))
        for side, rs in runs.items()
    }
    if failed["head"] > failed["base"]:
        ok = False
        print(f"{workload}: failed share {failed['base']:.4f} -> "
              f"{failed['head']:.4f}  FAIL")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        bad = regressed(metric, base, head)
        ok = ok and not bad
        q1, base_median, q3 = quartiles(base)
        head_median = statistics.median(head)
        change = head_median / base_median - 1 if base_median else 0.0
        print(f"{workload} {name} ({metric['better']} is better): base "
              f"median {base_median:.4g} IQR [{q1:.4g}, {q3:.4g}] -> head "
              f"median {head_median:.4g} ({change:+.1%}); runs base "
              f"{_values(base)} head {_values(head)}"
              + ("  FAIL" if bad else ""))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir")
    parser.add_argument("head_dir")
    args = parser.parse_args(argv)
    with open(os.path.join(args.head_dir, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    results = [
        gate_workload(spec, os.path.abspath(args.base_dir),
                      os.path.abspath(args.head_dir), workload["name"])
        for workload in spec["workloads"]
    ]
    print("paired gate: " + ("PASS" if all(results) else "FAIL"))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
