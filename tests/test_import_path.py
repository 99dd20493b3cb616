"""The checker's import path stays free of numpy.

numpy powers only the vectorized simulator (``repro.sim.vectorize``),
which ``repro.sim.system`` and ``repro.eval.harness`` import lazily.
Every ``python -m repro`` process, checker and served pool worker
should start without paying for it.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_entry_points_do_not_import_numpy():
    pytest.importorskip("numpy")
    code = (
        "import sys, repro, repro.api, repro.serve, repro.cli, repro.sim.system\n"
        "assert 'numpy' not in sys.modules, sorted("
        "m for m in sys.modules if m.split('.')[0] == 'numpy')[:5]\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
