"""The package stays free of numpy.

Nothing in ``src/repro`` needs it: the simulator's fast path lowers its
operands in plain Python.  Every ``python -m repro`` process, checker,
served pool worker and sweep worker should start without paying for it,
even where numpy is installed.
"""

import ast
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_entry_points_do_not_import_numpy():
    pytest.importorskip("numpy")
    code = (
        "import sys, repro, repro.api, repro.serve, repro.cli, repro.sim.system\n"
        "import repro.sim.compile, repro.sim.vectorize, repro.eval.harness\n"
        "assert 'numpy' not in sys.modules, sorted("
        "m for m in sys.modules if m.split('.')[0] == 'numpy')[:5]\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_no_module_imports_numpy():
    """A static check that also covers modules no entry point imports."""
    offenders = []
    for root, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.split(".")[0] == "numpy" for m in modules):
                    offenders.append(os.path.relpath(path, SRC))
    assert offenders == []
