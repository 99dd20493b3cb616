"""What each entry point imports.

The package stays free of numpy: nothing in ``src/repro`` needs it, the
simulator's fast path lowers its operands in plain Python.  And each
entry point loads only the half of the package it runs: the package
facades (``repro``, ``repro.core``, ``repro.eval``, ``repro.sim``)
resolve their names on first access, so a simulator run loads nothing
of the checker but the atomic labels, and parsing a command loads
neither half.  A checking entry point loads the checker when it is
imported, not on its first check.  Each check runs in a fresh
interpreter, since the test session has imported everything already.
"""

import ast
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: The simulator path: what ``e2ebench``'s ``sim_sweep`` imports in
#: set-up, plus the engines its sweeps run.
SIM_PATH = "repro.eval.harness, repro.eval.export, repro.sim.system, repro.sim.compile"

#: The package facades that resolve their names lazily.
FACADES = ("repro", "repro.core", "repro.eval", "repro.sim")


def loaded_after(imports: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after
    ``import <imports>``."""
    code = (
        f"import sys, {imports}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
    )
    return run_fresh("-c", code).split()


def run_fresh(*args: str) -> str:
    """The output of ``python <args>`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_entry_points_do_not_import_numpy():
    pytest.importorskip("numpy")
    run_fresh(
        "-c",
        "import sys, repro, repro.api, repro.serve, repro.cli, repro.sim.system\n"
        "import repro.sim.compile, repro.sim.vectorize, repro.eval.harness\n"
        "assert 'numpy' not in sys.modules, sorted("
        "m for m in sys.modules if m.split('.')[0] == 'numpy')[:5]\n"
    )


def test_simulator_path_loads_only_the_labels_of_the_checker():
    loaded = loaded_after(SIM_PATH)
    assert "repro.sim.system" in loaded and "repro.sim.compile" in loaded
    core = [m for m in loaded if m.startswith("repro.core")]
    assert core == ["repro.core", "repro.core.labels"]
    for package in ("repro.litmus", "repro.solver", "repro.api", "repro.batch"):
        assert not [m for m in loaded if m.split(".")[:2] == package.split(".")], package


def test_cli_parser_loads_neither_half():
    loaded = loaded_after("repro.cli")
    assert "repro.sim.system" not in loaded
    assert "repro.core.model" not in loaded


def test_checker_loads_the_race_kernel_on_import():
    """A checking entry point loads the checker when it is imported, not
    on its first check; the race kernel is part of it."""
    assert "repro.core.race_kernel" in loaded_after("repro.core.model")
    assert "repro.core.race_kernel" not in loaded_after(SIM_PATH)


def test_api_loads_the_checker_up_front():
    """Served pool workers fork from an interpreter that already holds
    the checker; deferring it would move its start-up into requests."""
    assert "repro.core.model" in loaded_after("repro.api")


@pytest.mark.parametrize("package", FACADES)
def test_facade_names_resolve_to_their_definitions(package):
    facade = importlib.import_module(package)
    assert facade.__all__
    for name in facade.__all__:
        value = getattr(facade, name)
        assert name in dir(facade)
        if name == "__version__":
            continue
        defining = getattr(value, "__module__", None)
        if isinstance(defining, str) and defining.startswith("repro."):
            assert getattr(sys.modules[defining], name) is value, name
        else:  # a constant: some submodule binds the same object
            assert any(
                vars(module).get(name) is value
                for key, module in list(sys.modules.items())
                if key.startswith("repro.") and key not in FACADES
            ), name
    with pytest.raises(AttributeError):
        getattr(facade, "no_such_name")


@pytest.mark.parametrize("package", FACADES)
def test_facade_star_import(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    facade = importlib.import_module(package)
    assert {name for name in namespace if name != "__builtins__"} == set(facade.__all__)


@pytest.mark.parametrize("example", ["quickstart.py", "dsl_litmus.py"])
def test_examples_run_through_the_facades(example):
    assert run_fresh(os.path.join(ROOT, "examples", example))


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
