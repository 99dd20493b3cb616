"""Lazy package facades (PEP 562).

A facade such as :mod:`repro.core` re-exports names from its
submodules.  Importing every submodule up front would make each entry
point pay for both halves of the package: the simulator would load the
checker and the litmus library, and ``python -m repro --help`` would
load everything.  :func:`lazy_exports` instead resolves a re-exported
name on first access, imports only the submodule that defines it, and
caches the object in the package namespace, so later lookups are plain
attribute reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]],
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for *package*.

    *exports* maps each submodule (a full dotted name) to the names it
    defines that the package re-exports.  ``__all__`` lists them sorted;
    a package with eager names of its own adds those to it.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return sorted(where), __getattr__, __dir__
