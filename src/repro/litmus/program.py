"""Program and thread containers for litmus tests."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.labels import AtomicKind
from repro.litmus.ast import (
    If,
    Instr,
    Load,
    Rmw,
    Store,
    While,
    memory_instructions,
)


@dataclass(frozen=True)
class Thread:
    """One thread: an ordered tuple of structured instructions."""

    body: Tuple[Instr, ...]

    def __init__(self, body: Sequence[Instr]):
        object.__setattr__(self, "body", tuple(body))

    def locations(self) -> Tuple[str, ...]:
        names: List[str] = []
        for instr in memory_instructions(self.body):
            for name in instr.loc.possible_names():
                if name not in names:
                    names.append(name)
        return tuple(names)


@dataclass(frozen=True)
class Program:
    """A litmus program: named threads plus initial shared-memory state."""

    name: str
    threads: Tuple[Thread, ...]
    init: Mapping[str, int] = field(default_factory=dict)

    def __init__(
        self,
        name: str,
        threads: Sequence[Sequence[Instr]],
        init: Optional[Mapping[str, int]] = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(
            self,
            "threads",
            tuple(t if isinstance(t, Thread) else Thread(t) for t in threads),
        )
        object.__setattr__(self, "init", dict(init or {}))

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    def locations(self) -> Tuple[str, ...]:
        names: List[str] = []
        for thread in self.threads:
            for name in thread.locations():
                if name not in names:
                    names.append(name)
        for name in self.init:
            if name not in names:
                names.append(name)
        return tuple(names)

    def initial_value(self, loc: str) -> int:
        return self.init.get(loc, 0)

    def kinds_used(self) -> frozenset:
        kinds = set()
        for thread in self.threads:
            for instr in memory_instructions(thread.body):
                kinds.add(instr.kind)
        return frozenset(kinds)

    def uses_quantum(self) -> bool:
        return AtomicKind.QUANTUM in self.kinds_used()

    def relabel(self, mapping: Mapping[AtomicKind, AtomicKind]) -> "Program":
        """Return a copy with every memory label passed through *mapping*.

        Labels absent from *mapping* are kept.  Used to build mislabeled
        litmus variants and to express DRF0/DRF1's coarser label sets.
        """

        def relabel_body(body: Sequence[Instr]) -> Tuple[Instr, ...]:
            out: List[Instr] = []
            for instr in body:
                if isinstance(instr, Load):
                    out.append(
                        Load(instr.dst, instr.loc, mapping.get(instr.kind, instr.kind))
                    )
                elif isinstance(instr, Store):
                    out.append(
                        Store(instr.loc, instr.value, mapping.get(instr.kind, instr.kind))
                    )
                elif isinstance(instr, Rmw):
                    out.append(
                        Rmw(
                            instr.dst,
                            instr.loc,
                            instr.op,
                            instr.operand,
                            instr.operand2,
                            mapping.get(instr.kind, instr.kind),
                        )
                    )
                elif isinstance(instr, If):
                    out.append(
                        If(instr.cond, relabel_body(instr.then), relabel_body(instr.orelse))
                    )
                elif isinstance(instr, While):
                    out.append(
                        While(instr.cond, relabel_body(instr.body), instr.max_iters)
                    )
                else:
                    out.append(instr)
            return tuple(out)

        return Program(
            self.name,
            [relabel_body(thread.body) for thread in self.threads],
            self.init,
        )


def structure_key(program: Program) -> Tuple:
    """Structural identity of a program, name excluded — preparation,
    enumeration, classification and encoding ignore the name."""
    return (repr(program.threads), tuple(sorted(program.init.items())))
