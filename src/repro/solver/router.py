"""Static engine router: pick enum or sat from the interleaving space.

``model.check(engine="auto")`` has to choose between the explicit
interleaving enumerator and the solver-backed class enumerator *before*
running either.  The solver pays a grounding and encoding cost up front
that only a large interleaving space repays, and RMW operands multiply
the grounder's thread shapes by their value domains (one RMW splits a
thread of a three-thread fuzz program into 81 shapes).  So the rule
is: route to the solver iff the prepared program has no RMW and its
interleaving bound exceeds :data:`SAT_THRESHOLD`.

The bound is the multinomial coefficient of the per-thread static step
bounds (the number of ways to interleave that many memory operations,
loops weighted by their unrolling bound) times ``2 ** havoc``, one
factor of two per havoc'd operation (drfrlx's quantum transformation
adds them).  It is computed from the program text alone: no grounding
runs and no warm state is consulted, so a program always routes the
same way and ``check`` results stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from repro.core.executions import _body_step_bound
from repro.litmus.ast import Rmw
from repro.litmus.program import Program
from repro.solver.encode import static_memory_ops

#: Route to the solver once a program's interleaving bound exceeds
#: this.  Any value from 5760 up to 40320 routes the corpus, two
#: 500-program fuzz campaigns and the scaled families the same way; the
#: corpus and fuzz programs stay below 1000.
SAT_THRESHOLD = 10_000


@dataclass(frozen=True)
class RouterDecision:
    """One routing decision and the static facts behind it."""

    engine: str  # "enum" | "sat"
    #: Interleaving bound: multinomial of per-thread step bounds times
    #: ``2 ** havoc``.
    interleavings: int
    rmws: int


def decide(program: Program) -> RouterDecision:
    """Route a *prepared* program to ``"enum"`` or ``"sat"``."""
    steps = [_body_step_bound(thread.body) for thread in program.threads]
    interleavings = factorial(sum(steps))
    for count in steps:
        interleavings //= factorial(count)
    ops = static_memory_ops(program)
    interleavings <<= sum(1 for op in ops if op.havoc)
    rmws = sum(1 for op in ops if isinstance(op, Rmw))
    sat = not rmws and interleavings > SAT_THRESHOLD
    return RouterDecision(
        engine="sat" if sat else "enum",
        interleavings=interleavings,
        rmws=rmws,
    )
