"""Two names kept for ``e2ebench/sim_sweep.py``'s traced replay.

The benchmark's replay imports :func:`available` and
:func:`vectorize_kernel` and times the latter as ``sim.vectorize``.  The
stepper they served is now the one fast path in
:mod:`repro.sim.compile`, whose lowering computes every operand in plain
Python, so both are identities.  Delete this module together with those
imports in the next change to the benchmark.
"""


def available() -> bool:
    """Always true: the fast path needs nothing beyond the standard library."""
    return True


def vectorize_kernel(compiled):
    """Return *compiled* unchanged; :func:`repro.sim.compile.compile_kernel`
    already lowered everything the stepper needs."""
    return compiled
