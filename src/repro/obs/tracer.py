"""Structured tracing for the simulator and the SC enumerator.

A :class:`Tracer` collects :class:`TraceEvent` records — *(cycle,
component, event, attrs)*, optionally with a duration — and maintains a
stack of hierarchical scopes (kernel → phase → …) so every event knows
where in the run it happened.  The default tracer everywhere is
:data:`NULL_TRACER`, a no-op whose cost at an instrumentation site is a
single attribute check (``if tracer.enabled: …``), so untraced runs pay
nearly nothing (``tests/obs/test_overhead.py`` holds the no-op tracer
to a 5% budget).

Instrumented producers:

- the timing simulator (:mod:`repro.sim.engine` resources, the memory
  hierarchy, the NoC, both coherence protocols, per-phase scopes), and
- the SC-execution enumerator (:mod:`repro.core.executions` steps,
  POR prunes, memo hits), where "cycle" is the enumeration step count.

Consumers live in :mod:`repro.obs.export` (JSONL and Chrome
``trace_event`` files) and :mod:`repro.obs.timeline` (cycle-bucketed
aggregation for utilization/occupancy plots).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple


class TraceEvent:
    """One trace record.

    ``dur`` is ``None`` for instant events; a duration (in the tracer's
    clock unit, simulator cycles unless stated otherwise) marks a span —
    a resource busy interval, a scope, a transfer in flight.
    """

    __slots__ = ("cycle", "component", "name", "dur", "scope", "attrs")

    def __init__(
        self,
        cycle: float,
        component: str,
        name: str,
        dur: Optional[float] = None,
        scope: str = "",
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.cycle = cycle
        self.component = component
        self.name = name
        self.dur = dur
        self.scope = scope
        self.attrs = attrs or {}

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "cycle": self.cycle,
            "component": self.component,
            "event": self.name,
        }
        if self.dur is not None:
            record["dur"] = self.dur
        if self.scope:
            record["scope"] = self.scope
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    def __repr__(self) -> str:
        dur = f", dur={self.dur:g}" if self.dur is not None else ""
        return (
            f"TraceEvent({self.cycle:g}, {self.component!r}, "
            f"{self.name!r}{dur})"
        )


class _Scope:
    """An open hierarchical scope; closes into a span event."""

    __slots__ = ("tracer", "name", "component", "start", "_open")

    def __init__(self, tracer: "Tracer", name: str, component: str, start: float):
        self.tracer = tracer
        self.name = name
        self.component = component
        self.start = start
        self._open = True

    def close(self, cycle: Optional[float] = None) -> None:
        """End the scope at *cycle* (default: the last cycle traced)."""
        if not self._open:
            return
        self._open = False
        self.tracer._close_scope(self, cycle)

    def __enter__(self) -> "_Scope":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Tracer:
    """Collects trace events with hierarchical scopes.

    ``enabled`` is checked by hot instrumentation sites before building
    event attributes; setting it ``False`` turns a live tracer into a
    no-op without unthreading it.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: List[TraceEvent] = []
        self.last_cycle: float = 0.0
        self._stack: List[str] = []

    # -- recording ----------------------------------------------------------
    def emit(
        self,
        cycle: float,
        component: str,
        event: str,
        dur: Optional[float] = None,
        **attrs: Any,
    ) -> None:
        """Record one event; ``dur`` (if given) makes it a span."""
        if not self.enabled:
            return
        if cycle > self.last_cycle:
            self.last_cycle = cycle
        self.events.append(
            TraceEvent(cycle, component, event, dur, self.scope_path, attrs)
        )

    # -- scopes -------------------------------------------------------------
    @property
    def scope_path(self) -> str:
        return "/".join(self._stack)

    def scope(self, name: str, cycle: Optional[float] = None, component: str = "scope") -> _Scope:
        """Open a hierarchical scope starting at *cycle* (default: the
        last cycle traced).  Use as a context manager, or call
        :meth:`_Scope.close` with an explicit end cycle."""
        if not self.enabled:
            return _NULL_SCOPE
        start = self.last_cycle if cycle is None else cycle
        self._stack.append(name)
        return _Scope(self, name, component, start)

    def _close_scope(self, scope: _Scope, cycle: Optional[float]) -> None:
        end = self.last_cycle if cycle is None else cycle
        if self._stack and self._stack[-1] == scope.name:
            self._stack.pop()
        elif scope.name in self._stack:  # out-of-order close: unwind to it
            while self._stack and self._stack.pop() != scope.name:
                pass
        if end > self.last_cycle:
            self.last_cycle = end
        self.events.append(
            TraceEvent(
                scope.start,
                scope.component,
                scope.name,
                max(0.0, end - scope.start),
                self.scope_path,
            )
        )

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def components(self) -> Tuple[str, ...]:
        """Component names in order of first appearance."""
        seen: List[str] = []
        for event in self.events:
            if event.component not in seen:
                seen.append(event.component)
        return tuple(seen)

    def clear(self) -> None:
        self.events.clear()
        self._stack.clear()
        self.last_cycle = 0.0


class NullTracer(Tracer):
    """The no-op default: every recording method returns immediately.

    A singleton (:data:`NULL_TRACER`) is threaded through the simulator
    by default; instrumentation sites guard attribute-building work with
    ``if tracer.enabled``, so the untraced cost is one boolean check.
    """

    def __init__(self):
        super().__init__(enabled=False)

    def emit(self, cycle, component, event, dur=None, **attrs) -> None:  # noqa: D102
        return

    def scope(self, name, cycle=None, component="scope") -> _Scope:  # noqa: D102
        return _NULL_SCOPE


class _NullScopeSingleton(_Scope):
    __slots__ = ()

    def __init__(self):
        pass  # no state; never records anything

    def close(self, cycle: Optional[float] = None) -> None:
        return

    def __enter__(self) -> "_Scope":
        return self

    def __exit__(self, *exc) -> None:
        return


_NULL_SCOPE = _NullScopeSingleton()

#: The shared no-op tracer every instrumented component defaults to.
NULL_TRACER = NullTracer()
