"""A set-associative L1 cache with protocol-specific line states.

Line states cover both protocols:

- GPU coherence uses VALID only (write-through, no ownership); a paired
  acquire flash-invalidates every valid line.
- DeNovo adds REGISTERED (owned) lines, which survive self-invalidation —
  the key reuse advantage the paper measures — and are written back /
  transferred on remote requests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.tracer import NULL_TRACER, Tracer


class LineState(enum.Enum):
    INVALID = "invalid"
    VALID = "valid"
    REGISTERED = "registered"  # DeNovo: this L1 owns the line

    def __repr__(self) -> str:
        return self.name


@dataclass(slots=True)
class CacheLine:
    tag: int
    state: LineState
    last_use: float = 0.0


class L1Cache:
    """Tag array with LRU replacement inside each set."""

    def __init__(
        self,
        sets: int,
        assoc: int,
        line_bytes: int,
        tracer: Tracer = NULL_TRACER,
        component: str = "l1",
    ):
        if sets < 1 or assoc < 1:
            raise ValueError("cache needs at least one set and one way")
        self.sets = sets
        self.assoc = assoc
        self.line_bytes = line_bytes
        self._sets: List[Dict[int, CacheLine]] = [dict() for _ in range(sets)]
        #: Indices of sets that may hold lines, maintained once
        #: :meth:`enable_touched_tracking` is called; flash invalidations
        #: then visit only those sets instead of the whole tag array.
        self._touched: Optional[set] = None
        self.tracer = tracer
        self.component = component

    def enable_touched_tracking(self) -> None:
        """Track which sets are non-empty so the flash-invalidate paths
        (:meth:`self_invalidate` / :meth:`invalidate_all`) skip empty
        sets.  Called by the compiled engine before any fill; the
        dropped-line counts and resulting cache state are identical."""
        if self._touched is None:
            self._touched = {
                index for index, s in enumerate(self._sets) if s
            }

    def lookup(self, addr: int, now: float = 0.0) -> LineState:
        line = addr // self.line_bytes
        entry = self._sets[line % self.sets].get(line)
        if entry is None or entry.state is LineState.INVALID:
            return LineState.INVALID
        entry.last_use = now
        return entry.state

    def fill(self, addr: int, state: LineState, now: float = 0.0) -> Optional[Tuple[int, LineState]]:
        """Install a line; returns the evicted (line, state) if any."""
        line = addr // self.line_bytes
        cache_set = self._sets[line % self.sets]
        victim: Optional[Tuple[int, LineState]] = None
        existing = cache_set.get(line)
        if existing is not None:
            existing.state = state
            existing.last_use = now
            return None
        if len(cache_set) >= self.assoc:
            # Prefer evicting non-registered lines (registered lines cost a
            # registration transfer); LRU within the preferred class.
            candidates = sorted(
                cache_set.values(),
                key=lambda entry: (entry.state is LineState.REGISTERED, entry.last_use),
            )
            evicted = candidates[0]
            victim = (evicted.tag, evicted.state)
            del cache_set[evicted.tag]
        cache_set[line] = CacheLine(tag=line, state=state, last_use=now)
        if self._touched is not None:
            self._touched.add(line % self.sets)
        if self.tracer.enabled:
            self.tracer.emit(
                now, self.component, "fill",
                line=line, state=state.value,
                evicted=victim[0] if victim else None,
                occupancy=self.occupancy(),
            )
        return victim

    def invalidate_line(self, line: int) -> None:
        cache_set = self._sets[line % self.sets]
        cache_set.pop(line, None)

    def self_invalidate(self, now: float = 0.0) -> int:
        """Flash-invalidate every VALID (non-registered) line; returns the
        number of lines dropped.  This is the acquire action of both
        protocols; DeNovo keeps REGISTERED lines."""
        dropped = 0
        touched = self._touched
        if touched is not None:
            for index in tuple(touched):
                cache_set = self._sets[index]
                stale = [
                    tag for tag, e in cache_set.items()
                    if e.state is LineState.VALID
                ]
                for tag in stale:
                    del cache_set[tag]
                    dropped += 1
                if not cache_set:
                    touched.discard(index)
        else:
            for cache_set in self._sets:
                stale = [tag for tag, e in cache_set.items() if e.state is LineState.VALID]
                for tag in stale:
                    del cache_set[tag]
                    dropped += 1
        if self.tracer.enabled:
            self.tracer.emit(
                now, self.component, "self_invalidate",
                dropped=dropped, kept=self.occupancy(),
            )
        return dropped

    def invalidate_all(self, now: float = 0.0) -> int:
        """Drop everything (GPU coherence acquire; no registered lines exist)."""
        dropped = 0
        touched = self._touched
        if touched is not None:
            for index in touched:
                cache_set = self._sets[index]
                dropped += len(cache_set)
                cache_set.clear()
            touched.clear()
        else:
            for cache_set in self._sets:
                dropped += len(cache_set)
                cache_set.clear()
        if self.tracer.enabled:
            self.tracer.emit(
                now, self.component, "invalidate_all", dropped=dropped,
            )
        return dropped

    def registered_lines(self) -> Iterable[int]:
        for cache_set in self._sets:
            for tag, entry in cache_set.items():
                if entry.state is LineState.REGISTERED:
                    yield tag

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)
