"""A tiny relational algebra over finite binary relations.

This is the substrate on which Listing 7 of the paper (the Herd model of
DRFrlx) is transcribed.  A relation is a finite set of ordered pairs of
hashable elements, supporting the operators Herd's cat language provides:
union, intersection, difference, sequential composition (``;``),
transitive closure (``+``), reflexive-transitive closure (``*``), inverse
(``^-1``), and restriction to cartesian products of sets (``S1 * S2``).

Two representations implement that algebra, one fast path and one
oracle:

- :class:`DenseRelation` — an index-mapped bitset representation, the
  same technique Herd/memalloy-style tools use for relational model
  checking.  Elements are interned to dense integer ids by an
  :class:`EventIndex`; a relation is one Python-int bitmask per row, and
  union / intersection / difference / compose / closure / inverse /
  restrict become bit-parallel integer operations.  Every relation an
  :class:`repro.core.events.Execution` derives is one.
- :class:`Relation` — the original frozenset-of-pairs representation.
  Fully general (any hashable elements, no universe needed): the oracle
  the equivalence tests check :class:`DenseRelation` against, and the
  fallback a dense operator takes when its operands mix universes.

Both classes expose the same public surface and compare equal (and hash
equal) when they contain the same pairs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

Pair = Tuple[Hashable, Hashable]


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of *mask*, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class EventIndex:
    """Interns a fixed universe of hashable elements to dense integer ids.

    One index is built per execution (or per test universe); every
    :class:`DenseRelation` carries a reference to the index that maps its
    row/bit positions back to elements.  Identity of the index object is
    what lets two dense relations combine without re-interning.
    """

    __slots__ = ("elements", "ids")

    def __init__(self, elements: Iterable[Hashable]):
        # One hash per element in the common (all-distinct) case; the
        # length check catches duplicates, which then take the slow path.
        seq = tuple(elements)
        ids: Dict[Hashable, int] = {el: i for i, el in enumerate(seq)}
        if len(ids) != len(seq):
            ids = {}
            for element in seq:
                if element not in ids:
                    ids[element] = len(ids)
        self.ids = ids
        self.elements: Tuple[Hashable, ...] = tuple(ids)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, element: Hashable) -> bool:
        return element in self.ids

    def id_of(self, element: Hashable) -> int:
        return self.ids[element]

    def mask_of(self, elements: Iterable[Hashable]) -> int:
        """Bitmask of the given elements; unknown elements are skipped
        (they cannot participate in any relation over this universe)."""
        ids = self.ids
        mask = 0
        for element in elements:
            i = ids.get(element)
            if i is not None:
                mask |= 1 << i
        return mask

    def relation(self, pairs: Iterable[Pair] = ()) -> "DenseRelation":
        """Build a :class:`DenseRelation` over this universe from pairs.

        Raises :class:`KeyError` when a pair element was not interned.
        """
        rows = [0] * len(self.elements)
        ids = self.ids
        for a, b in pairs:
            rows[ids[a]] |= 1 << ids[b]
        return DenseRelation(self, tuple(rows))

    def empty(self) -> "DenseRelation":
        return DenseRelation(self, (0,) * len(self.elements))


class Relation:
    """An immutable finite binary relation (frozenset of pairs)."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Iterable[Pair] = ()):
        self._pairs: FrozenSet[Pair] = frozenset(pairs)

    # -- basic container protocol -------------------------------------------------
    def __contains__(self, pair: Pair) -> bool:
        return pair in self._pairs

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Relation):
            return self._pairs == other._pairs
        if isinstance(other, DenseRelation):
            return self._pairs == other.pairs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        shown = sorted(self._pairs, key=repr)
        return f"Relation({shown!r})"

    @property
    def pairs(self) -> FrozenSet[Pair]:
        return self._pairs

    # -- set-algebra operators ----------------------------------------------------
    def __or__(self, other: "RelationLike") -> "RelationLike":
        if isinstance(other, Relation):
            return Relation(self._pairs | other._pairs)
        return NotImplemented

    def __and__(self, other: "RelationLike") -> "RelationLike":
        if isinstance(other, Relation):
            return Relation(self._pairs & other._pairs)
        return NotImplemented

    def __sub__(self, other: "RelationLike") -> "RelationLike":
        if isinstance(other, Relation):
            return Relation(self._pairs - other._pairs)
        return NotImplemented

    # -- relational operators -----------------------------------------------------
    def compose(self, other: "RelationLike") -> "Relation":
        """Sequential composition ``self ; other``."""
        by_first: Dict[Hashable, Set[Hashable]] = defaultdict(set)
        for a, b in other.pairs:
            by_first[a].add(b)
        out: Set[Pair] = set()
        for a, b in self._pairs:
            for c in by_first.get(b, ()):
                out.add((a, c))
        return Relation(out)

    def inverse(self) -> "Relation":
        return Relation((b, a) for a, b in self._pairs)

    def transitive_closure(self) -> "Relation":
        """Irreflexive transitive closure (Herd's ``+``)."""
        succ: Dict[Hashable, Set[Hashable]] = defaultdict(set)
        for a, b in self._pairs:
            succ[a].add(b)
        closure: Set[Pair] = set()
        for start in list(succ):
            seen: Set[Hashable] = set()
            frontier = list(succ[start])
            while frontier:
                node = frontier.pop()
                if node in seen:
                    continue
                seen.add(node)
                frontier.extend(succ.get(node, ()))
            closure.update((start, node) for node in seen)
        return Relation(closure)

    def reflexive_closure_over(self, domain: Iterable[Hashable]) -> "Relation":
        """``self`` plus the identity over *domain* (Herd's ``?`` needs a carrier)."""
        return Relation(set(self._pairs) | {(x, x) for x in domain})

    def is_acyclic(self) -> bool:
        """Iterative three-color DFS; never materializes the closure."""
        succ: Dict[Hashable, List[Hashable]] = defaultdict(list)
        for a, b in self._pairs:
            if a == b:
                return False
            succ[a].append(b)
        # 1 = on the current DFS path (gray), 2 = fully explored (black).
        color: Dict[Hashable, int] = {}
        for start in list(succ):
            if color.get(start):
                continue
            stack: List[Tuple[Hashable, Iterator[Hashable]]] = [
                (start, iter(succ[start]))
            ]
            color[start] = 1
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    state = color.get(child)
                    if state == 1:
                        return False  # back edge: cycle
                    if state is None:
                        color[child] = 1
                        stack.append((child, iter(succ.get(child, ()))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack.pop()
        return True

    def restrict(self, first: AbstractSet, second: AbstractSet) -> "Relation":
        """Restriction ``self & (first * second)``."""
        return Relation(
            (a, b) for a, b in self._pairs if a in first and b in second
        )

    def domain(self) -> FrozenSet[Hashable]:
        return frozenset(a for a, _ in self._pairs)

    def codomain(self) -> FrozenSet[Hashable]:
        return frozenset(b for _, b in self._pairs)

    def elements(self) -> FrozenSet[Hashable]:
        return self.domain() | self.codomain()

    def successors(self, node: Hashable) -> FrozenSet[Hashable]:
        return frozenset(b for a, b in self._pairs if a == node)

    def filter(self, predicate) -> "Relation":
        """Keep only pairs for which ``predicate(a, b)`` holds."""
        return Relation((a, b) for a, b in self._pairs if predicate(a, b))


class DenseRelation:
    """An immutable finite binary relation over an :class:`EventIndex`.

    ``rows[i]`` is the successor bitmask of the element with id ``i``:
    bit ``j`` is set iff ``(elements[i], elements[j])`` is in the
    relation.  All operators are bit-parallel: union/intersection/
    difference are rowwise ``|``/``&``/``&~``, composition is a row-OR
    gather, transitive closure is bit-Warshall over rows, and acyclicity
    is an iterative DFS over successor masks that never builds a closure.
    """

    __slots__ = ("index", "rows", "_pairs_cache")

    def __init__(self, index: EventIndex, rows: Sequence[int]):
        self.index = index
        self.rows: Tuple[int, ...] = tuple(rows)
        self._pairs_cache: Optional[FrozenSet[Pair]] = None
        if len(self.rows) != len(index.elements):
            raise ValueError(
                f"{len(self.rows)} rows for a universe of "
                f"{len(index.elements)} elements"
            )

    # -- basic container protocol -------------------------------------------------
    def __contains__(self, pair: Pair) -> bool:
        a, b = pair
        ids = self.index.ids
        ia = ids.get(a)
        ib = ids.get(b)
        if ia is None or ib is None:
            return False
        return bool(self.rows[ia] >> ib & 1)

    def __iter__(self) -> Iterator[Pair]:
        elements = self.index.elements
        for i, row in enumerate(self.rows):
            if row:
                a = elements[i]
                for j in _iter_bits(row):
                    yield (a, elements[j])

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def __bool__(self) -> bool:
        return any(self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DenseRelation):
            if other.index is self.index:
                return self.rows == other.rows
            return self.pairs == other.pairs
        if isinstance(other, Relation):
            return self.pairs == other.pairs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        shown = sorted(self.pairs, key=repr)
        return f"DenseRelation({shown!r})"

    @property
    def pairs(self) -> FrozenSet[Pair]:
        cached = self._pairs_cache
        if cached is None:
            cached = frozenset(iter(self))
            object.__setattr__(self, "_pairs_cache", cached)
        return cached

    # -- coercion ----------------------------------------------------------------
    def _coerce(self, other: "RelationLike") -> "DenseRelation":
        """Bring *other* onto this relation's index.

        Raises :class:`KeyError` when *other* mentions an element outside
        this universe; binary operators fall back to a pair-set
        :class:`Relation` in that case, so mixing universes degrades gracefully instead of
        failing.
        """
        if isinstance(other, DenseRelation):
            if other.index is self.index:
                return other
            return self.index.relation(other.pairs)
        if isinstance(other, Relation):
            return self.index.relation(other.pairs)
        raise TypeError(f"not a relation: {other!r}")

    def _pairwise(self) -> Relation:
        return Relation(self.pairs)

    # -- set-algebra operators ----------------------------------------------------
    def __or__(self, other: "RelationLike") -> "RelationLike":
        try:
            o = self._coerce(other)
        except KeyError:
            return self._pairwise() | Relation(other.pairs)
        return DenseRelation(
            self.index, tuple(a | b for a, b in zip(self.rows, o.rows))
        )

    def __ror__(self, other: "RelationLike") -> "RelationLike":
        return self.__or__(other)

    def __and__(self, other: "RelationLike") -> "RelationLike":
        try:
            o = self._coerce(other)
        except KeyError:
            return self._pairwise() & Relation(other.pairs)
        return DenseRelation(
            self.index, tuple(a & b for a, b in zip(self.rows, o.rows))
        )

    def __rand__(self, other: "RelationLike") -> "RelationLike":
        return self.__and__(other)

    def __sub__(self, other: "RelationLike") -> "RelationLike":
        try:
            o = self._coerce(other)
        except KeyError:
            return self._pairwise() - Relation(other.pairs)
        return DenseRelation(
            self.index, tuple(a & ~b for a, b in zip(self.rows, o.rows))
        )

    def __rsub__(self, other: "RelationLike") -> "RelationLike":
        # other - self, with other a pair-set Relation.
        try:
            o = self._coerce(other)
        except KeyError:
            return Relation(other.pairs) - self._pairwise()
        return DenseRelation(
            self.index, tuple(a & ~b for a, b in zip(o.rows, self.rows))
        )

    # -- relational operators -----------------------------------------------------
    def compose(self, other: "RelationLike") -> "RelationLike":
        """Sequential composition ``self ; other`` (row-OR gather)."""
        try:
            o = self._coerce(other)
        except KeyError:
            return self._pairwise().compose(Relation(other.pairs))
        orows = o.rows
        out: List[int] = []
        for row in self.rows:
            acc = 0
            for j in _iter_bits(row):
                acc |= orows[j]
            out.append(acc)
        return DenseRelation(self.index, out)

    def inverse(self) -> "DenseRelation":
        rows = self.rows
        out = [0] * len(rows)
        for i, row in enumerate(rows):
            bit = 1 << i
            for j in _iter_bits(row):
                out[j] |= bit
        return DenseRelation(self.index, out)

    def transitive_closure(self) -> "DenseRelation":
        """Irreflexive transitive closure: bit-parallel Warshall.

        ``O(n^2)`` row operations, each a single wide integer ``|``; for
        the tens-of-events universes of litmus executions this is orders
        of magnitude cheaper than the pair-set flood fill.  When every
        edge goes forward in id order (the common case in this codebase:
        execution ids are positions in the SC total order, and po/so1/hb
        edges all point T-forward), id order is a topological order and a
        single reverse pass closes the relation in ``O(edges)`` row ops.
        """
        rows = list(self.rows)
        n = len(rows)
        forward = True
        for i in range(n):
            if rows[i] & ((1 << (i + 1)) - 1):
                forward = False
                break
        if forward:
            for i in range(n - 1, -1, -1):
                row = rows[i]
                acc = row
                while row:
                    low = row & -row
                    acc |= rows[low.bit_length() - 1]
                    row ^= low
                rows[i] = acc
            return DenseRelation(self.index, rows)
        for k in range(n):
            rk = rows[k]
            if not rk:
                continue
            bit = 1 << k
            for i in range(n):
                if rows[i] & bit:
                    rows[i] |= rk
        return DenseRelation(self.index, rows)

    def reflexive_closure_over(
        self, domain: Iterable[Hashable]
    ) -> "RelationLike":
        domain = tuple(domain)
        ids = self.index.ids
        if any(x not in ids for x in domain):
            return self._pairwise().reflexive_closure_over(domain)
        rows = list(self.rows)
        for x in domain:
            rows[ids[x]] |= 1 << ids[x]
        return DenseRelation(self.index, rows)

    def is_acyclic(self) -> bool:
        """Iterative DFS over successor bitmasks; no closure built."""
        rows = self.rows
        n = len(rows)
        color = [0] * n  # 0 white, 1 gray (on path), 2 black
        for start in range(n):
            if color[start] or not rows[start]:
                continue
            stack: List[Tuple[int, int]] = [(start, rows[start])]
            color[start] = 1
            while stack:
                node, pending = stack[-1]
                if pending:
                    low = pending & -pending
                    child = low.bit_length() - 1
                    stack[-1] = (node, pending ^ low)
                    state = color[child]
                    if state == 1:
                        return False  # back edge: cycle (incl. self-loop)
                    if state == 0:
                        color[child] = 1
                        stack.append((child, rows[child]))
                else:
                    color[node] = 2
                    stack.pop()
        return True

    def restrict(
        self, first: AbstractSet, second: AbstractSet
    ) -> "DenseRelation":
        """Restriction ``self & (first * second)``."""
        index = self.index
        mask_second = index.mask_of(second)
        ids = index.ids
        first_ids = {ids[x] for x in first if x in ids}
        rows = [
            (row & mask_second) if i in first_ids else 0
            for i, row in enumerate(self.rows)
        ]
        return DenseRelation(index, rows)

    def domain(self) -> FrozenSet[Hashable]:
        elements = self.index.elements
        return frozenset(
            elements[i] for i, row in enumerate(self.rows) if row
        )

    def codomain(self) -> FrozenSet[Hashable]:
        mask = 0
        for row in self.rows:
            mask |= row
        elements = self.index.elements
        return frozenset(elements[j] for j in _iter_bits(mask))

    def elements(self) -> FrozenSet[Hashable]:
        return self.domain() | self.codomain()

    def successors(self, node: Hashable) -> FrozenSet[Hashable]:
        i = self.index.ids.get(node)
        if i is None:
            return frozenset()
        elements = self.index.elements
        return frozenset(elements[j] for j in _iter_bits(self.rows[i]))

    def filter(self, predicate) -> "DenseRelation":
        """Keep only pairs for which ``predicate(a, b)`` holds."""
        elements = self.index.elements
        rows: List[int] = []
        for i, row in enumerate(self.rows):
            if not row:
                rows.append(0)
                continue
            a = elements[i]
            out = 0
            for j in _iter_bits(row):
                if predicate(a, elements[j]):
                    out |= 1 << j
            rows.append(out)
        return DenseRelation(self.index, rows)


#: Either representation; both expose the same public surface.
RelationLike = Relation  # for annotations; DenseRelation is duck-equal


def product(
    first: AbstractSet,
    second: AbstractSet,
    index: Optional[EventIndex] = None,
) -> "RelationLike":
    """Herd's ``S1 * S2`` cartesian-product relation.

    With *index*, builds the product densely in O(|first|) row writes.
    """
    if index is not None:
        mask_second = index.mask_of(second)
        ids = index.ids
        first_ids = {ids[x] for x in first if x in ids}
        rows = [
            mask_second if i in first_ids else 0
            for i in range(len(index.elements))
        ]
        return DenseRelation(index, rows)
    return Relation((a, b) for a in first for b in second)


def at_least_one(
    subset: AbstractSet,
    universe: AbstractSet,
    index: Optional[EventIndex] = None,
) -> "RelationLike":
    """Herd's ``at-least-one S = S*_ | _*S``: pairs touching *subset*."""
    if index is not None:
        mask_universe = index.mask_of(universe)
        mask_subset = index.mask_of(subset) & mask_universe
        ids = index.ids
        universe_ids = {ids[x] for x in universe if x in ids}
        subset_ids = {i for i in universe_ids if mask_subset >> i & 1}
        rows = [
            (mask_universe if i in subset_ids else mask_subset)
            if i in universe_ids
            else 0
            for i in range(len(index.elements))
        ]
        return DenseRelation(index, rows)
    pairs = set()
    for a in universe:
        for b in universe:
            if a in subset or b in subset:
                pairs.add((a, b))
    return Relation(pairs)


def identity(
    domain: Iterable[Hashable],
    index: Optional[EventIndex] = None,
) -> "RelationLike":
    if index is not None:
        rows = [0] * len(index.elements)
        ids = index.ids
        for x in domain:
            i = ids[x]
            rows[i] |= 1 << i
        return DenseRelation(index, rows)
    return Relation((x, x) for x in domain)


def union_all(
    relations: Iterable["RelationLike"],
    index: Optional[EventIndex] = None,
) -> "RelationLike":
    relations = list(relations)
    if index is not None:
        rows = [0] * len(index.elements)
        for rel in relations:
            dense = rel if (
                isinstance(rel, DenseRelation) and rel.index is index
            ) else index.relation(rel.pairs)
            rows = [a | b for a, b in zip(rows, dense.rows)]
        return DenseRelation(index, rows)
    pairs: Set[Pair] = set()
    for rel in relations:
        pairs.update(rel.pairs)
    return Relation(pairs)
