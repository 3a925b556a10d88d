"""Caterpillar forests with stable vertex identities.

A caterpillar is a tree whose non-leaf vertices form a path (the spine).
We keep the spine explicit: a component is a tuple of spine vertices plus,
for each spine position, a tuple of attached leaves.  Vertex ids are
structural ("s3", "l3.1") and survive deletions unchanged, which is what the
reconfiguration layers need to talk about token positions across induced
subgraphs.

Deletion has induced-subgraph semantics: surviving vertices keep exactly the
edges they had before, so deleting a spine vertex orphans its remaining
leaves into singleton components and splits the spine into runs.

Each component has one vertex table, `Ranks`: its vertices numbered in the
routing order, with each rank's spine position.  Membership, neighbours,
deletion, the planner's routing, the slide test and the rigidity engine all
read it, and token sets over a component are ints over its ranks.  A
forest has one vertex table too, `_component`: each vertex's component,
built in one pass.  These and the other derived structure (canonical form,
vertex sets, the memo of cover verdicts) are computed on first use and
stored on the frozen object they describe, as a `cached_property`, so they
live exactly as long as that object.  No module keeps a module-level cache.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, total_ordering
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from .errors import InputError

_ID_RE = re.compile(r"^(?:s(\d+)|l(\d+)\.(\d+))$")


@total_ordering
@dataclass(frozen=True)
class VertexId:
    """Structural vertex identity: spine vertex s<i> or leaf l<i>.<j>.

    Ids order by (spine index, spine vertex before its leaves, leaf
    index).  This is only a tie-break order; the routing order is
    Caterpillar._ranks (see Ranks).
    """

    kind: str  # "s" or "l"
    spine_index: int
    leaf_index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("s", "l"):
            raise InputError(f"bad vertex kind {self.kind!r}")
        if self.kind == "s" and self.leaf_index != 0:
            raise InputError("spine vertex cannot carry a leaf index")
        if self.spine_index < 1 or (self.kind == "l" and self.leaf_index < 1):
            raise InputError(f"vertex indices are 1-based: {self}")
        object.__setattr__(
            self, "_hash", hash((self.kind, self.spine_index, self.leaf_index))
        )
        object.__setattr__(
            self,
            "_sort_key",
            (self.spine_index, 0 if self.kind == "s" else 1, self.leaf_index),
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __str__(self) -> str:
        if self.kind == "s":
            return f"s{self.spine_index}"
        return f"l{self.spine_index}.{self.leaf_index}"

    def __repr__(self) -> str:
        return f"VertexId({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "VertexId":
        m = _ID_RE.match(text)
        if m is None:
            raise InputError(f"bad vertex id {text!r}")
        if m.group(1) is not None:
            return cls("s", int(m.group(1)))
        return cls("l", int(m.group(2)), int(m.group(3)))

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return self._sort_key  # type: ignore[attr-defined]

    def __lt__(self, other: "VertexId") -> bool:
        return self._sort_key < other._sort_key  # type: ignore[attr-defined]


def S(i: int) -> VertexId:
    return VertexId("s", i)


def L(i: int, j: int) -> VertexId:
    return VertexId("l", i, j)


@dataclass(frozen=True)
class Caterpillar:
    """One caterpillar component: spine left to right, leaves per position."""

    spine: tuple[VertexId, ...]
    leaves: tuple[tuple[VertexId, ...], ...]

    def __post_init__(self) -> None:
        if len(self.spine) != len(self.leaves):
            raise InputError("spine and leaf tuples misaligned")
        if not self.spine:
            raise InputError("empty component")
        seen: set[VertexId] = set()
        for v in self.all_vertices():
            if v in seen:
                raise InputError(f"duplicate vertex {v}")
            seen.add(v)

    def __hash__(self) -> int:
        # The hash and the derived tables below are cached_property values:
        # computed on first use into this component's own __dict__, which
        # the field-based eq and repr never read, and gone with it.
        return self._hash

    def all_vertices(self) -> Iterator[VertexId]:
        for s, ls in zip(self.spine, self.leaves):
            yield s
            yield from ls

    @property
    def n(self) -> int:
        return len(self.spine) + sum(len(ls) for ls in self.leaves)

    @cached_property
    def _hash(self) -> int:
        return hash((self.spine, self.leaves))

    @cached_property
    def _ranks(self) -> "Ranks":
        return Ranks(self)

    def neighbors(self, v: VertexId) -> tuple[VertexId, ...]:
        """Left spine neighbour, right spine neighbour, then leaves; a
        leaf's only neighbour is its spine vertex."""
        ranks = self._ranks
        r = ranks.rank[v]
        i = ranks.pos[r]
        if ranks.spine[i] != r:
            return (self.spine[i],)
        return self.spine[max(i - 1, 0) : i] + self.spine[i + 1 : i + 2] + self.leaves[i]

    @cached_property
    def _min_vertex(self) -> VertexId:
        return min(self.all_vertices(), key=attrgetter("_sort_key"))

    @property
    def _canonical(self) -> "Caterpillar":
        """Leaf tuples sorted, and a leafless spine endpoint reclassified as
        a leaf of its neighbour.  The neighbour's leaf tuple is then
        non-empty, so at most one endpoint folds in per side.  A component
        already in normal form is its own canonical form."""
        other = self._canonical_other
        return self if other is None else other

    @cached_property
    def _canonical_other(self) -> "Caterpillar | None":
        """The canonical form when it is another object, else None: caching
        the component itself would be a reference cycle, freed only by the
        cycle collector."""
        spine = self.spine
        leaves = tuple(tuple(sorted(ls)) for ls in self.leaves)
        if len(spine) >= 2 and not leaves[0]:
            leaves = (tuple(sorted(leaves[1] + spine[:1])),) + leaves[2:]
            spine = spine[1:]
        if len(spine) >= 2 and not leaves[-1]:
            leaves = leaves[:-2] + (tuple(sorted(leaves[-2] + spine[-1:])),)
            spine = spine[:-1]
        if spine is self.spine and leaves == self.leaves:
            return None
        return _raw_component(spine, leaves)

    def longest_path_vertices(self) -> int:
        """Vertex count of a longest simple path (see `longest_path`)."""
        return longest_path(len(self.spine), len(self.leaves[0]), len(self.leaves[-1]))


def longest_path(run: int, first: int, last: int) -> int:
    """Vertex count of a longest simple path in a caterpillar whose spine
    has `run` positions, with `first` leaves at its first position and
    `last` at its last (one position, counted twice, when run == 1).  Every
    vertex off the spine is a leaf, so a longest path runs the whole spine
    plus one leaf at each spine end that has one; a one-vertex spine is a
    star."""
    if run == 1:
        return 1 + min(2, first)
    return run + bool(first) + bool(last)


class Ranks:
    """A component's vertices numbered in the routing order: the leaves of
    spine position i (sorted), then its spine vertex, then position i + 1.
    Position i thus holds the contiguous ranks first[i]..spine[i], its
    leaves below its spine vertex, and rank r is a spine vertex exactly
    when spine[pos[r]] == r.  This is the component's only vertex table.
    Token sets over these ranks are ints (`mask_of`), which the slide test
    (`_kpaths.slide_ok`) reads for the planner, the generator and the
    rigidity engine."""

    __slots__ = ("order", "rank", "pos", "spine", "first")

    def __init__(self, comp: Caterpillar):
        order: list[VertexId] = []
        self.pos: list[int] = []  # spine position of each rank
        self.spine: list[int] = []  # rank of each position's spine vertex
        self.first: list[int] = []  # rank of each position's first vertex
        for i, (s, ls) in enumerate(zip(comp.spine, comp.leaves)):
            self.first.append(len(order))
            order.extend(sorted(ls))
            order.append(s)
            self.spine.append(len(order) - 1)
            self.pos.extend([i] * (len(ls) + 1))
        self.order = tuple(order)
        self.rank = {v: r for r, v in enumerate(order)}

    def mask_of(self, vertices: Iterable[VertexId]) -> int:
        """The int with bit rank[v] set for each v, in time linear in the
        component: one binary digit string, its last digit rank 0."""
        digits = bytearray(b"0" * len(self.order))
        for v in vertices:
            digits[~self.rank[v]] = ord("1")
        return int(digits, 2)


def _raw_component(
    spine: tuple[VertexId, ...], leaves: tuple[tuple[VertexId, ...], ...]
) -> Caterpillar:
    """Internal constructor that skips duplicate validation.  Only for
    surgery on already-validated forests (delete, canonical)."""
    c = object.__new__(Caterpillar)
    object.__setattr__(c, "spine", spine)
    object.__setattr__(c, "leaves", leaves)
    return c


def _raw_forest(components: tuple[Caterpillar, ...]) -> CaterpillarForest:
    f = object.__new__(CaterpillarForest)
    object.__setattr__(f, "components", components)
    return f


@dataclass(frozen=True)
class CaterpillarForest:
    """A disjoint union of caterpillar components."""

    components: tuple[Caterpillar, ...]

    def __post_init__(self) -> None:
        seen: set[VertexId] = set()
        for c in self.components:
            for v in c.all_vertices():
                if v in seen:
                    raise InputError(f"duplicate vertex {v} across components")
                seen.add(v)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.components)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_counts(
        cls, spine_len: int, leaf_counts: Mapping[int, int] | None = None
    ) -> "CaterpillarForest":
        """Build the standard single caterpillar s1..s<spine_len> with
        leaf_counts[i] leaves l<i>.1.. attached at position i (1-based)."""
        if spine_len < 1:
            raise InputError("spine length must be >= 1")
        leaf_counts = dict(leaf_counts or {})
        for i, c in leaf_counts.items():
            if not (1 <= i <= spine_len):
                raise InputError(f"leaf position {i} outside spine")
            if c < 0:
                raise InputError("negative leaf count")
        spine = tuple(S(i) for i in range(1, spine_len + 1))
        leaves = tuple(
            tuple(L(i, j) for j in range(1, leaf_counts.get(i, 0) + 1))
            for i in range(1, spine_len + 1)
        )
        return cls((Caterpillar(spine, leaves),))

    @classmethod
    def single(cls, comp: Caterpillar) -> "CaterpillarForest":
        return cls((comp,))

    # -- basic queries -----------------------------------------------------

    @cached_property
    def vertices(self) -> frozenset[VertexId]:
        return frozenset(v for c in self.components for v in c.all_vertices())

    @property
    def n(self) -> int:
        return sum(c.n for c in self.components)

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._component

    def component_of(self, v: VertexId) -> Caterpillar:
        comp = self._component.get(v)
        if comp is None:
            raise InputError(f"unknown vertex {v}")
        return comp

    @cached_property
    def _component(self) -> dict[VertexId, Caterpillar]:
        """Vertex -> component: the forest's one vertex table."""
        return {v: c for c in self.components for v in c.all_vertices()}

    @cached_property
    def _memo(self) -> dict[tuple, object]:
        """Verdicts about covers of this forest, keyed by (kind, cover, k):
        the planner's signatures and `cover.is_kpvc`'s verdicts on start
        covers.  Values never hold the forest, which would make a cycle."""
        return {}

    def adjacency(self) -> dict[VertexId, tuple[VertexId, ...]]:
        return {v: c.neighbors(v) for c in self.components for v in c.all_vertices()}

    def neighbors(self, v: VertexId) -> tuple[VertexId, ...]:
        return self.component_of(v).neighbors(v)

    def longest_path_vertices(self) -> int:
        """Vertex count of a longest simple path over all components (0 on
        the empty forest)."""
        return max((c.longest_path_vertices() for c in self.components), default=0)

    # -- surgery -----------------------------------------------------------

    def delete(self, drop: Iterable[VertexId]) -> "CaterpillarForest":
        """Induced subgraph on the surviving vertices.

        No edges are invented: leaves whose spine vertex is deleted become
        singleton components, and a spine splits into maximal surviving runs.
        Deleting nothing returns the forest itself, memo included.
        """
        dropset = frozenset(drop)
        if not dropset:
            return self
        # group drops per component; untouched components are reused as-is
        local: dict[int, set[VertexId]] = {}
        for v in dropset:
            local.setdefault(id(self.component_of(v)), set()).add(v)
        out: list[Caterpillar] = []
        for comp in self.components:
            mine = local.get(id(comp))
            if mine is None:
                out.append(comp)
            else:
                out.extend(_delete_in_component(comp, frozenset(mine)))
        return _raw_forest(tuple(out))

    def canonical(self) -> "CaterpillarForest":
        """Normal form: every component in its canonical form (see
        Caterpillar._canonical), sorted by smallest vertex."""
        comps = sorted(
            (c._canonical for c in self.components), key=attrgetter("_min_vertex")
        )
        return _raw_forest(tuple(comps))


def _delete_in_component(comp: Caterpillar, drop: frozenset[VertexId]) -> list[Caterpillar]:
    if not drop:
        return [comp]
    ranks = comp._ranks
    spine_cuts: list[int] = []
    leaf_posns: set[int] = set()
    for v in drop:
        r = ranks.rank[v]
        i = ranks.pos[r]
        if ranks.spine[i] == r:
            spine_cuts.append(i)
        else:
            leaf_posns.add(i)
    # only positions that lose a leaf need their tuple rebuilt
    leaves = list(comp.leaves)
    for i in leaf_posns:
        leaves[i] = tuple(v for v in leaves[i] if v not in drop)
    if not spine_cuts:
        return [_raw_component(comp.spine, tuple(leaves))]
    spine_cuts.sort()
    out: list[Caterpillar] = []
    prev = 0
    for i in spine_cuts:
        if i > prev:
            out.append(_raw_component(comp.spine[prev:i], tuple(leaves[prev:i])))
        # orphaned leaves keep no edges: singletons
        out.extend(_raw_component((v,), ((),)) for v in leaves[i])
        prev = i + 1
    if prev < len(comp.spine):
        out.append(_raw_component(comp.spine[prev:], tuple(leaves[prev:])))
    return out
