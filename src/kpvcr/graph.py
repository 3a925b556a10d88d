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

Derived structure (positions, adjacency, canonical form, vertex sets, the
vertex -> component memo) is computed on first use and stored on the frozen
object it describes, as a `cached_property`, so it lives exactly as long as
that object.  This module keeps no module-level cache.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, total_ordering
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from .errors import InputError, PathError

_ID_RE = re.compile(r"^(?:s(\d+)|l(\d+)\.(\d+))$")


@total_ordering
@dataclass(frozen=True)
class VertexId:
    """Structural vertex identity: spine vertex s<i> or leaf l<i>.<j>.

    Ordering is (spine index, spine-before-leaf... no: leaves compare after
    their spine vertex) -- concretely (i, kind, j) with 's' < 'l'.  This is
    only a tie-break order; the reconfiguration vertex order lives in
    planner.vertex_order.
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
    def _positions(self) -> dict[VertexId, int]:
        """Spine position (0-based) of every vertex; leaves map to their spine's."""
        pos: dict[VertexId, int] = {}
        for i, (s, ls) in enumerate(zip(self.spine, self.leaves)):
            pos[s] = i
            for v in ls:
                pos[v] = i
        return pos

    @cached_property
    def _adjacency(self) -> dict[VertexId, tuple[VertexId, ...]]:
        spine = self.spine
        adj: dict[VertexId, list[VertexId]] = {v: [] for v in self.all_vertices()}
        for i, (s, ls) in enumerate(zip(spine, self.leaves)):
            if i > 0:
                adj[s].append(spine[i - 1])
            if i + 1 < len(spine):
                adj[s].append(spine[i + 1])
            for v in ls:
                adj[s].append(v)
                adj[v].append(s)
        return {v: tuple(ns) for v, ns in adj.items()}

    @cached_property
    def _min_vertex(self) -> VertexId:
        return min(self.all_vertices(), key=attrgetter("_sort_key"))

    @cached_property
    def _canonical(self) -> "Caterpillar":
        """Leaf tuples sorted, and a leafless spine endpoint reclassified as
        a leaf of its neighbour.  The neighbour's leaf tuple is then
        non-empty, so at most one endpoint folds in per side.  A component
        already in normal form is its own canonical form."""
        spine = self.spine
        leaves = tuple(tuple(sorted(ls)) for ls in self.leaves)
        if len(spine) >= 2 and not leaves[0]:
            leaves = (tuple(sorted(leaves[1] + spine[:1])),) + leaves[2:]
            spine = spine[1:]
        if len(spine) >= 2 and not leaves[-1]:
            leaves = leaves[:-2] + (tuple(sorted(leaves[-2] + spine[-1:])),)
            spine = spine[:-1]
        if spine is self.spine and leaves == self.leaves:
            return self
        return _raw_component(spine, leaves)

    def longest_path_vertices(self) -> int:
        """Vertex count of a longest simple path.  Every vertex off the
        spine is a leaf, so a longest path runs the whole spine plus one
        leaf at each spine end that has one; a one-vertex spine is a star."""
        if len(self.spine) == 1:
            return 1 + min(2, len(self.leaves[0]))
        return len(self.spine) + bool(self.leaves[0]) + bool(self.leaves[-1])


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


def is_leaf_vertex(comp: Caterpillar, v: VertexId) -> bool:
    """Leaf in the structural sense (attached below a spine vertex)."""
    return comp.spine[comp._positions[v]] != v


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
        return self._find_component(v) is not None

    def component_of(self, v: VertexId) -> Caterpillar:
        comp = self._find_component(v)
        if comp is None:
            raise InputError(f"unknown vertex {v}")
        return comp

    @cached_property
    def _vcomp(self) -> dict[VertexId, Caterpillar]:
        """Vertex -> component, filled in by _find_component."""
        return {}

    def _find_component(self, v: VertexId) -> Caterpillar | None:
        """Memoized lookup; scans component position tables so the cost
        stays proportional to the component count, not n."""
        memo = self._vcomp
        comp = memo.get(v)
        if comp is None:
            for c in self.components:
                if v in c._positions:
                    memo[v] = c
                    return c
        return comp

    def adjacency(self) -> dict[VertexId, tuple[VertexId, ...]]:
        out: dict[VertexId, tuple[VertexId, ...]] = {}
        for c in self.components:
            out.update(c._adjacency)
        return out

    def neighbors(self, v: VertexId) -> tuple[VertexId, ...]:
        return self.component_of(v)._adjacency[v]

    # -- metric ------------------------------------------------------------

    def dist(self, u: VertexId, v: VertexId) -> int | None:
        """Hop distance, or None when u and v sit in different components."""
        cu = self.component_of(u)
        cv = self.component_of(v)
        if cu is not cv:
            return None
        if u == v:
            return 0
        pos = cu._positions
        d = abs(pos[u] - pos[v])
        if is_leaf_vertex(cu, u):
            d += 1
        if is_leaf_vertex(cu, v):
            d += 1
        return d

    def tree_path(self, u: VertexId, v: VertexId) -> tuple[VertexId, ...]:
        """The unique u-v path, endpoints included."""
        cu = self.component_of(u)
        cv = self.component_of(v)
        if cu is not cv:
            raise PathError(f"{u} and {v} lie in different components")
        if u == v:
            return (u,)
        pos = cu._positions
        pu, pv = pos[u], pos[v]
        step = 1 if pv >= pu else -1
        path: list[VertexId] = []
        if is_leaf_vertex(cu, u):
            path.append(u)
        path.extend(cu.spine[i] for i in range(pu, pv + step, step))
        if is_leaf_vertex(cu, v):
            path.append(v)
        return tuple(path)

    def longest_path_vertices(self) -> int:
        """Vertex count of a longest simple path over all components (0 on
        the empty forest)."""
        return max((c.longest_path_vertices() for c in self.components), default=0)

    # -- surgery -----------------------------------------------------------

    def delete(self, drop: Iterable[VertexId]) -> "CaterpillarForest":
        """Induced subgraph on the surviving vertices.

        No edges are invented: leaves whose spine vertex is deleted become
        singleton components, and a spine splits into maximal surviving runs.
        """
        dropset = frozenset(drop)
        # group drops per component; untouched components are reused as-is
        local: dict[int, set[VertexId]] = {}
        for v in dropset:
            comp = self._find_component(v)
            if comp is None:
                raise InputError(f"unknown vertex {v}")
            local.setdefault(id(comp), set()).add(v)
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
    pos = comp._positions
    spine_cuts: list[int] = []
    leaf_posns: set[int] = set()
    for v in drop:
        i = pos[v]
        if comp.spine[i] == v:
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
