"""Caterpillar forests with stable vertex identities.

A caterpillar is a tree whose non-leaf vertices form a path (the spine).
We keep the spine explicit: a component is a tuple of spine vertices plus,
for each spine position, a tuple of attached leaves.  Vertex ids are
structural int pairs ("s3" is (3, 0), "l3.1" is (3, 1)) and survive
deletions unchanged, which is what the reconfiguration layers need to talk
about token positions across induced subgraphs.

Deletion has induced-subgraph semantics: surviving vertices keep exactly the
edges they had before, so deleting a spine vertex orphans its remaining
leaves into singleton components and splits the spine into runs.

Each component has one vertex table, `Ranks`: its vertices numbered in the
routing order, with each rank's spine position.  Membership, neighbours,
deletion, the planner's routing, the slide test and the rigidity engine all
read it, and token sets over a component are ints over its ranks.  The
rigidity engine folds a leafless spine end onto its neighbour by
arithmetic on that table (`rigidity._Sub`); only
`CaterpillarForest.canonical()`, on which the planner routes witnesses,
builds canonical copies of components.  A forest has one vertex table
too, `_component`: each vertex's component, built in one pass.  These and
the other derived structure (canonical form, vertex sets, the memo of
cover verdicts) are computed on first use and stored on the frozen object
they describe, as a `cached_property`, so they live exactly as long as
that object.  No module keeps a module-level cache.
"""

from __future__ import annotations

import re
from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property
from operator import attrgetter, itemgetter

from .errors import InputError

_ID_RE = re.compile(r"^(?:s(\d+)|l(\d+)\.(\d+))$")

_set = object.__setattr__


class Record:
    """An immutable value: the fields named in `_fields` make its repr,
    `Name(field=value, ...)`, and those in `_compared` (default: all) its
    equality and hash, as a frozen dataclass does.  Each subclass has its
    own `__init__`, which validates its arguments and sets the fields with
    `_init` (or, where it is hot, `_set`, which is `object.__setattr__`);
    any later assignment or deletion raises AttributeError.  Instances keep
    a `__dict__`, so `cached_property`, copy and pickle work on them as on
    any plain object."""

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] | None = None

    def __init_subclass__(cls) -> None:
        names = cls._compared or cls._fields
        get = attrgetter(*names)
        # a tuple read in C; a one-name attrgetter returns the bare value
        cls._key = property(get if len(names) > 1 else lambda self: (get(self),))

    def _init(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class VertexId(tuple):
    """Structural vertex identity: spine vertex s<i> or leaf l<i>.<j>.

    The id is the tuple (spine index, leaf index), leaf index 0 on a spine
    vertex, so it equals and hashes like that pair in C, and tuple order is
    the id order s_i < l_i.1 < l_i.2 < ... < s_{i+1}.  This is only a
    tie-break order; the routing order is Caterpillar._ranks (see Ranks).
    A bare id cannot be %-formatted; use str() or an f-string.
    """

    __slots__ = ()

    def __new__(cls, kind: str, spine_index: int, leaf_index: int = 0) -> "VertexId":
        if kind not in ("s", "l"):
            raise InputError(f"bad vertex kind {kind!r}")
        if kind == "s" and leaf_index != 0:
            raise InputError("spine vertex cannot carry a leaf index")
        if spine_index < 1 or (kind == "l" and leaf_index < 1):
            where = f"{spine_index}.{leaf_index}" if kind == "l" else spine_index
            raise InputError(f"vertex indices are 1-based: {kind}{where}")
        return tuple.__new__(cls, (spine_index, leaf_index))

    def __getnewargs__(self) -> tuple[str, int, int]:
        return (self.kind, *self)

    @property
    def kind(self) -> str:
        return "l" if self[1] else "s"

    spine_index = property(itemgetter(0))
    leaf_index = property(itemgetter(1))
    sort_key = property(tuple)  # the plain (spine index, leaf index) pair

    def __str__(self) -> str:
        i, j = self
        return f"l{i}.{j}" if j else f"s{i}"

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


def S(i: int) -> VertexId:
    return VertexId("s", i)


def L(i: int, j: int) -> VertexId:
    return VertexId("l", i, j)


class Caterpillar(Record):
    """One caterpillar component: spine left to right, leaves per position.
    Its derived tables are cached_property values, computed on first use
    into its own __dict__, which the field-based eq, hash and repr never
    read, and gone with it."""

    _fields = ("spine", "leaves")

    def __init__(
        self, spine: tuple[VertexId, ...], leaves: tuple[tuple[VertexId, ...], ...]
    ) -> None:
        self._init(spine, leaves)
        if len(spine) != len(leaves):
            raise InputError("spine and leaf tuples misaligned")
        if not spine:
            raise InputError("empty component")
        seen: set[VertexId] = set()
        for v in self.all_vertices():
            if v in seen:
                raise InputError(f"duplicate vertex {v}")
            seen.add(v)

    def all_vertices(self) -> Iterator[VertexId]:
        for s, ls in zip(self.spine, self.leaves):
            yield s
            yield from ls

    @property
    def n(self) -> int:
        return len(self.spine) + sum(len(ls) for ls in self.leaves)

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
        return min(self.all_vertices())

    @cached_property
    def _canonical_other(self) -> "Caterpillar | None":
        """The canonical form: leaf tuples sorted, and a leafless spine
        endpoint reclassified as a leaf of its neighbour.  The neighbour's
        leaf tuple is then non-empty, so at most one endpoint folds in per
        side.  None when the component is already in normal form: caching
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
    _set(c, "spine", spine)
    _set(c, "leaves", leaves)
    return c


def _raw_forest(components: tuple[Caterpillar, ...]) -> CaterpillarForest:
    f = object.__new__(CaterpillarForest)
    _set(f, "components", components)
    return f


class CaterpillarForest(Record):
    """A disjoint union of caterpillar components."""

    _fields = ("components",)

    def __init__(self, components: tuple[Caterpillar, ...]) -> None:
        self._init(components)
        seen: set[VertexId] = set()
        for c in components:
            for v in c.all_vertices():
                if v in seen:
                    raise InputError(f"duplicate vertex {v} across components")
                seen.add(v)

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
    def _memo(self) -> defaultdict[tuple[str, int | None], dict]:
        """Verdicts about covers of this forest, one table per (kind, k):
        `cover.is_kpvc`'s verdicts on start covers and the planner's
        signatures, keyed by the cover's own `occupied` frozenset, so a
        remembered cover adds no object; the planner's G - R per rigid set
        R and its interned signatures, at k = None.  Values never hold the
        forest, which would make a cycle."""
        return defaultdict(dict)

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
        """Induced subgraph on the surviving vertices (`_cuts`).

        No edges are invented: leaves whose spine vertex is deleted become
        singleton components, and a spine splits into maximal surviving runs.
        Untouched components are reused as they are, and deleting nothing
        returns the forest itself, memo included.
        """
        dropset = frozenset(drop)
        if not dropset:
            return self
        touched = self._cuts(dropset)
        out: list[Caterpillar] = []
        for comp in self.components:
            if id(comp) not in touched:
                out.append(comp)
                continue
            cuts, lost = touched[id(comp)]
            leaves = list(comp.leaves)
            for i in lost:  # only a position that lost a leaf is rebuilt
                leaves[i] = tuple(v for v in leaves[i] if v not in dropset)
            lo = 0
            for hi in (*sorted(cuts), len(leaves)):
                if hi > lo:
                    out.append(_raw_component(comp.spine[lo:hi], tuple(leaves[lo:hi])))
                if hi < len(leaves):
                    # orphaned leaves keep no edges: singletons
                    out.extend(_raw_component((v,), ((),)) for v in leaves[hi])
                lo = hi + 1
        return _raw_forest(tuple(out))

    def longest_path_without(self, drop: Iterable[VertexId]) -> int:
        """`self.delete(drop).longest_path_vertices()` without building the
        forest: the longest of the surviving runs (`longest_path`, over the
        leaves each run end keeps), and 1 for an orphaned leaf."""
        best = 0
        touched = self._cuts(frozenset(drop))
        for comp in self.components:
            if id(comp) not in touched:
                best = max(best, comp.longest_path_vertices())
                continue
            cuts, lost = touched[id(comp)]
            leaves = comp.leaves
            lo = 0
            for hi in (*sorted(cuts), len(leaves)):
                if hi > lo:
                    first = len(leaves[lo]) - lost.get(lo, 0)
                    last = len(leaves[hi - 1]) - lost.get(hi - 1, 0)
                    best = max(best, longest_path(hi - lo, first, last))
                elif hi < len(leaves) and len(leaves[hi]) > lost.get(hi, 0):
                    best = max(best, 1)
                lo = hi + 1
        return best

    def _cuts(self, drop: frozenset[VertexId]) -> dict[int, tuple[list[int], dict[int, int]]]:
        """The induced deletion of `drop`, one pass that `delete` and
        `longest_path_without` share.  Per touched component, keyed by its
        id(): its spine cut positions, unsorted, and how many leaves each
        position lost.  The surviving runs lie between consecutive cuts and
        the spine's ends, and the leaves left at a cut are orphaned."""
        touched: defaultdict[int, tuple[list[int], dict[int, int]]] = defaultdict(lambda: ([], {}))
        for v in drop:
            comp = self.component_of(v)
            cuts, lost = touched[id(comp)]
            ranks = comp._ranks
            r = ranks.rank[v]
            i = ranks.pos[r]
            if ranks.spine[i] == r:
                cuts.append(i)
            else:
                lost[i] = lost.get(i, 0) + 1
        return touched

    def canonical(self) -> "CaterpillarForest":
        """Normal form: every component in its canonical form (see
        Caterpillar._canonical_other), sorted by smallest vertex."""
        comps = (c._canonical_other or c for c in self.components)
        return _raw_forest(tuple(sorted(comps, key=attrgetter("_min_vertex"))))
