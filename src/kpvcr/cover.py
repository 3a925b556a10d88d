"""k-path vertex covers on caterpillar forests.

is_kpvc goes through induced deletion plus a longest-path computation, on
purpose: the test suite cross-checks it against exhaustive path enumeration,
so the two routes must stay independent.

is_kpvc memoises its verdicts in a module-level cache keyed by (forest,
tokens, k), because validate_sequence meets the same covers again across
the witnesses of one forest.  That cache keeps every forest it has seen
alive for the life of the process.  The structural tables that partition
and is_kpvc read (adjacency, positions) live on the graph objects
themselves and die with them (see graph).

partition implements the greedy decomposition into properly rooted subtrees:
repeatedly take the deepest vertex v (ties by smallest id) whose subtree
still contains a k-vertex path, cut the subtree off as a piece with
representative v.  Walking up from a single deepest vertex is not enough on
general trees (the first k-path can straddle two branches of an ancestor),
hence the local two-branch height test at every vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import InputError
from .graph import Caterpillar, CaterpillarForest, VertexId


@dataclass(frozen=True)
class TokenSet:
    """A set of token positions together with the path length parameter k."""

    occupied: frozenset[VertexId]
    k: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise InputError("k must be >= 2")

    @classmethod
    def of(cls, k: int, vertices: Iterable[VertexId]) -> "TokenSet":
        vs = list(vertices)
        occ = frozenset(vs)
        if len(occ) != len(vs):
            raise InputError("duplicate token positions")
        return cls(occ, k)

    def __len__(self) -> int:
        return len(self.occupied)

    def __contains__(self, v: VertexId) -> bool:
        return v in self.occupied

    def validate_on(self, forest: CaterpillarForest) -> None:
        for v in self.occupied:
            if not forest.has_vertex(v):
                raise InputError(f"token on unknown vertex {v}")


@dataclass(frozen=True)
class PartitionResult:
    pieces: tuple[frozenset[VertexId], ...]
    representatives: tuple[VertexId, ...]
    psi: int


def is_kpvc(forest: CaterpillarForest, tokens: TokenSet) -> bool:
    """True iff removing the occupied vertices leaves no k-vertex path."""
    tokens.validate_on(forest)
    return _is_kpvc(forest, tokens.occupied, tokens.k)


@lru_cache(maxsize=None)
def _is_kpvc(forest: CaterpillarForest, occupied: frozenset[VertexId], k: int) -> bool:
    rest = forest.delete(occupied)
    if not rest.components:
        return True
    return rest.longest_path_vertices() < k


def partition(
    tree: CaterpillarForest | Caterpillar, k: int, r: VertexId
) -> PartitionResult:
    """Decompose a tree into psi pieces, each cut at a properly rooted subtree.

    Pieces are reported in the order they are cut; whatever remains after the
    last cut carries no k-path and is absorbed into the last piece.  psi
    equals the minimum k-path vertex cover size and does not depend on r.
    """
    if k < 3:
        raise InputError("partition requires k >= 3")
    comp = _as_single_component(tree)
    if not any(v == r for v in comp.all_vertices()):
        raise InputError(f"root {r} not in tree")
    if len(comp.spine) > 1 and (r == comp.spine[0] or r == comp.spine[-1]):
        # minimum covers are usually rooted at a spine endpoint; the linear
        # scan below is an exact specialization of the generic deepest-first
        # greedy for that case
        return _partition_endpoint(comp, k, r)
    adj = comp._adjacency

    # integer-indexed BFS tree; vertex ids only reappear in the results
    verts: list[VertexId] = [r]
    index: dict[VertexId, int] = {r: 0}
    parent = [-1]
    depth = [0]
    qi = 0
    while qi < len(verts):
        v = verts[qi]
        for u in adj[v]:
            if u not in index:
                index[u] = len(verts)
                verts.append(u)
                parent.append(qi)
                depth.append(depth[qi] + 1)
        qi += 1
    n = len(verts)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        children[parent[i]].append(i)

    # h[i] = vertices on the longest downward path from i through live children
    alive = bytearray([1]) * n
    h = [0] * n

    pieces: list[frozenset[VertexId]] = []
    reps: list[VertexId] = []
    scan = sorted(range(n), key=lambda i: (-depth[i], verts[i].sort_key))
    for i in scan:
        if not alive[i]:
            continue
        # deepest-first scan: live children were finalized earlier, and any
        # later cut either removes i's whole subtree or stays out of it, so
        # computing h here once is equivalent to maintaining it eagerly
        best = second = 0
        for c in children[i]:
            if alive[c]:
                hc = h[c]
                if hc > best:
                    best, second = hc, best
                elif hc > second:
                    second = hc
        h[i] = 1 + best
        if 1 + best + second < k:
            continue
        # cut the live subtree rooted at i
        sub = []
        stack = [i]
        while stack:
            x = stack.pop()
            sub.append(x)
            stack.extend(c for c in children[x] if alive[c])
        pieces.append(frozenset(verts[x] for x in sub))
        reps.append(verts[i])
        for x in sub:
            alive[x] = 0

    if pieces and any(alive):
        pieces[-1] = pieces[-1] | frozenset(
            verts[i] for i in range(n) if alive[i]
        )
    return PartitionResult(tuple(pieces), tuple(reps), len(pieces))


def _partition_endpoint(comp: Caterpillar, k: int, r: VertexId) -> PartitionResult:
    """partition() specialized to a root at a spine endpoint.

    Rooted there, the BFS tree hangs each leaf below its spine vertex and the
    deepest-first greedy only ever cuts at spine vertices (leaves have height
    1 and no second branch), scanning them from the far end toward the root.
    A cut removes exactly the live run of spine positions behind it together
    with their leaves, so one linear pass reproduces the generic result.
    """
    from itertools import chain

    spine = comp.spine
    leaves = comp.leaves
    ell = len(spine)
    forward = r == spine[-1]
    idx = range(ell) if forward else range(ell - 1, -1, -1)

    pieces: list[frozenset[VertexId]] = []
    reps: list[VertexId] = []
    h_prev = 0  # height of the live spine run on the far side
    a: int | None = None  # first position of that run
    for i in idx:
        nl = len(leaves[i])
        if h_prev == 0:
            a = i
            best = 1 if nl else 0
            second = 1 if nl >= 2 else 0
        else:
            best = h_prev
            second = 1 if nl else 0
        if 1 + best + second >= k:
            lo, hi = (a, i) if forward else (i, a)
            pieces.append(
                frozenset(
                    chain(spine[lo : hi + 1], *leaves[lo : hi + 1])
                )
            )
            reps.append(spine[i])
            h_prev = 0
        else:
            h_prev = 1 + best
    if pieces and h_prev:
        lo, hi = (a, ell - 1) if forward else (0, a)
        pieces[-1] = pieces[-1] | frozenset(
            chain(spine[lo : hi + 1], *leaves[lo : hi + 1])
        )
    return PartitionResult(tuple(pieces), tuple(reps), len(pieces))


def minimum_cover_size(forest: CaterpillarForest | Caterpillar, k: int) -> int:
    """psi_k: sum of partition piece counts over the components."""
    if isinstance(forest, Caterpillar):
        forest = CaterpillarForest.single(forest)
    total = 0
    for comp in forest.components:
        total += partition(comp, k, comp.spine[0]).psi
    return total


def _as_single_component(tree: CaterpillarForest | Caterpillar) -> Caterpillar:
    if isinstance(tree, Caterpillar):
        return tree
    if len(tree.components) != 1:
        raise InputError("expected a single-component tree")
    return tree.components[0]
