"""k-path vertex covers on caterpillar forests.

is_kpvc goes through induced deletion plus a longest-path computation, on
purpose: the test suite cross-checks it against exhaustive path enumeration,
so the two routes must stay independent.

is_kpvc memoises its verdicts on the forest (`CaterpillarForest._memo`),
keyed by the exact cover and k: the signatures, witnesses and checks of a
forest meet the same start covers again.  A cover is validated only on a
miss, so an entry exists only for a cover validated on that forest.

partition implements the greedy decomposition into properly rooted subtrees:
repeatedly take the deepest vertex v (ties by smallest id) whose subtree
still contains a k-vertex path, cut the subtree off as a piece with
representative v.  Walking up from a single deepest vertex is not enough on
general trees (the first k-path can straddle two branches of an ancestor),
hence the local two-branch height test at every vertex (`_partition_greedy`,
kept for every root and as the reference).  Rooted at a spine end the greedy
is a chain of `_first_cut` steps along the spine, walked by
`_endpoint_pieces`: `partition` builds its pieces from that walk, and the
rigidity engine's feed test walks the same generator on its subproblems.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from .errors import InputError
from .graph import Caterpillar, CaterpillarForest, VertexId, longest_path


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
    key = ("kpvc", tokens.occupied, tokens.k)
    verdict = forest._memo.get(key)
    if verdict is None:
        tokens.validate_on(forest)
        rest = forest.delete(tokens.occupied)
        verdict = forest._memo[key] = rest.longest_path_vertices() < tokens.k
    return verdict


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
    if r not in comp._ranks.rank:
        raise InputError(f"root {r} not in tree")
    if r == comp.spine[0] or r == comp.spine[-1]:
        # minimum covers are usually rooted at a spine endpoint, where the
        # cut loop is an exact specialization of the generic greedy
        return _partition_endpoint(comp, k, r)
    return _partition_greedy(comp, k, r)


def _partition_greedy(comp: Caterpillar, k: int, r: VertexId) -> PartitionResult:
    """The generic deepest-first greedy, for any root; the reference the
    endpoint specialization is tested against."""
    # integer-indexed BFS tree; vertex ids only reappear in the results
    verts: list[VertexId] = [r]
    index: dict[VertexId, int] = {r: 0}
    parent = [-1]
    depth = [0]
    qi = 0
    while qi < len(verts):
        v = verts[qi]
        for u in comp.neighbors(v):
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


def _first_cut(leaves, i: int, step: int, k: int, end: int) -> int | None:
    """One step of the endpoint greedy: started fresh at spine position i
    and scanning by step toward end, the first j where the run i..j holds
    a k-path (`graph.longest_path`), or None when end comes first.
    `leaves(p)` counts the leaves at p.  A run's longest path has at most
    two vertices off the spine, so j lies k-3 to k-1 steps from i."""
    j = i + step * (k - 3)
    while (j - end) * step <= 0:
        if longest_path(abs(j - i) + 1, leaves(i), leaves(j)) >= k:
            return j
        j += step
    return None


def _endpoint_pieces(
    leaves, start: int, step: int, k: int, end: int
) -> Iterator[tuple[int, int, int]]:
    """The endpoint greedy's walk from a fresh start toward end: the
    (near, far, cut) spine positions of each piece, in cut order.  Each cut
    is `_first_cut` from the position after the previous one, and the last
    piece also takes the run behind its cut, up to end."""
    at, cut = start, _first_cut(leaves, start, step, k, end)
    while cut is not None:
        nxt = _first_cut(leaves, cut + step, step, k, end)
        yield at, (end if nxt is None else cut), cut
        at, cut = cut + step, nxt


def _partition_endpoint(comp: Caterpillar, k: int, r: VertexId) -> PartitionResult:
    """partition() specialized to a root at a spine endpoint.

    Rooted there, the BFS tree hangs each leaf below its spine vertex and the
    deepest-first greedy only ever cuts at spine vertices (leaves have height
    1 and no second branch), scanning them from the far end toward the root.
    A cut removes exactly the live run of spine positions behind it together
    with their leaves, so the pieces are `_endpoint_pieces` from the far end.
    """
    spine = comp.spine
    leaves = comp.leaves
    last = len(spine) - 1
    step, start, end = (1, 0, last) if r == spine[-1] else (-1, last, 0)

    def count(p: int) -> int:
        return len(leaves[p])

    pieces: list[frozenset[VertexId]] = []
    reps: list[VertexId] = []
    for near, far, cut in _endpoint_pieces(count, start, step, k, end):
        lo, hi = (near, far) if step > 0 else (far, near)
        pieces.append(frozenset(chain(spine[lo : hi + 1], *leaves[lo : hi + 1])))
        reps.append(spine[cut])
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
