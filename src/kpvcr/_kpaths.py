"""k-path bookkeeping: the one k-path enumerator and the one slide test.

`_component_paths` is the project's one k-path enumerator.  It lists every
k-vertex simple path of a caterpillar directly from the spine structure: a
path is a spine interval, optionally extended by one leaf at either end (or
two leaves of the same spine vertex when the interval is a single vertex).
`rigidity` classifies them into the path classes behind H-regions, and the
brute-force oracle checks covers against them through `PathCoverContext`,
which packs the whole forest's k-paths into bitmasks.  That costs memory
quadratic in the spine, so only the oracle, on its small inputs, uses it,
and a forest whose masks would pass MAX_MASK_BYTES is refused before any
mask is built (`_path_count` counts the paths from the leaf counts).

`slide_ok` is the slide test of the planner, the generator and the rigidity
engine: does sliding a spine token to a free neighbour keep a set a k-PVC?
It walks the token's arms over an int of the component's routing ranks
(`graph.Ranks`) and reads only the k - 1 positions either side.  A leaf
token sliding onto its free spine vertex needs no test, because every
k-path through a leaf passes its spine vertex.  is_kpvc in cover.py
deliberately takes a different route, the longest path of the surviving
spine runs after an induced deletion, so the routes can cross-check.

Nothing here is cached at module level: a PathCoverContext enumerates the
paths of its forest once and lives as long as the oracle call holding it.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InputError
from .graph import Caterpillar, CaterpillarForest, Ranks, VertexId

# The most bytes of ints a PathCoverContext builds: one mask per k-path and
# one bit per vertex, each up to as wide as the forest.  Far above any
# forest a breadth-first search over its covers can finish on.
MAX_MASK_BYTES = 1 << 28


def _component_paths(comp: Caterpillar, k: int) -> list[tuple[VertexId, ...]]:
    """Every k-vertex simple path of one component, once each, in path
    order: an optional leaf, a spine run, an optional leaf."""
    paths: list[tuple[VertexId, ...]] = []
    spine = comp.spine
    leaves = comp.leaves
    ell = len(spine)
    for p in range(ell):
        for q in range(p, min(ell, p + k)):
            core = spine[p : q + 1]
            extra = k - len(core)
            if extra == 0:
                paths.append(core)
            elif extra == 1:
                paths.extend((x,) + core for x in leaves[p])
                if q != p:
                    paths.extend(core + (y,) for y in leaves[q])
            elif extra == 2 and q == p:
                paths.extend((x,) + core + (y,) for x, y in combinations(leaves[p], 2))
            elif extra == 2:
                paths.extend((x,) + core + (y,) for x in leaves[p] for y in leaves[q])
    return paths


def _path_count(comp: Caterpillar, k: int) -> int:
    """How many paths `_component_paths` lists, from the leaf counts alone:
    each spine run of k vertices, each of k - 1 with a leaf at either end
    (one end when the run is one vertex), and each of k - 2 with a leaf at
    both ends (two leaves of one vertex when the run is one vertex)."""
    c = [len(ls) for ls in comp.leaves]
    # zip(c, c[m - 1:]) pairs the leaf counts at both ends of each m-run
    total = max(0, len(c) - k + 1)
    total += sum(a + b if k > 2 else a for a, b in zip(c, c[k - 2 :]))
    if k > 2:
        total += sum(a * (a - 1) // 2 if k == 3 else a * b for a, b in zip(c, c[k - 3 :]))
    return total


def slide_ok(ranks: Ranks, occ: int, m: int, w: int, k: int) -> bool:
    """Would sliding the token on spine position m to its free neighbour of
    rank w keep `occ`, an int over `ranks`, a k-path vertex cover?

    Only k-paths through the token's vertex can lose their token, and one
    is left uncovered exactly when the longest token-free path through that
    vertex after the slide has k or more vertices.  That path runs along a
    free spine arm either way (at most k - 1 steps, plus a free leaf at its
    far end).  A side without such an arm can take a free leaf of the
    token's own vertex instead; a spine arm is never shorter than that.
    """
    spine, first = ranks.spine, ranks.first
    lo = m - k + 1 if m >= k - 1 else 0
    hi = m + k - 1 if m + k <= len(spine) else len(spine) - 1
    base = first[lo]
    # occupancy of positions lo..hi after the slide, rank `base` at bit 0;
    # the token's own bit is never read
    after = (occ >> base & ((1 << (spine[hi] + 1 - base)) - 1)) | 1 << (w - base)
    longest = 1
    bare_sides = 0
    for step, end in ((-1, lo), (1, hi)):
        i = m
        while i != end and not after >> (spine[i + step] - base) & 1:
            i += step
        if i == m:
            bare_sides += 1
        else:
            leaves = (1 << (spine[i] - first[i])) - 1
            longest += abs(i - m) + (after >> (first[i] - base) & leaves != leaves)
    n = spine[m] - first[m]
    free = n - (after >> (first[m] - base) & ((1 << n) - 1)).bit_count()
    return longest + min(free, bare_sides) < k


class PathCoverContext:
    """Bitmask machinery for the oracle on a fixed (forest, k).

    Vertices are numbered in sorted id order, vertex i as bit 1 << i, and
    covers become ints, so the oracle builds each candidate cover as a sum
    of distinct bits.  A slide from a vertex can only uncover paths through
    it, so `moves[i]` holds what a search walking a state's token bits
    needs for the token on bit i: the masks of the k-paths through that
    vertex and its neighbours' bits in adjacency order.  `slide_ok` is the
    same test by vertex id, the reference for the rank-based `slide_ok`
    above.
    """

    def __init__(self, forest: CaterpillarForest, k: int):
        self.k = k
        self.order: list[VertexId] = sorted(forest.vertices)
        n = len(self.order)
        # a forest has fewer than n * n / 2 paths, so a small one needs no count
        if n**3 > 8 * MAX_MASK_BYTES:
            paths = sum(_path_count(comp, k) for comp in forest.components)
            size = (paths + n) * n // 8
            if size > MAX_MASK_BYTES:
                raise InputError(
                    f"the oracle's k-path masks would take {size / 2**20:,.0f} MiB "
                    f"({paths:,} paths and {n:,} vertices, up to {n:,} bits each), "
                    f"more than its limit of {MAX_MASK_BYTES >> 20} MiB"
                )
        self.bit = {v: 1 << i for i, v in enumerate(self.order)}
        self.path_masks: list[int] = []
        adj = forest.adjacency()
        self.moves = [([], [self.bit[u] for u in adj[v]]) for v in self.order]
        for comp in forest.components:
            for p in _component_paths(comp, k):
                m = self.mask_of(p)
                self.path_masks.append(m)
                for v in p:
                    self.moves[self.bit[v].bit_length() - 1][0].append(m)

    def mask_of(self, vertices) -> int:
        m = 0
        for v in vertices:
            m |= self.bit[v]
        return m

    def vertices_of(self, mask: int) -> frozenset[VertexId]:
        order = self.order
        out = []
        while mask:
            low = mask & -mask
            out.append(order[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def is_cover(self, mask: int) -> bool:
        for p in self.path_masks:
            if not (p & mask):
                return False
        return True

    def slide_ok(self, occ: int, frm: VertexId, to: VertexId) -> bool:
        """occ must contain frm; checks occupancy of `to` and cover validity
        of the resulting set."""
        fb, tb = self.bit[frm], self.bit[to]
        if occ & tb:
            return False
        new = (occ & ~fb) | tb
        for p in self.moves[fb.bit_length() - 1][0]:
            if not (p & new):
                return False
        return True
