"""Exhaustive k-path bookkeeping used by the fast validity checks.

`_component_paths` is the project's one k-path enumerator.  It lists every
k-vertex simple path of a caterpillar directly from the spine structure: a
path is a spine interval, optionally extended by one leaf at either end (or
two leaves of the same spine vertex when the interval is a single vertex).
The planner and the brute-force oracle check cover validity against these
paths through `PathCoverContext`, and `rigidity` classifies them into the
path classes behind H-regions.  is_kpvc in cover.py deliberately uses a
different route (deletion + longest path) so the two can cross-check.

Nothing here is cached at module level: a PathCoverContext enumerates the
paths of its forest once and holds the tables for as long as its owner
keeps it (the planner's per-component context, one oracle call, one
generated instance).
"""

from __future__ import annotations

from itertools import combinations

from .graph import Caterpillar, CaterpillarForest, VertexId


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


class PathCoverContext:
    """Bitmask machinery for fast slide validity on a fixed (forest, k).

    Vertices are numbered in sorted id order; covers become ints.  A slide
    from `frm` can only uncover paths through `frm`, so validity after a
    slide checks just those.
    """

    def __init__(self, forest: CaterpillarForest, k: int):
        self.k = k
        self.order: list[VertexId] = sorted(forest.vertices)
        self.bit = {v: 1 << i for i, v in enumerate(self.order)}
        self.path_masks: list[int] = []
        self.paths_by_vertex: dict[VertexId, list[int]] = {v: [] for v in self.order}
        for comp in forest.components:
            for p in _component_paths(comp, k):
                m = self.mask_of(p)
                self.path_masks.append(m)
                for v in p:
                    self.paths_by_vertex[v].append(m)
        adj = forest.adjacency()
        self.neighbor_bits = {v: [(u, self.bit[u]) for u in adj[v]] for v in self.order}

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
        for p in self.paths_by_vertex[frm]:
            if not (p & new):
                return False
        return True
