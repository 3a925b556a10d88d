"""Exhaustive k-path bookkeeping used by the fast validity checks.

Enumerates every k-vertex simple path of a caterpillar forest directly from
the spine structure: a path is a spine interval, optionally extended by one
leaf at either end (or two leaves of the same spine vertex when the interval
is a single vertex).  The planner and the brute-force oracle both check cover
validity against these sets; is_kpvc in cover.py deliberately uses a
different route (deletion + longest path) so the two can cross-check.

Nothing here is cached at module level: a PathCoverContext enumerates the
paths of its forest once and holds the tables for as long as its owner
keeps it (the planner's per-component context, one oracle call, one
generated instance).
"""

from __future__ import annotations

from .graph import Caterpillar, CaterpillarForest, VertexId


def _component_paths(comp: Caterpillar, k: int) -> list[frozenset[VertexId]]:
    paths: list[frozenset[VertexId]] = []
    spine = comp.spine
    leaves = comp.leaves
    ell = len(spine)
    for p in range(ell):
        for q in range(p, min(ell, p + k)):
            base = q - p + 1
            extra = k - base
            if extra == 0:
                paths.append(frozenset(spine[p : q + 1]))
            elif extra == 1:
                core = frozenset(spine[p : q + 1])
                for x in leaves[p]:
                    paths.append(core | {x})
                if q != p:
                    for y in leaves[q]:
                        paths.append(core | {y})
            elif extra == 2:
                core = frozenset(spine[p : q + 1])
                if q == p:
                    ls = leaves[p]
                    for a in range(len(ls)):
                        for b in range(a + 1, len(ls)):
                            paths.append(core | {ls[a], ls[b]})
                else:
                    for x in leaves[p]:
                        for y in leaves[q]:
                            paths.append(core | {x, y})
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
                m = 0
                for v in p:
                    m |= self.bit[v]
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
        out = []
        for v in self.order:
            if mask & self.bit[v]:
                out.append(v)
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
