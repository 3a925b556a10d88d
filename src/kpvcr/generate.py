"""Seeded random instance generation.

A random caterpillar is drawn from the spine length and a per-vertex leaf
probability, a minimum cover comes out of the greedy partition, and both the
start and the target are random slide walks away from a minimum cover.  By
default both walks leave the same base cover, so the instance is always a
YES instance.  With scramble the target walk instead starts from the
partition rooted at the opposite spine end, which is still a minimum cover
of the same size but need not be reachable from the start.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ._kpaths import _component_paths
from .cover import partition
from .errors import InputError
from .graph import CaterpillarForest, VertexId, _adjacency
from .instance import InstanceFile


@dataclass(frozen=True)
class GenerateConfig:
    spine: int
    leaf_prob: float
    k: int
    seed: int
    scramble: bool = False

    def __post_init__(self) -> None:
        if self.spine < 2:
            raise InputError("spine length must be >= 2")
        if not (0.0 <= self.leaf_prob <= 1.0):
            raise InputError("leaf probability must be in [0, 1]")
        if self.k < 3:
            raise InputError("k must be >= 3")


def random_instance(config: GenerateConfig) -> InstanceFile:
    rng = random.Random(config.seed)
    leaf_counts: dict[int, int] = {}
    for i in range(1, config.spine + 1):
        count = 0
        while count < 3 and rng.random() < config.leaf_prob:
            count += 1
        if count:
            leaf_counts[i] = count
    forest = CaterpillarForest.from_counts(config.spine, leaf_counts)

    base = _minimum_cover(forest, config.k, from_right=False)
    slides = _SlideTable(forest, config.k)
    start = slides.walk(base, rng)
    if config.scramble:
        other = _minimum_cover(forest, config.k, from_right=True)
        target = slides.walk(other, rng)
    else:
        target = slides.walk(base, rng)

    return InstanceFile(
        k=config.k,
        spine=config.spine,
        leaves=tuple(sorted(leaf_counts.items())),
        start=tuple(sorted(start)),
        target=tuple(sorted(target)),
    )


def _minimum_cover(
    forest: CaterpillarForest, k: int, from_right: bool
) -> frozenset[VertexId]:
    reps: set[VertexId] = set()
    for comp in forest.components:
        root = comp.spine[-1] if from_right else comp.spine[0]
        reps.update(partition(comp, k, root).representatives)
    return frozenset(reps)


class _SlideTable:
    """Bitmask tables for random valid slides on the one caterpillar being
    generated: a bit per vertex, each vertex's neighbours with their bits
    and the masks of the k-paths through it.  A slide from `frm` can only
    uncover the k-paths through `frm`, so only those are checked.

    Both tables come from the uncached functions behind the module-level
    caches (`__wrapped__`).  The forest belongs to this call and is never
    looked up again, so cache entries for it would only keep its k-paths
    alive for the rest of the process: a loop drawing seeded instances, such
    as rejection sampling on their shape, grew by about 0.3 MB per spine-160
    instance.
    """

    def __init__(self, forest: CaterpillarForest, k: int):
        (comp,) = forest.components
        adj = _adjacency.__wrapped__(comp)
        self.bit = {v: 1 << i for i, v in enumerate(adj)}
        self.neighbors = {v: [(u, self.bit[u]) for u in us] for v, us in adj.items()}
        self.through: dict[VertexId, list[int]] = {v: [] for v in adj}
        for path in _component_paths.__wrapped__(comp, k):
            mask = 0
            for v in path:
                mask |= self.bit[v]
            for v in path:
                self.through[v].append(mask)

    def walk(self, cover: frozenset[VertexId], rng: random.Random) -> frozenset[VertexId]:
        """Apply a bounded number of random valid slides to the cover."""
        occ = 0
        for v in cover:
            occ |= self.bit[v]
        tokens = sorted(cover)
        if not tokens:
            return cover
        attempts = 12 * len(tokens) + 24
        for _ in range(attempts):
            i = rng.randrange(len(tokens))
            frm = tokens[i]
            nbrs = self.neighbors[frm]
            if not nbrs:
                continue
            to, tb = nbrs[rng.randrange(len(nbrs))]
            if occ & tb:
                continue
            new = (occ & ~self.bit[frm]) | tb
            if all(p & new for p in self.through[frm]):
                occ = new
                tokens[i] = to
        return frozenset(tokens)
