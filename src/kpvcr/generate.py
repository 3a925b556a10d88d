"""Seeded random instance generation.

A random caterpillar is drawn from the spine length and a per-vertex leaf
probability, a minimum cover comes out of the greedy partition, and both the
start and the target are random slide walks away from a minimum cover.  By
default both walks leave the same base cover, so the instance is always a
YES instance.  With scramble the target walk instead starts from the
partition rooted at the opposite spine end, which is still a minimum cover
of the same size but need not be reachable from the start.

Instances are capped at instance.MAX_VERTICES vertices, the most
parse_instance accepts; a larger request fails before the forest is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ._kpaths import PathCoverContext
from .cover import partition
from .errors import InputError
from .graph import CaterpillarForest, VertexId
from .instance import MAX_VERTICES, InstanceFile


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
        if self.spine > MAX_VERTICES:
            raise _too_large(self.spine)
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
    n = config.spine + sum(leaf_counts.values())
    if n > MAX_VERTICES:
        raise _too_large(n)
    forest = CaterpillarForest.from_counts(config.spine, leaf_counts)

    base = _minimum_cover(forest, config.k, from_right=False)
    slides = PathCoverContext(forest, config.k)
    start = _walk(slides, base, rng)
    if config.scramble:
        other = _minimum_cover(forest, config.k, from_right=True)
        target = _walk(slides, other, rng)
    else:
        target = _walk(slides, base, rng)

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


def _walk(
    slides: PathCoverContext, cover: frozenset[VertexId], rng: random.Random
) -> frozenset[VertexId]:
    """Apply a bounded number of random valid slides to the cover."""
    occ = slides.mask_of(cover)
    tokens = sorted(cover)
    if not tokens:
        return cover
    attempts = 12 * len(tokens) + 24
    for _ in range(attempts):
        i = rng.randrange(len(tokens))
        frm = tokens[i]
        nbrs = slides.neighbor_bits[frm]
        if not nbrs:
            continue
        to, tb = nbrs[rng.randrange(len(nbrs))]
        if slides.slide_ok(occ, frm, to):
            occ = (occ & ~slides.bit[frm]) | tb
            tokens[i] = to
    return frozenset(tokens)


def _too_large(n: int) -> InputError:
    return InputError(f"instance has {n} vertices, more than the {MAX_VERTICES} supported")
