"""Seeded random instance generation.

A random caterpillar is drawn from the spine length and a per-vertex leaf
probability, a minimum cover comes out of the greedy partition, and both the
start and the target are random slide walks away from a minimum cover.  By
default both walks leave the same base cover, so the instance is always a
YES instance.  With scramble the target walk instead starts from the
partition rooted at the opposite spine end, which is still a minimum cover
of the same size.  That does not make NO instances: 196 of 196 scrambled
draws were YES.  For a NO pair that passes the size check, split a cover
at a deleted spine vertex, as tests/test_metamorphic.py does.

Each walk tests its slides with `_kpaths.slide_ok` on the generated
component's routing ranks, so generation needs memory linear in the
instance.  Instances are capped at instance.MAX_VERTICES vertices, the most
parse_instance accepts; a larger request fails before the forest is built.
"""

from __future__ import annotations

import random

from ._kpaths import slide_ok
from .cover import partition
from .errors import InputError
from .graph import Caterpillar, CaterpillarForest, Record, VertexId
from .instance import MAX_VERTICES, InstanceFile


class GenerateConfig(Record):
    _fields = ("spine", "leaf_prob", "k", "seed", "scramble")

    def __init__(
        self, spine: int, leaf_prob: float, k: int, seed: int, scramble: bool = False
    ) -> None:
        if spine < 2:
            raise InputError("spine length must be >= 2")
        if spine > MAX_VERTICES:
            raise _too_large(spine)
        if not (0.0 <= leaf_prob <= 1.0):
            raise InputError("leaf probability must be in [0, 1]")
        if k < 3:
            raise InputError("k must be >= 3")
        self._init(spine, leaf_prob, k, seed, scramble)


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
    (comp,) = forest.components
    start = _walk(comp, config.k, base, rng)
    if config.scramble:
        other = _minimum_cover(forest, config.k, from_right=True)
        target = _walk(comp, config.k, other, rng)
    else:
        target = _walk(comp, config.k, base, rng)

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
    comp: Caterpillar, k: int, cover: frozenset[VertexId], rng: random.Random
) -> frozenset[VertexId]:
    """Apply a bounded number of random valid slides to the cover."""
    ranks = comp._ranks
    occ = ranks.mask_of(cover)
    tokens = sorted(cover)
    if not tokens:
        return cover
    attempts = 12 * len(tokens) + 24
    for _ in range(attempts):
        i = rng.randrange(len(tokens))
        frm = tokens[i]
        nbrs = comp.neighbors(frm)
        if not nbrs:
            continue
        to = nbrs[rng.randrange(len(nbrs))]
        a, b = ranks.rank[frm], ranks.rank[to]
        if occ >> b & 1:
            continue
        # a leaf token moving onto its spine vertex needs no slide test
        m = ranks.pos[a]
        if a == ranks.spine[m] and not slide_ok(ranks, occ, m, b, k):
            continue
        occ ^= 1 << a | 1 << b
        tokens[i] = to
    return frozenset(tokens)


def _too_large(n: int) -> InputError:
    return InputError(f"instance has {n} vertices, more than the {MAX_VERTICES} supported")
