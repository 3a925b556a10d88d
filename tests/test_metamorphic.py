"""Oracle-free laws on generated instances far beyond the exhaustive family.

Each case is a `kpvcr gen` instance with spine 60-300 and k in 4-6, drawn
from one fixed seed (every other one scrambled), and carries two pairs of
covers: the instance's own start and target, and a split pair.  The split
pair deletes the middle spine vertex and adds one token to the start, on
the left component in I and on the right one in J; no slide crosses
components, so it is a NO pair that passes the size check.  The laws need
no brute-force oracle:

- mirroring the spine (s_i to s_{n+1-i}, leaf l_i.j to l_{n+1-i}.j) maps
  `rigid_set`'s rigid set and every rationale tag onto the mirrored
  instance;
- `is_ts_reachable` gives one answer on (I, J), (J, I) and the mirrored
  pair, and NO on every split pair;
- every YES witness validates and ends exactly on J.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from kpvcr import (
    CaterpillarForest,
    GenerateConfig,
    TokenSet,
    VertexId,
    build_sequence,
    is_ts_reachable,
    random_instance,
    rigid_set,
    validate_sequence,
)

CASES = 24


@dataclass(frozen=True)
class _Pair:
    """Two covers of a generated caterpillar, minus `cut` (a spine index)
    when it is set."""

    spine: int
    leaves: dict[int, int]
    cut: int | None
    k: int
    start: frozenset[VertexId]
    target: frozenset[VertexId]

    def forest(self) -> CaterpillarForest:
        forest = CaterpillarForest.from_counts(self.spine, self.leaves)
        if self.cut is None:
            return forest
        return forest.delete(frozenset({VertexId("s", self.cut)}))

    def covers(self) -> tuple[TokenSet, TokenSet]:
        return TokenSet(self.start, self.k), TokenSet(self.target, self.k)

    def flip(self, v: VertexId) -> VertexId:
        return VertexId(v.kind, self.spine + 1 - v.spine_index, v.leaf_index)

    def mirrored(self) -> "_Pair":
        return _Pair(
            self.spine,
            {self.spine + 1 - i: c for i, c in self.leaves.items()},
            None if self.cut is None else self.spine + 1 - self.cut,
            self.k,
            frozenset(map(self.flip, self.start)),
            frozenset(map(self.flip, self.target)),
        )


def _pairs(i: int) -> tuple[_Pair, _Pair]:
    rng = random.Random(f"metamorphic-{i}")
    inst = random_instance(
        GenerateConfig(
            spine=rng.randint(60, 300),
            leaf_prob=rng.choice((0.2, 0.4, 0.6)),
            k=rng.randint(4, 6),
            seed=rng.randrange(10**6),
            scramble=i % 2 == 1,
        )
    )
    leaves = dict(inst.leaves)
    own = _Pair(inst.spine, leaves, None, inst.k, frozenset(inst.start), frozenset(inst.target))
    mid = inst.spine // 2
    kept = own.start - {VertexId("s", mid)}
    free = sorted(own.forest().vertices - kept)
    left = rng.choice([v for v in free if v.spine_index < mid])
    right = rng.choice([v for v in free if v.spine_index > mid])
    split = _Pair(inst.spine, leaves, mid, inst.k, kept | {left}, kept | {right})
    return own, split


@pytest.mark.parametrize("i", range(CASES))
def test_rigid_set_commutes_with_mirroring(i):
    for pair in _pairs(i):
        G, H = pair.forest(), pair.mirrored().forest()
        for cover, mirrored in zip(pair.covers(), pair.mirrored().covers()):
            got = rigid_set(G, cover)
            want = rigid_set(H, mirrored)
            assert frozenset(map(pair.flip, got.rigid)) == want.rigid
            assert {pair.flip(v): tag for v, tag in got.rationale.items()} == want.rationale


@pytest.mark.parametrize("i", range(CASES))
def test_reachability_is_symmetric_and_mirror_invariant(i):
    own, split = _pairs(i)
    for pair in (own, split):
        G, H = pair.forest(), pair.mirrored().forest()
        I, J = pair.covers()
        I2, J2 = pair.mirrored().covers()
        answer = is_ts_reachable(G, I, J)
        assert is_ts_reachable(G, J, I) == answer
        assert is_ts_reachable(H, I2, J2) == answer
        assert is_ts_reachable(H, J2, I2) == answer
    assert not is_ts_reachable(split.forest(), *split.covers())


@pytest.mark.parametrize("i", range(CASES))
def test_yes_witness_validates_and_ends_on_target(i):
    own, _ = _pairs(i)
    G = own.forest()
    I, J = own.covers()
    if not is_ts_reachable(G, I, J):
        assert i % 2 == 1  # unscrambled instances are YES by construction
        return
    H = own.mirrored().forest()
    I2, J2 = own.mirrored().covers()
    for forest, a, b in ((G, I, J), (G, J, I), (H, I2, J2)):
        seq = build_sequence(forest, a, b)
        assert validate_sequence(forest, a.k, seq)
        assert seq.end.occupied == b.occupied
