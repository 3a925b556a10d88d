"""Tag-for-tag gate on large instances.

Each case digests the sorted (vertex, tag) list of `rigid_set(...).rationale`
on a seeded input far beyond the exhaustive small family: random
caterpillars with spine 200-300 (both spine ends leafed, and a bare end),
slack-token covers, fully occupied bare paths and left/right-rooted minimum
covers.  The digests were recorded from the engine that materialised one
canonical forest per deleted set; any engine must reproduce them exactly.
"""

from __future__ import annotations

import hashlib

import pytest

from kpvcr import (
    CaterpillarForest,
    GenerateConfig,
    TokenSet,
    VertexId,
    partition,
    random_instance,
    rigid_set,
)


def _digest(report) -> str:
    lines = "\n".join(f"{v} {tag}" for v, tag in sorted(report.rationale.items()))
    return hashlib.sha256(lines.encode()).hexdigest()[:16]


def _first_seed(spine: int, k: int, both_leafed: bool) -> int:
    seed = 0
    while True:
        inst = random_instance(GenerateConfig(spine=spine, leaf_prob=0.4, k=k, seed=seed))
        counts = dict(inst.leaves)
        if (bool(counts.get(1)) and bool(counts.get(spine))) == both_leafed:
            return seed
        seed += 1


def _generated(spine: int, k: int, both_leafed: bool, which: str):
    seed = _first_seed(spine, k, both_leafed)
    inst = random_instance(GenerateConfig(spine=spine, leaf_prob=0.4, k=k, seed=seed))
    cover = inst.start if which == "start" else inst.target
    return inst.forest(), TokenSet(frozenset(cover), k)


def _slack(spine: int, k: int, leafed: bool, which: str):
    """The left-rooted minimum cover plus the leftmost free vertex, or the
    right-rooted one plus the rightmost free vertex."""
    leaves = {}
    if leafed:
        leaves = dict(
            random_instance(
                GenerateConfig(spine=spine, leaf_prob=0.4, k=k, seed=_first_seed(spine, k, True))
            ).leaves
        )
    G = CaterpillarForest.from_counts(spine, leaves)
    comp = G.components[0]
    vertices = sorted(comp.all_vertices())
    if which == "start":
        cover = set(partition(comp, k, comp.spine[0]).representatives)
        cover.add(next(v for v in vertices if v not in cover))
    else:
        cover = set(partition(comp, k, comp.spine[-1]).representatives)
        cover.add(next(v for v in reversed(vertices) if v not in cover))
    return G, TokenSet(frozenset(cover), k)


def _full_path(n: int, k: int):
    G = CaterpillarForest.from_counts(n, {})
    return G, TokenSet(frozenset(VertexId("s", i) for i in range(1, n + 1)), k)


def _rooted(spine: int, k: int, side: str):
    seed = _first_seed(spine, k, True)
    inst = random_instance(GenerateConfig(spine=spine, leaf_prob=0.4, k=k, seed=seed))
    G = inst.forest()
    comp = G.components[0]
    root = comp.spine[0] if side == "left" else comp.spine[-1]
    return G, TokenSet(frozenset(partition(comp, k, root).representatives), k)


CASES = {
    **{
        f"gen-s{spine}-k{k}-{kind}-{which}": (
            lambda spine=spine, k=k, kind=kind, which=which: _generated(
                spine, k, kind == "leafed", which
            )
        )
        for spine in (200, 300)
        for k in (4, 5)
        for kind in ("leafed", "bare")
        for which in ("start", "target")
    },
    **{
        f"slack-s{spine}-k{k}-{kind}-{which}": (
            lambda spine=spine, k=k, kind=kind, which=which: _slack(
                spine, k, kind == "leafed", which
            )
        )
        for spine, k, kind in ((160, 4, "leafed"), (160, 5, "leafed"), (480, 4, "bare"))
        for which in ("start", "target")
    },
    "full-n50-k4": lambda: _full_path(50, 4),
    "full-n50-k5": lambda: _full_path(50, 5),
    "full-n800-k4": lambda: _full_path(800, 4),
    **{
        f"rooted-s500-k{k}-{side}": (lambda k=k, side=side: _rooted(500, k, side))
        for k in (4, 5)
        for side in ("left", "right")
    },
}

DIGESTS = {
    "full-n50-k4": "cefb4edfcd458c37",
    "full-n50-k5": "cefb4edfcd458c37",
    "full-n800-k4": "873f536d04d9d3bd",
    "gen-s200-k4-bare-start": "daa1791965f0da7e",
    "gen-s200-k4-bare-target": "376eebdae0cbc9aa",
    "gen-s200-k4-leafed-start": "37984864e514155c",
    "gen-s200-k4-leafed-target": "8bfa1b4ba7e98936",
    "gen-s200-k5-bare-start": "2d8b91b1eca4c2fe",
    "gen-s200-k5-bare-target": "6bab2c7f70bf1c14",
    "gen-s200-k5-leafed-start": "e2a2425013aeb416",
    "gen-s200-k5-leafed-target": "2dfd7229f919de66",
    "gen-s300-k4-bare-start": "90db4ef16a415ac2",
    "gen-s300-k4-bare-target": "b6325a265d66e2a5",
    "gen-s300-k4-leafed-start": "9a2d5c5eef656548",
    "gen-s300-k4-leafed-target": "91ba75906620b39f",
    "gen-s300-k5-bare-start": "3ab13df240eebf30",
    "gen-s300-k5-bare-target": "d0032d70c8583b11",
    "gen-s300-k5-leafed-start": "472a2a5d2135f799",
    "gen-s300-k5-leafed-target": "0493ddb96b6ff771",
    "rooted-s500-k4-left": "69d00ae50895fb04",
    "rooted-s500-k4-right": "54630e5964f83104",
    "rooted-s500-k5-left": "8307acab819e0ab3",
    "rooted-s500-k5-right": "b2c48867f697c545",
    "slack-s160-k4-leafed-start": "8d56046340b4fb20",
    "slack-s160-k4-leafed-target": "549024408b375664",
    "slack-s160-k5-leafed-start": "160aae0c25927da6",
    "slack-s160-k5-leafed-target": "3921faa1231e8f53",
    "slack-s480-k4-bare-start": "154fdd54878b1605",
    "slack-s480-k4-bare-target": "c8a29a60b4387eb7",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rationale_digest(name):
    G, cover = CASES[name]()
    assert _digest(rigid_set(G, cover)) == DIGESTS[name]
