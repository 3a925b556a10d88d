"""Byte-for-byte gates on the planner's witnesses and the generator's output.

`test_witness_digest` digests `build_sequence` in both directions on seeded
`kpvcr gen` instances: spine 4-120, k 4-6, every other one scrambled.  A
pair the planner cannot route contributes its `LogicError` message instead
of a witness, so a changed failure shows as well.  `test_render_digest`
digests `random_instance(...).render()` on spines up to 3,000, k 3-6, with
and without scrambling; the benchmark draws its instances through
`random_instance`, so its inputs depend on this output too.
`test_long_spine_witness_digest` digests witnesses on `kpvcr gen` spines of
1,000-5,000 vertices whose rigid set is empty, so one router walks the
whole caterpillar for hundreds or thousands of moves.
`test_path_free_witness_digest` digests witnesses on every caterpillar of
`enumerate_caterpillars(5, 3)` with k one above its longest path, where
every token set is a cover and every component is routed as one that
holds no k-path.

The digests were recorded from the planner and generator that tested each
slide against whole-forest k-path bitmasks (`_kpaths.PathCoverContext`);
any slide test must reproduce them exactly.  The path-free digest was
recorded from the planner that routed such components by breadth-first
search over vertex ids.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from kpvcr import (
    GenerateConfig,
    LogicError,
    TokenSet,
    build_sequence,
    random_instance,
    reachability_signature,
    validate_sequence,
)
from kpvcr.instance import render_witness
from kpvcr.oracle import enumerate_caterpillars


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _witness_configs(k: int) -> list[GenerateConfig]:
    rng = random.Random(6000 + k)
    return [
        GenerateConfig(
            spine=rng.randint(4, 120),
            leaf_prob=rng.choice((0.2, 0.4, 0.7)),
            k=k,
            seed=rng.randrange(2**31),
            scramble=i % 2 == 1,
        )
        for i in range(66)
    ]


def _witness_lines(config: GenerateConfig) -> list[str]:
    inst = random_instance(config)
    forest = inst.forest()
    I, J = inst.start_tokens(), inst.target_tokens()
    lines = []
    for a, b in ((I, J), (J, I)):
        try:
            lines.append(render_witness(build_sequence(forest, a, b).moves))
        except LogicError as exc:
            lines.append(f"error {exc}")
    return lines


WITNESS_DIGESTS = {
    4: "07a49bfdfd1133e1",
    5: "7b4d2a04d4b74a86",
    6: "de82ec5bc32ac877",
}


@pytest.mark.parametrize("k", sorted(WITNESS_DIGESTS))
def test_witness_digest(k):
    lines = [line for c in _witness_configs(k) for line in _witness_lines(c)]
    assert _digest(lines) == WITNESS_DIGESTS[k]


# (spine, k, seed, slack) -> digest of both directions' witnesses, recorded
# before the router kept a frontier of blocked tokens.  At leaf probability
# 0.4 these k = 4 seeds draw covers with an empty rigid set; no k = 5 draw
# tried had one, so those covers get one slack token each (the first free
# spine vertex for the start, the last for the target), which empties it.
LONG_SPINE_DIGESTS = {
    (1000, 4, 4, False): "ec68151112542bdc",
    (3000, 4, 1, False): "2ba1a1026a52ff5e",
    (5000, 4, 1, False): "c41efc113a136c92",
    (1000, 5, 1, True): "0905238a4a6f342e",
    (3000, 5, 1, True): "8abde851037dff78",
    (5000, 5, 1, True): "e2ecb7506bf230b7",
}


@pytest.mark.parametrize("case", sorted(LONG_SPINE_DIGESTS))
def test_long_spine_witness_digest(case):
    spine, k, seed, slack = case
    inst = random_instance(GenerateConfig(spine=spine, leaf_prob=0.4, k=k, seed=seed))
    forest = inst.forest()
    I, J = inst.start_tokens(), inst.target_tokens()
    if slack:
        (comp,) = forest.components
        I = TokenSet(I.occupied | {next(v for v in comp.spine if v not in I.occupied)}, k)
        J = TokenSet(J.occupied | {next(v for v in reversed(comp.spine) if v not in J.occupied)}, k)
    assert not reachability_signature(forest, I)[1]
    lines = [render_witness(build_sequence(forest, a, b).moves) for a, b in ((I, J), (J, I))]
    assert _digest(lines) == LONG_SPINE_DIGESTS[case]


# spine 2-5, 0-3 leaves per vertex, two random pairs per size 0..n:
# 18,480 witnesses
PATH_FREE_DIGEST = "f8130f25bdf3d839"


def test_path_free_witness_digest():
    rng = random.Random(1313)
    lines = []
    for G in enumerate_caterpillars(5, 3):
        k = max(4, G.longest_path_vertices() + 1)
        verts = sorted(G.vertices)
        for size in range(G.n + 1):
            for _ in range(2):
                I, J = (TokenSet(frozenset(rng.sample(verts, size)), k) for _ in range(2))
                seq = build_sequence(G, I, J)
                assert validate_sequence(G, k, seq) and seq.end == J
                lines.append(render_witness(seq.moves))
    assert _digest(lines) == PATH_FREE_DIGEST


def _render_configs(k: int) -> list[GenerateConfig]:
    rng = random.Random(7000 + k)
    return [
        GenerateConfig(
            spine=spine,
            leaf_prob=rng.choice((0.0, 0.2, 0.4, 0.7, 1.0)),
            k=k,
            seed=rng.randrange(2**31),
            scramble=scramble,
        )
        for spine in (2, 3, 5, 9, 17, 60, 250, 900, 3000)
        for scramble in (False, True)
    ]


RENDER_DIGESTS = {
    3: "090bf154be4e7ea1",
    4: "6b30a5f29b1938c5",
    5: "ce171dc5d93b86b4",
    6: "a318a0d49d3a9fe9",
}


@pytest.mark.parametrize("k", sorted(RENDER_DIGESTS))
def test_render_digest(k):
    lines = [random_instance(c).render() for c in _render_configs(k)]
    assert _digest(lines) == RENDER_DIGESTS[k]
