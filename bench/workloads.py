"""Seeded inputs for the CLI workloads, built from kpvcr's public API only.

`GENERATORS[workload](seed)` picks a workload's instances and
`Recipe.build` makes one.  Every pick is drawn from one
`random.Random(seed)`, so a seed always yields the same files.  Per-instance cost is bimodal: a caterpillar
whose two spine ends both carry leaves takes three to four times longer to
decide than one with a bare end.  Left to chance, the share of such
instances in a set of a dozen swings the total by far more than any bound a
benchmark could hold, so each set fixes how many of each kind it holds and
rejection-samples generator seeds until it has them.

Picking does the rejection sampling, whose number of candidates depends on
the seed.  Building does only the work of the chosen instances, so the
benchmark times building alone as its set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from kpvcr import (
    CaterpillarForest,
    GenerateConfig,
    InstanceFile,
    VertexId,
    partition,
    random_instance,
)

LEAF_PROB = 0.4  # the `kpvcr gen` leaf model, up to 3 leaves per spine vertex
KS = (4, 5)

# decide-rigid: per k, this many caterpillars with both spine ends leafed
# and this many with a bare end, plus one fully occupied bare path
RIGID_SPINE = 300
RIGID_PER_KIND = 2
FULL_PATH_N = 800
FULL_PATH_CHECKS = 3

# witness-slack: same split, plus one bare path with a slack token
SLACK_SPINE = 160
SLACK_PER_KIND = 2
SLACK_PATH_N = 480

ALL_OPS = ("decide", "witness", "check")


@dataclass(frozen=True)
class Recipe:
    """One instance file and the CLI subcommands a pass runs on it.

    `config_seed` None means a bare path of `spine` vertices.  Without
    `slack` the start and target are those of `kpvcr gen` (for a bare path:
    every vertex); with `slack` they are `slack_instance`'s.
    """

    name: str
    ops: tuple[str, ...]  # from ALL_OPS, witness before check; repeats pool
    spine: int
    k: int
    config_seed: int | None = None
    slack: bool = False

    def build(self) -> InstanceFile:
        if self.config_seed is not None:
            config = GenerateConfig(
                spine=self.spine, leaf_prob=LEAF_PROB, k=self.k, seed=self.config_seed
            )
            inst = random_instance(config)
            leaves = inst.leaves
        else:
            path = tuple(VertexId("s", i) for i in range(1, self.spine + 1))
            inst = InstanceFile(k=self.k, spine=self.spine, leaves=(), start=path, target=path)
            leaves = ()
        return slack_instance(self.spine, leaves, self.k) if self.slack else inst


def ends_leafed(inst: InstanceFile) -> bool:
    counts = dict(inst.leaves)
    return bool(counts.get(1)) and bool(counts.get(inst.spine))


def _config_seeds(rng: random.Random, spine: int, k: int, per_kind: int) -> list[int]:
    """Generator seeds of `per_kind` YES-by-construction `kpvcr gen`
    instances with both spine ends leafed, then `per_kind` with at least
    one bare end."""
    got: dict[bool, list[int]] = {True: [], False: []}
    while any(len(seeds) < per_kind for seeds in got.values()):
        seed = rng.randrange(2**31)
        kind = ends_leafed(Recipe("", (), spine, k, seed).build())
        if len(got[kind]) < per_kind:
            got[kind].append(seed)
    return got[True] + got[False]


def slack_instance(spine: int, leaves: tuple[tuple[int, int], ...], k: int) -> InstanceFile:
    """Left-rooted minimum cover plus the leftmost free vertex, against the
    right-rooted minimum cover plus the rightmost free vertex."""
    comp = CaterpillarForest.from_counts(spine, dict(leaves)).components[0]
    left = set(partition(comp, k, comp.spine[0]).representatives)
    right = set(partition(comp, k, comp.spine[-1]).representatives)
    vertices = sorted(comp.all_vertices())
    left.add(next(v for v in vertices if v not in left))
    right.add(next(v for v in reversed(vertices) if v not in right))
    return InstanceFile(
        k=k,
        spine=spine,
        leaves=leaves,
        start=tuple(sorted(left)),
        target=tuple(sorted(right)),
    )


def decide_rigid(seed: int) -> list[Recipe]:
    rng = random.Random(seed)
    out = [
        Recipe(f"cat-k{k}-{i}", ("decide",), RIGID_SPINE, k, s)
        for k in KS
        for i, s in enumerate(_config_seeds(rng, RIGID_SPINE, k, RIGID_PER_KIND))
    ]
    # The fully occupied path's witness is empty, so witness and check add
    # rigidity and parsing work without running the planner.  Its check
    # child is the shortest of all (0.2 s, half of it interpreter start) and
    # the only check sample, so it runs FULL_PATH_CHECKS times per pass to
    # give its median enough samples (bench/README.md, Steadiness).
    ops = ("decide", "witness") + ("check",) * FULL_PATH_CHECKS
    return out + [Recipe("full-path", ops, FULL_PATH_N, 4)]


def witness_slack(seed: int) -> list[Recipe]:
    rng = random.Random(seed)
    out = [
        Recipe(f"slack-k{k}-{i}", ALL_OPS, SLACK_SPINE, k, s, slack=True)
        for k in KS
        for i, s in enumerate(_config_seeds(rng, SLACK_SPINE, k, SLACK_PER_KIND))
    ]
    return out + [Recipe("slack-path", ALL_OPS, SLACK_PATH_N, 4, slack=True)]


GENERATORS = {"decide-rigid": decide_rigid, "witness-slack": witness_slack}
