"""Seeded instance generation (kpvcr.generate)."""

import gc
import random

from kpvcr import (
    CaterpillarForest,
    GenerateConfig,
    is_kpvc,
    minimum_cover_size,
    random_instance,
)

from conftest import weakrefs

# `kpvcr gen --spine 14 --leaf-prob 0.4 --k 4 --seed 1`, where the start and
# target walks both move tokens off the base cover
SPINE14_SEED1 = """\
kpvcr 1
k 4
spine 14
leaves 1=1 3=1 7=2 10=1 12=1 14=2
start s3 s6 s8 s12
target s3 s5 s8 s12
"""


def test_output_is_pinned():
    inst = random_instance(GenerateConfig(spine=14, leaf_prob=0.4, k=4, seed=1))
    assert inst.render() == SPINE14_SEED1


def test_walks_stay_minimum_covers():
    rng = random.Random(4)
    for _ in range(60):
        config = GenerateConfig(
            spine=rng.randrange(2, 40),
            leaf_prob=rng.choice((0.0, 0.4, 1.0)),
            k=rng.randrange(3, 7),
            seed=rng.randrange(2**31),
            scramble=rng.random() < 0.5,
        )
        inst = random_instance(config)
        forest = inst.forest()
        psi = minimum_cover_size(forest, config.k)
        for tokens in (inst.start_tokens(), inst.target_tokens()):
            assert len(tokens.occupied) == psi
            assert is_kpvc(forest, tokens)


def test_generated_forests_die(monkeypatch):
    # each generated forest is new to the process; anything still holding it
    # after random_instance returns would be memory held until exit
    refs = []
    from_counts = CaterpillarForest.from_counts

    def recording(*args):
        forest = from_counts(*args)
        refs.extend(weakrefs(forest))
        return forest

    monkeypatch.setattr(CaterpillarForest, "from_counts", recording)
    for seed in range(5):
        random_instance(GenerateConfig(spine=61, leaf_prob=0.4, k=5, seed=seed, scramble=True))
    gc.collect()
    assert len(refs) == 10
    assert [r() for r in refs] == [None] * len(refs)
