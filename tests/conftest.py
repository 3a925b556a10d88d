"""Shared helpers and hypothesis strategies for the kpvcr test suite."""

from __future__ import annotations

import random
import weakref

from hypothesis import strategies as st

from kpvcr import CaterpillarForest, TokenSet, VertexId, enumerate_kpvcs, minimum_cover_size


def cat(spine: int, leaves: dict[int, int] | None = None) -> CaterpillarForest:
    """Single-component caterpillar from a spine length and leaf counts."""
    return CaterpillarForest.from_counts(spine, leaves or {})


def toks(k: int, *ids: str) -> TokenSet:
    return TokenSet.of(k, [VertexId.parse(x) for x in ids])


def vs(*ids: str) -> frozenset[VertexId]:
    return frozenset(VertexId.parse(x) for x in ids)


def weakrefs(forest: CaterpillarForest) -> list[weakref.ref]:
    """Weak references to a forest and to each of its components."""
    return [weakref.ref(x) for x in (forest, *forest.components)]


@st.composite
def caterpillars(draw, max_spine: int = 6, max_leaves: int = 2):
    ell = draw(st.integers(min_value=2, max_value=max_spine))
    counts = {
        i: draw(st.integers(min_value=0, max_value=max_leaves))
        for i in range(1, ell + 1)
    }
    return cat(ell, {i: c for i, c in counts.items() if c})


@st.composite
def covered_instances(draw, max_spine: int = 5, max_leaves: int = 2, ks=(4, 5)):
    """A (forest, k, cover) triple with the cover drawn from the oracle
    enumeration at size psi..psi+2."""
    G = draw(caterpillars(max_spine=max_spine, max_leaves=max_leaves))
    k = draw(st.sampled_from(ks))
    psi = minimum_cover_size(G, k)
    size = draw(st.integers(min_value=psi, max_value=min(G.n, psi + 2)))
    covers = sorted(
        enumerate_kpvcs(G, k, size),
        key=lambda t: sorted(v.sort_key for v in t.occupied),
    )
    if not covers:
        # size > n can leave the pool empty on tiny graphs; fall back
        covers = sorted(
            enumerate_kpvcs(G, k, psi),
            key=lambda t: sorted(v.sort_key for v in t.occupied),
        )
    return G, k, draw(st.sampled_from(covers))


def random_cover(G: CaterpillarForest, k: int, size: int, rng: random.Random) -> TokenSet:
    pool = sorted(enumerate_kpvcs(G, k, size), key=lambda t: sorted(v.sort_key for v in t.occupied))
    return rng.choice(pool)
