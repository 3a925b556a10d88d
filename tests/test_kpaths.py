"""k-path enumeration, the bitmask cover context and the slide test.

The reference for the enumeration is an exhaustive search for simple paths
on the explicit adjacency list, which shares no code with `_kpaths`.  The
slide test `slide_ok` is checked against `PathCoverContext.slide_ok`, which
looks at every enumerated k-path through the token.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from kpvcr import CaterpillarForest, TokenSet, is_kpvc
from kpvcr._kpaths import PathCoverContext, _component_paths, _path_count, slide_ok

from conftest import cat, caterpillars


def _adj(G):
    return {v: set(ns) for v, ns in G.adjacency().items()}


def _k_paths_by_search(adj, k) -> set:
    """Vertex sets of all k-vertex simple paths, grown from every vertex."""
    found = set()

    def grow(path):
        if len(path) == k:
            found.add(frozenset(path))
            return
        for w in adj[path[-1]]:
            if w not in path:
                grow(path + [w])

    for v in adj:
        grow([v])
    return found


@st.composite
def forests(draw):
    """Caterpillars with up to 3 leaves per vertex, after random deletions
    (orphaned leaves, split spines, leafless spine ends)."""
    G = draw(caterpillars(max_spine=6, max_leaves=3))
    drop = draw(st.sets(st.sampled_from(sorted(G.vertices)), max_size=min(3, G.n - 1)))
    return G.delete(drop)


class TestComponentPaths:
    @given(forests(), st.integers(min_value=3, max_value=6))
    @settings(deadline=None, max_examples=120)
    def test_lists_each_k_path_once_in_path_order(self, G, k):
        adj = _adj(G)
        listed = [p for c in G.components for p in _component_paths(c, k)]
        for p in listed:
            assert len(set(p)) == k
            assert all(b in adj[a] for a, b in zip(p, p[1:]))
        sets = [frozenset(p) for p in listed]
        assert len(set(sets)) == len(sets)
        assert set(sets) == _k_paths_by_search(adj, k)

    @given(forests(), st.integers(min_value=2, max_value=7))
    @settings(deadline=None, max_examples=200)
    def test_path_count_from_leaf_counts(self, G, k):
        # the oracle's size check counts the paths without listing them
        for c in G.components:
            assert _path_count(c, k) == len(_component_paths(c, k))


class TestPathCoverContext:
    @given(forests(), st.integers(min_value=3, max_value=6), st.data())
    @settings(deadline=None, max_examples=120)
    def test_is_cover_matches_is_kpvc(self, G, k, data):
        verts = sorted(G.vertices)
        occ = data.draw(st.sets(st.sampled_from(verts), max_size=len(verts)))
        ctx = PathCoverContext(G, k)
        assert ctx.is_cover(ctx.mask_of(occ)) == is_kpvc(G, TokenSet.of(k, occ))

    def test_vertices_of_inverts_mask_of(self):
        rng = random.Random(7)
        G = cat(150, {i: rng.randint(0, 3) for i in range(1, 151)})
        assert G.n > 300
        ctx = PathCoverContext(G, 4)
        verts = sorted(G.vertices)
        assert ctx.vertices_of(0) == frozenset()
        assert ctx.vertices_of(ctx.mask_of(verts)) == G.vertices
        for _ in range(50):
            S = frozenset(rng.sample(verts, rng.randint(1, len(verts))))
            assert ctx.vertices_of(ctx.mask_of(S)) == S


@st.composite
def slide_cases(draw):
    """(raw single-component forest, k, tokens): spine 1-40 with 0-3
    leaves per vertex, k 3-6, each vertex a token with one drawn density."""
    ell = draw(st.integers(min_value=1, max_value=40))
    counts = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=ell, max_size=ell))
    G = CaterpillarForest.from_counts(ell, {i + 1: c for i, c in enumerate(counts) if c})
    k = draw(st.integers(min_value=3, max_value=6))
    density = draw(st.sampled_from((0.1, 0.25, 0.5, 0.8)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return G, k, frozenset(v for v in sorted(G.vertices) if rng.random() < density)


def _check_spine_slides(base, occ, k, G):
    """slide_ok on `base` against PathCoverContext on G, for every spine
    token of `base` that survives in G and every neighbour it has there
    that is free.  G is `base`'s forest, or it with tokens deleted."""
    ranks = base._ranks
    mask = ranks.mask_of(occ)
    paths = PathCoverContext(G, k)
    pmask = paths.mask_of(occ & G.vertices)
    for m, u in enumerate(base.spine):
        if u not in occ or u not in G.vertices:
            continue
        for w in G.neighbors(u):
            if w not in occ:
                want = paths.slide_ok(pmask, u, w)
                assert slide_ok(ranks, mask, m, ranks.rank[w], k) == want, (u, w)


class TestSlideOk:
    """Every spine token and free neighbour, on the three kinds of input
    the slide test meets."""

    @given(slide_cases())
    @settings(deadline=None, max_examples=150)
    def test_raw_components(self, case):
        # the generator's walk: `from_counts` components, bare spine ends kept
        G, k, occ = case
        _check_spine_slides(G.components[0], occ, k, G)

    @given(slide_cases())
    @settings(deadline=None, max_examples=150)
    def test_canonical_components(self, case):
        # the planner: components of G - R in canonical form
        G, k, occ = case
        canon = G.canonical()
        _check_spine_slides(canon.components[0], occ, k, canon)

    @given(slide_cases(), st.data())
    @settings(deadline=None, max_examples=150)
    def test_base_component_with_tokens_deleted(self, case, data):
        # the rigidity engine: a subproblem of the base canonical component
        # is asked through the base ranks and the query's token mask
        G, k, occ = case
        base = G.canonical().components[0]
        drop = data.draw(st.sets(st.sampled_from(sorted(occ)), max_size=4)) if occ else set()
        sub = CaterpillarForest.single(base).delete(drop)
        _check_spine_slides(base, occ, k, sub)

    def test_far_end_free_leaf_counts(self):
        # after s2's token slides to s1, s2 s3 s4 l4.1 is free: the arm
        # toward s4 is two spine steps plus the free leaf at its far end
        G = cat(4, {4: 1})
        ranks = G.components[0]._ranks
        occ = ranks.mask_of(G.components[0].spine[1:2])
        assert not slide_ok(ranks, occ, 1, ranks.rank[G.components[0].spine[0]], 4)
