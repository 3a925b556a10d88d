"""k-path enumeration and the bitmask cover context.

The reference here is an exhaustive search for simple paths on the explicit
adjacency list, which shares no code with `_kpaths`.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from kpvcr import TokenSet, is_kpvc
from kpvcr._kpaths import PathCoverContext, _component_paths

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
