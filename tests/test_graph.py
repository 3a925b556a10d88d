"""Graph core: distances, tree paths, longest paths, deletion, canonical form.

Non-trivial expected values are frozen from independent oracles computed on
the explicit adjacency list (breadth-first search, exhaustive simple-path
enumeration), never from the functions under test.
"""

import gc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kpvcr import (
    Caterpillar,
    CaterpillarForest,
    InputError,
    PathError,
    TokenSet,
    VertexId,
    partition,
    rigid_set,
)
from kpvcr._kpaths import PathCoverContext

from conftest import cat, caterpillars, vs, weakrefs


def _adj_oracle(G: CaterpillarForest) -> dict[VertexId, set[VertexId]]:
    return {v: set(ns) for v, ns in G.adjacency().items()}


def _bfs_dist(adj, u, v):
    frontier, seen, d = {u}, {u}, 0
    while frontier:
        if v in frontier:
            return d
        frontier = {w for x in frontier for w in adj[x] if w not in seen}
        seen |= frontier
        d += 1
    return None


def _longest_path_oracle(adj) -> int:
    best = 0

    def grow(path, used):
        nonlocal best
        best = max(best, len(path))
        for w in adj[path[-1]]:
            if w not in used:
                grow(path + [w], used | {w})

    for v in adj:
        grow([v], {v})
    return best


@st.composite
def after_deletions(draw):
    """A caterpillar with a random vertex set deleted: orphaned leaves,
    one-vertex spines and several components, as is_kpvc meets them."""
    G = draw(caterpillars(max_spine=5, max_leaves=3))
    drop = draw(st.sets(st.sampled_from(sorted(G.vertices))))
    return G.delete(drop)


DIST_GRAPH = cat(5, {1: 2, 3: 3, 5: 2})


class TestDist:
    def test_spine_ends(self):
        assert DIST_GRAPH.dist(VertexId.parse("s1"), VertexId.parse("s5")) == 4

    def test_sibling_leaves(self):
        assert DIST_GRAPH.dist(VertexId.parse("l3.1"), VertexId.parse("l3.2")) == 2

    def test_leaf_to_leaf_across(self):
        # breadth-first search on the adjacency list gives 6
        assert DIST_GRAPH.dist(VertexId.parse("l1.1"), VertexId.parse("l5.2")) == 6

    def test_unknown_vertex(self):
        with pytest.raises(InputError):
            DIST_GRAPH.dist(VertexId.parse("s9"), VertexId.parse("s1"))

    def test_cross_component_absent(self):
        G = DIST_GRAPH.delete(vs("s3", "l3.1", "l3.2", "l3.3"))
        assert G.dist(VertexId.parse("s1"), VertexId.parse("s5")) is None

    @given(caterpillars(max_spine=5))
    @settings(deadline=None, max_examples=60)
    def test_matches_bfs_oracle(self, G):
        adj = _adj_oracle(G)
        verts = sorted(G.vertices)
        for u in verts[:6]:
            for v in verts[:6]:
                assert G.dist(u, v) == _bfs_dist(adj, u, v)


class TestTreePath:
    def test_spine_segment(self):
        p = DIST_GRAPH.tree_path(VertexId.parse("s1"), VertexId.parse("s3"))
        assert [str(v) for v in p] == ["s1", "s2", "s3"]

    def test_leaf_enters_at_neighbor(self):
        p = DIST_GRAPH.tree_path(VertexId.parse("l3.1"), VertexId.parse("s5"))
        assert [str(v) for v in p] == ["l3.1", "s3", "s4", "s5"]

    def test_identity(self):
        u = VertexId.parse("l1.2")
        assert DIST_GRAPH.tree_path(u, u) == (u,)

    def test_cross_component_error(self):
        G = cat(5, {3: 1}).delete(vs("s3", "l3.1"))
        with pytest.raises(PathError):
            G.tree_path(VertexId.parse("s1"), VertexId.parse("s5"))

    @given(caterpillars(max_spine=5))
    @settings(deadline=None, max_examples=60)
    def test_dist_additive_along_path(self, G):
        verts = sorted(G.vertices)
        u, v = verts[0], verts[-1]
        path = G.tree_path(u, v)
        assert len(path) == G.dist(u, v) + 1
        for w in path:
            assert G.dist(u, w) + G.dist(w, v) == G.dist(u, v)


class TestLongestPath:
    def test_spine_with_end_leaves(self):
        # exhaustive path enumeration: l1.1 s1 .. s5 l5.1
        assert cat(5, {1: 1, 5: 1}).longest_path_vertices() == 7

    def test_single_vertex(self):
        assert cat(1).longest_path_vertices() == 1

    def test_bare_edge(self):
        assert cat(2).longest_path_vertices() == 2

    def test_empty_forest(self):
        assert cat(2).delete(vs("s1", "s2")).longest_path_vertices() == 0

    @given(st.one_of(caterpillars(max_spine=5), after_deletions()))
    @settings(deadline=None, max_examples=120)
    @example(cat(3, {2: 2}).delete(vs("s2")))  # orphaned leaves only
    @example(cat(3).delete(vs("s1", "s3")))  # one-vertex spines, 0-3 leaves
    @example(cat(3, {2: 1}).delete(vs("s1", "s3")))
    @example(cat(3, {2: 2}).delete(vs("s1", "s3")))
    @example(cat(3, {2: 3}).delete(vs("s1", "s3")))
    @example(cat(6, {1: 1, 3: 3, 6: 2}).delete(vs("s4", "l6.1")))  # several components
    def test_matches_enumeration_oracle(self, G):
        assert G.longest_path_vertices() == _longest_path_oracle(_adj_oracle(G))


class TestDelete:
    def test_split_at_cut_vertex(self):
        G = cat(5, {3: 1}).delete(vs("s3", "l3.1"))
        spines = sorted(tuple(str(s) for s in c.spine) for c in G.components)
        assert spines == [("s1", "s2"), ("s4", "s5")]

    def test_delete_nothing(self):
        G = cat(4, {2: 2})
        assert G.delete(frozenset()).vertices == G.vertices

    def test_orphaned_leaf_becomes_singleton(self):
        # induced-subgraph semantics: dropping s5 leaves l5.1 isolated,
        # never re-attached anywhere
        G = cat(5, {1: 1, 5: 1}).delete(vs("s5"))
        comps = sorted(G.components, key=lambda c: len(c.spine))
        assert len(comps) == 2
        assert [str(v) for v in comps[0].all_vertices()] == ["l5.1"]
        assert vs("s1", "s2", "s3", "s4", "l1.1") == frozenset(comps[1].all_vertices())

    @given(caterpillars(max_spine=5), st.data())
    @settings(deadline=None, max_examples=80)
    def test_never_touches_surviving_edges(self, G, data):
        verts = sorted(G.vertices)
        drop = frozenset(
            data.draw(st.sets(st.sampled_from(verts), max_size=len(verts)))
        )
        before = _adj_oracle(G)
        after = _adj_oracle(G.delete(drop))
        assert set(after) == set(before) - drop
        for v, ns in after.items():
            assert ns == {w for w in before[v] if w not in drop}


class TestCanonical:
    def test_bare_endpoint_demoted_to_leaf(self):
        G = cat(3, {1: 1}).canonical()
        comp = G.components[0]
        assert [str(s) for s in comp.spine] == ["s1", "s2"]
        assert VertexId.parse("s3") in comp.leaves[1]

    def test_already_canonical_untouched(self):
        G = cat(3, {1: 1, 3: 1})
        comp = G.canonical().components[0]
        assert [str(s) for s in comp.spine] == ["s1", "s2", "s3"]
        # leaf tuples out of order: only their order changes
        G = cat(3, {1: 1, 2: 3, 3: 1})
        comp = G.components[0]
        unsorted = Caterpillar(comp.spine, tuple(ls[::-1] for ls in comp.leaves))
        assert unsorted != comp
        assert CaterpillarForest.single(unsorted).canonical() == G

    @given(caterpillars(max_spine=6))
    @settings(deadline=None, max_examples=60)
    def test_preserves_adjacency(self, G):
        assert _adj_oracle(G.canonical()) == _adj_oracle(G)


class TestRetention:
    @staticmethod
    def _use_every_table() -> list:
        G = cat(7, {3: 2, 5: 1})
        u, v = VertexId.parse("l3.1"), VertexId.parse("s7")
        assert G.has_vertex(u) and G.dist(u, v) == 5
        assert v in G.neighbors(VertexId.parse("s6"))
        assert G.longest_path_vertices() == 7
        cover = TokenSet(frozenset(partition(G, 4, VertexId.parse("s1")).representatives), 4)
        assert G.delete(cover.occupied).longest_path_vertices() < 4
        assert partition(G, 4, VertexId.parse("s4")).psi == len(cover)
        canon = G.canonical()
        assert canon != G and canon.vertices == G.vertices
        paths = PathCoverContext(G, 4)
        assert paths.is_cover(paths.mask_of(cover.occupied))
        rigid_set(G, cover)
        return weakrefs(G) + weakrefs(canon)

    def test_tables_die_with_forest(self):
        # every structural table lives on the object it describes, so
        # nothing keeps a forest or its components once the caller lets go
        refs = self._use_every_table()
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)


class TestVertexId:
    @given(st.integers(min_value=1, max_value=99))
    def test_spine_roundtrip(self, i):
        assert str(VertexId.parse(f"s{i}")) == f"s{i}"

    @given(st.integers(min_value=1, max_value=99), st.integers(min_value=1, max_value=9))
    def test_leaf_roundtrip(self, i, j):
        assert str(VertexId.parse(f"l{i}.{j}")) == f"l{i}.{j}"

    @pytest.mark.parametrize("bad", ["", "x3", "s0", "l1", "l0.1", "s1.2", "l1.0"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(InputError):
            VertexId.parse(bad)
