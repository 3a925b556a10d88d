"""Graph core: longest paths, deletion, canonical form, routing ranks.

Non-trivial expected values are frozen from independent oracles computed on
the explicit adjacency list (breadth-first search, exhaustive simple-path
enumeration), never from the functions under test.
"""

import copy
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kpvcr import (
    Caterpillar,
    CaterpillarForest,
    GenerateConfig,
    InputError,
    TokenSet,
    VertexId,
    build_sequence,
    is_kpvc,
    is_ts_reachable,
    parse_instance,
    partition,
    random_instance,
    reachability_signature,
    rigid_set,
    validate_sequence,
)
from kpvcr._kpaths import PathCoverContext

from conftest import cat, caterpillars, covered_instances, toks, vs, weakrefs


def _adj_oracle(G: CaterpillarForest) -> dict[VertexId, set[VertexId]]:
    return {v: set(ns) for v, ns in G.adjacency().items()}


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


@st.composite
def forest_and_drop(draw):
    """A caterpillar, or a forest left by a deletion, and a vertex set."""
    G = draw(st.one_of(caterpillars(max_spine=5, max_leaves=3), after_deletions()))
    verts = sorted(G.vertices)
    return G, frozenset(draw(st.sets(st.sampled_from(verts))) if verts else ())


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

    @given(forest_and_drop())
    @settings(deadline=None, max_examples=150)
    @example((cat(3, {2: 2}), vs("s1", "s2", "s3")))  # orphaned leaves only
    @example((cat(2), vs("s1", "s2")))  # nothing left
    @example((cat(5, {5: 1}).delete(vs("s3")), vs("s1")))  # s4 s5 l5.1 untouched
    @example((cat(6, {1: 1, 3: 3, 6: 2}), vs("s4", "s5", "l6.1")))
    def test_without_matches_enumeration_oracle(self, case):
        """G - drop's longest path, measured without building G - drop,
        against path enumeration on G's own adjacency less drop."""
        G, drop = case
        adj = {v: ns - drop for v, ns in _adj_oracle(G).items() if v not in drop}
        assert G.longest_path_without(drop) == _longest_path_oracle(adj)

    @pytest.mark.parametrize("spine", [12, 150, 2000])
    def test_without_matches_delete(self, spine):
        """The two readers of the one deletion scan agree: G - drop's
        longest path measured without building it is that of the forest
        `delete` builds, on a generated caterpillar and on a forest made by
        `delete` (orphaned leaves, untouched components), for the empty
        drop and for drops that repeat vertices."""
        rng = random.Random(spine)
        for k in (4, 5):
            G = random_instance(GenerateConfig(spine, 0.4, k, seed=spine + k)).forest()
            (comp,) = G.components
            # an inner spine vertex with leaves, to split G and orphan them
            cut = rng.choice([s for s, ls in zip(comp.spine[1:-1], comp.leaves[1:-1]) if ls])
            H = G.delete([cut] + [v for v in sorted(G.vertices) if rng.random() < 0.15])
            assert len(H.components) > 1
            assert any(c.spine[0].leaf_index for c in H.components)  # an orphaned leaf
            for F in (G, H):
                verts = sorted(F.vertices)
                for density in (0.0, 0.02, 0.1, 0.3, 0.6):
                    drop = [v for v in verts if rng.random() < density]
                    for d in (drop, drop + drop[::2]):
                        want = F.delete(d).longest_path_vertices()
                        assert F.longest_path_without(d) == want, (F, sorted(d))

    @pytest.mark.parametrize(
        "G, drop, want",
        [
            (cat(3, {1: 2}), ["l1.1", "l1.1"], 4),  # l1.2 s1 s2 s3: one leaf lost, not two
            (cat(3, {2: 2}), ["s2", "l2.1", "s2", "l2.1"], 1),  # l2.2 orphaned
            (cat(5, {5: 1}), ["s3", "s3"], 3),  # s4 s5 l5.1
        ],
    )
    def test_a_repeated_vertex_counts_once(self, G, drop, want):
        drop = [VertexId.parse(x) for x in drop]
        assert G.longest_path_without(drop) == want
        assert G.delete(drop).longest_path_vertices() == want

    def test_unknown_vertex(self):
        G = cat(3, {2: 1})
        for read in (G.delete, G.longest_path_without):
            with pytest.raises(InputError, match=r"^unknown vertex s9$"):
                read(vs("s2", "s9"))
            with pytest.raises(InputError, match=r"^unknown vertex l1\.1$"):
                read(vs("l1.1"))


class TestDelete:
    def test_split_at_cut_vertex(self):
        G = cat(5, {3: 1}).delete(vs("s3", "l3.1"))
        spines = sorted(tuple(str(s) for s in c.spine) for c in G.components)
        assert spines == [("s1", "s2"), ("s4", "s5")]

    def test_delete_nothing(self):
        G = cat(4, {2: 2})
        assert G.delete(frozenset()).vertices == G.vertices
        # the forest itself, so its memo of cover verdicts is shared too
        assert G.delete(()) is G and G.delete(frozenset()) is G

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


class TestHashing:
    """Components and forests built apart compare and hash by their fields."""

    def test_equal_builds_hash_equal(self):
        built = cat(4, {1: 1, 3: 2})
        parsed = parse_instance(
            "kpvcr 1\nk 4\nspine 4\nleaves 1=1 3=2\nstart s2\ntarget s2\n"
        ).forest()
        cut = cat(6, {1: 1, 3: 2, 6: 1}).delete(vs("s5", "s6", "l6.1"))
        forests = (built, parsed, cut)
        assert len({id(G) for G in forests}) == 3
        for G in forests:
            assert G == built and hash(G) == hash(built)
            assert G.components[0] == built.components[0]
            assert hash(G.components[0]) == hash(built.components[0])
        assert {G: i for i, G in enumerate(forests)} == {built: 2}
        assert {G.components[0]: i for i, G in enumerate(forests)} == {built.components[0]: 2}
        assert {built: "x"}[cut] == "x" and {cut.components[0]: "y"}[parsed.components[0]] == "y"

    def test_different_builds_differ(self):
        G = cat(4, {1: 1, 3: 2})
        for other in (cat(4, {1: 1, 3: 1}), cat(5, {1: 1, 3: 2}), G.delete(vs("l3.2"))):
            assert other != G and other not in {G: 0}
            assert other.components[0] not in {G.components[0]: 0}


class TestRanks:
    def test_positions_are_contiguous_rank_runs(self):
        comp = cat(4, {1: 2, 3: 1}).components[0]
        ranks = comp._ranks
        assert [str(v) for v in ranks.order] == ["l1.1", "l1.2", "s1", "s2", "l3.1", "s3", "s4"]
        assert ranks.first == [0, 3, 4, 6]
        assert ranks.spine == [2, 3, 5, 6]
        assert ranks.pos == [0, 0, 0, 1, 2, 2, 3]
        assert all(ranks.rank[v] == r for r, v in enumerate(ranks.order))

    @pytest.mark.parametrize(
        "G, order",
        [
            pytest.param(
                cat(3, {1: 1, 3: 1}), "l1.1 s1 s2 l3.1 s3", id="leaves_precede_their_spine_vertex"
            ),
            pytest.param(cat(2, {2: 2}), "s1 l2.1 l2.2 s2", id="leafless_spine_end"),
            # s1 carries no leaves, so the canonical form reclassifies it under
            # s2, where it sorts with the other leaves of that column
            pytest.param(
                cat(2, {2: 2}).canonical(), "s1 l2.1 l2.2 s2", id="canonical_demotion_reflected"
            ),
            pytest.param(cat(5, {1: 1, 5: 1}), "l1.1 s1 s2 s3 s4 l5.1 s5", id="end_leaves"),
        ],
    )
    def test_routing_order(self, G, order):
        ranks = G.components[0]._ranks
        assert " ".join(map(str, ranks.order)) == order
        assert sorted(ranks.rank.values()) == list(range(G.n))
        assert all(ranks.rank[v] == r for r, v in enumerate(ranks.order))
        # sorting any subset by rank gives it in the routing order
        some = ranks.order[::2]
        assert sorted(reversed(some), key=ranks.rank.__getitem__) == list(some)

    def test_mask_of(self):
        ranks = cat(4, {1: 2, 3: 1}).components[0]._ranks
        assert ranks.mask_of(vs("l1.2", "s3")) == 0b100010
        assert ranks.mask_of(()) == 0


class TestRetention:
    @staticmethod
    def _use_every_table() -> list:
        G = cat(7, {3: 2, 5: 1})
        u, v = VertexId.parse("l3.1"), VertexId.parse("s7")
        assert G.has_vertex(u) and G.component_of(v) is G.component_of(u)
        assert v in G.neighbors(VertexId.parse("s6"))
        assert G.longest_path_vertices() == 7
        cover = TokenSet(frozenset(partition(G, 4, VertexId.parse("s1")).representatives), 4)
        assert G.delete(cover.occupied).longest_path_vertices() < 4
        assert partition(G, 4, VertexId.parse("s4")).psi == len(cover)
        canon = G.canonical()
        assert canon != G and canon.vertices == G.vertices
        paths = PathCoverContext(G, 4)
        assert paths.is_cover(paths.mask_of(cover.occupied))
        assert canon.components[0]._ranks.mask_of(cover.occupied)
        rigid_set(G, cover)
        return weakrefs(G) + weakrefs(canon)

    def test_tables_die_with_forest(self):
        # every structural table lives on the object it describes, so
        # nothing keeps a forest or its components once the caller lets go
        refs = self._use_every_table()
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)

    def test_canonical_component_needs_no_cycle_collector(self):
        # an already canonical component is its own canonical form; caching
        # that must not make it refer to itself
        G = cat(3, {1: 1, 3: 1})
        canon = G.canonical()
        assert canon.components[0] is G.components[0]
        ref = weakref.ref(G.components[0])
        gc.disable()
        try:
            del G, canon
            assert ref() is None
        finally:
            gc.enable()

    def test_verdict_memo_dies_with_forest(self):
        # the verdict memo lives on the forest: after decide, witness (with
        # and without a rigid set) and check, nothing else holds the forest
        G = cat(6, {1: 1, 2: 1, 3: 1, 6: 1})
        refs = weakrefs(G)
        slack = (toks(4, "s1", "s2", "s4"), toks(4, "l2.1", "s3", "l6.1"))
        stuck = (toks(4, "s2", "s4"), toks(4, "s2", "s5"))
        assert is_kpvc(G, slack[0]) and reachability_signature(G, stuck[0])[1]
        assert not reachability_signature(G, slack[0])[1]
        for I, J in (slack, stuck):
            assert is_ts_reachable(G, I, J)
            seq = build_sequence(G, I, J)
            assert len(seq) and validate_sequence(G, 4, seq)
        gc.collect()
        gc.disable()
        try:
            del G
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()


class TestVerdictMemo:
    def test_unknown_vertex_raises_every_time(self):
        G = cat(3)
        for _ in range(3):
            with pytest.raises(InputError):
                is_kpvc(G, toks(4, "s1", "s9"))

    @given(covered_instances(ks=(4,)))
    @settings(deadline=None, max_examples=60)
    def test_verdicts_depend_on_k(self, inst):
        # a 4-path cover also covers every 5-path; its one-token-short
        # subsets may cover only the 5-paths, so a memo that ignored k
        # would hand the k = 4 answer to k = 5
        G, _, cover = inst
        (comp,) = G.components

        def fresh() -> CaterpillarForest:
            return cat(len(comp.spine), {i + 1: len(ls) for i, ls in enumerate(comp.leaves)})

        sets = [cover.occupied] + [cover.occupied - {v} for v in cover.occupied]
        for occ in sets:
            for k in (4, 5):
                tokens = TokenSet(occ, k)
                want = is_kpvc(fresh(), tokens)
                assert is_kpvc(G, tokens) == want
                if want:
                    assert reachability_signature(G, tokens) == reachability_signature(
                        fresh(), tokens
                    )


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

    @pytest.mark.parametrize(
        "args", [("x", 1), ("s", 1, 2), ("s", 0), ("l", 1), ("l", 1, 0), ("l", 0, 1)]
    )
    def test_constructor_rejects(self, args):
        with pytest.raises(InputError):
            VertexId(*args)

    def test_order(self):
        # s_i < l_i.1 < l_i.2 < ... < s_{i+1}, numerically, not by text
        text = ("s1", "l1.1", "l1.2", "l1.10", "s2", "s9", "l9.3", "s10", "l10.1")
        want = [VertexId.parse(x) for x in text]
        shuffled = list(want)
        random.Random(3).shuffle(shuffled)
        assert sorted(shuffled) == want
        assert sorted(shuffled, key=lambda v: v.sort_key) == want
        assert all(a < b and b > a and a <= b and not b < a for a, b in zip(want, want[1:]))

    def test_is_its_pair(self):
        for v, kind, pair in ((VertexId("s", 3), "s", (3, 0)), (VertexId("l", 3, 2), "l", (3, 2))):
            assert v == pair and hash(v) == hash(pair) and {pair: 1}[v] == 1
            assert v.sort_key == pair and type(v.sort_key) is tuple
            assert (v.kind, v.spine_index, v.leaf_index) == (kind, *pair)

    def test_pickle_and_copy_roundtrip(self):
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        for v in vs("s4", "l4.7"):
            pickled = [pickle.loads(pickle.dumps(v, p)) for p in protocols]
            for back in (*pickled, copy.deepcopy(v), copy.copy(v)):
                assert back == v and type(back) is VertexId
                assert str(back) == str(v) and repr(back) == repr(v)

    def test_comparisons_are_tuples_own(self):
        # hashing, equality and order run in C: no Python-level method
        for name in ("__eq__", "__ne__", "__hash__", "__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(VertexId, name) is getattr(tuple, name), name
