"""Cover validity and the tree-partition procedure.

The brute-force minimum used here enumerates vertex subsets directly and
checks covers by exhaustive simple-path search, so it shares no code with
partition / is_kpvc.
"""

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpvcr import (
    GenerateConfig,
    InputError,
    S,
    TokenSet,
    VertexId,
    enumerate_caterpillars,
    is_kpvc,
    minimum_cover_size,
    partition,
    random_instance,
)
from kpvcr._kpaths import PathCoverContext
from kpvcr.cover import _partition_greedy

from conftest import cat, caterpillars, toks


def _adj(G):
    return {v: set(ns) for v, ns in G.adjacency().items()}


def _has_k_path(adj, banned, k) -> bool:
    live = {v: [w for w in ns if w not in banned] for v, ns in adj.items() if v not in banned}

    def grow(path, used):
        if len(path) == k:
            return True
        return any(grow(path + [w], used | {w}) for w in live[path[-1]] if w not in used)

    return any(grow([v], {v}) for v in live)


def _brute_psi(G, k) -> int:
    adj = _adj(G)
    verts = sorted(G.vertices)
    for size in range(len(verts) + 1):
        for sub in combinations(verts, size):
            if not _has_k_path(adj, set(sub), k):
                return size
    raise AssertionError("unreachable")


FIG1 = cat(5, {1: 2, 3: 3, 5: 2})


class TestIsKpvc:
    def test_known_three_cover(self):
        assert is_kpvc(FIG1, toks(3, "s1", "s3", "s5", "l3.1", "l5.1", "l5.2"))

    def test_short_graph_empty_cover(self):
        assert is_kpvc(cat(2, {1: 1, 2: 1}), TokenSet.of(5, []))

    def test_uncovered_tail(self):
        # s3 s4 s5 l5.1 remains uncovered
        assert not is_kpvc(cat(5, {1: 1, 5: 1}), toks(4, "s2"))

    def test_remembered_verdict_holds_only_at_its_k(self):
        # the forest remembers both verdicts on the same cover, one per k
        G = cat(5, {1: 1, 5: 1})
        assert [is_kpvc(G, toks(k, "s2")) for k in (4, 5, 4, 5)] == [False, True] * 2

    def test_rejects_unknown_vertex(self):
        with pytest.raises(InputError):
            is_kpvc(cat(3), toks(4, "s9"))

    @given(caterpillars(max_spine=5), st.data())
    @settings(deadline=None, max_examples=80)
    def test_matches_path_search_oracle(self, G, data):
        k = data.draw(st.integers(min_value=3, max_value=6))
        verts = sorted(G.vertices)
        sub = data.draw(st.sets(st.sampled_from(verts), max_size=len(verts)))
        expected = not _has_k_path(_adj(G), set(sub), k)
        assert is_kpvc(G, TokenSet.of(k, sub)) == expected


class TestIsKpvcRoutes:
    """is_kpvc against the longest path of G - I built by `delete`, and
    against the oracle's k-path masks, on covers and non-covers alike."""

    @staticmethod
    def _verdict(G, k, occ, paths):
        got = is_kpvc(G, TokenSet(occ, k))
        assert got == (G.delete(occ).longest_path_vertices() < k), (G, k, sorted(occ))
        assert got == paths.is_cover(paths.mask_of(occ)), (G, k, sorted(occ))
        return got

    def test_every_token_subset_of_the_small_family(self):
        verdicts = Counter()
        for G in enumerate_caterpillars(5, 2):
            if G.n > 8:
                continue
            verts = sorted(G.vertices)
            for k in range(2, 7):
                paths = PathCoverContext(G, k)
                for size in range(len(verts) + 1):
                    for occ in combinations(verts, size):
                        verdicts[self._verdict(G, k, frozenset(occ), paths)] += 1
        assert verdicts == {True: 41089, False: 15731}

    @staticmethod
    def _random_sets(rng, verts, cover):
        """The cover, the cover less one token, and sparse random sets."""
        yield cover
        if cover:
            yield cover - {rng.choice(sorted(cover))}
        for density in (0.1, 0.25, 0.4, 0.6):
            yield frozenset(v for v in verts if rng.random() < density)

    @pytest.mark.parametrize("spine", [12, 150, 2000])
    def test_random_sets_on_generated_caterpillars(self, spine):
        rng = random.Random(spine)
        verdicts = Counter()
        for k in (4, 5, 6):
            inst = random_instance(GenerateConfig(spine, 0.4, k, seed=spine + k))
            G = inst.forest()
            paths = PathCoverContext(G, k)
            for occ in self._random_sets(rng, sorted(G.vertices), frozenset(inst.start)):
                verdicts[self._verdict(G, k, occ, paths)] += 1
        assert verdicts[True] >= 3 and verdicts[False] >= 3

    @pytest.mark.parametrize("seed", range(4))
    def test_random_sets_on_forests_made_by_delete(self, seed):
        """G - D of a generated caterpillar is a forest with spine runs,
        orphaned leaves and untouched leaves; the start cover less D still
        covers it."""
        rng = random.Random(seed)
        verdicts = Counter()
        for k in (4, 5):
            inst = random_instance(GenerateConfig(120, 0.5, k, seed=seed))
            G = inst.forest()
            D = frozenset(v for v in sorted(G.vertices) if rng.random() < 0.12)
            H = G.delete(D)
            assert len(H.components) > 1
            paths = PathCoverContext(H, k)
            for occ in self._random_sets(rng, sorted(H.vertices), frozenset(inst.start) - D):
                verdicts[self._verdict(H, k, occ, paths)] += 1
        assert verdicts[True] >= 2 and verdicts[False] >= 2


class TestPartition:
    def test_bare_path_two_pieces(self):
        res = partition(cat(8), 4, VertexId.parse("s8"))
        assert res.psi == 2
        assert [str(v) for v in res.representatives] == ["s4", "s8"]
        assert res.pieces[0] == frozenset(VertexId.parse(f"s{i}") for i in (1, 2, 3, 4))
        assert res.pieces[1] == frozenset(VertexId.parse(f"s{i}") for i in (5, 6, 7, 8))

    def test_star_single_piece(self):
        # center s1 with three degree-1 neighbors
        G = cat(2, {1: 2})
        res = partition(G, 3, VertexId.parse("s1"))
        assert res.psi == 1
        assert res.representatives == (VertexId.parse("s1"),)
        assert res.pieces[0] == G.vertices

    def test_exact_path_one_piece(self):
        res = partition(cat(4), 4, VertexId.parse("s1"))
        assert res.psi == 1
        assert res.pieces[0] == cat(4).vertices

    def test_no_k_path_empty_result(self):
        res = partition(cat(3), 5, VertexId.parse("s2"))
        assert res.psi == 0
        assert res.pieces == ()

    def test_unknown_root(self):
        with pytest.raises(InputError):
            partition(cat(3), 4, VertexId.parse("s7"))

    def test_pieces_partition_vertices(self):
        G = cat(6, {2: 2, 5: 1})
        res = partition(G, 4, VertexId.parse("s6"))
        seen = [v for piece in res.pieces for v in piece]
        assert len(seen) == len(set(seen)) == G.n

    @given(caterpillars(max_spine=5, max_leaves=1), st.data())
    @settings(deadline=None, max_examples=40)
    def test_psi_matches_brute_force_all_roots(self, G, data):
        k = data.draw(st.sampled_from([3, 4, 5]))
        want = _brute_psi(G, k)
        for r in sorted(G.vertices):
            res = partition(G, k, r)
            assert res.psi == want
            assert is_kpvc(G, TokenSet.of(k, res.representatives))

    @pytest.mark.parametrize("seed", range(5))
    def test_endpoint_scan_matches_generic_greedy(self, seed):
        """Rooted at a spine end, partition walks `_endpoint_pieces`; it
        must cut the pieces of the generic deepest-first greedy, one-vertex
        spines (a star, for k = 3) included."""
        rng = random.Random(seed)
        for _ in range(60):
            ell = rng.randint(1, 40)
            G = cat(ell, {i: rng.randint(0, 3) for i in range(1, ell + 1)})
            comp = G.components[0]
            for k in range(3, 8):
                for r in (comp.spine[0], comp.spine[-1]):
                    assert partition(G, k, r) == _partition_greedy(comp, k, r)

    def test_deterministic(self):
        G = cat(6, {1: 2, 4: 1})
        a = partition(G, 4, VertexId.parse("s3"))
        b = partition(G, 4, VertexId.parse("s3"))
        assert a == b


class TestMinimumCoverSize:
    def test_single_token_suffices(self):
        assert minimum_cover_size(cat(5, {1: 1, 5: 1}), 4) == 1

    def test_no_k_path(self):
        assert minimum_cover_size(cat(2, {1: 1}), 5) == 0

    def test_fig1_brute_force(self):
        assert minimum_cover_size(FIG1, 3) == _brute_psi(FIG1, 3)

    def test_sums_over_components(self):
        G = cat(9, {1: 1, 9: 1}).delete(frozenset({VertexId.parse("s5")}))
        assert minimum_cover_size(G, 4) == 2


class TestTokenSet:
    def test_duplicate_positions_rejected(self):
        with pytest.raises(InputError):
            TokenSet.of(4, [VertexId.parse("s1"), VertexId.parse("s1")])

    def test_small_k_rejected(self):
        with pytest.raises(InputError):
            TokenSet.of(1, [])

    @pytest.mark.parametrize("occupied", [(S(2), S(4)), [S(2), S(4)], {S(2), S(4)}])
    def test_occupied_must_be_a_frozenset(self, occupied):
        """Any other iterable was accepted and later failed with a
        TypeError in the planner (`occupied - rigid`)."""
        with pytest.raises(InputError, match=r"TokenSet\.of"):
            TokenSet(occupied, 4)

    def test_contains_and_len(self):
        t = toks(4, "s1", "l2.1")
        assert VertexId.parse("l2.1") in t and len(t) == 2
