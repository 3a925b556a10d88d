"""Brute-force oracles: cover enumeration, configuration BFS, rigid sets,
reachability classes, and the instance generator's graph enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpvcr import (
    InputError,
    ResourceLimitError,
    TokenSet,
    VertexId,
    enumerate_caterpillars,
    enumerate_kpvcs,
    find_h_regions,
    is_kpvc,
    is_rigid,
    oracle_reachable,
    oracle_reachable_covers,
    oracle_rigid_set,
    reachability_classes,
)

from conftest import cat, caterpillars, covered_instances, toks, vs


def _v(x):
    return VertexId.parse(x)


PATH5 = cat(5, {1: 1, 5: 1})


class TestEnumerateKpvcs:
    def test_unique_minimum(self):
        out = enumerate_kpvcs(PATH5, 4, 1)
        assert {t.occupied for t in out} == {vs("s3")}

    def test_empty_cover_when_graph_short(self):
        out = enumerate_kpvcs(cat(3), 4, 0)
        assert {t.occupied for t in out} == {frozenset()}

    def test_undersized_gives_nothing(self):
        assert enumerate_kpvcs(PATH5, 4, 0) == set()

    @given(caterpillars(max_spine=4, max_leaves=1), st.data())
    @settings(deadline=None, max_examples=40)
    def test_every_result_is_a_cover_and_complete(self, G, data):
        k = data.draw(st.sampled_from([4, 5]))
        size = data.draw(st.integers(min_value=0, max_value=min(G.n, 3)))
        out = enumerate_kpvcs(G, k, size)
        for t in out:
            assert len(t) == size and is_kpvc(G, t)
        # cross-check completeness against direct subset filtering
        from itertools import combinations

        want = {
            frozenset(sub)
            for sub in combinations(sorted(G.vertices), size)
            if is_kpvc(G, TokenSet.of(k, sub))
        }
        assert {t.occupied for t in out} == want


class TestOracleReachable:
    def test_slide_chain(self):
        assert oracle_reachable(PATH5, toks(4, "s2", "s4"), toks(4, "l1.1", "s3"))

    def test_isolated_cover(self):
        G = cat(3, {1: 1, 2: 2, 3: 1})
        assert not oracle_reachable(G, toks(4, "l1.1", "l3.1"), toks(4, "l2.1", "s2"))

    def test_size_mismatch_rejected(self):
        with pytest.raises(InputError):
            oracle_reachable(PATH5, toks(4, "s3"), toks(4, "s2", "s4"))

    def test_rejects_non_cover(self):
        with pytest.raises(InputError):
            oracle_reachable(PATH5, toks(4, "s3"), toks(4, "s1"))

    def test_state_budget_enforced(self):
        G = cat(9, {1: 1, 9: 1})
        with pytest.raises(ResourceLimitError):
            oracle_reachable(
                G, toks(4, "s1", "s5", "s9"), toks(4, "s2", "s5", "s9"), max_states=2
            )


    @pytest.mark.parametrize("cap", [0, -5])
    def test_state_cap_below_one_is_input_error(self, cap):
        # refused before any search, even where no search would run
        I, J = toks(4, "s2", "s4"), toks(4, "l1.1", "s3")
        calls = [
            lambda: oracle_reachable(PATH5, I, J, max_states=cap),
            lambda: oracle_reachable(PATH5, I, I, max_states=cap),
            lambda: oracle_reachable_covers(PATH5, I, max_states=cap),
            lambda: oracle_rigid_set(PATH5, I, max_states=cap),
            lambda: reachability_classes(PATH5, 4, 2, max_states=cap),
        ]
        for call in calls:
            with pytest.raises(InputError, match="max_states"):
                call()


class TestOracleReachableCovers:
    def test_rigid_singleton_class(self):
        assert oracle_reachable_covers(PATH5, toks(4, "s3")) == {vs("s3")}

    def test_region_stays_sealed(self):
        # one guarded end of the caterpillar: the region around s1 is
        # reachable to no other token, so no explored cover touches
        # s2 or the leaves of s1, and s1's own token never moves
        G = cat(8, {1: 2, 6: 3, 8: 1})
        I = toks(3, "s1", "s4", "s6", "l6.1", "s7", "s8")
        (region,) = find_h_regions(G, I, _v("s1"))
        assert region.vertices == vs("s1", "s2", "l1.1", "l1.2")
        covers = oracle_reachable_covers(G, I)
        assert len(covers) == 6
        for c in covers:
            assert c & region.vertices == vs("s1")
        # the first productive slide is available immediately
        assert any(_v("s3") in c for c in covers)


class TestOracleRigidSet:
    def test_single_stuck_token(self):
        assert oracle_rigid_set(PATH5, toks(4, "s3")) == vs("s3")

    def test_everything_moves(self):
        G = cat(9, {1: 1, 9: 1})
        assert oracle_rigid_set(G, toks(4, "s1", "s5", "s9")) == frozenset()

    @given(covered_instances(max_spine=4))
    @settings(deadline=None, max_examples=30)
    def test_consistent_with_per_token_decision(self, inst):
        G, k, cover = inst
        rigid = oracle_rigid_set(G, cover)
        spines = {s for c in G.canonical().components for s in c.spine}
        for u in sorted(cover.occupied & spines):
            assert is_rigid(G, cover, u).rigid == (u in rigid)


class TestReachabilityClasses:
    def test_three_way_split(self):
        cls = reachability_classes(cat(3, {1: 1, 2: 2, 3: 1}), 4, 2)
        assert sorted(len(c) for c in cls) == [1, 1, 8]

    def test_classes_partition_covers(self):
        cls = reachability_classes(PATH5, 4, 2)
        seen = [m for c in cls for m in c]
        want = {t.occupied for t in enumerate_kpvcs(PATH5, 4, 2)}
        assert len(seen) == len(set(seen)) == len(want)
        assert set(seen) == want


class TestEnumerateCaterpillars:
    def test_two_spine_one_leaf_vectors(self):
        got = [
            tuple(len(ls) for ls in G.components[0].leaves)
            for G in enumerate_caterpillars(2, 1)
        ]
        assert got == [(0, 0), (1, 0), (1, 1)]

    def test_orientation_deduplicated(self):
        for G in enumerate_caterpillars(3, 2):
            counts = tuple(len(ls) for ls in G.components[0].leaves)
            assert counts >= tuple(reversed(counts))

    def test_census_sizes(self):
        assert sum(1 for _ in enumerate_caterpillars(3, 2)) == 24
        assert sum(1 for _ in enumerate_caterpillars(5, 2)) == 204
