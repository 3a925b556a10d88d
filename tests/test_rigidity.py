"""Rigidity machinery: path classification, H-regions, anchors, feed test,
per-token rigidity, and the full rigid set.

Every frozen verdict here was cross-checked against the brute-force
reconfiguration BFS (oracle module), which shares no code with the
polynomial machinery.
"""

import random
import sys

import pytest
from hypothesis import given, settings

from kpvcr import (
    Caterpillar,
    CaterpillarForest,
    GenerateConfig,
    InputError,
    TokenSet,
    UnsupportedParameterError,
    VertexId,
    anchor_set,
    can_feed_region,
    classify_k_paths,
    enumerate_caterpillars,
    enumerate_kpvcs,
    find_h_regions,
    is_rigid,
    is_ts_reachable,
    minimum_cover_size,
    oracle_rigid_set,
    partition,
    random_instance,
    rigid_set,
)
from kpvcr._kpaths import PathCoverContext, slide_ok
from kpvcr.cover import _endpoint_pieces, _partition_greedy
from kpvcr.rigidity import (
    _check_window,
    _classify,
    _h2_witness,
    _RigidityContext,
    _Sub,
)

from conftest import cat, covered_instances, toks, vs


def _v(x):
    return VertexId.parse(x)


FIG1 = cat(5, {1: 2, 3: 3, 5: 2})
FIG3 = cat(8, {1: 2, 6: 3, 8: 1})
FIG3_COVER = toks(3, "s1", "s4", "s6", "l6.1", "s7", "s8")

NINE = cat(9, {1: 1, 9: 1})
NINE_COVER = toks(4, "s1", "s5", "s9")


class TestClassifyKPaths:
    def test_center_only_around_guarded_endpoint(self):
        cls = classify_k_paths(
            FIG3, FIG3_COVER, _v("s1"), within=vs("s1", "l1.1", "l1.2")
        )
        assert cls.left == cls.right == frozenset()
        assert {frozenset(p) for p in cls.center} == {vs("l1.1", "s1", "l1.2")}

    def test_all_neighbors_occupied_empty(self):
        cls = classify_k_paths(cat(3), toks(3, "s1", "s2", "s3"), _v("s2"))
        assert cls.left == cls.right == cls.center == frozenset()

    def test_left_right_arms(self):
        H = vs(*[f"s{i}" for i in range(2, 9)])
        cls = classify_k_paths(NINE, NINE_COVER, _v("s5"), within=H)
        assert {frozenset(p) for p in cls.left} == {vs("s2", "s3", "s4", "s5")}
        assert {frozenset(p) for p in cls.right} == {vs("s5", "s6", "s7", "s8")}
        assert cls.center == frozenset()

    def test_rejects_unoccupied_u(self):
        with pytest.raises(InputError):
            classify_k_paths(NINE, NINE_COVER, _v("s2"))

    def test_rejects_leaf_u(self):
        with pytest.raises(InputError):
            classify_k_paths(NINE, toks(4, "l1.1", "s5"), _v("l1.1"))


class TestFindHRegions:
    def test_two_regions_k3(self):
        cover = toks(3, "s1", "s3", "s5", "l3.1", "l5.1", "l5.2")
        regs = find_h_regions(FIG1, cover, _v("s3"))
        assert len(regs) == 2
        got = {r.vertices for r in regs}
        assert got == {
            vs("s2", "s3", "l3.1", "l3.2", "l3.3"),
            vs("s3", "s4", "l3.1", "l3.2", "l3.3"),
        }

    def test_no_region_k3(self):
        cover = toks(3, "s1", "s3", "s4", "s5", "l3.1", "l3.2")
        assert find_h_regions(FIG1, cover, _v("s3")) == ()

    def test_whole_graph_region_k4(self):
        G = cat(5, {1: 1, 5: 1})
        regs = find_h_regions(G, toks(4, "s3"), _v("s3"))
        assert len(regs) == 1
        assert regs[0].vertices == G.vertices
        assert regs[0].spine_size == 5

    def test_witness_paths_meet_only_at_u(self):
        G = cat(5, {1: 1, 5: 1})
        (reg,) = find_h_regions(G, toks(4, "s3"), _v("s3"))
        P, Q = reg.witness_paths
        common = set(P) & set(Q)
        assert _v("s3") in common and len(common) <= 2

    @given(covered_instances())
    @settings(deadline=None, max_examples=60)
    def test_at_most_one_region_k4_and_bounds(self, inst):
        G, k, cover = inst
        for u in sorted(cover.occupied):
            if any(u in c.spine for c in G.canonical().components):
                regs = find_h_regions(G, cover, u)
                assert len(regs) <= 1
                for r in regs:
                    assert u in r.vertices
                    assert 2 * k - 5 <= r.spine_size <= 2 * k - 1


    @pytest.mark.parametrize("seed", range(4))
    def test_window_test_matches_path_classification(self, seed):
        """For k >= 4 the window test decides (H.2) from arm lengths; it must
        agree with building both path classes, on every window around every
        spine token."""
        rng = random.Random(seed)
        for _ in range(40):
            ell = rng.randint(6, 14)
            G = cat(ell, {i: rng.randint(1, 3) for i in range(1, ell + 1) if rng.random() < 0.5})
            k = rng.choice((4, 5, 6))
            comp = G.components[0]
            cover = set(partition(comp, k, comp.spine[rng.randrange(ell)]).representatives)
            cover |= set(rng.sample(sorted(G.vertices), rng.randint(0, 3)))
            occ = frozenset(cover)
            ranks = comp._ranks
            sub = _Sub(ranks, 0, len(ranks.spine) - 1, 0, ranks.mask_of(occ))

            def vertices(i):
                """Spine position i of the folded component, leaves too."""
                return [ranks.order[x] for x in [ranks.spine[i]] + sub.leaves(i)]

            for u in sorted(occ):
                m, leaf = sub.locate(ranks.rank[u])
                if leaf:
                    continue
                for a in range(max(sub.a, m - (2 * k - 2)), m + 1):
                    for b in range(m, min(sub.b, a + 2 * k - 2) + 1):
                        window = frozenset(x for i in range(a, b + 1) for x in vertices(i))
                        free = all(
                            x not in occ for i in range(a, b + 1) if i != m for x in vertices(i)
                        )
                        cls = _classify(sub, occ, u, m, k, window)
                        want = free and _h2_witness(cls, u, k) is not None
                        assert _check_window(sub, m, k, a, b) == want


class TestAnchorSet:
    def test_fig3_single_anchor(self):
        assert anchor_set(FIG3, FIG3_COVER, _v("s1")) == vs("s4")

    def test_lonely_token(self):
        assert anchor_set(cat(5, {1: 1, 5: 1}), toks(4, "s3"), _v("s3")) == frozenset()

    def test_both_sides(self):
        assert anchor_set(NINE, NINE_COVER, _v("s5")) == vs("s1", "s9")


class TestCanFeedRegion:
    def test_feed_from_left_arm(self):
        (reg,) = find_h_regions(NINE, NINE_COVER, _v("s5"))
        assert can_feed_region(NINE, NINE_COVER, _v("s5"), reg, _v("s1"))

    def test_starved_single_piece(self):
        G = cat(10, {4: 1, 10: 1})
        cover = toks(4, "s4", "s8")
        (reg,) = find_h_regions(G, cover, _v("s8"))
        assert not can_feed_region(G, cover, _v("s8"), reg, _v("s4"))

    def test_short_side_without_k_path(self):
        G = cat(13, {1: 1, 13: 1})
        cover = toks(4, "s1", "s5", "s9", "s13")
        (reg,) = find_h_regions(G, cover, _v("s9"))
        assert can_feed_region(G, cover, _v("s9"), reg, _v("s13"))

    def test_k3_unsupported(self):
        with pytest.raises(UnsupportedParameterError):
            (reg,) = find_h_regions(FIG1, toks(3, "s3"), _v("s3"))
            can_feed_region(FIG1, toks(3, "s3"), _v("s3"), reg, _v("s1"))

    @pytest.mark.parametrize(
        "u, v, message",
        [
            ("s5", "s12", "s12 is not occupied"),
            ("s5", "s2", "s2 is not occupied in the component of s5"),
            ("s3", "s1", "s3 is not occupied"),
            ("l1.1", "s1", "l1.1 is a leaf"),
        ],
    )
    def test_bad_arguments_are_input_errors(self, u, v, message):
        (reg,) = find_h_regions(NINE, NINE_COVER, _v("s5"))
        cover = toks(4, "s1", "s5", "s9", "l1.1") if u == "l1.1" else NINE_COVER
        with pytest.raises(InputError, match=message):
            can_feed_region(NINE, cover, _v(u), reg, _v(v))

    def test_anchor_in_another_component(self):
        G = cat(11, {1: 1, 9: 1}).delete([_v("s10")])
        cover = toks(4, "s1", "s5", "s9", "s11")
        (reg,) = find_h_regions(G, cover, _v("s5"))
        with pytest.raises(InputError, match="s11 is not occupied in the component of s5"):
            can_feed_region(G, cover, _v("s5"), reg, _v("s11"))


class TestIsRigid:
    def test_rigid_without_anchors(self):
        dec = is_rigid(cat(5, {1: 1, 5: 1}), toks(4, "s3"), _v("s3"))
        assert dec.rigid and dec.tag == "4b2"

    def test_movable_when_fed(self):
        dec = is_rigid(NINE, NINE_COVER, _v("s5"))
        assert not dec.rigid and dec.tag == "movable"

    def test_leaf_with_free_neighbor(self):
        dec = is_rigid(cat(3, {1: 1}), toks(4, "l1.1"), _v("l1.1"))
        assert not dec.rigid and dec.tag == "movable"

    def test_rigid_through_rigid_anchor(self):
        dec = is_rigid(cat(10, {4: 1, 10: 1}), toks(4, "s4", "s8"), _v("s8"))
        assert dec.rigid and dec.tag == "4b3"

    def test_k3_unsupported(self):
        with pytest.raises(UnsupportedParameterError):
            is_rigid(FIG1, toks(3, "s3"), _v("s3"))


class TestRigidSet:
    def test_singleton(self):
        assert rigid_set(cat(5, {1: 1, 5: 1}), toks(4, "s3")).rigid == vs("s3")

    def test_all_movable(self):
        assert rigid_set(NINE, NINE_COVER).rigid == frozenset()

    def test_empty_cover(self):
        G = cat(2, {1: 1})
        assert rigid_set(G, TokenSet.of(4, [])).rigid == frozenset()

    def test_rationale_covers_all_tokens(self):
        rep = rigid_set(cat(10, {4: 1, 10: 1}), toks(4, "s4", "s8"))
        assert set(rep.rationale) == vs("s4", "s8")
        assert rep.rigid == vs("s4", "s8")

    @given(covered_instances())
    @settings(deadline=None, max_examples=60)
    def test_matches_bfs_oracle(self, inst):
        G, k, cover = inst
        assert rigid_set(G, cover).rigid == oracle_rigid_set(G, cover)


class TestSlideOk:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_path_cover_context(self, seed):
        """The engine's slide test (`_kpaths.slide_ok` on the component's
        own ranks, which the engine reads, and the query's token mask)
        against the bitmask test over the enumerated k-paths through the
        token, for every spine token and free neighbour of whole
        components, leafless spine ends included."""
        rng = random.Random(seed)
        for _ in range(12):
            ell = rng.randint(6, 60)
            prob = rng.choice((0.2, 0.4, 0.7))
            G = cat(ell, {i: rng.randint(1, 3) for i in range(1, ell + 1) if rng.random() < prob})
            k = rng.choice((4, 5, 6))
            density = rng.choice((0.15, 0.3, 0.5))
            occ = frozenset(v for v in sorted(G.vertices) if rng.random() < density)
            paths = PathCoverContext(G, k)
            mask = paths.mask_of(occ)
            ctx = _RigidityContext(G, TokenSet(occ, k))
            ranks = G.components[0]._ranks
            sub = _Sub(ranks, 0, len(ranks.spine) - 1, 0, ctx.mask(ranks))
            for u in sorted(occ):
                m, leaf = sub.locate(ranks.rank[u])
                if leaf:
                    continue
                for w in sub.neighbors(m):
                    if ranks.order[w] not in occ:
                        want = paths.slide_ok(mask, u, ranks.order[w])
                        assert slide_ok(ranks, sub.occ, m, w, k) == want


class TestCutChain:
    """The feed test's cut-chain walk against the generic greedy.

    Each case takes a random caterpillar with a long spine and random
    tokens, cuts out a spine run as if its two neighbours were deleted, and
    deletes some leaf tokens inside it, so run ends fold and leaf bits
    change.  From every start short of the near spine end, in both
    directions, the walk (`cover._endpoint_pieces` over `_Sub.count`) must
    cut exactly the pieces the generic deepest-first greedy cuts on the
    same sub-spine rooted at its far end, and agree on (psi, some piece
    holds >= 2 tokens) by `_Sub.span` popcounts and by the memoised
    `_RigidityContext.doubled_from`.  `partition` rooted there walks
    `cover._endpoint_pieces` too, so it would not be an independent
    reference.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_pieces_match_partition(self, seed):
        rng = random.Random(seed)
        spine_len = rng.randint(65, 400)
        k = rng.choice((4, 5, 6))
        prob = rng.choice((0.2, 0.4, 0.7))
        counts = {i: rng.randint(1, 3) for i in range(1, spine_len + 1) if rng.random() < prob}
        G = CaterpillarForest.from_counts(spine_len, counts)
        occupied = frozenset(v for v in sorted(G.vertices) if rng.random() < 0.3)
        comp = G.components[0]
        ranks = comp._ranks
        ell = len(comp.spine)
        # runs ending on a leafless position fold that end in; odd seeds
        # also put tokens on both run ends
        bare = [i for i in range(ell) if not comp.leaves[i]]
        lo = rng.choice([i for i in bare if i < ell // 4] or [0])
        hi = rng.choice([i for i in bare if i > 3 * ell // 4] or [ell - 1])
        if seed % 2:
            occupied |= {comp.spine[lo], comp.spine[hi]}
        dl = frozenset(
            x
            for i in range(lo, hi + 1)
            for x in comp.leaves[i]
            if x in occupied and rng.random() < 0.5
        )
        sub = _Sub(ranks, lo, hi, ranks.mask_of(dl), ranks.mask_of(occupied))
        tokens = occupied - dl

        def leaves(i):
            return tuple(ranks.order[x] for x in sub.leaves(i))

        def vertices(x, y):
            return frozenset(
                v for i in range(min(x, y), max(x, y) + 1) for v in (comp.spine[i],) + leaves(i)
            )

        def count(x, y):
            return sub.span(min(x, y), max(x, y)).bit_count()

        # one context, visited from shuffled starts, so the memoised
        # answers are reused across starts
        ctx = _RigidityContext(G, TokenSet(occupied, k))
        starts = [(i, step) for i in range(sub.a, sub.b + 1) for step in (-1, 1)]
        rng.shuffle(starts)
        for start, step in starts:
            end = sub.a if step < 0 else sub.b
            if start == (sub.b if step < 0 else sub.a):
                continue  # the feed test starts short of the near spine end
            got = list(_endpoint_pieces(sub.count, start, step, k, end))
            span = sorted((start, end))
            hv = Caterpillar(
                tuple(comp.spine[i] for i in range(span[0], span[1] + 1)),
                tuple(leaves(i) for i in range(span[0], span[1] + 1)),
            )
            want = _partition_greedy(hv, k, comp.spine[end])
            assert [comp.spine[c] for _, _, c in got] == list(want.representatives)
            assert [vertices(x, y) for x, y, _ in got] == list(want.pieces)
            doubled = any(len(piece & tokens) >= 2 for piece in want.pieces)
            assert (len(got), any(count(x, y) >= 2 for x, y, _ in got)) == (
                want.psi,
                doubled,
            )
            assert count(*span) == len(vertices(*span) & tokens)
            if got:
                assert ctx.doubled_from(sub, start, step) == doubled


class TestOwnRanks:
    """The engine reads each component's own vertex table and folds a
    leafless spine end itself (`_Sub`); it never builds the canonical copy
    of a component, and its answers do not depend on the presentation."""

    def test_same_answers_on_the_canonical_presentation(self):
        covers = 0
        for G in enumerate_caterpillars(5, 2):
            got = []
            for k in (3, 4, 5):
                psi = minimum_cover_size(G, k)
                for size in range(psi, min(G.n, psi + 1) + 1):
                    for cover in sorted(enumerate_kpvcs(G, k, size), key=_cover_key):
                        got.append((k, cover, _answers(G, cover)))
            comp = G.components[0]
            assert "_canonical_other" not in comp.__dict__
            canon = G.canonical()
            for k, cover, answers in got:
                assert _answers(canon, cover) == answers, (comp, k, sorted(cover.occupied))
            covers += len(got)
        assert covers == 15482

    def test_decide_builds_no_canonical_copy(self):
        inst = random_instance(GenerateConfig(spine=4000, leaf_prob=0.4, k=5, seed=2))
        G = inst.forest()
        (comp,) = G.components
        assert not comp.leaves[0] or not comp.leaves[-1]
        start, target = (TokenSet(frozenset(c), 5) for c in (inst.start, inst.target))
        assert is_ts_reachable(G, start, target)
        assert "_canonical_other" not in comp.__dict__


def _cover_key(cover):
    return sorted(v.sort_key for v in cover.occupied)


def _answers(G, cover):
    """rigid_set's rationale (k >= 4), and find_h_regions at every token or
    the error it raises there (a leaf token, a folded spine end too)."""
    regions = {}
    for u in sorted(cover.occupied):
        try:
            regions[u] = find_h_regions(G, cover, u)
        except InputError as exc:
            regions[u] = str(exc)
    return (rigid_set(G, cover).rationale if cover.k >= 4 else None), regions


class TestDeepChains:
    def test_full_path_needs_no_recursion_limit(self, monkeypatch):
        """A fully occupied bare path nests its 4a/lemma-1b chain n deep; the
        analysis must not lean on the interpreter stack for it."""

        def refuse(limit):
            raise AssertionError("sys.setrecursionlimit called")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        n = 3000
        G = CaterpillarForest.from_counts(n, {})
        cover = TokenSet(frozenset(VertexId("s", i) for i in range(1, n + 1)), 4)
        assert rigid_set(G, cover).rigid == G.vertices
