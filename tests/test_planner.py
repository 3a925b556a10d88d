"""Token-sliding layer: reachability decision, witness construction and
sequence validation.

Reachability verdicts frozen below were confirmed against the breadth-first
search over whole cover configurations (oracle module).
"""

import gc
import random
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kpvcr import (
    Caterpillar,
    CaterpillarForest,
    GenerateConfig,
    InputError,
    L,
    LogicError,
    RigidReport,
    TokenSet,
    TsSequence,
    UnsupportedParameterError,
    S,
    VertexId,
    build_sequence,
    construct_si,
    enumerate_kpvcs,
    is_kpvc,
    is_ts_reachable,
    minimum_cover_size,
    oracle_reachable,
    partition,
    random_instance,
    reachability_signature,
    render_witness,
    rigid_set,
    validate_sequence,
)

import kpvcr.instance
from kpvcr._kpaths import slide_ok
from kpvcr.cli import main
from kpvcr.graph import Ranks
from kpvcr.planner import _last_mismatch, _minus, _Router

from conftest import cat, covered_instances, toks, vs


def _v(x):
    return VertexId.parse(x)


def _mv(*pairs):
    return tuple((_v(a), _v(b)) for a, b in pairs)


PATH5 = cat(5, {1: 1, 5: 1})


class TestVertexOrder:
    """The planner sorts tokens by the component's routing ranks."""

    def test_sort_uses_order(self):
        rank = PATH5.components[0]._ranks.rank
        assert [str(v) for v in sorted(vs("s5", "s1", "l1.1"), key=rank.__getitem__)] == [
            "l1.1",
            "s1",
            "s5",
        ]

    def test_rank_is_bijection(self):
        rank = PATH5.components[0]._ranks.rank
        assert sorted(rank.values()) == list(range(PATH5.n))
        assert rank[_v("s3")] == 3


class TestIsTsReachable:
    def test_simple_slide(self):
        assert is_ts_reachable(PATH5, toks(4, "s2", "s4"), toks(4, "s2", "s5"))

    def test_leaf_exchange(self):
        assert is_ts_reachable(PATH5, toks(4, "s2", "s4"), toks(4, "l1.1", "s3"))

    def test_size_mismatch_is_no(self):
        assert not is_ts_reachable(PATH5, toks(4, "s3"), toks(4, "s2", "s5"))

    def test_separated_classes(self):
        # three distinct classes at this size; these two covers sit in
        # different ones (confirmed by the configuration BFS)
        G = cat(3, {1: 1, 2: 2, 3: 1})
        A, B = toks(4, "l1.1", "l3.1"), toks(4, "l2.1", "s2")
        assert not is_ts_reachable(G, A, B)
        assert not oracle_reachable(G, A, B)

    def test_non_cover_rejected(self):
        with pytest.raises(InputError):
            is_ts_reachable(PATH5, toks(4, "s3"), toks(4, "s2"))

    def test_k3_unsupported(self):
        G = cat(3)
        with pytest.raises(UnsupportedParameterError):
            is_ts_reachable(G, toks(3, "s2"), toks(3, "s2"))

    def test_covers_of_different_k(self):
        with pytest.raises(InputError, match="covers disagree on k"):
            is_ts_reachable(PATH5, toks(4, "s3"), toks(5, "s3"))

    def test_invalid_start(self):
        with pytest.raises(InputError, match="start token set is not a k-path vertex cover"):
            is_ts_reachable(PATH5, toks(4, "s1"), toks(4, "s3"))

    def test_signature_k3_unsupported(self):
        with pytest.raises(UnsupportedParameterError):
            reachability_signature(cat(3), toks(3, "s2"))

    def test_signature_of_non_cover(self):
        with pytest.raises(InputError, match="token set is not a k-path vertex cover"):
            reachability_signature(PATH5, toks(4, "s1"))

    def test_signature_equality_iff_reachable(self):
        A, B = toks(4, "s2", "s4"), toks(4, "l1.1", "s3")
        assert reachability_signature(PATH5, A) == reachability_signature(PATH5, B)

    @given(covered_instances(max_spine=4, max_leaves=2))
    @settings(deadline=None, max_examples=25)
    def test_matches_configuration_bfs(self, inst):
        G, k, I = inst
        pool = sorted(
            enumerate_kpvcs(G, k, len(I)),
            key=lambda t: sorted(v.sort_key for v in t.occupied),
        )
        for J in pool[:6]:
            assert is_ts_reachable(G, I, J) == oracle_reachable(G, I, J)


class TestSignatureMemo:
    """The forest remembers each decided cover in its own tables, without
    a new object per cover, and later calls reuse what it remembers."""

    def test_remembering_a_cover_adds_no_object(self):
        # the sweep family's largest case: 193 covers, one class
        G = cat(5, {1: 2, 2: 1, 3: 2, 5: 2})
        covers = enumerate_kpvcs(G, 4, 4)
        assert len(covers) == 193
        gc.collect()
        before = len(gc.get_objects())
        for cov in covers:
            reachability_signature(G, cov)
        gc.collect()
        assert len(gc.get_objects()) - before < len(covers)

    def test_covers_of_one_class_share_a_signature(self):
        G = cat(6, {1: 1, 2: 1, 3: 1, 6: 1})
        slack = (toks(4, "s1", "s2", "s4"), toks(4, "l2.1", "s3", "l6.1"))
        stuck = (toks(4, "s2", "s4"), toks(4, "s2", "s5"))
        for I, J in (slack, stuck):
            assert is_ts_reachable(G, I, J)
            assert reachability_signature(G, I) is reachability_signature(G, J)
        assert reachability_signature(G, stuck[0])[1]

    def test_witness_reuses_the_decision(self, monkeypatch):
        G = cat(6, {1: 1, 2: 1, 3: 1, 6: 1})
        I, J = toks(4, "s1", "s2", "s4"), toks(4, "l2.1", "s3", "l6.1")
        assert is_ts_reachable(G, I, J) and not reachability_signature(G, I)[1]
        calls = []

        def counting(forest, tokens):
            calls.append(tokens)
            return rigid_set(forest, tokens)

        monkeypatch.setattr("kpvcr.planner.rigid_set", counting)
        seq = build_sequence(G, I, J)
        assert validate_sequence(G, 4, seq) and seq.end.occupied == J.occupied
        assert calls == []

    def test_a_rigid_token_left_on_g_minus_r_stops_the_witness(self, monkeypatch, tmp_path):
        """The reduced-cover check: were a token of a routed G - R component
        rigid there, the witness is an internal error (exit 4), not a
        sequence."""
        G = cat(6, {1: 1, 2: 1, 3: 1, 6: 1})
        I, J = toks(4, "s2", "s4"), toks(4, "s2", "s5")
        assert reachability_signature(G, I)[1] == vs("s2")

        def rigid_off_g(forest, tokens):
            # every token is rigid on a forest without s2, i.e. on G - R
            report = rigid_set(forest, tokens)
            if forest.has_vertex(S(2)):
                return report
            return RigidReport(tokens.occupied, report.rationale)

        monkeypatch.setattr("kpvcr.planner.rigid_set", rigid_off_g)
        with pytest.raises(LogicError, match="^rigid token survived the reduction$"):
            build_sequence(G, I, J)
        p = tmp_path / "stuck.kpvcr"
        p.write_text("kpvcr 1\nk 4\nspine 6\nleaves 1=1 2=1 3=1 6=1\nstart s2 s4\ntarget s2 s5\n")
        assert main(["witness", str(p)]) == 4


class TestSignatureCounts:
    """The third element of a signature: the smallest vertex of each G - R
    component holding a token, with its token count."""

    def test_the_empty_cover_counts_nothing(self):
        # this forest holds no 4-path, so the empty set covers it; a
        # connected forest with R empty must not report its one component
        # with 0 tokens
        G = cat(3, {2: 1})
        assert reachability_signature(G, TokenSet(frozenset(), 4)) == (0, frozenset(), frozenset())

    @pytest.mark.parametrize("seed", range(3))
    def test_counts_on_a_forest_made_by_delete(self, seed):
        """Every cover of a few multi-component forests against a Counter
        over the components of G - R, built by `delete`."""
        rng = random.Random(seed)
        empty_r = 0
        for k in (4, 5):
            G = cat(9, {i: rng.randint(0, 2) for i in range(1, 10)})
            G = G.delete([S(rng.randint(3, 7))] + rng.sample(sorted(G.vertices), 2))
            assert len(G.components) > 1
            psi = minimum_cover_size(G, k)
            for size in range(psi, psi + 3):
                for cov in enumerate_kpvcs(G, k, size):
                    n, R, counts = reachability_signature(G, cov)
                    rest = G.delete(R)
                    want = Counter(rest.component_of(v)._min_vertex for v in cov.occupied - R)
                    assert (n, counts) == (size, frozenset(want.items())), cov
                    empty_r += not R
        assert empty_r


class TestTsSequence:
    def test_states_and_end(self):
        seq = build_sequence(PATH5, toks(4, "s2", "s4"), toks(4, "s2", "s5"))
        assert seq.moves == _mv(("s2", "s3"), ("s4", "s5"), ("s3", "s2"))
        prefixes = (TsSequence(seq.start, seq.moves[:i]) for i in range(len(seq) + 1))
        assert [sorted(map(str, p.end.occupied)) for p in prefixes] == [
            ["s2", "s4"],
            ["s3", "s4"],
            ["s3", "s5"],
            ["s2", "s5"],
        ]
        assert seq.end.occupied == vs("s2", "s5")

    def test_reverse_swaps_endpoints(self):
        seq = build_sequence(PATH5, toks(4, "s2", "s4"), toks(4, "s2", "s5"))
        rev = seq.reverse()
        assert rev.start.occupied == seq.end.occupied
        assert rev.end.occupied == seq.start.occupied
        assert rev.moves == _mv(("s2", "s3"), ("s5", "s4"), ("s3", "s2"))
        assert validate_sequence(PATH5, 4, rev)

    def test_double_reverse_identity(self):
        seq = build_sequence(PATH5, toks(4, "s1", "s3"), toks(4, "s3", "s5"))
        assert seq.reverse().reverse().moves == seq.moves

    def test_concat_chains(self):
        a = build_sequence(PATH5, toks(4, "s2", "s4"), toks(4, "s2", "s5"))
        b = build_sequence(PATH5, toks(4, "s2", "s5"), toks(4, "l1.1", "s4"))
        c = a.concat(b)
        assert c.start.occupied == a.start.occupied
        assert c.end.occupied == b.end.occupied
        assert len(c.moves) == len(a.moves) + len(b.moves)
        assert validate_sequence(PATH5, 4, c)

    def test_concat_requires_chaining(self):
        a = build_sequence(PATH5, toks(4, "s2", "s4"), toks(4, "s2", "s5"))
        b = build_sequence(PATH5, toks(4, "s2", "s5"), toks(4, "l1.1", "s4"))
        with pytest.raises(InputError):
            b.concat(a)


class TestValidateSequence:
    def test_rejects_move_from_empty_vertex(self):
        bad = TsSequence(toks(4, "s2", "s4"), _mv(("s1", "s2")))
        assert not validate_sequence(PATH5, 4, bad)

    def test_rejects_non_adjacent_slide(self):
        bad = TsSequence(toks(4, "s2", "s4"), _mv(("s2", "s5")))
        assert not validate_sequence(PATH5, 4, bad)

    def test_rejects_cover_violation(self):
        # moving the only token off s3 uncovers the long path
        G = cat(7, {1: 1, 7: 1})
        bad = TsSequence(TokenSet.of(4, [_v("s4")]), _mv(("s4", "s3")))
        assert not validate_sequence(G, 4, bad)

    def test_rejects_invalid_start(self):
        bad = TsSequence(toks(4, "s1"), ())
        assert not validate_sequence(PATH5, 4, bad)

    def test_rejects_start_on_unknown_vertex(self):
        bad = TsSequence(toks(4, "s3", "s9"), ())
        assert not validate_sequence(PATH5, 4, bad)

    def test_empty_sequence_on_valid_cover(self):
        ok = TsSequence(toks(4, "s3"), ())
        assert validate_sequence(PATH5, 4, ok)


def _validate_reference(forest, k, seq):
    """validate_sequence as a whole-forest `is_kpvc` on every state."""
    try:
        if seq.start.k != k:
            return False
        occ = set(seq.start.occupied)
        if not is_kpvc(forest, TokenSet(frozenset(occ), k)):
            return False
        for frm, to in seq.moves:
            if frm not in occ or to in occ:
                return False
            if to not in forest.neighbors(frm):
                return False
            occ.discard(frm)
            occ.add(to)
            if not is_kpvc(forest, TokenSet(frozenset(occ), k)):
                return False
        return True
    except InputError:
        return False


_BAD_MOVES = ("non-adjacent", "leaf-leaf", "across", "from-free", "onto-occupied", "unknown")


def _random_forest(rng):
    """A caterpillar with spine <= 7 and <= 3 leaves per vertex (half the
    spine vertices bare), or half the time that caterpillar with one
    vertex deleted."""
    spine = rng.randint(1, 7)
    G = cat(spine, {i: rng.randint(1, 3) for i in range(1, spine + 1) if rng.random() < 0.5})
    if spine > 1 and rng.random() < 0.5:
        G = G.delete([rng.choice(sorted(G.vertices))])
    return G


def _random_cover(rng, G, k):
    """A random cover, pruned to a minimal one half the time: tight covers
    leave free runs one short of a k-path, which one slide can complete."""
    verts = sorted(G.vertices)
    rng.shuffle(verts)
    occ = set(verts[: rng.randint(0, len(verts))])
    for v in verts:
        if G.delete(occ).longest_path_vertices() < k:
            break
        occ.add(v)
    if rng.random() < 0.5:
        for v in verts:
            if v in occ and G.delete(occ - {v}).longest_path_vertices() < k:
                occ.discard(v)
    return occ


def _random_move(rng, G, k, occ, kinds, good=0.85):
    """One move on occ: with probability `good` a slide from an occupied
    vertex onto a free neighbour (three times in four one that keeps the
    cover), else a bad move of a random kind, counted in `kinds` when one
    exists."""
    verts = sorted(G.vertices)
    free = [v for v in verts if v not in occ]
    slides = [(v, w) for v in sorted(occ) for w in G.neighbors(v) if w not in occ]
    if slides and rng.random() < good:
        keep = [
            (v, w) for v, w in slides if G.delete(occ - {v} | {w}).longest_path_vertices() < k
        ]
        return rng.choice(keep if keep and rng.random() < 0.75 else slides)
    kind = rng.choice(_BAD_MOVES)
    if kind == "unknown":
        kinds[kind] += 1
        pair = (rng.choice(sorted(occ)) if occ else verts[0], rng.choice([_v("s99"), _v("l1.9")]))
        return pair[::-1] if rng.random() < 0.5 else pair
    if kind == "non-adjacent":
        pairs = [(v, w) for v in occ for w in free if w not in G.neighbors(v)]
    elif kind == "leaf-leaf":
        pairs = [
            (v, w) for v in occ for w in free
            if v.kind == w.kind == "l" and v.spine_index == w.spine_index
        ]
    elif kind == "across":
        pairs = [(v, w) for v in occ for w in free if G.component_of(v) is not G.component_of(w)]
    elif kind == "from-free":
        pairs = [(v, w) for v in free for w in G.neighbors(v)]
    else:
        pairs = [(v, w) for v in occ for w in G.neighbors(v) if w in occ]
    if not pairs:
        return None
    kinds[kind] += 1
    return rng.choice(sorted(pairs))


def _slack_walk(n):
    """The slack path: a bare path of n vertices with k = 4, its
    left-rooted minimum cover plus the leftmost free vertex, and a witness
    walking that slack token to the far end in about n slides.  Next to a
    cover token t the slack token on t - 1 passes it in four slides:
    t -> t + 1, t - 1 -> t, t + 1 -> t + 2, t + 2 -> t + 3."""
    G = cat(n)
    cover = partition(G, 4, S(1)).representatives
    taken = sorted(v.spine_index for v in cover)
    slack = s = next(i for i in range(1, n + 1) if i not in taken)
    moves = []
    for t in [t for t in taken if t > slack]:
        moves += [(S(i), S(i + 1)) for i in range(s, t - 1)]
        moves += [(S(t), S(t + 1)), (S(t - 1), S(t)), (S(t + 1), S(t + 2)), (S(t + 2), S(t + 3))]
        s = t + 3
    moves += [(S(i), S(i + 1)) for i in range(s, n)]
    return G, TsSequence(TokenSet.of(4, [*cover, S(slack)]), tuple(moves))


def _random_case(rng, kinds, max_moves, good=0.85):
    """A random forest, k, start and up to max_moves moves (see
    `_random_move`), and the k to check them with: one in twenty differs."""
    G = _random_forest(rng)
    k = rng.choice((4, 5, 6))
    occ = _random_cover(rng, G, k)
    if occ and rng.random() < 0.1:
        occ.discard(rng.choice(sorted(occ)))  # often no cover any more
    start = TokenSet(frozenset(occ), k)
    moves = []
    for _ in range(rng.randint(0, max_moves)):
        move = _random_move(rng, G, k, occ, kinds, good)
        if move is None:
            break
        moves.append(move)
        if not (G.has_vertex(move[0]) and G.has_vertex(move[1])):
            break
        occ = occ - {move[0]} | {move[1]}
    check_k = rng.choice((4, 5, 6)) if rng.random() < 0.05 else k
    return G, check_k, TsSequence(start, tuple(moves))


class TestValidateSequenceDifferential:
    """validate_sequence against the per-state `is_kpvc` reference on
    seeded random slide sequences: caterpillars up to spine 7 with <= 3
    leaves, some with a vertex deleted (several components, leafless spine
    ends), k in {4, 5, 6}, bad moves of every kind, starts that are not
    covers and a mismatched k."""

    def test_agrees_with_per_state_reference(self):
        rng = random.Random(9)
        verdicts = {True: 0, False: 0}
        kinds = dict.fromkeys(_BAD_MOVES, 0)
        for _ in range(3000):
            G, check_k, seq = _random_case(rng, kinds, 8)
            want = _validate_reference(G, check_k, seq)
            assert validate_sequence(G, check_k, seq) == want, (G, check_k, seq)
            verdicts[want] += 1
        assert min(verdicts.values()) >= 500, verdicts
        assert min(kinds.values()) >= 20, kinds

    def test_long_runs_keep_free_leaf_counts(self, monkeypatch):
        """Sequences of up to 30 moves, bad ones rare, so a position's
        leaves fill and empty between the spine slides that read its free
        leaf count: every count read equals a fresh popcount of the
        occupancy, many of them differ from the first count taken at their
        position, and every verdict matches the reference."""
        counted = kpvcr.instance._free_leaves
        first: dict = {}
        moved = 0

        def fresh(ranks, occ, p, free):
            nonlocal moved
            got = counted(ranks, occ, p, free)
            lo, n = ranks.first[p], ranks.spine[p] - ranks.first[p]
            assert got == n - (occ >> lo & ((1 << n) - 1)).bit_count()
            moved += first.setdefault((ranks, p), got) != got
            return got

        monkeypatch.setattr(kpvcr.instance, "_free_leaves", fresh)
        rng = random.Random(30)
        kinds = dict.fromkeys(_BAD_MOVES, 0)
        long_valid = 0
        for _ in range(600):
            G, check_k, seq = _random_case(rng, kinds, 30, good=0.97)
            first.clear()
            want = _validate_reference(G, check_k, seq)
            assert validate_sequence(G, check_k, seq) == want, (G, check_k, seq)
            long_valid += want and len(seq) >= 20
        assert long_valid >= 30 and moved >= 300, (long_valid, moved)


class TestValidateSequenceLinear:
    def test_slack_walk_is_a_witness(self):
        for n in range(4, 30):
            G, seq = _slack_walk(n)
            assert _validate_reference(G, 4, seq)
            assert validate_sequence(cat(n), 4, seq)

    def test_slack_path_checks_only_the_start(self, monkeypatch):
        """Only the start goes through `is_kpvc`, and no later state is
        memoised on the forest: the incremental route is the one that runs."""
        G, seq = _slack_walk(2560)
        calls = []

        def counting(forest, tokens):
            calls.append(tokens)
            return is_kpvc(forest, tokens)

        monkeypatch.setattr("kpvcr.instance.is_kpvc", counting)
        assert validate_sequence(G, 4, seq)
        assert len(seq) > 2500 and calls == [seq.start]
        assert G._memo == {("kpvc", 4): {seq.start.occupied: True}}


class TestBuildSequenceRigidSplit:
    """A rigid set that splits the caterpillar leaves G - R with over a
    thousand components, of which a witness changes about a hundred."""

    def test_reads_each_component_a_bounded_number_of_times(self, monkeypatch):
        """The witness reads each component's vertices a bounded number of
        times, however many components it changes: the reduced-cover check
        counts tokens through the forest's vertex table."""
        inst = random_instance(GenerateConfig(spine=3000, leaf_prob=0.3, k=4, seed=1))
        G, I, J = inst.forest(), inst.start_tokens(), inst.target_tokens()
        all_vertices = Caterpillar.all_vertices
        calls = 0

        def counting(comp):
            nonlocal calls
            calls += 1
            return all_vertices(comp)

        monkeypatch.setattr(Caterpillar, "all_vertices", counting)
        seq = build_sequence(G, I, J)
        monkeypatch.undo()
        sig = reachability_signature(G, I)
        rest = G.delete(sig[1])
        assert len(seq) > 100 and len(rest.components) > 1000
        assert calls <= 8 * len(rest.components)
        # one entry per G - R component holding a token, keyed by its
        # smallest vertex
        held = [c for c in rest.components if not I.occupied.isdisjoint(c.all_vertices())]
        assert sorted(m for m, _ in sig[2]) == sorted(min(c.all_vertices()) for c in held)
        assert sum(count for _, count in sig[2]) == len(I) - len(sig[1])

    def test_one_vertex_table_per_routed_component(self, monkeypatch):
        """After the decision, the witness checks and routes each G - R
        component it changes on one `Ranks` table, the canonical
        component's, and remembers nothing on G - R."""
        inst = random_instance(GenerateConfig(spine=3000, leaf_prob=0.3, k=4, seed=1))
        G, I, J = inst.forest(), inst.start_tokens(), inst.target_tokens()
        assert is_ts_reachable(G, I, J)
        R = reachability_signature(G, I)[1]
        init = Ranks.__init__
        built = 0

        def counting(ranks, comp):
            nonlocal built
            built += 1
            init(ranks, comp)

        monkeypatch.setattr(Ranks, "__init__", counting)
        build_sequence(G, I, J)
        monkeypatch.undo()
        changed = I.occupied ^ J.occupied
        routed = [c for c in G.delete(R).canonical().components if changed & set(c.all_vertices())]
        assert built == len(routed) == 90
        assert not _minus(G, R)._memo

    def test_deletes_the_rigid_set_once(self, monkeypatch):
        """Both signatures and the witness share one G - R."""
        inst = random_instance(GenerateConfig(spine=3000, leaf_prob=0.3, k=4, seed=1))
        G, I, J = inst.forest(), inst.start_tokens(), inst.target_tokens()
        delete = CaterpillarForest.delete
        drops = []

        def counting(forest, drop):
            drops.append(frozenset(drop))
            return delete(forest, drops[-1])

        monkeypatch.setattr(CaterpillarForest, "delete", counting)
        build_sequence(G, I, J)
        monkeypatch.undo()
        R = reachability_signature(G, I)[1]
        assert len(R) > 600 and drops.count(R) == 1


def _slack_pair(n):
    """The slack path's two covers: a bare path of n vertices with k = 4,
    its left-rooted minimum cover plus the leftmost free vertex, and its
    right-rooted one plus the rightmost free vertex.  The rigid set is
    empty and the witness walks about 1.75 n slides."""
    G = cat(n)
    (comp,) = G.components
    left = set(partition(comp, 4, comp.spine[0]).representatives)
    right = set(partition(comp, 4, comp.spine[-1]).representatives)
    left.add(next(v for v in comp.spine if v not in left))
    right.add(next(v for v in reversed(comp.spine) if v not in right))
    return G, TokenSet.of(4, left), TokenSet.of(4, right)


class TestBuildSequenceLinear:
    def test_slide_tests_per_move_are_bounded(self, monkeypatch):
        """The router keeps the spine tokens whose push failed, so a move
        costs O(k) slide tests, not one per token behind the target."""
        G, I, J = _slack_pair(2560)
        assert not reachability_signature(G, I)[1]
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return slide_ok(*args)

        monkeypatch.setattr("kpvcr.planner.slide_ok", counting)
        seq = build_sequence(G, I, J)
        monkeypatch.undo()
        assert len(seq) > 4000 and seq.end.occupied == J.occupied
        assert calls <= 4 * len(seq), (calls, len(seq))

    def test_slide_clears_every_verdict_it_could_change(self):
        """After any slide, every token left in the frontier is an occupied
        spine vertex whose push-right test still fails.  The covers walk by
        random valid slides, with every spine token's push tested between
        them; a window reaching one position less far right of `frm` leaves
        stale verdicts."""
        rng = random.Random(5)
        kept = 0
        for _ in range(60):
            k = rng.choice((4, 5, 6))
            config = GenerateConfig(
                spine=rng.randint(10, 60),
                leaf_prob=rng.choice((0.0, 0.3, 0.6)),
                k=k,
                seed=rng.randrange(2**31),
            )
            inst = random_instance(config)
            (comp,) = inst.forest().components
            ranks = comp._ranks
            spine, pos, first = ranks.spine, ranks.pos, ranks.first
            extra = {v for v in comp.spine if rng.random() < 0.1}
            router = _Router(ranks, k, inst.start_tokens().occupied | extra)
            for _ in range(200):
                for i in range(len(spine) - 1):
                    if router.occ >> spine[i] & 1 and not router.blocked >> spine[i] & 1:
                        router.push_ok(i)
                moves = []
                for r in range(len(ranks.order)):
                    i = pos[r]
                    if not router.occ >> r & 1:
                        continue
                    if r != spine[i]:
                        if not router.occ >> spine[i] & 1:
                            moves.append((r, spine[i]))
                        continue
                    nbrs = [spine[j] for j in (i - 1, i + 1) if 0 <= j < len(spine)]
                    nbrs += range(first[i], spine[i])
                    moves += [(r, w) for w in nbrs if router.can_slide(i, w)]
                if not moves:
                    break
                router.slide(*rng.choice(moves))
                blocked = router.blocked
                while blocked:
                    r = (blocked & -blocked).bit_length() - 1
                    blocked ^= 1 << r
                    i = pos[r]
                    assert router.occ >> r & 1 and not router.can_slide(i, spine[i + 1])
                    kept += 1
        assert kept > 10_000


def _bfs_walk(comp, ic, jc):
    """The reference for `_Router.walk_free`: peel tree leaves, the highest
    rank that has at most one unpeeled neighbour first, and walk tokens
    along breadth-first paths over unpeeled vertices, neighbours in id
    order."""
    rank = comp._ranks.rank
    adj = {v: set(comp.neighbors(v)) for v in comp.all_vertices()}
    remaining, occ, moves = set(adj), set(ic), []

    def path_to(src, stop):
        """The path from the first vertex found with stop(v) back to src."""
        parent, queue = {src: None}, [src]
        for v in queue:
            for w in sorted(adj[v] & remaining):
                if w not in parent:
                    parent[w] = v
                    if stop(w):
                        path = [w]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return path
                    queue.append(w)
        raise AssertionError("no vertex found")

    while remaining:
        w = max((v for v in remaining if len(adj[v] & remaining) <= 1), key=rank.__getitem__)
        if (w in jc) != (w in occ):
            fill = w in jc
            path = path_to(w, (lambda v: v in occ) if fill else (lambda v: v not in occ))
            for frm, to in zip(path, path[1:]) if fill else zip(path[1:], path):
                moves.append((frm, to))
                occ.remove(frm)
                occ.add(to)
        remaining.remove(w)
    return moves


def _walk_free(comp, ic, jc):
    router = _Router(comp._ranks, 4, ic)
    router.walk_free(comp._ranks.mask_of(jc))
    return router.vertex_moves()


class TestWalkFree:
    """Components that hold no k-path, where every token set is a cover."""

    def test_matches_breadth_first_reference(self):
        """Equal moves on every component of random caterpillars after
        random deletions, raw and canonical: ids stay in caterpillar order
        there, which the closed form's tie-breaks need."""
        rng = random.Random(13)
        compared = 0
        for _ in range(1000):
            spine = rng.randint(1, 12)
            G = cat(spine, {i: rng.randint(0, 4) for i in range(1, spine + 1)})
            G = G.delete(rng.sample(sorted(G.vertices), rng.randint(0, G.n // 2)))
            for comp in G.components + G.canonical().components:
                verts = list(comp.all_vertices())
                size = rng.randint(0, len(verts))
                ic, jc = (frozenset(rng.sample(verts, size)) for _ in range(2))
                assert _walk_free(comp, ic, jc) == _bfs_walk(comp, ic, jc), (comp, ic, jc)
                compared += 1
        assert compared > 7000

    def test_any_ids_give_a_witness(self):
        """With ids out of caterpillar order the tie-breaks differ from
        the reference, but every slide is still onto a free vertex."""
        rng = random.Random(14)
        for _ in range(200):
            m = rng.randint(1, 5)
            ids = rng.sample(range(1, 60), m)
            spine = tuple(S(i) for i in ids)
            leaves = tuple(
                tuple(L(i, j) for j in rng.sample(range(1, 9), rng.randint(0, 3))) for i in ids
            )
            G = CaterpillarForest.single(Caterpillar(spine, leaves))
            k = max(4, G.longest_path_vertices() + 1)
            verts = sorted(G.vertices)
            size = rng.randint(0, G.n)
            I, J = (TokenSet(frozenset(rng.sample(verts, size)), k) for _ in range(2))
            seq = build_sequence(G, I, J)
            assert validate_sequence(G, k, seq) and seq.end == J

    def test_star_routes_in_closed_form(self):
        """On a 20,002-vertex star one token walks leaf to leaf in three
        moves.  A breadth-first search per peeled vertex took minutes."""
        G = cat(2, {1: 10_000, 2: 10_000})
        t0 = time.perf_counter()
        seq = build_sequence(G, toks(5, "l1.1"), toks(5, "l2.10000"))
        elapsed = time.perf_counter() - t0
        assert seq.moves == _mv(("l1.1", "s1"), ("s1", "s2"), ("s2", "l2.10000"))
        assert elapsed < 5, elapsed


class TestBuildSequence:
    def test_two_token_shift(self):
        seq = build_sequence(PATH5, toks(4, "s1", "s3"), toks(4, "s3", "s5"))
        assert seq.moves == _mv(("s1", "s2"), ("s3", "s4"), ("s2", "s3"), ("s4", "s5"))
        assert validate_sequence(PATH5, 4, seq)
        assert seq.end.occupied == vs("s3", "s5")

    def test_identity_pair(self):
        seq = build_sequence(PATH5, toks(4, "s3"), toks(4, "s3"))
        assert seq.moves == ()

    def test_no_instance_raises(self):
        G = cat(3, {1: 1, 2: 2, 3: 1})
        with pytest.raises(LogicError):
            build_sequence(G, toks(4, "l1.1", "l3.1"), toks(4, "l2.1", "s2"))

    def test_rigid_token_stays_put(self):
        G = cat(10, {4: 1, 10: 1})
        I, J = toks(4, "s4", "s8", "l10.1"), toks(4, "s4", "s8", "s10")
        seq = build_sequence(G, I, J)
        assert validate_sequence(G, 4, seq)
        assert seq.end.occupied == J.occupied
        assert all(frm not in (_v("s4"), _v("s8")) for frm, _ in seq.moves)

    @given(covered_instances(max_spine=5, max_leaves=2), st.data())
    @settings(deadline=None, max_examples=40)
    def test_witness_for_every_sampled_yes_pair(self, inst, data):
        G, k, I = inst
        pool = sorted(
            (
                J
                for J in enumerate_kpvcs(G, k, len(I))
                if is_ts_reachable(G, I, J)
            ),
            key=lambda t: sorted(v.sort_key for v in t.occupied),
        )
        J = data.draw(st.sampled_from(pool))
        seq = build_sequence(G, I, J)
        assert validate_sequence(G, k, seq)
        assert seq.end.occupied == J.occupied


# Pairs on which one of `_Router.settle`'s last resorts, `pull_left(i)` or
# `unpark(i)` at the target's own position i, is what moves the routing on:
# without the rung both raise LogicError.  The witnesses were recorded while
# the router still kept its settled positions as a Python set.
LAST_RESORTS = {
    "pull_left": (
        cat(6, {1: 1, 2: 2, 6: 1}),
        ("l1.1", "l6.1", "s3"),
        ("l2.2", "s2", "s6"),
        "l1.1 s1|s1 s2|s3 s4|s4 s5|s5 s6|s6 s5|l6.1 s6|s5 s4|s6 s5|s4 s3|s5 s4|s2 s1"
        "|s3 s2|s2 l2.2|s1 s2|s4 s5|s5 s6",
        "s6 s5|s5 s4|s2 s1|l2.2 s2|s2 s3|s1 s2|s4 s5|s3 s4|s5 s6|s4 s5|s6 l6.1|s5 s6"
        "|s6 s5|s5 s4|s4 s3|s2 s1|s1 l1.1",
    ),
    "unpark": (
        cat(4, {1: 1, 2: 2, 3: 1}),
        ("l3.1", "s1", "s4"),
        ("l2.1", "s2", "s4"),
        "s1 s2|s4 s3|s2 s1|s3 s2|l3.1 s3|s2 l2.1|s1 s2|s3 s4",
        "s4 s3|s2 s1|l2.1 s2|s3 l3.1|s2 s3|s1 s2|s3 s4|s2 s1",
    ),
}


class TestLastResorts:
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("rung", sorted(LAST_RESORTS))
    def test_rung_fires_and_witness_is_pinned(self, monkeypatch, rung, backward):
        G, start, target, *witnesses = LAST_RESORTS[rung]
        I, J = toks(4, *start), toks(4, *target)
        if backward:
            I, J = J, I
        orig = getattr(_Router, rung)
        fired = []

        def counting(self, from_pos):
            moved = orig(self, from_pos)
            # the last resort is the call at the target's own position
            if moved and from_pos == self.ranks.pos[self.stack[-1]]:
                fired.append(from_pos)
            return moved

        monkeypatch.setattr(_Router, rung, counting)
        seq = build_sequence(G, I, J)
        assert validate_sequence(G, 4, seq) and seq.end == J
        want = witnesses[backward].split("|")
        assert render_witness(seq.moves) == "".join(
            f"{line}\n" for line in [f"witness {len(want)}", *(f"slide {m}" for m in want)]
        )
        assert fired


class TestMatchedSuffix:
    """`_plan_component` settles where the sorted covers last differ."""

    @staticmethod
    def _sorted_rule(x, y):
        """The reference: compare the two covers as sorted rank lists."""
        xs = [r for r in range(x.bit_length()) if x >> r & 1]
        ys = [r for r in range(y.bit_length()) if y >> r & 1]
        i = max(j for j in range(len(xs)) if xs[j] != ys[j])
        if xs[i] < ys[i]:
            return 0, ys[i], set(ys[i + 1 :])
        return 1, xs[i], set(xs[i + 1 :])

    @given(st.data())
    @settings(max_examples=300)
    def test_top_differing_bit_matches_sorted_lists(self, data):
        n = data.draw(st.integers(min_value=2, max_value=90))
        c = data.draw(st.integers(min_value=1, max_value=n - 1))
        x, y = (
            sum(1 << r for r in data.draw(st.sets(st.integers(0, n - 1), min_size=c, max_size=c)))
            for _ in range(2)
        )
        assume(x != y)
        side, target, protected = _last_mismatch(x, y)
        assert (side, target, {r for r in range(n) if protected >> r & 1}) == self._sorted_rule(x, y)


class TestConstructSi:
    def test_settles_last_position(self):
        seq = construct_si(PATH5, toks(4, "s2", "s4"), toks(4, "s2", "s5"), 2)
        assert validate_sequence(PATH5, 4, seq)
        assert _v("s5") in seq.end.occupied

    def test_requires_aligned_suffix(self):
        with pytest.raises(LogicError):
            construct_si(PATH5, toks(4, "s1", "s3"), toks(4, "s3", "s5"), 1)

    def test_requires_x_before_y(self):
        with pytest.raises(LogicError):
            construct_si(PATH5, toks(4, "s3", "s5"), toks(4, "s2", "s5"), 1)

    @pytest.mark.parametrize("which", ["current", "target"])
    def test_rejects_unknown_vertex(self, which):
        covers = {"current": toks(4, "s2", "s4"), "target": toks(4, "s2", "s5")}
        covers[which] = toks(4, "s2", "s9")
        with pytest.raises(InputError, match="unknown vertex s9"):
            construct_si(PATH5, covers["current"], covers["target"], 2)


# Reproducers of the engine's known defects past the exhaustive family
# (ROADMAP item 1).  Each test states the correct behaviour and is expected
# to fail; strict, so a change in the engine's behaviour on them shows.
_DEFECT = "ROADMAP item 1: known defect past the exhaustive small family"
SPINE7 = cat(7, {1: 1, 2: 2, 3: 1, 6: 1, 7: 1})
SPINE7_PAIR = (toks(4, "l1.1", "s1", "s3", "s6"), toks(4, "l2.1", "l7.1", "s2", "s4"))
SPINE6 = cat(6, {1: 3, 2: 3, 3: 3, 5: 3, 6: 1})
SPINE6_PAIR = (toks(4, "l2.1", "l6.1", "s2", "s5"), toks(4, "l1.1", "l5.2", "s2", "s5"))
SPINE8 = cat(8, {1: 1, 2: 2, 3: 1, 6: 1, 7: 2, 8: 1})
SPINE8_PAIR = (toks(4, "l2.1", "l2.2", "l6.1", "s3", "s7"), toks(4, "l2.1", "l7.1", "s2", "s5", "s7"))


class TestKnownDefects:
    @pytest.mark.xfail(strict=True, raises=LogicError, reason=_DEFECT)
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_spine7_witness(self, backward):
        I, J = SPINE7_PAIR[::-1] if backward else SPINE7_PAIR
        seq = build_sequence(SPINE7, I, J)
        assert validate_sequence(SPINE7, 4, seq) and seq.end.occupied == J.occupied

    @pytest.mark.xfail(strict=True, raises=LogicError, reason=_DEFECT)
    def test_spine6_witness_at_psi_plus_2(self):
        I, J = SPINE6_PAIR
        seq = build_sequence(SPINE6, I, J)
        assert validate_sequence(SPINE6, 4, seq) and seq.end.occupied == J.occupied

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=_DEFECT)
    def test_spine8_verdict(self):
        assert is_ts_reachable(SPINE8, *SPINE8_PAIR) == oracle_reachable(SPINE8, *SPINE8_PAIR)
