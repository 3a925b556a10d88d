"""Token-sliding layer: reachability decision, witness construction and
sequence validation.

Reachability verdicts frozen below were confirmed against the breadth-first
search over whole cover configurations (oracle module).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpvcr import (
    Caterpillar,
    GenerateConfig,
    InputError,
    LogicError,
    TokenSet,
    TsSequence,
    UnsupportedParameterError,
    S,
    VertexId,
    build_sequence,
    construct_si,
    is_kpvc,
    is_ts_reachable,
    oracle_reachable,
    partition,
    random_instance,
    reachability_signature,
    validate_sequence,
)

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

    def test_signature_equality_iff_reachable(self):
        A, B = toks(4, "s2", "s4"), toks(4, "l1.1", "s3")
        assert reachability_signature(PATH5, A) == reachability_signature(PATH5, B)

    @given(covered_instances(max_spine=4, max_leaves=2))
    @settings(deadline=None, max_examples=25)
    def test_matches_configuration_bfs(self, inst):
        G, k, I = inst
        from kpvcr import enumerate_kpvcs

        pool = sorted(
            enumerate_kpvcs(G, k, len(I)),
            key=lambda t: sorted(v.sort_key for v in t.occupied),
        )
        for J in pool[:6]:
            assert is_ts_reachable(G, I, J) == oracle_reachable(G, I, J)


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


def _random_move(rng, G, k, occ, kinds):
    """One move on occ: mostly a slide from an occupied vertex onto a free
    neighbour (three times in four one that keeps the cover), else a bad
    move of a random kind, counted in `kinds` when one exists."""
    verts = sorted(G.vertices)
    free = [v for v in verts if v not in occ]
    slides = [(v, w) for v in sorted(occ) for w in G.neighbors(v) if w not in occ]
    if slides and rng.random() < 0.85:
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
            G = _random_forest(rng)
            k = rng.choice((4, 5, 6))
            occ = _random_cover(rng, G, k)
            if occ and rng.random() < 0.1:
                occ.discard(rng.choice(sorted(occ)))  # often no cover any more
            start = TokenSet(frozenset(occ), k)
            moves = []
            for _ in range(rng.randint(0, 8)):
                move = _random_move(rng, G, k, occ, kinds)
                if move is None:
                    break
                moves.append(move)
                if not (G.has_vertex(move[0]) and G.has_vertex(move[1])):
                    break
                occ = occ - {move[0]} | {move[1]}
            seq = TsSequence(start, tuple(moves))
            check_k = rng.choice((4, 5, 6)) if rng.random() < 0.05 else k
            want = _validate_reference(G, check_k, seq)
            assert validate_sequence(G, check_k, seq) == want, (G, check_k, seq)
            verdicts[want] += 1
        assert min(verdicts.values()) >= 500, verdicts
        assert min(kinds.values()) >= 20, kinds


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

        monkeypatch.setattr("kpvcr.planner.is_kpvc", counting)
        assert validate_sequence(G, 4, seq)
        assert len(seq) > 2500 and calls == [seq.start]
        assert list(G._memo) == [("kpvc", seq.start.occupied, 4)]


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
        from kpvcr import enumerate_kpvcs

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
