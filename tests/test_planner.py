"""Token-sliding layer: reachability decision, witness construction and
sequence validation.

Reachability verdicts frozen below were confirmed against the breadth-first
search over whole cover configurations (oracle module).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpvcr import (
    InputError,
    LogicError,
    TokenSet,
    TsSequence,
    UnsupportedParameterError,
    VertexId,
    build_sequence,
    construct_si,
    is_ts_reachable,
    oracle_reachable,
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
        assert [sorted(map(str, s)) for s in seq.states()] == [
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
