"""The brute-force oracle pinned to its earlier, plainer search.

The reference copies below are the oracle's cover enumeration and move
generation as they were written first: each cover mask is built by OR-ing
vertex bits one at a time, and each state's moves come from scanning every
vertex in bit order and asking `PathCoverContext.slide_ok` about each of its
neighbours.  Patched into `kpvcr.oracle`, they drive the same BFS, so every
public oracle answer computed with them must equal the shipped one: the
cover sets, the class lists in their order, the reachable covers and rigid
sets, and where a state cap stops the search.  The family is every
canonical caterpillar with spine 2-5 and at most two leaves per vertex, at
k = 2..6 and every cover size (10,230 cases); spine 5 is marked slow.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from kpvcr import ResourceLimitError, TokenSet, oracle

KS = range(2, 7)
CAPS = (3, 17)


def _ref_cover_masks(ctx, size):
    masks = map(ctx.mask_of, combinations(ctx.order, size))
    return [m for m in masks if ctx.is_cover(m)]


def _ref_neighbors(adj):
    def _neighbors(ctx, mask):
        for v in ctx.order:
            vb = ctx.bit[v]
            if mask & vb:
                for u in adj[v]:
                    if ctx.slide_ok(mask, v, u):
                        yield (mask ^ vb) | ctx.bit[u]

    return _neighbors


def _capped(call, *args, **kwargs):
    try:
        return "ok", call(*args, **kwargs)
    except ResourceLimitError as exc:
        return "limit", exc.count


def _answers(forest):
    """Every oracle answer on `forest`, per (k, size), in a comparable form."""
    out = {}
    for k in KS:
        for size in range(forest.n + 1):
            covers = {t.occupied for t in oracle.enumerate_kpvcs(forest, k, size)}
            classes = oracle.reachability_classes(forest, k, size)
            got = [covers, classes]
            # from the first and the last class, a search from the class's
            # last member in sorted order, not the start the classes used
            for cls in classes[:1] + classes[1:][-1:]:
                start = TokenSet(max(cls, key=lambda c: sorted(v.sort_key for v in c)), k)
                got.append(oracle.oracle_reachable_covers(forest, start))
                got.append(oracle.oracle_rigid_set(forest, start))
                for cap in CAPS:
                    got.append(_capped(oracle.oracle_reachable_covers, forest, start, cap))
            for cap in CAPS:
                got.append(_capped(oracle.reachability_classes, forest, k, size, cap))
            out[k, size] = got
    return out


def _forests(spine):
    forests = oracle.enumerate_caterpillars(spine, 2)
    return [f for f in forests if len(f.components[0].spine) == spine]


@pytest.mark.parametrize(
    "spine", [2, 3, 4, pytest.param(5, marks=pytest.mark.slow)]
)
def test_oracle_matches_reference_search(spine, monkeypatch):
    for forest in _forests(spine):
        shipped = _answers(forest)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_cover_masks", _ref_cover_masks)
            m.setattr(oracle, "_neighbors", _ref_neighbors(forest.adjacency()))
            reference = _answers(forest)
        assert shipped == reference, forest


def test_family_size():
    """The pinned family is the 204 forests and 10,230 cases it claims."""
    forests = [f for s in range(2, 6) for f in _forests(s)]
    assert len(forests) == 204
    assert sum(len(KS) * (f.n + 1) for f in forests) == 10_230
