"""Brute-force ground truth: cover enumeration and reconfiguration BFS.

Everything here is deliberately independent of the polynomial machinery:
cover validity is checked against exhaustively enumerated k-paths, and
reachability/rigidity come from BFS over the reconfiguration graph.  Covers
are packed into bitmasks so the BFS stays affordable on the enumeration
family.  The state cap raises a resource error instead of truncating; a
cap below 1 is an input error.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator

from ._kpaths import PathCoverContext
from .cover import TokenSet
from .errors import InputError, ResourceLimitError
from .graph import CaterpillarForest, VertexId

DEFAULT_MAX_STATES = 5_000_000


def enumerate_kpvcs(forest: CaterpillarForest, k: int, size: int) -> set[TokenSet]:
    """All k-path vertex covers of exactly `size` tokens."""
    if size < 0 or size > forest.n:
        raise InputError("cover size out of range")
    ctx = PathCoverContext(forest, k)
    out = set()
    for mask in _cover_masks(ctx, size):
        out.add(TokenSet(ctx.vertices_of(mask), k))
    return out


def _cover_masks(ctx: PathCoverContext, size: int) -> list[int]:
    masks = map(ctx.mask_of, combinations(ctx.order, size))
    return [m for m in masks if ctx.is_cover(m)]


def _neighbors(ctx: PathCoverContext, mask: int) -> Iterator[int]:
    for v in ctx.order:
        vb = ctx.bit[v]
        if mask & vb:
            for u, ub in ctx.neighbor_bits[v]:
                if ctx.slide_ok(mask, v, u):
                    yield (mask ^ vb) | ub


def _reachable_masks(
    ctx: PathCoverContext, start: int, max_states: int
) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for mask in frontier:
            for new in _neighbors(ctx, mask):
                if new not in seen:
                    seen.add(new)
                    if len(seen) > max_states:
                        raise ResourceLimitError(
                            f"reconfiguration BFS exceeded {max_states} states",
                            count=len(seen),
                        )
                    nxt.append(new)
        frontier = nxt
    return seen


def _context(forest: CaterpillarForest, k: int, max_states: int) -> PathCoverContext:
    if max_states < 1:
        raise InputError(f"max_states must be >= 1, got {max_states}")
    return PathCoverContext(forest, k)


def _checked_mask(
    forest: CaterpillarForest, ctx: PathCoverContext, tokens: TokenSet
) -> int:
    tokens.validate_on(forest)
    mask = ctx.mask_of(tokens.occupied)
    if not ctx.is_cover(mask):
        raise InputError("token set is not a valid k-path vertex cover")
    return mask


def oracle_reachable(
    forest: CaterpillarForest,
    I: TokenSet,
    J: TokenSet,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    if I.k != J.k:
        raise InputError("covers disagree on k")
    if len(I) != len(J):
        raise InputError("oracle_reachable expects equal-size covers")
    ctx = _context(forest, I.k, max_states)
    a = _checked_mask(forest, ctx, I)
    b = _checked_mask(forest, ctx, J)
    if a == b:
        return True
    return b in _reachable_masks(ctx, a, max_states)


def oracle_reachable_covers(
    forest: CaterpillarForest,
    I: TokenSet,
    max_states: int = DEFAULT_MAX_STATES,
) -> set[frozenset[VertexId]]:
    """Every cover reachable from I, as frozen vertex sets."""
    ctx = _context(forest, I.k, max_states)
    a = _checked_mask(forest, ctx, I)
    return {ctx.vertices_of(m) for m in _reachable_masks(ctx, a, max_states)}


def oracle_rigid_set(
    forest: CaterpillarForest,
    I: TokenSet,
    max_states: int = DEFAULT_MAX_STATES,
) -> frozenset[VertexId]:
    """Vertices of I present in every reachable cover."""
    ctx = _context(forest, I.k, max_states)
    a = _checked_mask(forest, ctx, I)
    common = a
    for mask in _reachable_masks(ctx, a, max_states):
        common &= mask
        if not common:
            break
    return ctx.vertices_of(common)


def reachability_classes(
    forest: CaterpillarForest,
    k: int,
    size: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> list[set[frozenset[VertexId]]]:
    """Partition of all size-`size` covers into mutual-reachability classes."""
    ctx = _context(forest, k, max_states)
    todo = set(_cover_masks(ctx, size))
    classes = []
    while todo:
        start = min(todo)
        cls = _reachable_masks(ctx, start, max_states)
        todo -= cls
        classes.append({ctx.vertices_of(m) for m in cls})
    return classes


def enumerate_caterpillars(
    max_spine: int, max_leaves_per_vertex: int
) -> Iterator[CaterpillarForest]:
    """Canonical caterpillars with spine in [2, max_spine], leaf counts in
    [0, max_leaves_per_vertex]; spine reversal deduplicated by keeping the
    lexicographically smaller leaf-count vector."""
    if max_spine < 1 or max_leaves_per_vertex < 0:
        raise InputError("bounds must be positive")
    for ell in range(2, max_spine + 1):
        for counts in product(range(max_leaves_per_vertex + 1), repeat=ell):
            if counts < tuple(reversed(counts)):
                continue
            yield CaterpillarForest.from_counts(
                ell, {i + 1: c for i, c in enumerate(counts) if c}
            )
