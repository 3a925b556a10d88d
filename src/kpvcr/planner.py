"""Decision procedure and witness construction for token sliding.

is_ts_reachable follows the top-level algorithm: sizes must match, rigid
sets must match, and after deleting the rigid vertices every component must
hold equally many tokens of both covers.

build_sequence realizes YES answers: per component of G - R, tokens are
matched position-by-position in the caterpillar order (leaves before their
spine vertex, left to right) and routed right-to-left from both ends; the
two half-sequences are glued as S_I + rev(S_J).  The per-target routine
pushes tokens rightward, lifts leaf tokens through their spine vertex with
a left-cascade to make room, and may temporarily displace already-settled
tokens; displaced settle targets are reopened and refilled before the
routine returns, which keeps the sorted-suffix invariant that the literal
push loop alone would lose.

Token identity is not tracked: covers are sets and any token may end up on
any matched target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from ._kpaths import PathCoverContext
from .cover import TokenSet, is_kpvc
from .errors import InputError, LogicError, UnsupportedParameterError
from .graph import Caterpillar, CaterpillarForest, VertexId
from .rigidity import rigid_set

Move = tuple[VertexId, VertexId]


@dataclass(frozen=True)
class TsSequence:
    start: TokenSet
    moves: tuple[Move, ...]

    def states(self) -> Iterator[frozenset[VertexId]]:
        occ = self.start.occupied
        yield occ
        for frm, to in self.moves:
            occ = occ - {frm} | {to}
            yield occ

    @property
    def end(self) -> TokenSet:
        occ = self.start.occupied
        for frm, to in self.moves:
            occ = occ - {frm} | {to}
        return TokenSet(occ, self.start.k)

    def reverse(self) -> "TsSequence":
        return TsSequence(
            self.end, tuple((to, frm) for frm, to in reversed(self.moves))
        )

    def concat(self, other: "TsSequence") -> "TsSequence":
        if self.start.k != other.start.k:
            raise InputError("cannot concatenate sequences with different k")
        if self.end.occupied != other.start.occupied:
            raise InputError("sequence endpoints do not chain")
        return TsSequence(self.start, self.moves + other.moves)

    def __add__(self, other: "TsSequence") -> "TsSequence":
        return self.concat(other)

    def __len__(self) -> int:
        return len(self.moves)


@dataclass(frozen=True)
class VertexOrder:
    rank: dict[VertexId, int]

    def key(self, v: VertexId) -> int:
        return self.rank[v]

    def sort(self, vs) -> list[VertexId]:
        return sorted(vs, key=self.rank.__getitem__)


def vertex_order(forest: CaterpillarForest | Caterpillar) -> VertexOrder:
    """The routing order: leaves of s_i, then s_i, then everything at i+1.."""
    if isinstance(forest, CaterpillarForest):
        if len(forest.components) != 1:
            raise InputError("vertex_order expects a single component")
        comp = forest.components[0]
    else:
        comp = forest
    rank: dict[VertexId, int] = {}
    n = 0
    for s, ls in zip(comp.spine, comp.leaves):
        for x in sorted(ls):
            rank[x] = n
            n += 1
        rank[s] = n
        n += 1
    return VertexOrder(rank)


# ---------------------------------------------------------------------------
# Decision
# ---------------------------------------------------------------------------


def reachability_signature(
    forest: CaterpillarForest, I: TokenSet
) -> tuple[int, frozenset[VertexId], frozenset[tuple[frozenset[VertexId], int]]]:
    """(size, rigid set, per-component token counts of G - R).  Two covers
    are TS-reachable from each other exactly when their signatures match."""
    if I.k <= 3:
        raise UnsupportedParameterError("reachability supports k >= 4 only")
    if not is_kpvc(forest, I):
        raise InputError("token set is not a k-path vertex cover")
    return _signature(forest, I.occupied, I.k)


@lru_cache(maxsize=None)
def _signature(
    forest: CaterpillarForest, occupied: frozenset[VertexId], k: int
) -> tuple[int, frozenset[VertexId], frozenset[tuple[frozenset[VertexId], int]]]:
    rigid = _rigid_cached(forest, occupied, k)
    rest = _delete_cached(forest, rigid)
    comps = frozenset(
        (verts, len(occupied & verts))
        for verts in (frozenset(c.all_vertices()) for c in rest.components)
    )
    return (len(occupied), rigid, comps)


# Shared by _signature and build_sequence's reduced-cover check: on
# bench/sweep.py (seed 5) 8,158 of the check's 14,183 hits land on entries
# that signatures of other forests made, small-family forests equal to a
# G - R component.  A cache of the check's own cost 17-35 % of the sweep's
# witness time and 13 MB of peak RSS; reading it from _signature, 7 % and 3 MB.
@lru_cache(maxsize=None)
def _rigid_cached(
    forest: CaterpillarForest, occupied: frozenset[VertexId], k: int
) -> frozenset[VertexId]:
    return rigid_set(forest, TokenSet(occupied, k)).rigid


# 44,012 hits, 408 misses there: build_sequence re-asks its signature's G - R
@lru_cache(maxsize=None)
def _delete_cached(
    forest: CaterpillarForest, drop: frozenset[VertexId]
) -> CaterpillarForest:
    return forest.delete(drop)


def is_ts_reachable(forest: CaterpillarForest, I: TokenSet, J: TokenSet) -> bool:
    if I.k != J.k:
        raise InputError("covers disagree on k")
    if I.k <= 3:
        raise UnsupportedParameterError("reachability supports k >= 4 only")
    if not is_kpvc(forest, I):
        raise InputError("start token set is not a k-path vertex cover")
    if not is_kpvc(forest, J):
        raise InputError("target token set is not a k-path vertex cover")
    if len(I) != len(J):
        return False
    return _signature(forest, I.occupied, I.k) == _signature(forest, J.occupied, J.k)


# ---------------------------------------------------------------------------
# Witness construction
# ---------------------------------------------------------------------------


def build_sequence(forest: CaterpillarForest, I: TokenSet, J: TokenSet) -> TsSequence:
    if not is_ts_reachable(forest, I, J):
        raise LogicError("witness requested for a NO instance")
    rigid = _signature(forest, I.occupied, I.k)[1]
    rest = _delete_cached(forest, rigid).canonical()
    moves: list[Move] = []
    for comp in rest.components:
        verts = frozenset(comp.all_vertices())
        ic = I.occupied & verts
        jc = J.occupied & verts
        if ic == jc:
            continue
        sub = CaterpillarForest.single(comp)
        # one fixpoint step: the reduced covers must carry no rigid tokens
        for cov in (ic, jc):
            if _rigid_cached(sub, cov, I.k):
                raise LogicError("rigid token survived the reduction")
        if sub.longest_path_vertices() < I.k:
            moves.extend(_route_unconstrained(comp, ic, jc))
        else:
            moves.extend(_plan_component(comp, ic, jc, I.k))
    return TsSequence(I, tuple(moves))


def construct_si(
    forest: CaterpillarForest, current: TokenSet, target: TokenSet, i: int
) -> TsSequence:
    """Route the i-th order-sorted token of `current` onto the i-th position
    of `target` (1-based), leaving the later-sorted positions restored."""
    forest = forest.canonical()
    if len(forest.components) != 1:
        raise InputError("construct_si expects a single component")
    comp = forest.components[0]
    if current.k != target.k:
        raise LogicError("covers disagree on k")
    order = vertex_order(comp)
    xs = order.sort(current.occupied)
    ys = order.sort(target.occupied)
    if len(xs) != len(ys) or not (1 <= i <= len(xs)):
        raise LogicError("bad index for construct_si")
    if xs[i:] != ys[i:]:
        raise LogicError("positions after i are not aligned")
    if order.key(xs[i - 1]) >= order.key(ys[i - 1]):
        raise LogicError("construct_si requires x_i before y_i")
    if rigid_set(forest, current).rigid:
        raise LogicError("construct_si requires an empty rigid set")
    ctx = _comp_ctx(comp, current.k)
    occ = ctx.paths.mask_of(current.occupied)
    moves: list[Move] = []
    _settle(ctx, occ, moves, ys[i - 1], set(ys[i:]))
    return TsSequence(current, tuple(moves))


def validate_sequence(forest: CaterpillarForest, k: int, seq: TsSequence) -> bool:
    """Adjacent slides between occupied and free vertices, every state a
    valid k-path vertex cover (the start included)."""
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


# ---------------------------------------------------------------------------
# Per-component machinery
# ---------------------------------------------------------------------------


class _CompCtx:
    def __init__(self, comp: Caterpillar, k: int):
        self.comp = comp
        self.k = k
        self.paths = PathCoverContext(CaterpillarForest.single(comp), k)
        self.bit = self.paths.bit
        order = vertex_order(comp)
        self.rank = order.rank
        self.desc = sorted(self.rank, key=self.rank.__getitem__, reverse=True)
        self.spos = comp._positions
        self.is_leaf: dict[VertexId, bool] = {}
        self.spine_of: dict[VertexId, VertexId] = {}
        self.left_spine: dict[VertexId, VertexId | None] = {}
        self.right_spine: dict[VertexId, VertexId | None] = {}
        for i, (s, ls) in enumerate(zip(comp.spine, comp.leaves)):
            self.is_leaf[s] = False
            self.left_spine[s] = comp.spine[i - 1] if i > 0 else None
            self.right_spine[s] = comp.spine[i + 1] if i + 1 < len(comp.spine) else None
            for x in ls:
                self.is_leaf[x] = True
                self.spine_of[x] = s


@lru_cache(maxsize=4096)
def _comp_ctx(comp: Caterpillar, k: int) -> _CompCtx:
    return _CompCtx(comp, k)


def _plan_component(
    comp: Caterpillar, ic: frozenset[VertexId], jc: frozenset[VertexId], k: int
) -> list[Move]:
    ctx = _comp_ctx(comp, k)
    rank = ctx.rank
    a = ctx.paths.mask_of(ic)
    b = ctx.paths.mask_of(jc)
    moves_a: list[Move] = []
    moves_b: list[Move] = []
    guard = 0
    while a != b:
        guard += 1
        if guard > 8 * (len(ic) + 2):
            raise LogicError("planner did not converge on matched suffixes")
        xs = sorted(ctx.paths.vertices_of(a), key=rank.__getitem__)
        ys = sorted(ctx.paths.vertices_of(b), key=rank.__getitem__)
        i = max(j for j in range(len(xs)) if xs[j] != ys[j])
        if rank[xs[i]] < rank[ys[i]]:
            a = _settle(ctx, a, moves_a, ys[i], set(ys[i + 1 :]))
        else:
            b = _settle(ctx, b, moves_b, xs[i], set(xs[i + 1 :]))
    return moves_a + [(to, frm) for frm, to in reversed(moves_b)]


def _settle(
    ctx: _CompCtx,
    occ: int,
    moves: list[Move],
    target: VertexId,
    protected: set[VertexId],
) -> int:
    """Fill `target` (and any settle positions displaced along the way)
    without permanently disturbing `protected` positions."""
    bit = ctx.bit
    stack = [target]
    refills: set[VertexId] = set()
    cap = 8 * (len(ctx.rank) + 4) ** 2
    steps = 0
    while stack:
        steps += 1
        if steps > cap:
            raise LogicError("token routing failed to converge")
        y = stack[-1]
        if occ & bit[y]:
            stack.pop()
            protected.add(y)
            refills.discard(y)
            continue
        advanced = _advance(ctx, occ, moves, y, protected, stack, refills)
        if advanced is None and ctx.is_leaf[y]:
            # no token can be brought closer; steal from the spine vertex
            nbr = ctx.spine_of[y]
            if (occ & bit[nbr]) and ctx.paths.slide_ok(occ, nbr, y):
                occ = (occ ^ bit[nbr]) | bit[y]
                moves.append((nbr, y))
                stack.pop()
                protected.add(y)
                refills.discard(y)
                if nbr in protected:
                    # stole a settled token; refill its position next
                    protected.discard(nbr)
                    stack.append(nbr)
                    refills.add(nbr)
                continue
        if advanced is None:
            advanced = _pull_left(ctx, occ, moves, y, protected, stack, refills, ctx.spos[y] + 1)
        if advanced is None:
            advanced = _unpark(ctx, occ, moves, y, protected, stack, refills, ctx.spos[y] + 1)
        if advanced is None:
            advanced = _make_room(ctx, occ, moves, y, protected, stack, refills)
        if advanced is None:
            # last resorts: pull the steal source itself one step left so
            # support can regroup behind it, or raise a settled leaf token
            # sharing y's column
            advanced = _pull_left(ctx, occ, moves, y, protected, stack, refills, ctx.spos[y])
        if advanced is None:
            advanced = _unpark(ctx, occ, moves, y, protected, stack, refills, ctx.spos[y])
        if advanced is None:
            raise LogicError("no token can advance toward the target")
        occ = advanced
    return occ


def _pull_left(
    ctx: _CompCtx,
    occ: int,
    moves: list[Move],
    y: VertexId,
    protected: set[VertexId],
    stack: list[VertexId],
    refills: set[VertexId],
    from_spos: int,
) -> int | None:
    """Pull the nearest occupied spine token at spine position >= from_spos
    one step left.  Used to refill reopened positions and to bring cover
    support close enough for a leaf steal; like _make_room, a displaced
    settle position is queued for refilling."""
    bit = ctx.bit
    for q in ctx.comp.spine[from_spos:]:
        if not (occ & bit[q]):
            continue
        lq = ctx.left_spine[q]
        if lq is None or (occ & bit[lq]) or not ctx.paths.slide_ok(occ, q, lq):
            return None
        occ = (occ ^ bit[q]) | bit[lq]
        moves.append((q, lq))
        if q in protected:
            protected.discard(q)
            stack.insert(0, q)
            refills.add(q)
        return occ
    return None


def _advance(
    ctx: _CompCtx,
    occ: int,
    moves: list[Move],
    y: VertexId,
    protected: set[VertexId],
    stack: list[VertexId],
    refills: set[VertexId],
) -> int | None:
    """One push-right step: move the smallest-ordered eligible token one step
    toward y (spine slide, leaf lift, or leaf lift after a left-cascade).
    Advancing from the back keeps the tokens packed, so that by the time a
    steal onto a leaf target is attempted its support is already in place.
    Returns None when no eligible token can move."""
    bit = ctx.bit
    rank = ctx.rank
    ylim = ctx.spos[y]
    for p in reversed(ctx.desc):
        if not (occ & bit[p]) or p in protected or rank[p] >= rank[y]:
            continue
        if ctx.is_leaf[p]:
            if ctx.spos[p] > ylim:
                continue
            sp = ctx.spine_of[p]
            if not (occ & bit[sp]):
                if ctx.paths.slide_ok(occ, p, sp):
                    occ = (occ ^ bit[p]) | bit[sp]
                    moves.append((p, sp))
                    return occ
            else:
                res = _try_cascade(ctx, occ, sp)
                if res is not None:
                    occ, cascade_moves, displaced = res
                    moves.extend(cascade_moves)
                    if not ctx.paths.slide_ok(occ, p, sp):
                        raise LogicError("leaf lift invalid after cascade")
                    occ = (occ ^ bit[p]) | bit[sp]
                    moves.append((p, sp))
                    for q in displaced:
                        if q in protected:
                            protected.discard(q)
                            stack.append(q)
                            refills.add(q)
                    return occ
        else:
            nxt = ctx.right_spine[p]
            if nxt is None or ctx.spos[nxt] > ylim:
                continue
            if not (occ & bit[nxt]) and ctx.paths.slide_ok(occ, p, nxt):
                occ = (occ ^ bit[p]) | bit[nxt]
                moves.append((p, nxt))
                return occ
    return None


def _unpark(
    ctx: _CompCtx,
    occ: int,
    moves: list[Move],
    y: VertexId,
    protected: set[VertexId],
    stack: list[VertexId],
    refills: set[VertexId],
    from_spos: int,
) -> int | None:
    """Temporarily lift the nearest settled leaf token at spine position
    >= from_spos back onto its free spine vertex so it can support a steal
    onto y; the leaf is queued for refilling afterwards."""
    bit = ctx.bit
    for q in sorted(protected, key=ctx.rank.__getitem__):
        if not ctx.is_leaf[q] or ctx.spos[q] < from_spos or not (occ & bit[q]):
            continue
        sp = ctx.spine_of[q]
        if (occ & bit[sp]) or not ctx.paths.slide_ok(occ, q, sp):
            continue
        occ = (occ ^ bit[q]) | bit[sp]
        moves.append((q, sp))
        protected.discard(q)
        stack.insert(0, q)
        refills.add(q)
        return occ
    return None


def _make_room(
    ctx: _CompCtx,
    occ: int,
    moves: list[Move],
    y: VertexId,
    protected: set[VertexId],
    stack: list[VertexId],
    refills: set[VertexId],
) -> int | None:
    """Deadlock breaker: slide the nearest blocking spine token (at or past
    y, or protected) one step right; a displaced settle position is queued
    for refilling after the current target."""
    bit = ctx.bit
    rank = ctx.rank
    blockers = [
        q
        for q in ctx.desc
        if (occ & bit[q])
        and not ctx.is_leaf[q]
        and (rank[q] >= rank[y] or q in protected)
    ]
    for q in sorted(blockers, key=rank.__getitem__):
        nxt = ctx.right_spine[q]
        if nxt is None or (occ & bit[nxt]) or not ctx.paths.slide_ok(occ, q, nxt):
            continue
        occ = (occ ^ bit[q]) | bit[nxt]
        moves.append((q, nxt))
        if q in protected:
            protected.discard(q)
            stack.insert(0, q)
            refills.add(q)
        return occ
    return None


def _try_cascade(
    ctx: _CompCtx, occ: int, sp: VertexId
) -> tuple[int, list[Move], list[VertexId]] | None:
    """Vacate spine vertex sp by sliding it (and as many of the occupied
    spine vertices to its right as needed) one step left."""
    bit = ctx.bit
    chain = [sp]
    q = ctx.right_spine[sp]
    while q is not None:
        if occ & bit[q]:
            chain.append(q)
        q = ctx.right_spine[q]
    first = None
    for m, c in enumerate(chain):
        lq = ctx.left_spine[c]
        if lq is not None and not (occ & bit[lq]) and ctx.paths.slide_ok(occ, c, lq):
            first = m
            break
    if first is None:
        return None
    work = occ
    cascade_moves: list[Move] = []
    displaced: list[VertexId] = []
    for j in range(first, -1, -1):
        c = chain[j]
        lq = ctx.left_spine[c]
        if lq is None or (work & bit[lq]) or not ctx.paths.slide_ok(work, c, lq):
            return None
        work = (work ^ bit[c]) | bit[lq]
        cascade_moves.append((c, lq))
        displaced.append(c)
    return work, cascade_moves, displaced


def _route_unconstrained(
    comp: Caterpillar, ic: frozenset[VertexId], jc: frozenset[VertexId]
) -> list[Move]:
    """Routing when the component carries no k-path: any token set is a
    valid cover, so tokens walk freely.  Peel tree leaves one at a time,
    filling targets from the nearest token and pushing stray tokens inward."""
    order = vertex_order(comp)
    adj = {v: set(ns) for v, ns in comp._adjacency.items()}
    remaining = set(adj)
    occ = set(ic)
    targets = set(jc)
    moves: list[Move] = []

    def bfs_path(src: VertexId, stop) -> list[VertexId]:
        seen = {src: None}
        queue = [src]
        for v in queue:
            for w in sorted(adj[v] & remaining):
                if w in seen:
                    continue
                seen[w] = v
                if stop(w):
                    path = [w]
                    while seen[path[-1]] is not None:
                        path.append(seen[path[-1]])
                    return path[::-1]
                queue.append(w)
        raise LogicError("free-routing search failed")

    while remaining:
        w = max(
            (v for v in remaining if len(adj[v] & remaining) <= 1),
            key=order.key,
        )
        if w in targets:
            if w not in occ:
                path = bfs_path(w, lambda v: v in occ)
                for i in range(len(path) - 1, 0, -1):
                    moves.append((path[i], path[i - 1]))
                occ.discard(path[-1])
                occ.add(w)
        elif w in occ:
            path = bfs_path(w, lambda v: v not in occ)
            for i in range(len(path) - 2, -1, -1):
                moves.append((path[i], path[i + 1]))
                occ.discard(path[i])
                occ.add(path[i + 1])
        remaining.discard(w)
    return moves
