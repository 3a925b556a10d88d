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

The routing works on the component's routing ranks (`Caterpillar._ranks`,
its one vertex table): rank order is the caterpillar order, occupancy is
an int over ranks, and every spine token's slide goes through
`_kpaths.slide_ok`, the test the generator and the rigidity engine use.  A
leaf token lifted onto its free spine vertex needs no test, because every
k-path through a leaf passes its spine vertex.

Token identity is not tracked: covers are sets and any token may end up on
any matched target.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from ._kpaths import slide_ok
from .cover import TokenSet, is_kpvc
from .errors import InputError, LogicError, UnsupportedParameterError
from .graph import Caterpillar, CaterpillarForest, Ranks, VertexId, longest_path
from .rigidity import rigid_set

Move = tuple[VertexId, VertexId]


@dataclass(frozen=True)
class TsSequence:
    start: TokenSet
    moves: tuple[Move, ...]

    @property
    def end(self) -> TokenSet:
        occ = set(self.start.occupied)
        for frm, to in self.moves:
            occ.discard(frm)
            occ.add(to)
        return TokenSet(frozenset(occ), self.start.k)

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


# ---------------------------------------------------------------------------
# Decision
# ---------------------------------------------------------------------------


Signature = tuple[int, frozenset[VertexId], frozenset[tuple[VertexId, int]]]


def reachability_signature(forest: CaterpillarForest, I: TokenSet) -> Signature:
    """(size, rigid set R, token counts of G - R): the third element pairs
    the smallest vertex of each G - R component holding a token with its
    token count.  Two covers of one forest are TS-reachable from each other
    exactly when their signatures match; signatures of different forests
    do not compare."""
    if I.k <= 3:
        raise UnsupportedParameterError("reachability supports k >= 4 only")
    if not is_kpvc(forest, I):
        raise InputError("token set is not a k-path vertex cover")
    return _signature(forest, I.occupied, I.k)


def _signature(forest: CaterpillarForest, occupied: frozenset[VertexId], k: int) -> Signature:
    """Tokens outside R are counted through G - R's vertex table, once
    each; a component of G - R without a token costs nothing here."""
    key = ("signature", occupied, k)
    sig = forest._memo.get(key)
    if sig is None:
        rigid = rigid_set(forest, TokenSet(occupied, k)).rigid
        component = forest.delete(rigid)._component
        counts = Counter(component[v]._min_vertex for v in occupied - rigid)
        sig = forest._memo[key] = (len(occupied), rigid, frozenset(counts.items()))
    return sig


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
    rest = forest.delete(_signature(forest, I.occupied, I.k)[1])
    moves: list[Move] = []
    for comp in rest.canonical().components:
        verts = frozenset(comp.all_vertices())
        ic = I.occupied & verts
        jc = J.occupied & verts
        if ic == jc:
            continue
        # one fixpoint step: the reduced covers must carry no rigid tokens
        for cov in (ic, jc):
            if _signature(rest, cov, I.k)[1]:
                raise LogicError("rigid token survived the reduction")
        if comp.longest_path_vertices() < I.k:
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
    rank = comp._ranks.rank
    xs = sorted(current.occupied, key=rank.__getitem__)
    ys = sorted(target.occupied, key=rank.__getitem__)
    if len(xs) != len(ys) or not (1 <= i <= len(xs)):
        raise LogicError("bad index for construct_si")
    if xs[i:] != ys[i:]:
        raise LogicError("positions after i are not aligned")
    if rank[xs[i - 1]] >= rank[ys[i - 1]]:
        raise LogicError("construct_si requires x_i before y_i")
    if rigid_set(forest, current).rigid:
        raise LogicError("construct_si requires an empty rigid set")
    router = _Router(comp._ranks, current.k, current.occupied)
    router.settle(rank[ys[i - 1]], {rank[y] for y in ys[i:]})
    return TsSequence(current, tuple(router.vertex_moves()))


def validate_sequence(forest: CaterpillarForest, k: int, seq: TsSequence) -> bool:
    """Adjacent slides from occupied onto free vertices, every state a
    valid k-path vertex cover (the start included).

    Only the start goes through `is_kpvc`.  A slide frees only `frm`, so a
    new k-path runs through `frm`, inside the one free component holding
    it; its other paths were free before.  A leaf slides only onto its
    spine vertex and is left on its own.  A spine vertex joins the maximal
    free spine run through its position, whose longest path
    (`graph.longest_path`) must stay below k.  Occupancy is an int per
    component over its ranks, a slide costs O(k + leaves), and no state
    but the start is memoised.
    """
    try:
        if seq.start.k != k or not is_kpvc(forest, seq.start):
            return False
    except InputError:
        return False
    component = forest._component
    tokens: dict[Caterpillar, list[VertexId]] = {}
    for v in seq.start.occupied:
        tokens.setdefault(component[v], []).append(v)
    occs = {comp: comp._ranks.mask_of(vs) for comp, vs in tokens.items()}
    for frm, to in seq.moves:
        comp = component.get(frm)
        if comp is None or to not in comp._ranks.rank:
            return False
        ranks = comp._ranks
        r, w = ranks.rank[frm], ranks.rank[to]
        occ = occs.get(comp, 0)
        if not occ >> r & 1 or occ >> w & 1:
            return False
        # adjacent: spine vertices one position apart, or a leaf and its
        # spine vertex
        spine = ranks.spine
        i, j = ranks.pos[r], ranks.pos[w]
        on_spine = (spine[i] == r) + (spine[j] == w)
        if not (abs(i - j) == 1 if on_spine == 2 else on_spine == 1 and i == j):
            return False
        occ = occs[comp] = occ ^ (1 << r | 1 << w)
        if spine[i] == r and _free_run_path(ranks, occ, i, k) >= k:
            return False
    return True


def _free_run_path(ranks: Ranks, occ: int, i: int, k: int) -> int:
    """Longest path of the free spine run through position i (free under
    occ), looking at most k - 1 positions each way: a run cut short there
    already holds k spine vertices."""
    spine = ranks.spine
    a = b = i
    while a > 0 and i - a < k - 1 and not occ >> spine[a - 1] & 1:
        a -= 1
    while b + 1 < len(spine) and b - i < k - 1 and not occ >> spine[b + 1] & 1:
        b += 1
    return longest_path(b - a + 1, _free_leaves(ranks, occ, a), _free_leaves(ranks, occ, b))


def _free_leaves(ranks: Ranks, occ: int, p: int) -> int:
    """Free leaves at spine position p: ranks first[p]..spine[p] - 1."""
    lo, n = ranks.first[p], ranks.spine[p] - ranks.first[p]
    return n - (occ >> lo & ((1 << n) - 1)).bit_count()


# ---------------------------------------------------------------------------
# Per-component machinery: vertices are routing ranks, moves rank pairs
# ---------------------------------------------------------------------------


def _members(occ: int) -> Iterator[int]:
    """The set ranks of occ, ascending: C-speed scans of its digit string."""
    digits = bin(occ)[:1:-1]  # digits[r] is bit r
    r = digits.find("1")
    while r >= 0:
        yield r
        r = digits.find("1", r + 1)


def _plan_component(
    comp: Caterpillar, ic: frozenset[VertexId], jc: frozenset[VertexId], k: int
) -> list[Move]:
    a = _Router(comp._ranks, k, ic)
    b = _Router(comp._ranks, k, jc)
    guard = 0
    while a.occ != b.occ:
        guard += 1
        if guard > 8 * (len(ic) + 2):
            raise LogicError("planner did not converge on matched suffixes")
        xs = list(_members(a.occ))
        ys = list(_members(b.occ))
        i = max(j for j in range(len(xs)) if xs[j] != ys[j])
        if xs[i] < ys[i]:
            a.settle(ys[i], set(ys[i + 1 :]))
        else:
            b.settle(xs[i], set(xs[i + 1 :]))
    return a.vertex_moves() + [(to, frm) for frm, to in reversed(b.vertex_moves())]


class _Router:
    """One cover's routing on a component: occupancy as an int over the
    component's routing ranks, and the slides made so far as rank pairs.
    Each routing step below makes one slide (a cascade several) and says
    whether it moved."""

    def __init__(self, ranks: Ranks, k: int, cover: frozenset[VertexId]):
        self.ranks, self.k = ranks, k
        self.occ = ranks.mask_of(cover)
        self.moves: list[tuple[int, int]] = []
        self.protected: set[int] = set()
        self.stack: list[int] = []

    def vertex_moves(self) -> list[Move]:
        order = self.ranks.order
        return [(order[frm], order[to]) for frm, to in self.moves]

    def settle(self, target: int, protected: set[int]) -> None:
        """Fill `target` (and any settle positions displaced along the way)
        without permanently disturbing `protected` positions."""
        self.protected = protected
        stack = self.stack = [target]
        cap = 8 * (len(self.ranks.order) + 4) ** 2
        steps = 0
        while stack:
            steps += 1
            if steps > cap:
                raise LogicError("token routing failed to converge")
            y = stack[-1]
            if self.occ >> y & 1:
                stack.pop()
                protected.add(y)
                continue
            # after make_room, the last resorts pull the steal source itself
            # one step left so support can regroup behind it, or raise a
            # settled leaf token sharing y's column
            i = self.ranks.pos[y]
            if not (
                self.advance(y)
                or self.steal(y)
                or self.pull_left(i + 1)
                or self.unpark(i + 1)
                or self.make_room(y)
                or self.pull_left(i)
                or self.unpark(i)
            ):
                raise LogicError("no token can advance toward the target")

    def can_slide(self, i: int, w: int) -> bool:
        """Can the spine token at position i slide to w right now?"""
        return not self.occ >> w & 1 and slide_ok(self.ranks, self.occ, i, w, self.k)

    def slide(self, frm: int, to: int) -> None:
        self.occ ^= 1 << frm | 1 << to
        self.moves.append((frm, to))

    def reopen(self, q: int, next_: bool) -> None:
        """A slide vacated q: if it was settled, refill it next, or after
        every queued target."""
        if q in self.protected:
            self.protected.discard(q)
            if next_:
                self.stack.append(q)
            else:
                self.stack.insert(0, q)

    def displace(self, frm: int, to: int) -> bool:
        self.slide(frm, to)
        self.reopen(frm, next_=False)
        return True

    def advance(self, y: int) -> bool:
        """One push-right step: move the smallest-ordered eligible token one
        step toward y (spine slide, leaf lift, or leaf lift after a
        left-cascade).  Advancing from the back keeps the tokens packed, so
        that by the time a steal onto a leaf target is attempted its
        support is already in place."""
        pos, spine = self.ranks.pos, self.ranks.spine
        for p in _members(self.occ & ((1 << y) - 1)):
            if p in self.protected:
                continue
            i = pos[p]
            if p != spine[i]:
                # a leaf lift needs no slide test
                if not self.occ >> spine[i] & 1 or self.cascade(i):
                    self.slide(p, spine[i])
                    return True
            elif i < pos[y] and self.can_slide(i, spine[i + 1]):
                self.slide(p, spine[i + 1])
                return True
        return False

    def cascade(self, i: int) -> bool:
        """Vacate the spine vertex at position i by sliding it (and as many
        of the occupied spine vertices to its right as needed) one step
        left; settled positions it vacates are refilled next."""
        spine = self.ranks.spine
        chain: list[int] = []
        for q in range(i, len(spine)):
            if self.occ >> spine[q] & 1:
                chain.append(q)
                if q and self.can_slide(q, spine[q - 1]):
                    break
        else:
            return False
        saved = self.occ, len(self.moves)
        for q in reversed(chain):
            if not (q and self.can_slide(q, spine[q - 1])):
                self.occ = saved[0]
                del self.moves[saved[1] :]
                return False
            self.slide(spine[q], spine[q - 1])
        for q in reversed(chain):
            self.reopen(spine[q], next_=True)
        return True

    def steal(self, y: int) -> bool:
        """When no token can be brought closer to a leaf target, take the
        token of its spine vertex; a settled one is refilled next."""
        i = self.ranks.pos[y]
        nbr = self.ranks.spine[i]
        if y == nbr or not self.occ >> nbr & 1 or not self.can_slide(i, y):
            return False
        self.slide(nbr, y)
        self.stack.pop()
        self.protected.add(y)
        self.reopen(nbr, next_=True)
        return True

    def pull_left(self, from_pos: int) -> bool:
        """Pull the nearest occupied spine token at spine position >=
        from_pos one step left.  Used to refill reopened positions and to
        bring cover support close enough for a leaf steal."""
        spine = self.ranks.spine
        for i in range(from_pos, len(spine)):
            if self.occ >> spine[i] & 1:
                if i == 0 or not self.can_slide(i, spine[i - 1]):
                    return False
                return self.displace(spine[i], spine[i - 1])
        return False

    def unpark(self, from_pos: int) -> bool:
        """Temporarily lift the nearest settled leaf token at spine position
        >= from_pos back onto its free spine vertex so it can support a
        steal; the leaf is refilled afterwards."""
        pos, spine = self.ranks.pos, self.ranks.spine
        for q in sorted(self.protected):
            sp = spine[pos[q]]
            if q != sp and pos[q] >= from_pos and self.occ >> q & 1 and not self.occ >> sp & 1:
                return self.displace(q, sp)
        return False

    def make_room(self, y: int) -> bool:
        """Deadlock breaker: slide the nearest blocking spine token (at or
        past y, or protected) one step right."""
        pos, spine = self.ranks.pos, self.ranks.spine
        for q in _members(self.occ):
            i = pos[q]
            if q != spine[i] or (q < y and q not in self.protected) or i + 1 == len(spine):
                continue
            if self.can_slide(i, spine[i + 1]):
                return self.displace(q, spine[i + 1])
        return False


def _route_unconstrained(
    comp: Caterpillar, ic: frozenset[VertexId], jc: frozenset[VertexId]
) -> list[Move]:
    """Routing when the component carries no k-path: any token set is a
    valid cover, so tokens walk freely.  Peel tree leaves one at a time,
    filling targets from the nearest token and pushing stray tokens inward."""
    rank = comp._ranks.rank
    adj = {v: set(comp.neighbors(v)) for v in comp.all_vertices()}
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
            key=rank.__getitem__,
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
