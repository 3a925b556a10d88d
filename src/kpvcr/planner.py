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
push loop alone would lose.  Tokens on a component that holds no k-path,
where any token set is a cover, walk freely instead (`_Router.walk_free`).

All routing works on the component's routing ranks (`Caterpillar._ranks`,
its one vertex table): rank order is the caterpillar order, every token
set the router keeps (occupancy, settled and blocked tokens) is an int over
ranks, and every spine token's slide goes through
`_kpaths.slide_ok`, the test the generator and the rigidity engine use.  A
leaf token lifted onto its free spine vertex needs no test, because every
k-path through a leaf passes its spine vertex.

Token identity is not tracked: covers are sets and any token may end up on
any matched target.

The planner does not check its own witnesses: `validate_sequence` and
`TsSequence`, re-exported here, live in `instance`, apart from the planner
and the rigidity engine.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

from ._kpaths import slide_ok
from .cover import TokenSet, is_kpvc
from .errors import InputError, LogicError, UnsupportedParameterError
from .graph import Caterpillar, CaterpillarForest, Ranks, VertexId
from .instance import Move, TsSequence, validate_sequence  # noqa: F401
from .rigidity import rigid_set

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
    """Tokens outside R are counted once each through G - R's vertex table,
    unless G is connected and R empty; a tokenless component costs nothing.

    Memoised on the forest, one table per k keyed by the cover's own
    `occupied` frozenset, and interned per forest, so the covers of one
    class share one signature and a remembered cover adds no object."""
    signatures = forest._memo["signature", k]
    sig = signatures.get(occupied)
    if sig is None:
        rigid = rigid_set(forest, TokenSet(occupied, k)).rigid
        if rigid or len(forest.components) != 1:
            component = _minus(forest, rigid)._component
            counts = Counter(component[v]._min_vertex for v in occupied - rigid).items()
        else:  # G - R is G's one component, holding every token
            counts = [(forest.components[0]._min_vertex, len(occupied))] if occupied else ()
        sig = (len(occupied), rigid, frozenset(counts))
        sig = signatures[occupied] = forest._memo["interned", None].setdefault(sig, sig)
    return sig


def _minus(forest: CaterpillarForest, rigid: frozenset[VertexId]) -> CaterpillarForest:
    """G - R, built once per rigid set: both covers of a YES pair and the
    witness share it through the forest's memo.  Deleting nothing returns
    the forest itself, which its own memo must not hold."""
    if not rigid:
        return forest
    minus = forest._memo["minus", None]
    rest = minus.get(rigid)
    if rest is None:
        rest = minus[rigid] = forest.delete(rigid)
    return rest


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
    rest = _minus(forest, rigid).canonical()
    moves: list[Move] = []
    for comp in rest.components:
        verts = frozenset(comp.all_vertices())
        ic = I.occupied & verts
        jc = J.occupied & verts
        if ic == jc:
            continue
        # one fixpoint step: no rigid token on the reduced covers.  With R
        # empty they are I's and J's own, whose rigid sets the decision found
        # empty (a verdict reads only its token's component)
        if rigid and any(rigid_set(rest, TokenSet(cov, I.k)).rigid for cov in (ic, jc)):
            raise LogicError("rigid token survived the reduction")
        if comp.longest_path_vertices() < I.k:
            router = _Router(comp._ranks, I.k, ic)
            router.walk_free(comp._ranks.mask_of(jc))
            moves.extend(router.vertex_moves())
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
    current.validate_on(forest)
    target.validate_on(forest)
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
    router.settle(rank[ys[i - 1]], comp._ranks.mask_of(ys[i:]))
    return TsSequence(current, tuple(router.vertex_moves()))


# ---------------------------------------------------------------------------
# Per-component machinery: vertices are routing ranks, moves rank pairs
# ---------------------------------------------------------------------------


def _members(mask: int) -> Iterator[int]:
    """The set ranks of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _last_mismatch(x: int, y: int) -> tuple[int, int, int]:
    """Where two covers of one size, as sorted rank lists, last differ:
    their top differing rank h.  Above h the covers agree, so with equal
    counts the side without a token on h holds its largest token below h at
    that index.  Returns that side (0 for x, 1 for y), h, and the ranks
    above h, which both hold."""
    h = (x ^ y).bit_length() - 1
    return x >> h & 1, h, x >> h + 1 << h + 1


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
        side, target, protected = _last_mismatch(a.occ, b.occ)
        (a, b)[side].settle(target, protected)
    return a.vertex_moves() + [(to, frm) for frm, to in reversed(b.vertex_moves())]


class _Router:
    """One cover's routing on a component: the slides made so far as rank
    pairs, and three token sets, each an int over the component's routing
    ranks: the occupancy, the settled positions `protected`, and the
    frontier `blocked` of spine tokens that cannot move right now.  Each
    step `settle` takes makes one slide (a cascade several) and says
    whether it moved."""

    def __init__(self, ranks: Ranks, k: int, cover: frozenset[VertexId]):
        self.ranks, self.k = ranks, k
        self.occ = ranks.mask_of(cover)
        # spine tokens whose push-right test failed at this occupancy
        self.blocked = 0
        self.moves: list[tuple[int, int]] = []
        self.protected = 0
        self.stack: list[int] = []

    def vertex_moves(self) -> list[Move]:
        order = self.ranks.order
        return [(order[frm], order[to]) for frm, to in self.moves]

    def settle(self, target: int, protected: int) -> None:
        """Fill `target` (and any settle positions displaced along the way)
        without permanently disturbing the `protected` ranks."""
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
                self.protected |= 1 << y
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
        if self.blocked:
            # a slide test reads positions within k - 1 of its token, and
            # `to` is at most one position from `frm`: clear the verdicts
            # within k positions of `frm`
            ranks, k = self.ranks, self.k
            i = ranks.pos[frm]
            lo = ranks.first[i - k] if i > k else 0
            hi = ranks.spine[i + k] if i + k < len(ranks.spine) else ranks.spine[-1]
            self.blocked &= ~((2 << hi) - (1 << lo))

    def push_ok(self, i: int) -> bool:
        """Can the spine token at position i slide one position right?
        A failed test is kept in `blocked` until a slide nearby clears it."""
        if self.can_slide(i, self.ranks.spine[i + 1]):
            return True
        self.blocked |= 1 << self.ranks.spine[i]
        return False

    def reopen(self, q: int, next_: bool) -> None:
        """A slide vacated q: if it was settled, refill it next, or after
        every queued target."""
        if self.protected >> q & 1:
            self.protected ^= 1 << q
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
        support is already in place.

        Spine tokens in `blocked` are skipped without a test: their push
        failed and nothing within k positions has moved since.  A slide
        clears at most 2k + 1 positions, so a move costs O(k) push tests
        (plus any cascade attempts of leaf tokens) instead of one test per
        token below y."""
        pos, spine = self.ranks.pos, self.ranks.spine
        for p in _members(self.occ & ~self.blocked & ~self.protected & ((1 << y) - 1)):
            i = pos[p]
            if p != spine[i]:
                # a leaf lift needs no slide test
                if not self.occ >> spine[i] & 1 or self.cascade(i):
                    self.slide(p, spine[i])
                    return True
            elif i < pos[y] and self.push_ok(i):
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
                # the rollback changes only positions the undone slides
                # touched, and those slides cleared the verdicts near them
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
        self.protected |= 1 << y
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
        if from_pos == len(spine):
            return False
        for q in _members(self.protected & self.occ & -1 << self.ranks.first[from_pos]):
            sp = spine[pos[q]]
            if q != sp and not self.occ >> sp & 1:
                return self.displace(q, sp)
        return False

    def make_room(self, y: int) -> bool:
        """Deadlock breaker: slide the nearest blocking spine token (at or
        past y, or protected) one step right."""
        pos, spine = self.ranks.pos, self.ranks.spine
        for q in _members(self.occ & ~self.blocked & (self.protected | -1 << y)):
            i = pos[q]
            if q != spine[i] or i + 1 == len(spine):
                continue
            if self.push_ok(i):
                return self.displace(q, spine[i + 1])
        return False

    def walk_free(self, target: int) -> None:
        """Route to `target` on a component that holds no k-path.  Peel tree
        leaves, positions from last to first, each its leaves by descending
        rank and then its spine vertex: a peeled target takes the nearest
        token, a peeled stray token goes to the nearest free vertex, the
        tokens between stepping on.  A fix changes only w and unpeeled
        vertices, so only vertices whose occupancy differs from the target
        are visited: next is the highest differing rank, or, when that is a
        spine vertex, the highest differing leaf of its position."""
        pos, spine, first = self.ranks.pos, self.ranks.spine, self.ranks.first
        while diff := self.occ ^ target:
            w = diff.bit_length() - 1
            p = pos[w]
            leaves = diff >> first[p] & ((1 << (spine[p] - first[p])) - 1)
            if w == spine[p] and leaves:
                w = first[p] + leaves.bit_length() - 1
            want = target >> w & 1
            path = self.nearest(w, self.occ if want else ~self.occ)
            for frm, to in zip(path, path[1:]) if want else zip(path[1:], path):
                self.slide(frm, to)

    def nearest(self, w: int, cand: int) -> list[int]:
        """The path to the peeled vertex w from the first unpeeled vertex
        in `cand` (never w), searching w's spine vertex, then rank blocks
        spine[q - 1]..spine[q] - 1 (a spine vertex, the unpeeled leaves
        right of it) for q from w's position down, then position 0's leaves:
        breadth-first from w over neighbours in id order, while ids run in
        caterpillar order (`from_counts`, parsing, `delete` and `canonical()`
        keep it).  The vertices between were searched and missed."""
        pos, spine = self.ranks.pos, self.ranks.spine
        p = pos[w]
        # p's unpeeled leaves: below a leaf w, none once p's spine vertex is peeled
        top = w if w != spine[p] else self.ranks.first[p]
        lows = [*reversed(spine[:p]), 0]
        for lo, hi in [(spine[p], spine[p] + 1), *zip(lows, [top, *lows])]:
            hit = cand >> lo & ((1 << (hi - lo)) - 1)
            if hit:
                v = lo + (hit & -hit).bit_length() - 1
                return list(dict.fromkeys((v, *spine[pos[v] : p + 1], w)))
        raise LogicError("free-routing search failed")
