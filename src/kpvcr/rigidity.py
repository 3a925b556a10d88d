"""Rigid-token machinery: H-regions, path classification, anchors, feeding.

A token is rigid when no sliding sequence ever moves it.  On caterpillars
rigidity reduces to a local case analysis: isolated vertices, leaves (rigid
iff the spine neighbor holds a rigid token once the leaf is deleted), and
spine vertices, where rigidity hinges on whether a token-free "double path"
region around u (an H-region) exists and whether any nearby movable token
can be fed into it.

The analysis recurses into subgraphs with tokens deleted, and never builds
them.  It works on each input component as the forest holds it, through
that component's one vertex table, its routing ranks (`graph.Ranks`):
vertices are ranks and vertex sets are ints over them.  A subproblem
(`_Sub`) is the spine run [lo, hi] of one component between deleted spine
vertices, minus the deleted leaves inside it, a rank mask; the whole
component is the run [0, len - 1].  The canonical form is arithmetic on
`_Sub` and nowhere else: a run end left without leaves folds onto its
neighbour as a leaf, so the spine proper is [a, b], and `leaves`, `count`
and `span` hand the folded end to its neighbour.  Neighbours, the H-region
window scan and anchors are index arithmetic and mask tests on that
interval, and `(ranks, lo, hi, deleted leaves, u)` keys the memo in O(1).

The query's tokens on a component are one int over its ranks, built once
per query; it is the only token-dependent table.  Whether a token can slide
right now is the shared `_kpaths.slide_ok` on that int: every deleted
vertex is a token, so the test's arm walk stops where the subproblem's run
ends and needs no subproblem bounds.  The feed test walks the endpoint
greedy from the region's edge outward on the subproblem's leaf counts
(`cover._endpoint_pieces` over `_Sub.count`, the walk `partition` builds
its pieces from) and counts each piece's tokens as a popcount of `span`.
The recursion runs on an explicit stack: `_decide` returns the verdicts
its first rule settles (100,260 of the 123,597 decisions on the sweep
benchmark's family), and otherwise the rest of the rule chain as a
generator, which yields the subproblems it needs to `is_rigid`'s loop.

The public per-token helpers take vertex ids and work on a whole
component.  The H-region window test is arm-length arithmetic for every
k >= 3.  The path classes P(G, I, u) are listed only by `classify_k_paths`
and to build the witness paths of a window `find_h_regions` has already
found, filtered from `_kpaths._component_paths`, the one k-path enumerator.

All entry points that answer rigidity questions require k >= 4; the feed
test is unsound for k = 3 (a movable anchor with a non-minimum side cover
can still be unable to enter the region), so k <= 3 gets a distinct error
instead of a silent approximation.
"""

from __future__ import annotations

import itertools
from collections.abc import Generator

from ._kpaths import _component_paths, slide_ok
# partition stays importable from here: the traced benchmark wraps
# kpvcr.rigidity.partition by name
from .cover import TokenSet, _endpoint_pieces, partition  # noqa: F401
from .errors import InputError, LogicError, UnsupportedParameterError
from .graph import Caterpillar, CaterpillarForest, Ranks, Record, VertexId, _set

KPath = tuple[VertexId, ...]


class HRegion(Record):
    _fields = ("vertices", "witness_paths", "spine_size")

    def __init__(
        self, vertices: frozenset[VertexId], witness_paths: tuple[KPath, KPath], spine_size: int
    ) -> None:
        self._init(vertices, witness_paths, spine_size)


class PathClassification(Record):
    _fields = ("left", "right", "center")

    def __init__(
        self, left: frozenset[KPath], right: frozenset[KPath], center: frozenset[KPath]
    ) -> None:
        self._init(left, right, center)


class RigidDecision(Record):
    _fields = ("rigid", "tag")

    def __init__(self, rigid: bool, tag: str) -> None:
        # lemma-1a | lemma-1b | 4a | 4b2 | 4b3 | 4b4 | movable; case
        # 4(b)(1), no H-region, answers movable
        self._init(rigid, tag)

    def __bool__(self) -> bool:
        return self.rigid


class RigidReport(Record):
    _fields = ("rigid", "rationale")
    _compared = ("rigid",)  # each token's tag is shown, never compared

    def __init__(
        self, rigid: frozenset[VertexId], rationale: dict[VertexId, str] | None = None
    ) -> None:
        _set(self, "rigid", rigid)  # one per rigid_set call
        _set(self, "rationale", {} if rationale is None else rationale)


_LEMMA_1A = RigidDecision(True, "lemma-1a")
_LEMMA_1B = RigidDecision(True, "lemma-1b")
_4A = RigidDecision(True, "4a")
_4B2 = RigidDecision(True, "4b2")
_4B3 = RigidDecision(True, "4b3")
_4B4 = RigidDecision(True, "4b4")
_MOVABLE = RigidDecision(False, "movable")


# ---------------------------------------------------------------------------
# Subproblems over a component's ranks
# ---------------------------------------------------------------------------


def _bits(x: int, lo: int, hi: int) -> int:
    """The bits of x at ranks lo..hi - 1, shifted down to bit 0."""
    return x >> lo & ((1 << (hi - lo)) - 1)


class _Sub:
    """A subproblem: the component of the base spine run [lo, hi] of a
    component, minus the deleted leaves `dl` (a rank mask) inside that run,
    in canonical form.  Its spine proper is [a, b]; a run end without live
    leaves (lo < a or b < hi) is a leaf of a, respectively b.  `occ` holds
    the tokens on the whole component, `tok` those on the subproblem's
    vertices."""

    __slots__ = ("ranks", "lo", "hi", "dl", "occ", "tok", "a", "b")

    def __init__(self, ranks: Ranks, lo: int, hi: int, dl: int, occ: int):
        self.ranks, self.lo, self.hi, self.dl, self.occ = ranks, lo, hi, dl, occ
        self.tok = occ & ~dl if dl else occ
        a, b = lo, hi
        if b > a and not self.live(a):
            a += 1
        if b > a and not self.live(b):
            b -= 1
        self.a, self.b = a, b

    def live(self, i: int) -> int:
        """The number of base leaves at position i that are not deleted."""
        first, spine = self.ranks.first[i], self.ranks.spine[i]
        n = spine - first
        if self.dl and n:
            n -= _bits(self.dl, first, spine).bit_count()
        return n

    def count(self, i: int) -> int:
        """The number of leaves of spine position i (a <= i <= b), the run
        ends folded onto it included."""
        return self.live(i) + (i == self.a > self.lo) + (i == self.b < self.hi)

    def leaves(self, i: int) -> list[int]:
        """Leaves of spine position i (a <= i <= b), the run ends folded
        onto it included, in vertex id order."""
        first, spine = self.ranks.first[i], self.ranks.spine[i]
        out = list(range(first, spine))
        if self.dl:
            dead = _bits(self.dl, first, spine)
            out = [x for x in out if not dead >> (x - first) & 1]
        if i == self.a > self.lo or i == self.b < self.hi:
            ends = ((self.lo, self.a), (self.hi, self.b))
            out += [self.ranks.spine[e] for e, p in ends if e != p == i]
            out.sort(key=self.ranks.order.__getitem__)
        return out

    def locate(self, v: int) -> tuple[int, bool]:
        """(spine position, is a leaf) of a vertex of this subproblem."""
        ranks = self.ranks
        p = ranks.pos[v]
        if ranks.spine[p] != v:
            return p, True
        if p < self.a:
            return self.a, True
        if p > self.b:
            return self.b, True
        return p, False

    def neighbors(self, m: int) -> list[int]:
        """Of the spine vertex at position m: left spine, right spine, then
        leaves."""
        spine = self.ranks.spine
        out = []
        if m > self.a:
            out.append(spine[m - 1])
        if m < self.b:
            out.append(spine[m + 1])
        out.extend(self.leaves(m))
        return out

    def rank_range(self, i: int, j: int) -> tuple[int, int]:
        """The ranks lo..hi - 1 of spine positions i..j (i <= j), their
        leaves and the run ends folded onto them."""
        if i == self.a:
            i = self.lo
        if j == self.b:
            j = self.hi
        return self.ranks.first[i], self.ranks.spine[j] + 1

    def span(self, i: int, j: int) -> int:
        """The tokens on `rank_range(i, j)`, shifted down to bit 0 (0 when
        i > j)."""
        return _bits(self.tok, *self.rank_range(i, j)) if i <= j else 0

    def child(self, u: int, v: int) -> tuple | None:
        """Memo key of v's subproblem once u is deleted as well, or None
        when deleting u isolates v (v was a leaf of u)."""
        ranks = self.ranks
        pu = ranks.pos[u]
        if ranks.spine[pu] != u:
            return (ranks, self.lo, self.hi, self.dl | 1 << u, v)
        pv = self.locate(v)[0]
        if pv == pu:
            return None
        lo, hi = (self.lo, pu - 1) if pv < pu else (pu + 1, self.hi)
        dl = self.dl
        if dl:
            dl &= (1 << (ranks.spine[hi] + 1)) - (1 << ranks.first[lo])
        return (ranks, lo, hi, dl, v)


def _whole_spine_vertex(
    forest: CaterpillarForest, tokens: TokenSet, u: VertexId
) -> tuple[_Sub, int]:
    """Shared argument checks of the public per-token helpers: u's
    component as a subproblem, and u's spine position there."""
    tokens.validate_on(forest)
    ranks = forest.component_of(u)._ranks
    if u not in tokens:
        raise InputError(f"{u} is not occupied")
    occ = ranks.mask_of(v for v in tokens.occupied if v in ranks.rank)
    sub = _Sub(ranks, 0, len(ranks.spine) - 1, 0, occ)
    m, leaf = sub.locate(ranks.rank[u])
    if leaf:
        raise InputError(f"{u} is a leaf, not a spine vertex")
    return sub, m


# ---------------------------------------------------------------------------
# Path classification (Definition of P(G, I, u) and its l / r / c split)
# ---------------------------------------------------------------------------


def classify_k_paths(
    forest: CaterpillarForest,
    tokens: TokenSet,
    u: VertexId,
    within: frozenset[VertexId] | None = None,
) -> PathClassification:
    """All k-paths with u or a free leaf of u as an endpoint and no occupied
    vertex besides u, split by whether they run left, right, or stay on
    L[u].  `within` restricts the search to an induced subgraph (the
    H-region search evaluates candidates this way)."""
    sub, m = _whole_spine_vertex(forest, tokens, u)
    return _classify(sub, tokens.occupied, u, m, tokens.k, within)


def _classify(
    sub: _Sub,
    occupied: frozenset[VertexId],
    u: VertexId,
    m: int,
    k: int,
    within: frozenset[VertexId] | None = None,
) -> PathClassification:
    """The k-paths (`_kpaths._component_paths`) of the subproblem `sub`
    that end at u, on spine position m, or at a free leaf of u and hold no
    token but u's.  Those stay within k - 1 spine steps of u, so only that
    window of the spine is enumerated."""
    if k < 3:
        raise InputError("classification requires k >= 3")

    def ok(v: VertexId) -> bool:
        return v == u or (v not in occupied and (within is None or v in within))

    order, spine = sub.ranks.order, sub.ranks.spine
    free_leaves = {order[x] for x in sub.leaves(m) if ok(order[x])}
    ends = free_leaves | {u}
    left: list[KPath] = []
    right: list[KPath] = []
    center: list[KPath] = []
    sl = order[spine[m - 1]] if m > sub.a else None
    sr = order[spine[m + 1]] if m < sub.b else None
    run = range(max(sub.a, m - k + 1), min(sub.b, m + k - 1) + 1)
    near = Caterpillar(
        tuple(order[spine[i]] for i in run),
        tuple(tuple(order[x] for x in sub.leaves(i)) for i in run),
    )
    for p in _component_paths(near, k):
        if (p[0] in ends or p[-1] in ends) and all(ok(v) for v in p):
            p = _orient(p, u, free_leaves)
            if sl is not None and sl in p:
                left.append(p)
            elif sr is not None and sr in p:
                right.append(p)
            else:
                center.append(p)
    return PathClassification(frozenset(left), frozenset(right), frozenset(center))


def _orient(path: KPath, u: VertexId, leaves: set[VertexId]) -> KPath:
    """Canonical orientation: start at u or a leaf of u; ties by smaller end."""
    a, b = path[0], path[-1]
    a_ok = a == u or a in leaves
    b_ok = b == u or b in leaves
    if a_ok and b_ok:
        return path if a <= b else path[::-1]
    if a_ok:
        return path
    return path[::-1]


# ---------------------------------------------------------------------------
# H-region search (widening schedule from the region-finding lemma)
# ---------------------------------------------------------------------------


def find_h_regions(
    forest: CaterpillarForest, tokens: TokenSet, u: VertexId
) -> tuple[HRegion, ...]:
    sub, m = _whole_spine_vertex(forest, tokens, u)
    k = tokens.k
    if k < 3:
        raise InputError("H-regions require k >= 3")
    out = []
    for a, b in _find_h_regions(sub, m, k):
        window = frozenset(sub.ranks.order[slice(*sub.rank_range(a, b))])
        paths = _h2_witness(_classify(sub, tokens.occupied, u, m, k, window))
        if paths is None:
            raise LogicError("H-region window without witness paths")
        out.append(HRegion(window, paths, b - a + 1))
    return tuple(out)


def _check_window(sub: _Sub, m: int, k: int, a: int, b: int) -> bool:
    # (H.1): every non-u spine vertex of the window is token-free, leaves too
    if sub.span(a, m - 1) or sub.span(m + 1, b):
        return False
    # (H.2): two k-paths from u or a free leaf of u meeting only at u (or u
    # plus one shared leaf of u).  A side passes when u's free arm to the
    # window end, a leaf there and a free leaf of u in front reach k
    # vertices.  For k >= 4 no k-path stays on L[u], which has 3 vertices
    # at most, so both sides must pass.  For k = 3 each pair of free leaves
    # of u gives a leaf-u-leaf path, and two distinct ones share u and one
    # leaf at most: 3 free leaves suffice, and 2 need one passing side
    leaves = sub.leaves(m)
    if k == 3:
        leaves = [x for x in leaves if not sub.occ >> x & 1]
        if len(leaves) >= 3:
            return True
    lead = 2 if any(not sub.occ >> x & 1 for x in leaves) else 1
    sides = (
        end != m and lead + abs(end - m) + (1 if sub.leaves(end) else 0) >= k
        for end in (a, b)
    )
    return any(sides) if k == 3 and len(leaves) == 2 else all(sides)


def _h2_witness(cls: PathClassification) -> tuple[KPath, KPath] | None:
    """Pick two k-paths meeting only at u (or u plus one shared leaf of u)."""
    left = sorted(cls.left)
    right = sorted(cls.right)
    center = sorted(cls.center)
    if left and right:
        return (left[0], right[0])
    if left and center:
        return (left[0], center[0])
    if right and center:
        return (center[0], right[0])
    if len(center) >= 2:
        # all candidates stay on L[u], which forces k = 3: two distinct
        # leaf-u-leaf paths share u and at most one leaf
        return (center[0], center[1])
    return None


def _find_h_regions(sub: _Sub, m: int, k: int) -> tuple[tuple[int, int], ...]:
    """H-region windows (first, last spine position) around position m.

    Probes the start window of at most 2k - 5 positions, then the windows
    one position wider on the left and on the right (both are returned
    when both pass), then the window widened on each side that can grow,
    and so on while a window has at most 2k - 1 positions."""
    first, last = sub.a, sub.b
    a, b = max(first, m - (k - 3)), min(last, m + (k - 3))
    while True:
        if _check_window(sub, m, k, a, b):
            return ((a, b),)
        has_l, has_r = a > first, b < last
        if b - a >= 2 * k - 2 or not (has_l or has_r):
            return ()
        left = has_l and _check_window(sub, m, k, a - 1, b)
        right = has_r and _check_window(sub, m, k, a, b + 1)
        if left or right:
            return ((a - 1, b),) * left + ((a, b + 1),) * right
        a, b = a - has_l, b + has_r
        if b - a > 2 * k - 2:
            return ()


# ---------------------------------------------------------------------------
# Anchors
# ---------------------------------------------------------------------------


def anchor_set(
    forest: CaterpillarForest, tokens: TokenSet, u: VertexId
) -> frozenset[VertexId]:
    """Occupied vertices v (not u, not leaves of u) within distance k of u
    whose connecting path carries no other token."""
    sub, m = _whole_spine_vertex(forest, tokens, u)
    return frozenset(sub.ranks.order[v] for v in _anchors(sub, m, tokens.k))


def _anchors(sub: _Sub, m: int, k: int) -> list[int]:
    """The anchor set of the spine token at position m, in vertex id
    order."""
    spine = sub.ranks.spine
    tok = sub.tok
    out: list[int] = []
    for step, end in ((-1, sub.a), (1, sub.b)):
        i = m
        while i != end:
            i += step
            d = abs(i - m)
            if d > k:
                break
            if tok >> spine[i] & 1:
                out.append(spine[i])
                break  # anything further has an occupied interior
            if d + 1 <= k:
                out.extend(x for x in sub.leaves(i) if tok >> x & 1)
    return sorted(out, key=sub.ranks.order.__getitem__)


# ---------------------------------------------------------------------------
# The feed test and per-token rigidity
# ---------------------------------------------------------------------------


_Query = tuple | None  # a subproblem memo key, None for an isolated vertex
_Rest = Generator[_Query, RigidDecision, RigidDecision]


class _RigidityContext:
    """Shared memo for the rigidity recursion over vertex-deleted subgraphs.

    Keys are `(ranks, lo, hi, deleted leaves, u)`: a token's verdict only
    depends on its own component, so anchor chains reaching the same split
    share work, and all tokens of a `(ranks, lo, hi, deleted leaves)` share
    one `_Sub`; both live as long as the query.  The recursion always
    deletes one more token, so it terminates.  It runs on an explicit
    stack, as `is_rigid` drives the generators `_decide` returns.
    """

    def __init__(self, forest: CaterpillarForest, tokens: TokenSet):
        if tokens.k <= 3:
            raise UnsupportedParameterError(
                "rigidity analysis supports k >= 4 only (k = 3 is open)"
            )
        self.forest = forest
        self.k = tokens.k
        self._memo: dict[tuple, RigidDecision] = {}
        self._subs: dict[tuple, _Sub] = {}
        self._doubled: dict[tuple, dict[int, bool]] = {}
        # the tokens grouped by component, in one pass that also validates them
        groups: dict[Ranks, list[VertexId]] = {}
        for v in tokens.occupied:
            comp = forest._component.get(v)
            if comp is None:
                raise InputError(f"token on unknown vertex {v}")
            groups.setdefault(comp._ranks, []).append(v)
        self._masks = {ranks: ranks.mask_of(vs) for ranks, vs in groups.items()}

    def mask(self, ranks: Ranks) -> int:
        """The query's tokens on one component."""
        return self._masks.get(ranks, 0)

    def verdict(self, u: VertexId) -> RigidDecision:
        ranks = self.forest._component[u]._ranks  # u is a validated token
        return self.is_rigid((ranks, 0, len(ranks.spine) - 1, 0, ranks.rank[u]))

    def is_rigid(self, key: tuple) -> RigidDecision:
        answer = self._decide(key)
        if answer.__class__ is RigidDecision:
            return answer
        stack = [(key, answer)]
        answer = None
        while stack:
            top, gen = stack[-1]
            try:
                query = gen.send(answer)
            except StopIteration as done:
                stack.pop()
                answer = self._memo[top] = done.value
                continue
            if query is None:
                answer = _LEMMA_1A
                continue
            answer = self._memo.get(query)
            if answer is None:
                answer = self._decide(query)
                if answer.__class__ is RigidDecision:
                    self._memo[query] = answer
                else:
                    stack.append((query, answer))
                    answer = None
        return answer

    def _decide(self, key: tuple) -> RigidDecision | _Rest:
        """The verdict on token u of the subproblem `key` when it needs no
        smaller subproblem: u is a leaf whose spine neighbour is free, or a
        spine vertex without neighbours or with an immediately valid slide.
        Otherwise the rest of the rule chain, a generator for `is_rigid`."""
        ranks, lo, hi, dl, u = key
        sub = self._subs.get(key[:4])
        if sub is None:
            sub = self._subs[key[:4]] = _Sub(ranks, lo, hi, dl, self.mask(ranks))
        m, leaf = sub.locate(u)
        if leaf:
            nbr = ranks.spine[m]
            return self._leaf(sub, u, nbr) if sub.tok >> nbr & 1 else _MOVABLE
        nbrs = sub.neighbors(m)
        if not nbrs:
            return _LEMMA_1A
        # spine vertex: a token with an immediately valid slide is movable
        for w in nbrs:
            if not sub.tok >> w & 1 and slide_ok(ranks, sub.occ, m, w, self.k):
                return _MOVABLE
        return self._spine(sub, u, m, nbrs)

    def _leaf(self, sub: _Sub, u: int, nbr: int) -> _Rest:
        return _LEMMA_1B if (yield sub.child(u, nbr)).rigid else _MOVABLE

    def _spine(self, sub: _Sub, u: int, m: int, nbrs: list[int]) -> _Rest:
        tok = sub.tok
        k = self.k
        if all(tok >> v & 1 for v in nbrs):
            for v in nbrs:
                if not (yield sub.child(u, v)).rigid:
                    # N(u) fully occupied forces H(G,I,u) = Ø, so (b) cannot rescue
                    return _MOVABLE
            return _4A
        regions = _find_h_regions(sub, m, k)
        if not regions:
            return _MOVABLE
        if len(regions) != 1:
            raise LogicError("two H-regions with k >= 4")
        wa, wb = regions[0]
        anchors = _anchors(sub, m, k)
        if not anchors:
            return _4B2
        movable = []
        for v in anchors:
            if not (yield sub.child(u, v)).rigid:
                movable.append(v)
        if not movable:
            return _4B3
        if all(not self.can_feed(sub, m, wa, wb, v) for v in movable):
            return _4B4
        return _MOVABLE

    def can_feed(self, sub: _Sub, m: int, wa: int, wb: int, v: int) -> bool:
        """The feed test: can t_v (or a token on a leaf of v) enter the
        H-region, spine positions wa..wb around u at m, in G-u?

        Normalizes v onto the spine and to distance <= k-1, then partitions
        H_v, the part of G-u on v's side beyond the region, with the
        endpoint greedy rooted at the far spine end.  Every piece of that
        partition holds a k-path, so a valid cover places a token in each
        one; some piece carries two or more tokens exactly when the token
        count in H_v exceeds its psi.
        """
        k = self.k
        ranks = sub.ranks
        spine, first = ranks.spine, ranks.first
        occ = sub.occ
        pv, leaf = sub.locate(v)
        if wa <= pv <= wb:
            raise LogicError("anchor already inside the region")

        # normalize a leaf anchor onto the spine (always a valid slide: any
        # k-path through a leaf also passes its spine neighbor); the token
        # stays at the same spine position
        moved: tuple[tuple[int, int], ...] = ()
        if leaf and occ >> spine[pv] & 1:
            raise LogicError("leaf anchor with occupied spine neighbor")
        d = abs(pv - m)
        if d == k:
            # the only possible first move slides t_v one step toward u; when
            # that slide is immediately valid we take it, otherwise we leave
            # t_v in place and let the partition test decide whether the
            # k-path it would uncover can be pre-covered from behind
            pw = pv + (1 if m > pv else -1)
            if occ >> spine[pw] & 1:
                raise LogicError("anchor interior occupied")
            if slide_ok(ranks, occ, pv, spine[pw], k):
                moved = ((pv, -1), (pw, 1))
                pv = pw
                if wa <= pv <= wb:
                    return True
                d = k - 1
        if not (k - 2 <= d <= k):
            raise LogicError(f"anchor at unexpected distance {d}")

        # H_v: spine positions from the region's edge out to the far end
        if pv < m:
            edge, end, step = wa, sub.a, -1
        else:
            edge, end, step = wb, sub.b, 1
        if edge == m:
            return False  # the region has no vertex on v's side
        start = edge + step
        pieces = _endpoint_pieces(sub.count, start, step, k, end)
        head = next(pieces, None)
        if head is None:
            # H_v has no k-path; a token there can walk straight toward H
            return _tokens(sub, start, end, moved) > 0
        # positional sanity check: v lies in the first piece and is not its
        # representative.  It presumes no occupied leaf hangs off the
        # interior of P_uv, so skip it when one does
        if d <= k - 1:
            interior = range(min(m, pv) + 1, max(m, pv))
            interior_clear = not any(_bits(sub.tok, first[i], spine[i]) for i in interior)
            near, far, rep = head
            if interior_clear and (pv == rep or not min(near, far) <= pv <= max(near, far)):
                raise LogicError("anchor not positioned in T_1 as expected")
        # pieces holding the slid token are counted here; from the first
        # piece past it on, the answer is the subproblem's own and shared
        for near, far, _ in itertools.chain((head,), pieces):
            if all((p - near) * step < 0 for p, _ in moved):
                return self.doubled_from(sub, near, step)
            if _tokens(sub, near, far, moved) >= 2:
                return True
        return False

    def doubled_from(self, sub: _Sub, start: int, step: int) -> bool:
        """Does a piece of the endpoint greedy on the subproblem's spine,
        from `start` (which has a first cut) toward its spine end in
        direction step, hold two or more tokens?

        Starts lie short of the other spine end, so the pieces from a start
        depend only on the far end, the run end folded onto it and the
        deleted leaves.  Subproblems sharing those share one memo of the
        answer per start.  Without it each feed test walks to the far end
        and rigid_set turns quadratic: on the minimum cover at n = 8000 of
        scripts/benchmark_scaling.py half of the 2,423 chain walks are
        answered by their first memo lookup, 3,452 pieces are counted
        instead of 1,866,327, and the call takes 0.39 s instead of 4.85 s
        (Python 3.11, one CPU)."""
        end, raw_end = (sub.a, sub.lo) if step < 0 else (sub.b, sub.hi)
        key = (sub.ranks, step, end, raw_end, sub.dl)
        memo = self._doubled.get(key)
        if memo is None:
            memo = self._doubled[key] = {}
        passed: list[int] = []
        for near, far, _ in _endpoint_pieces(sub.count, start, step, self.k, end):
            if near in memo:
                found = memo[near]
                break
            if _tokens(sub, near, far) >= 2:
                found = memo[near] = True
                break
            passed.append(near)
        else:
            found = False
        for near in passed:
            memo[near] = found
        return found


def _tokens(sub: _Sub, x: int, y: int, moved: tuple[tuple[int, int], ...] = ()) -> int:
    """Tokens on spine positions x..y, in either order, and their leaves,
    after the (position, +-1) changes in `moved`."""
    x, y = min(x, y), max(x, y)
    return sub.span(x, y).bit_count() + sum(delta for p, delta in moved if x <= p <= y)


def can_feed_region(
    forest: CaterpillarForest,
    tokens: TokenSet,
    u: VertexId,
    region: HRegion,
    v: VertexId,
) -> bool:
    ctx = _RigidityContext(forest, tokens)
    sub, m = _whole_spine_vertex(forest, tokens, u)
    rank = sub.ranks.rank
    if v not in tokens or v not in rank:
        raise InputError(f"{v} is not occupied in the component of {u}")
    if u not in region.vertices or not rank.keys() >= region.vertices:
        raise InputError(f"the region is not a window around {u} in its component")
    window = [sub.locate(rank[x])[0] for x in region.vertices]
    return ctx.can_feed(sub, m, min(window), max(window), rank[v])


def is_rigid(forest: CaterpillarForest, tokens: TokenSet, u: VertexId) -> RigidDecision:
    if u not in tokens:
        raise InputError(f"{u} is not occupied")
    return _RigidityContext(forest, tokens).verdict(u)


def rigid_set(forest: CaterpillarForest, tokens: TokenSet) -> RigidReport:
    ctx = _RigidityContext(forest, tokens)
    rationale: dict[VertexId, str] = {}
    rigid: set[VertexId] = set()
    for u in sorted(tokens.occupied):
        decision = ctx.verdict(u)
        rationale[u] = decision.tag
        if decision.rigid:
            rigid.add(u)
    return RigidReport(frozenset(rigid), rationale)
