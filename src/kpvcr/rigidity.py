"""Rigid-token machinery: H-regions, path classification, anchors, feeding.

A token is rigid when no sliding sequence ever moves it.  On caterpillars
rigidity reduces to a local case analysis: isolated vertices, leaves (rigid
iff the spine neighbor holds a rigid token once the leaf is deleted), and
spine vertices, where rigidity hinges on whether a token-free "double path"
region around u (an H-region) exists and whether any nearby movable token
can be fed into it.

The analysis recurses into subgraphs with tokens deleted, and never builds
them.  It works on one immutable index of the canonical input forest
(`_Index`): its canonical components, and where each vertex sits.  The
index is memoised on the forest object.  A subproblem (`_Sub`) is the spine
run [lo, hi] of one base component between deleted spine vertices, minus
the few deleted leaves inside it.  Its canonical form is arithmetic: a run
end left without leaves folds onto its neighbour as a leaf, so the spine
proper is [a, b].  Neighbours, distances, the H-region window scan and
anchors are all index arithmetic on that interval, and `(component, lo, hi,
deleted leaves, u)` keys the memo in O(1).  Whether a token can slide right
now is the shared `_kpaths.slide_ok` on the base component and the query's
token mask: every deleted vertex is a token, so the test's arm walk stops
where the subproblem's run ends and needs no subproblem bounds.  The feed
test walks the endpoint greedy from the region's edge outward on the
subproblem's own leaf counts (`cover._endpoint_pieces`, the walk `partition`
builds its pieces from) and counts tokens per piece from prefix sums.  The
token masks and prefix sums are the only token-dependent tables and live
for one rigidity query.  The recursion runs on an explicit stack: `_decide`
yields the subproblems it needs and a driver loop sends back their
verdicts.

The path classes P(G, I, u) behind the public `classify_k_paths` and
`find_h_regions` are filtered from `_kpaths._component_paths`, the one k-path
enumerator.

All entry points that answer rigidity questions require k >= 4; the feed
test is unsound for k = 3 (a movable anchor with a non-minimum side cover
can still be unable to enter the region), so k <= 3 gets a distinct error
instead of a silent approximation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Generator, Iterator

from ._kpaths import _component_paths, slide_ok
# partition stays importable from here: the traced benchmark wraps
# kpvcr.rigidity.partition by name
from .cover import TokenSet, _endpoint_pieces, partition  # noqa: F401
from .errors import InputError, LogicError, UnsupportedParameterError
from .graph import Caterpillar, CaterpillarForest, VertexId

KPath = tuple[VertexId, ...]


@dataclass(frozen=True)
class HRegion:
    vertices: frozenset[VertexId]
    witness_paths: tuple[KPath, KPath]
    spine_size: int


@dataclass(frozen=True)
class PathClassification:
    left: frozenset[KPath]
    right: frozenset[KPath]
    center: frozenset[KPath]

    @property
    def all_paths(self) -> frozenset[KPath]:
        return self.left | self.right | self.center


@dataclass(frozen=True)
class RigidDecision:
    rigid: bool
    tag: str  # lemma-1a | lemma-1b | 4a | 4b1 | 4b2 | 4b3 | 4b4 | movable

    def __bool__(self) -> bool:
        return self.rigid


@dataclass(frozen=True)
class RigidReport:
    rigid: frozenset[VertexId]
    rationale: dict[VertexId, str] = field(compare=False, hash=False, default_factory=dict)


_LEMMA_1A = RigidDecision(True, "lemma-1a")
_LEMMA_1B = RigidDecision(True, "lemma-1b")
_4A = RigidDecision(True, "4a")
_4B2 = RigidDecision(True, "4b2")
_4B3 = RigidDecision(True, "4b3")
_4B4 = RigidDecision(True, "4b4")
_MOVABLE = RigidDecision(False, "movable")

_NO_LEAVES: frozenset[VertexId] = frozenset()


# ---------------------------------------------------------------------------
# The index and its subproblems
# ---------------------------------------------------------------------------


class _Index:
    """The canonical form of a forest: its components, plus each vertex's
    (component, spine position, is a spine vertex)."""

    __slots__ = ("comps", "where")

    def __init__(self, forest: CaterpillarForest):
        self.comps = [raw._canonical for raw in forest.components]
        self.where: dict[VertexId, tuple[int, int, bool]] = {}
        for ci, comp in enumerate(self.comps):
            for i, (s, ls) in enumerate(zip(comp.spine, comp.leaves)):
                self.where[s] = (ci, i, True)
                for x in ls:
                    self.where[x] = (ci, i, False)

    def whole(self, u: VertexId) -> "_Sub":
        """The subproblem with nothing deleted: u's whole component."""
        got = self.where.get(u)
        if got is None:
            raise InputError(f"unknown vertex {u}")
        ci = got[0]
        return _Sub(self, ci, 0, len(self.comps[ci].spine) - 1, _NO_LEAVES)


def _index(forest: CaterpillarForest) -> _Index:
    """The forest's index, built once per forest object (as `_vcomp`)."""
    got = forest.__dict__.get("_rigidity_index")
    if got is None:
        got = _Index(forest)
        object.__setattr__(forest, "_rigidity_index", got)
    return got


class _Sub:
    """A subproblem: the component of the base spine run [lo, hi] of
    component ci, minus the deleted leaves `dl` inside that run, in
    canonical form.  Its spine proper is [a, b]; a run end without live
    leaves (lo < a or b < hi) is a leaf of a, respectively b."""

    __slots__ = ("index", "comp", "ci", "lo", "hi", "dl", "a", "b")

    def __init__(self, index: _Index, ci: int, lo: int, hi: int, dl: frozenset[VertexId]):
        self.index = index
        self.comp = index.comps[ci]
        self.ci, self.lo, self.hi, self.dl = ci, lo, hi, dl
        a, b = lo, hi
        if b > a and not self.live(a):
            a += 1
        if b > a and not self.live(b):
            b -= 1
        self.a, self.b = a, b

    def live(self, i: int) -> tuple[VertexId, ...]:
        """Base leaves at position i that are not deleted."""
        ls = self.comp.leaves[i]
        if self.dl:
            ls = tuple(x for x in ls if x not in self.dl)
        return ls

    def leaves(self, i: int) -> tuple[VertexId, ...]:
        """Leaves of spine position i (a <= i <= b), folded run ends included."""
        ls = self.live(i)
        if i == self.a and self.a > self.lo:
            ls = tuple(sorted(ls + (self.comp.spine[self.lo],)))
        if i == self.b and self.b < self.hi:
            ls = tuple(sorted(ls + (self.comp.spine[self.hi],)))
        return ls

    def locate(self, v: VertexId) -> tuple[int, bool]:
        """(spine position, is a leaf) of a vertex of this subproblem."""
        _, p, on_spine = self.index.where[v]
        if not on_spine:
            return p, True
        if p < self.a:
            return self.a, True
        if p > self.b:
            return self.b, True
        return p, False

    def neighbors(self, v: VertexId) -> tuple[VertexId, ...]:
        """Left spine, right spine, then leaves; a leaf's only neighbour is
        its spine vertex."""
        p, leaf = self.locate(v)
        spine = self.comp.spine
        if leaf:
            return (spine[p],)
        out: list[VertexId] = []
        if p > self.a:
            out.append(spine[p - 1])
        if p < self.b:
            out.append(spine[p + 1])
        out.extend(self.leaves(p))
        return tuple(out)

    def window(self, a: int, b: int) -> frozenset[VertexId]:
        out: list[VertexId] = []
        for i in range(a, b + 1):
            out.append(self.comp.spine[i])
            out.extend(self.leaves(i))
        return frozenset(out)

    def child(self, u: VertexId, v: VertexId) -> tuple | None:
        """Memo key of v's subproblem once u is deleted as well, or None
        when deleting u isolates v (v was a leaf of u)."""
        where = self.index.where
        _, pu, u_spine = where[u]
        if not u_spine:
            return (self.ci, self.lo, self.hi, self.dl | {u}, v)
        pv = where[v][1]
        if pv == pu:
            return None
        lo, hi = (self.lo, pu - 1) if pv < pu else (pu + 1, self.hi)
        dl = self.dl
        if dl:
            dl = frozenset(x for x in dl if lo <= where[x][1] <= hi)
        return (self.ci, lo, hi, dl, v)


def _whole_spine_vertex(forest: CaterpillarForest, tokens: TokenSet, u: VertexId) -> tuple[_Sub, int]:
    """Shared argument checks of the public per-token helpers."""
    tokens.validate_on(forest)
    sub = _index(forest).whole(u)
    if u not in tokens:
        raise InputError(f"{u} is not occupied")
    m, leaf = sub.locate(u)
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
    """The component's k-paths (`_kpaths._component_paths`) that end at u
    or at a free leaf of u and hold no token but u's.  `sub` is always a
    whole canonical component, so its k-paths are the component's; those
    ending at u or a leaf of u stay within k - 1 spine steps of u, so only
    that window of the spine is enumerated."""
    if k < 3:
        raise InputError("classification requires k >= 3")

    def ok(v: VertexId) -> bool:
        return v == u or (v not in occupied and (within is None or v in within))

    free_leaves = {x for x in sub.leaves(m) if ok(x)}
    ends = free_leaves | {u}
    left: list[KPath] = []
    right: list[KPath] = []
    center: list[KPath] = []
    spine = sub.comp.spine
    sl = spine[m - 1] if m > sub.a else None
    sr = spine[m + 1] if m < sub.b else None
    lo, hi = max(sub.a, m - k + 1), min(sub.b, m + k - 1)
    near = Caterpillar(spine[lo : hi + 1], sub.comp.leaves[lo : hi + 1])
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
    for a, b in _find_h_regions(sub, tokens.occupied, u, m, k):
        window = sub.window(a, b)
        witness = _h2_witness(_classify(sub, tokens.occupied, u, m, k, window), u, k)
        if witness is None:
            raise LogicError("H-region window without witness paths")
        out.append(HRegion(window, witness, b - a + 1))
    return tuple(out)


def _check_window(
    sub: _Sub,
    occupied: frozenset[VertexId],
    u: VertexId,
    m: int,
    k: int,
    a: int,
    b: int,
) -> bool:
    # (H.1): every non-u spine vertex of the window is token-free, leaves too
    spine = sub.comp.spine
    for i in range(a, b + 1):
        if i == m:
            continue
        if spine[i] in occupied:
            return False
        if any(x in occupied for x in sub.leaves(i)):
            return False
    # (H.2): two k-paths from u or a free leaf of u meeting only at u (or u
    # plus one shared leaf of u).  For k >= 4 no k-path stays on L[u], which
    # has 3 vertices at most, so one must run left and one right: u's free
    # arm to the window end, a leaf there and a free leaf of u in front
    # reach k vertices on both sides.  Listing the paths instead costs 20 %
    # more `kpvcr decide` time on the benchmark's decide-rigid set
    if k == 3:
        return _h2_witness(_classify(sub, occupied, u, m, k, sub.window(a, b)), u, k) is not None
    lead = 2 if any(x not in occupied for x in sub.leaves(m)) else 1
    return all(
        end != m and lead + abs(end - m) + (1 if sub.leaves(end) else 0) >= k
        for end in (a, b)
    )


def _h2_witness(
    cls: PathClassification, u: VertexId, k: int
) -> tuple[KPath, KPath] | None:
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
    if center:
        # all candidates stay on L[u]; forces k = 3 and needs 3 free leaves
        for p in center:
            for q in center:
                if p is q:
                    continue
                shared = set(p) & set(q)
                if shared == {u} or (len(shared) == 2 and u in shared):
                    return (p, q)
    return None


def _find_h_regions(
    sub: _Sub, occupied: frozenset[VertexId], u: VertexId, m: int, k: int
) -> tuple[tuple[int, int], ...]:
    """H-region windows (first, last spine position) around position m."""
    first, last = sub.a, sub.b
    a = max(first, m - (k - 3))
    b = min(last, m + (k - 3))
    limit = 2 * k - 1

    def probe(a: int, b: int) -> tuple[tuple[int, int], ...]:
        return ((a, b),) if _check_window(sub, occupied, u, m, k, a, b) else ()

    region = probe(a, b)
    if region:
        return region
    while True:
        has_l = a > first
        has_r = b < last
        if not has_l and not has_r:
            return ()
        found: tuple[tuple[int, int], ...] = ()
        if has_l and (b - (a - 1) + 1) <= limit:
            found += probe(a - 1, b)
        if has_r and ((b + 1) - a + 1) <= limit:
            found += probe(a, b + 1)
        if found:
            return found
        if has_l:
            a -= 1
        if has_r:
            b += 1
        if b - a + 1 > limit:
            return ()
        region = probe(a, b)
        if region:
            return region


# ---------------------------------------------------------------------------
# Anchors
# ---------------------------------------------------------------------------


def anchor_set(
    forest: CaterpillarForest, tokens: TokenSet, u: VertexId
) -> frozenset[VertexId]:
    """Occupied vertices v (not u, not leaves of u) within distance k of u
    whose connecting path carries no other token."""
    sub, m = _whole_spine_vertex(forest, tokens, u)
    return _anchor_set(sub, tokens.occupied, m, tokens.k)


def _anchor_set(
    sub: _Sub, occupied: frozenset[VertexId], m: int, k: int
) -> frozenset[VertexId]:
    spine = sub.comp.spine
    out: set[VertexId] = set()
    for step, end in ((-1, sub.a), (1, sub.b)):
        i = m
        while i != end:
            i += step
            d = abs(i - m)
            if d > k:
                break
            if spine[i] in occupied:
                out.add(spine[i])
                break  # anything further has an occupied interior
            if d + 1 <= k:
                out.update(x for x in sub.leaves(i) if x in occupied)
    return frozenset(out)


# ---------------------------------------------------------------------------
# The feed test and per-token rigidity
# ---------------------------------------------------------------------------


_Query = tuple | None  # a subproblem memo key, None for an isolated vertex


class _RigidityContext:
    """Shared memo for the rigidity recursion over vertex-deleted subgraphs.

    Keys are `(component, lo, hi, deleted leaves, u)`: a token's verdict
    only depends on its own component, so anchor chains reaching the same
    split share work.  The recursion always deletes one more token, so it
    terminates.  It runs on an explicit stack, as `is_rigid` drives the
    `_decide` generators.
    """

    def __init__(self, forest: CaterpillarForest, tokens: TokenSet):
        if tokens.k <= 3:
            raise UnsupportedParameterError(
                "rigidity analysis supports k >= 4 only (k = 3 is open)"
            )
        tokens.validate_on(forest)
        self.index = _index(forest)
        self.occupied = tokens.occupied
        self.k = tokens.k
        self._memo: dict[tuple, RigidDecision] = {}
        self._prefix: dict[int, list[int]] = {}
        self._masks: dict[int, int] = {}
        self._chains: dict[tuple, _CutChain] = {}

    def verdict(self, u: VertexId) -> RigidDecision:
        ci = self.index.where[u][0]
        return self.is_rigid((ci, 0, len(self.index.comps[ci].spine) - 1, _NO_LEAVES, u))

    def is_rigid(self, key: tuple) -> RigidDecision:
        stack = [(key, self._decide(key))]
        answer: RigidDecision | None = None
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
                stack.append((query, self._decide(query)))
        return answer

    def _decide(self, key: tuple) -> Generator[_Query, RigidDecision, RigidDecision]:
        ci, lo, hi, dl, u = key
        sub = _Sub(self.index, ci, lo, hi, dl)
        occ = self.occupied
        k = self.k
        nbrs = sub.neighbors(u)
        if not nbrs:
            return _LEMMA_1A
        m, leaf = sub.locate(u)
        if leaf:
            nbr = nbrs[0]
            if nbr in occ and (yield sub.child(u, nbr)).rigid:
                return _LEMMA_1B
            return _MOVABLE
        # spine vertex: a token with an immediately valid slide is movable
        for w in nbrs:
            if w not in occ and self.slide_ok(ci, m, w):
                return _MOVABLE
        if all(v in occ for v in nbrs):
            for v in nbrs:
                if not (yield sub.child(u, v)).rigid:
                    # N(u) fully occupied forces H(G,I,u) = Ø, so (b) cannot rescue
                    return _MOVABLE
            return _4A
        regions = _find_h_regions(sub, occ, u, m, k)
        if not regions:
            return _MOVABLE
        if len(regions) != 1:
            raise LogicError("two H-regions with k >= 4")
        wa, wb = regions[0]
        anchors = _anchor_set(sub, occ, m, k)
        if not anchors:
            return _4B2
        movable = []
        for v in sorted(anchors):
            if not (yield sub.child(u, v)).rigid:
                movable.append(v)
        if not movable:
            return _4B3
        if all(not self.can_feed(sub, m, wa, wb, v) for v in movable):
            return _4B4
        return _MOVABLE

    def can_feed(self, sub: _Sub, m: int, wa: int, wb: int, v: VertexId) -> bool:
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
        occ = self.occupied
        spine = sub.comp.spine
        pv, leaf = sub.locate(v)
        if wa <= pv <= wb:
            raise LogicError("anchor already inside the region")

        # normalize a leaf anchor onto the spine (always a valid slide: any
        # k-path through a leaf also passes its spine neighbor); the token
        # stays at the same spine position
        moved: tuple[tuple[int, int], ...] = ()
        if leaf and spine[pv] in occ:
            raise LogicError("leaf anchor with occupied spine neighbor")
        d = abs(pv - m)
        if d == k:
            # the only possible first move slides t_v one step toward u; when
            # that slide is immediately valid we take it, otherwise we leave
            # t_v in place and let the partition test decide whether the
            # k-path it would uncover can be pre-covered from behind
            pw = pv + (1 if m > pv else -1)
            if spine[pw] in occ:
                raise LogicError("anchor interior occupied")
            if self.slide_ok(sub.ci, pv, spine[pw]):
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
        chain = self.chain(sub, step)
        pieces = chain.pieces(start)
        first = next(pieces, None)
        if first is None:
            # H_v has no k-path; a token there can walk straight toward H
            return chain.tokens(start, end, moved) > 0
        # positional sanity check: v lies in the first piece and is not its
        # representative.  It presumes no occupied leaf hangs off the
        # interior of P_uv, so skip it when one does
        if d <= k - 1:
            interior = range(min(m, pv) + 1, max(m, pv))
            interior_clear = not any(x in occ for i in interior for x in sub.leaves(i))
            near, far, rep = first
            if interior_clear and (pv == rep or not min(near, far) <= pv <= max(near, far)):
                raise LogicError("anchor not positioned in T_1 as expected")
        # pieces holding the slid token are counted here; from the first
        # piece past it on, the answer is the subproblem's own and shared
        for near, far, _ in itertools.chain((first,), pieces):
            if all((p - near) * step < 0 for p, _ in moved):
                return chain.doubled_from(near)
            if chain.tokens(near, far, moved) >= 2:
                return True
        return False

    def slide_ok(self, ci: int, m: int, w: VertexId) -> bool:
        """`_kpaths.slide_ok` on base component ci and the query's tokens
        there; it answers for every subproblem of ci (see the module
        docstring)."""
        ranks = self.index.comps[ci]._ranks
        mask = self._masks.get(ci)
        if mask is None:
            mask = self._masks[ci] = ranks.mask_of(v for v in ranks.order if v in self.occupied)
        return slide_ok(ranks, mask, m, ranks.rank[w], self.k)

    def chain(self, sub: _Sub, step: int) -> "_CutChain":
        """The subproblem's cut chain toward its spine end in direction
        step.  Subproblems sharing that end and their deleted leaves share
        it, with its memo.  Without that, each feed test walks to the far
        end and rigid_set turns quadratic: on the minimum cover at n = 8000
        of scripts/benchmark_scaling.py half of the 2,423 chain walks are
        answered by their first memo lookup, 3,452 pieces are counted
        instead of 1,866,327, and the call takes 0.39 s instead of 4.85 s
        (Python 3.11, one CPU)."""
        far = (sub.a, sub.lo) if step < 0 else (sub.b, sub.hi)
        key = (sub.ci, step, far, sub.dl)
        got = self._chains.get(key)
        if got is None:
            got = self._chains[key] = _CutChain(sub, step, self.k, self.prefix(sub.ci))
        return got

    def prefix(self, ci: int) -> list[int]:
        """Tokens on base spine positions 0..i-1 of component ci, leaves
        included."""
        got = self._prefix.get(ci)
        if got is None:
            comp = self.index.comps[ci]
            occ = self.occupied
            got = [0]
            for s, ls in zip(comp.spine, comp.leaves):
                got.append(got[-1] + (s in occ) + sum(x in occ for x in ls))
            self._prefix[ci] = got
        return got


class _CutChain:
    """The endpoint greedy of cover.partition on a subproblem's spine,
    scanning by `step` toward its spine end and rooted there: the walk of
    `cover._endpoint_pieces` on the subproblem's leaf counts.

    It serves starts short of the subproblem's other spine end, so only
    the far end matters: whether a run end folds in there, and the deleted
    leaves.  Token counts come from the base prefix sums minus the deleted
    leaves, which all carry tokens.  Pieces from a given start always form
    the same chain, so whether one of them holds two tokens is memoised per
    start.
    """

    __slots__ = ("live", "where", "dl", "end", "raw_end", "step", "k", "prefix", "_doubled")

    def __init__(self, sub: _Sub, step: int, k: int, prefix: list[int]):
        self.live, self.where, self.dl = sub.live, sub.index.where, sub.dl
        self.step, self.k, self.prefix = step, k, prefix
        # the far spine end, and the run end folded onto it as a leaf (or
        # the end itself)
        self.end, self.raw_end = (sub.a, sub.lo) if step < 0 else (sub.b, sub.hi)
        self._doubled: dict[int, bool] = {}

    def leaves(self, p: int) -> int:
        """Leaves at spine position p, the run end folded onto the far end
        included."""
        return len(self.live(p)) + (p == self.end != self.raw_end)

    def pieces(self, start: int) -> Iterator[tuple[int, int, int]]:
        """(near, far, cut) spine positions of each piece from a fresh start,
        in cut order; the last piece also takes the live run after its cut,
        up to the end."""
        return _endpoint_pieces(self.leaves, start, self.step, self.k, self.end)

    def doubled_from(self, start: int) -> bool:
        """Does a piece from `start` (which has a first cut) hold two or
        more tokens?"""
        memo = self._doubled
        passed: list[int] = []
        for near, far, _ in self.pieces(start):
            if near in memo:
                found = memo[near]
                break
            if self.tokens(near, far) >= 2:
                found = memo[near] = True
                break
            passed.append(near)
        else:
            found = False
        for near in passed:
            memo[near] = found
        return found

    def tokens(self, x: int, y: int, moved: tuple[tuple[int, int], ...] = ()) -> int:
        """Tokens on spine positions x..y, in either order, and their leaves,
        after the (position, +-1) changes in `moved`."""
        x, y = min(x, y), max(x, y)
        rx, ry = x, y
        if self.end in (x, y):  # the folded run end counts with the end
            rx, ry = min(rx, self.raw_end), max(ry, self.raw_end)
        n = self.prefix[ry + 1] - self.prefix[rx]
        n -= sum(1 for v in self.dl if rx <= self.where[v][1] <= ry)
        n += sum(delta for p, delta in moved if x <= p <= y)
        return n


def can_feed_region(
    forest: CaterpillarForest,
    tokens: TokenSet,
    u: VertexId,
    region: HRegion,
    v: VertexId,
) -> bool:
    ctx = _RigidityContext(forest, tokens)
    sub = ctx.index.whole(u)
    m = sub.locate(u)[0]
    window = [sub.locate(x)[0] for x in region.vertices]
    return ctx.can_feed(sub, m, min(window), max(window), v)


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
