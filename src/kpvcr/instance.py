"""Instance and witness file formats, the witness checker, and DOT export.

Line-oriented grammar, `#` starts a comment, blank lines ignored:

    kpvcr 1
    k 4
    spine 5
    leaves 1=2 3=3 5=2
    start s1 s3 l3.1
    target s1 s3 l3.2

`leaves` is optional; every other directive appears exactly once.  Both
covers are validated on load, on the forest the parsed instance then hands
out.  An instance may have at most MAX_VERTICES vertices (spine plus
leaves), checked before any vertex is built.  Parse failures carry a stable
error code (syntax, unknown-vertex, duplicate-directive, invalid-cover,
too-large) and the line.

A witness is a `TsSequence` of slides, checked by `validate_sequence`.
The checker reads only `cover` and `graph`: it is independent of the
planner that builds witnesses and of the rigidity engine, and
`kpvcr check` loads neither.
"""

from __future__ import annotations

from functools import cached_property

from .cover import TokenSet, is_kpvc
from .errors import InputError, InstanceFormatError
from .graph import CaterpillarForest, Ranks, Record, VertexId, _set, longest_path

MAGIC = "kpvcr 1"

# Upper bound on spine + leaves.  Parsing builds every vertex, so without it
# a one-line file such as `spine 1000000000` would allocate until the
# process dies.  CI decides, witnesses and checks instances of exactly this
# size, each under `timeout 60`: a star with one token moved, and the full
# star with all 49,999 leaf tokens moved.
MAX_VERTICES = 100_000


class InstanceFile(Record):
    _fields = ("k", "spine", "leaves", "start", "target")

    def __init__(
        self,
        k: int,
        spine: int,
        leaves: tuple[tuple[int, int], ...],  # (position, count), sorted
        start: tuple[VertexId, ...],
        target: tuple[VertexId, ...],
    ) -> None:
        self._init(k, spine, leaves, start, target)

    def forest(self) -> CaterpillarForest:
        """The instance's forest, one object per instance: every caller shares
        its tables and verdict memo, which die with the instance."""
        return self._forest

    @cached_property
    def _forest(self) -> CaterpillarForest:
        return CaterpillarForest.from_counts(self.spine, dict(self.leaves))

    def start_tokens(self) -> TokenSet:
        return TokenSet(frozenset(self.start), self.k)

    def target_tokens(self) -> TokenSet:
        return TokenSet(frozenset(self.target), self.k)

    def render(self) -> str:
        lines = [MAGIC, f"k {self.k}", f"spine {self.spine}"]
        if self.leaves:
            lines.append(
                "leaves " + " ".join(f"{i}={c}" for i, c in self.leaves)
            )
        lines.append("start " + " ".join(str(v) for v in sorted(self.start)))
        lines.append("target " + " ".join(str(v) for v in sorted(self.target)))
        return "\n".join(lines) + "\n"


def _fail(msg: str, code: str, line: int) -> InstanceFormatError:
    return InstanceFormatError(f"line {line}: {msg}", code=code, line=line)


def parse_instance(text: str) -> InstanceFile:
    directives: dict[str, tuple[list[str], int]] = {}
    saw_magic = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not saw_magic:
            if line != MAGIC:
                raise _fail(f"expected header {MAGIC!r}", "syntax", lineno)
            saw_magic = True
            continue
        parts = line.split()
        name, args = parts[0], parts[1:]
        if name not in ("k", "spine", "leaves", "start", "target"):
            raise _fail(f"unknown directive {name!r}", "syntax", lineno)
        if name in directives:
            raise _fail(f"directive {name!r} repeated", "duplicate-directive", lineno)
        directives[name] = (args, lineno)
    if not saw_magic:
        raise _fail(f"expected header {MAGIC!r}", "syntax", 1)
    for required in ("k", "spine", "start", "target"):
        if required not in directives:
            raise _fail(f"missing directive {required!r}", "syntax", 1)

    def one_int(name: str, minimum: int) -> int:
        args, lineno = directives[name]
        if len(args) != 1 or not _is_int(args[0]):
            raise _fail(f"directive {name!r} wants one integer", "syntax", lineno)
        value = int(args[0])
        if value < minimum:
            raise _fail(f"{name} must be >= {minimum}", "syntax", lineno)
        return value

    k = one_int("k", 2)
    spine = one_int("spine", 2)

    leaves: dict[int, int] = {}
    if "leaves" in directives:
        args, lineno = directives["leaves"]
        for item in args:
            pos, eq, cnt = item.partition("=")
            if eq != "=" or not _is_int(pos) or not _is_int(cnt):
                raise _fail(f"bad leaves item {item!r}", "syntax", lineno)
            p, c = int(pos), int(cnt)
            if not (1 <= p <= spine):
                raise _fail(f"leaf position {p} outside spine", "syntax", lineno)
            if p in leaves:
                raise _fail(f"leaf position {p} repeated", "syntax", lineno)
            if c < 0:
                raise _fail("negative leaf count", "syntax", lineno)
            leaves[p] = c

    n = spine + sum(leaves.values())
    if n > MAX_VERTICES:
        where = "spine" if spine > MAX_VERTICES else "leaves"
        raise _fail(
            f"instance has {n} vertices, more than the {MAX_VERTICES} supported",
            "too-large",
            directives[where][1],
        )

    def ids(name: str) -> list[tuple[str, VertexId]]:
        out = []
        for token in directives[name][0]:
            try:
                out.append((token, VertexId.parse(token)))
            except Exception:
                raise _fail(f"bad vertex id {token!r}", "syntax", directives[name][1]) from None
        return out

    start, target = ids("start"), ids("target")
    inst = InstanceFile(
        k=k,
        spine=spine,
        leaves=tuple(sorted((i, c) for i, c in leaves.items() if c)),
        start=tuple(sorted(v for _, v in start)),
        target=tuple(sorted(v for _, v in target)),
    )
    forest = inst.forest()
    for name, parsed in (("start", start), ("target", target)):
        lineno = directives[name][1]
        for token, v in parsed:
            if not forest.has_vertex(v):
                raise _fail(f"unknown vertex {token}", "unknown-vertex", lineno)
        occ = frozenset(v for _, v in parsed)
        if len(occ) != len(parsed):
            raise _fail(f"duplicate vertex in {name!r}", "invalid-cover", lineno)
        if not is_kpvc(forest, TokenSet(occ, k)):
            raise _fail(f"{name!r} is not a valid {k}-path vertex cover", "invalid-cover", lineno)
    return inst


def _is_int(s: str) -> bool:
    try:
        int(s)
    except ValueError:
        return False
    return True


# -- witnesses --------------------------------------------------------------

Move = tuple[VertexId, VertexId]


def parse_witness(text: str) -> tuple[Move, ...]:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise _fail("empty witness file", "syntax", 1)
    lineno, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "witness" or not _is_int(parts[1]):
        raise _fail("expected 'witness <m>' header", "syntax", lineno)
    m = int(parts[1])
    if len(lines) - 1 != m:
        raise _fail(f"expected {m} slide lines", "syntax", lineno)
    moves: list[Move] = []
    # each distinct token is parsed once: a long witness names each vertex
    # many times
    ids: dict[str, VertexId] = {}
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "slide":
            raise _fail("expected 'slide <from> <to>'", "syntax", lineno)
        try:
            for token in parts[1:]:
                if token not in ids:
                    ids[token] = VertexId.parse(token)
        except (InputError, ValueError):  # ValueError: too many digits for int()
            raise _fail("bad vertex id in slide", "syntax", lineno) from None
        moves.append((ids[parts[1]], ids[parts[2]]))
    return tuple(moves)


def render_witness(moves) -> str:
    lines = [f"witness {len(moves)}"]
    lines.extend(f"slide {frm} {to}" for frm, to in moves)
    return "\n".join(lines) + "\n"


class TsSequence(Record):
    _fields = ("start", "moves")

    def __init__(self, start: TokenSet, moves: tuple[Move, ...]) -> None:
        _set(self, "start", start)  # one per witness built or checked
        _set(self, "moves", moves)

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


def validate_sequence(forest: CaterpillarForest, k: int, seq: TsSequence) -> bool:
    """Adjacent slides from occupied onto free vertices, every state a
    valid k-path vertex cover (the start included).

    Only the start goes through `is_kpvc`.  A slide frees only `frm`, so a
    new k-path runs through `frm`, inside the one free component holding
    it; its other paths were free before.  A leaf slides only onto its
    spine vertex and is left on its own.  A spine vertex joins the maximal
    free spine run through its position, whose longest path
    (`graph.longest_path`) must stay below k.  Occupancy is an int per
    component over its ranks, a position's free leaves are counted once
    and then kept current (`_free_leaves`), and no state but the start is
    memoised.
    """
    try:
        if seq.start.k != k or not is_kpvc(forest, seq.start):
            return False
    except InputError:
        return False
    component = forest._component
    tokens: dict[Ranks, list[VertexId]] = {}
    for v in seq.start.occupied:
        tokens.setdefault(component[v]._ranks, []).append(v)
    # per component: its occupancy int, and its free leaves per position,
    # each counted when first read (`_free_leaves`)
    state = {
        ranks: [ranks.mask_of(vs), [None] * len(ranks.spine)] for ranks, vs in tokens.items()
    }
    for frm, to in seq.moves:
        comp = component.get(frm)
        if comp is None or to not in comp._ranks.rank:
            return False
        ranks = comp._ranks
        r, w = ranks.rank[frm], ranks.rank[to]
        st = state.get(ranks)
        if st is None or not st[0] >> r & 1 or st[0] >> w & 1:
            return False
        # adjacent: spine vertices one position apart, or a leaf and its
        # spine vertex
        spine = ranks.spine
        i, j = ranks.pos[r], ranks.pos[w]
        on_spine = (spine[i] == r) + (spine[j] == w)
        if not (abs(i - j) == 1 if on_spine == 2 else on_spine == 1 and i == j):
            return False
        occ = st[0] = st[0] ^ (1 << r | 1 << w)
        free = st[1]
        if on_spine == 1 and free[i] is not None:
            free[i] += 1 if spine[i] == w else -1
        if spine[i] == r and _free_run_path(ranks, occ, i, k, free) >= k:
            return False
    return True


def _free_run_path(ranks: Ranks, occ: int, i: int, k: int, free: list[int | None]) -> int:
    """Longest path of the free spine run through position i (free under
    occ), looking at most k - 1 positions each way: a run cut short there
    already holds k spine vertices."""
    spine = ranks.spine
    a = b = i
    while a > 0 and i - a < k - 1 and not occ >> spine[a - 1] & 1:
        a -= 1
    while b + 1 < len(spine) and b - i < k - 1 and not occ >> spine[b + 1] & 1:
        b += 1
    return longest_path(
        b - a + 1, _free_leaves(ranks, occ, a, free), _free_leaves(ranks, occ, b, free)
    )


def _free_leaves(ranks: Ranks, occ: int, p: int, free: list[int | None]) -> int:
    """Free leaves at spine position p: ranks first[p]..spine[p] - 1.  A
    position is counted from occ once, when a spine slide first reads it,
    and kept in free[p], which `validate_sequence` updates on every leaf
    slide there: shifting a long occupancy int out to the position's
    leaves on every spine slide costs O(n) each."""
    count = free[p]
    if count is None:
        n = ranks.spine[p] - ranks.first[p]
        count = free[p] = n - (occ >> ranks.first[p] & ((1 << n) - 1)).bit_count()
    return count


# -- DOT export -------------------------------------------------------------


def render_dot(instance: InstanceFile) -> str:
    forest = instance.forest()
    start = set(instance.start)
    out = ["graph kpvcr {", "  rankdir=LR;", "  node [shape=circle];"]
    for comp in forest.components:
        spine_ids = " ".join(f'"{s}";' for s in comp.spine)
        out.append(f"  {{ rank=same; {spine_ids} }}")
    for v in sorted(forest.vertices):
        attrs = [f'label="{v}"']
        if v in start:
            attrs.append("style=filled")
            attrs.append("fillcolor=black")
            attrs.append("fontcolor=white")
        out.append(f'  "{v}" [{", ".join(attrs)}];')
    seen = set()
    adj = forest.adjacency()
    for v in sorted(adj):
        for u in adj[v]:
            edge = frozenset((v, u))
            if edge not in seen:
                seen.add(edge)
                out.append(f'  "{v}" -- "{u}";')
    out.append("}")
    return "\n".join(out) + "\n"
