"""Instance and witness file formats, plus DOT export.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cover import TokenSet, is_kpvc
from .errors import InstanceFormatError
from .graph import CaterpillarForest, VertexId

MAGIC = "kpvcr 1"

# Upper bound on spine + leaves.  Parsing builds every vertex, so without it
# a one-line file such as `spine 1000000000` would allocate until the
# process dies.  It sits 20 times above the largest instances the tests and
# benchmarks decide (n ~ 5000).
MAX_VERTICES = 100_000


@dataclass(frozen=True)
class InstanceFile:
    k: int
    spine: int
    leaves: tuple[tuple[int, int], ...]  # (position, count), sorted
    start: tuple[VertexId, ...]
    target: tuple[VertexId, ...]

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
            if c:
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
        leaves=tuple(sorted(leaves.items())),
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


def parse_witness(text: str) -> tuple[tuple[VertexId, VertexId], ...]:
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
    moves: list[tuple[VertexId, VertexId]] = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "slide":
            raise _fail("expected 'slide <from> <to>'", "syntax", lineno)
        try:
            frm, to = VertexId.parse(parts[1]), VertexId.parse(parts[2])
        except Exception:
            raise _fail("bad vertex id in slide", "syntax", lineno) from None
        moves.append((frm, to))
    return tuple(moves)


def render_witness(moves) -> str:
    lines = [f"witness {len(moves)}"]
    lines.extend(f"slide {frm} {to}" for frm, to in moves)
    return "\n".join(lines) + "\n"


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
