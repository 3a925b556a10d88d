"""Instance and witness file formats."""

import hashlib

import pytest

from kpvcr import (
    CaterpillarForest,
    GenerateConfig,
    InstanceFile,
    InstanceFormatError,
    VertexId,
    parse_instance,
    parse_witness,
    random_instance,
    render_dot,
    render_witness,
)
from kpvcr.instance import MAX_VERTICES

SAMPLE = """\
kpvcr 1
k 4
# a five vertex spine with leaves at both ends
spine 5
leaves 1=1 5=1
start s2 s4
target l1.1 s3
"""


def _v(x):
    return VertexId.parse(x)


class TestParseInstance:
    def test_full_roundtrip(self):
        inst = parse_instance(SAMPLE)
        assert inst.k == 4 and inst.spine == 5
        assert inst.leaves == ((1, 1), (5, 1))
        assert inst.start == (_v("s2"), _v("s4"))
        assert inst.target == (_v("l1.1"), _v("s3"))
        assert parse_instance(inst.render()) == inst

    def test_leaves_optional(self):
        inst = parse_instance("kpvcr 1\nk 4\nspine 3\nstart s2\ntarget s2\n")
        assert inst.leaves == ()

    def test_missing_header(self):
        with pytest.raises(InstanceFormatError) as ei:
            parse_instance("k 4\nspine 3\nstart s2\ntarget s2\n")
        assert ei.value.code == "syntax" and ei.value.line == 1

    def test_duplicate_directive(self):
        text = "kpvcr 1\nk 4\nk 5\nspine 3\nstart s2\ntarget s2\n"
        with pytest.raises(InstanceFormatError) as ei:
            parse_instance(text)
        assert ei.value.code == "duplicate-directive" and ei.value.line == 3

    def test_unknown_vertex(self):
        text = "kpvcr 1\nk 4\nspine 3\nstart s9\ntarget s2\n"
        with pytest.raises(InstanceFormatError) as ei:
            parse_instance(text)
        assert ei.value.code == "unknown-vertex" and ei.value.line == 4

    def test_invalid_cover(self):
        text = "kpvcr 1\nk 4\nspine 5\nleaves 1=1 5=1\nstart s1\ntarget s3\n"
        with pytest.raises(InstanceFormatError) as ei:
            parse_instance(text)
        assert ei.value.code == "invalid-cover" and ei.value.line == 5

    def test_duplicate_cover_vertex(self):
        text = "kpvcr 1\nk 4\nspine 3\nstart s2 s2\ntarget s2\n"
        with pytest.raises(InstanceFormatError) as ei:
            parse_instance(text)
        assert ei.value.code == "invalid-cover"

    def test_bad_leaves_item(self):
        text = "kpvcr 1\nk 4\nspine 3\nleaves 9=1\nstart s2\ntarget s2\n"
        with pytest.raises(InstanceFormatError) as ei:
            parse_instance(text)
        assert ei.value.code == "syntax" and ei.value.line == 4

    @pytest.mark.parametrize("items", ["1=0 1=2", "1=2 1=0"])
    def test_repeated_leaf_position(self, items):
        # a position given twice is refused, whichever count is 0
        text = f"kpvcr 1\nk 4\nspine 3\nleaves {items}\nstart s2\ntarget s2\n"
        with pytest.raises(InstanceFormatError) as ei:
            parse_instance(text)
        assert ei.value.code == "syntax" and ei.value.line == 4
        assert str(ei.value) == "line 4: leaf position 1 repeated"

    def test_zero_leaf_count_is_not_kept(self):
        inst = parse_instance("kpvcr 1\nk 4\nspine 3\nleaves 1=0 3=1\nstart s2\ntarget s2\n")
        assert inst.leaves == ((3, 1),)

    def test_unknown_directive(self):
        with pytest.raises(InstanceFormatError) as ei:
            parse_instance("kpvcr 1\nflavor 2\n")
        assert ei.value.code == "syntax" and ei.value.line == 2

    def test_forest_built_once(self, monkeypatch):
        # the covers are validated on the forest the instance hands out, so
        # the parser and every later caller share one forest and its caches
        built = []
        real = CaterpillarForest.from_counts

        def record(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr("kpvcr.instance.CaterpillarForest.from_counts", record)
        inst = parse_instance(SAMPLE)
        assert inst.forest() is inst.forest() is built[0]
        assert len(built) == 1

    def test_comments_and_blank_lines_ignored(self):
        text = "# top\n\nkpvcr 1\nk 4  # inline\nspine 3\nstart s2\ntarget s2\n"
        assert parse_instance(text).k == 4


class TestSizeCap:
    """Oversized instances are refused before any vertex is built."""

    @pytest.fixture(autouse=True)
    def no_building(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the forest was built")

        monkeypatch.setattr("kpvcr.instance.CaterpillarForest.from_counts", refuse)

    def test_huge_spine(self):
        text = "kpvcr 1\nk 4\nspine 1000000000\nstart s1\ntarget s1\n"
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(text)
        assert exc.value.code == "too-large" and exc.value.line == 3

    def test_huge_leaf_count(self):
        text = "kpvcr 1\nk 4\nspine 5\nleaves 1=1000000000\nstart s1\ntarget s1\n"
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(text)
        assert exc.value.code == "too-large" and exc.value.line == 4

    def test_leaves_add_up(self):
        cap = MAX_VERTICES
        text = f"kpvcr 1\nk 4\nspine {cap - 1}\nleaves 1=1 2=1\nstart s1\ntarget s1\n"
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(text)
        assert exc.value.code == "too-large"


class TestWitnessFormat:
    def test_roundtrip(self):
        moves = ((_v("s2"), _v("s3")), (_v("s4"), _v("s5")))
        text = render_witness(moves)
        assert text == "witness 2\nslide s2 s3\nslide s4 s5\n"
        assert parse_witness(text) == moves

    def test_count_mismatch(self):
        with pytest.raises(InstanceFormatError) as ei:
            parse_witness("witness 2\nslide s2 s3\n")
        assert ei.value.code == "syntax"

    def test_bad_slide_line(self):
        with pytest.raises(InstanceFormatError) as ei:
            parse_witness("witness 1\nslide s2\n")
        assert ei.value.code == "syntax" and ei.value.line == 2

    @pytest.mark.parametrize("bad", ["x1", "s0", "l2.0", "s-1", "S1", "l2", "s" + "9" * 5000])
    @pytest.mark.parametrize("where", ["from", "to"])
    def test_bad_id_fails_on_its_line(self, bad, where):
        # the ids before it, repeated, parse; its line is the fourth
        slide = f"slide {bad} s2" if where == "from" else f"slide s2 {bad}"
        text = f"witness 4\nslide s1 s2\nslide s2 s1\n# comment\n{slide}\nslide s1 s2\n"
        with pytest.raises(InstanceFormatError) as ei:
            parse_witness(text)
        assert ei.value.code == "syntax" and ei.value.line == 5
        assert str(ei.value) == "line 5: bad vertex id in slide"

    def test_repeated_ids_parse_to_equal_ids(self):
        moves = parse_witness("witness 3\nslide s1 s2\nslide s2 l2.1\nslide l2.1 s2\n")
        assert moves == ((_v("s1"), _v("s2")), (_v("s2"), _v("l2.1")), (_v("l2.1"), _v("s2")))
        assert all(type(v) is VertexId for move in moves for v in move)

    def test_empty_file(self):
        with pytest.raises(InstanceFormatError):
            parse_witness("# nothing\n")

    def test_zero_moves(self):
        assert parse_witness("witness 0\n") == ()


class TestRenderDot:
    def test_contains_all_vertices_and_edges(self):
        inst = parse_instance(SAMPLE)
        dot = render_dot(inst)
        assert dot.startswith("graph kpvcr {")
        for v in ("s1", "s5", "l1.1", "l5.1"):
            assert f'"{v}"' in dot
        assert '"s1" -- "s2";' in dot
        # start tokens are highlighted
        assert dot.count("fillcolor=black") == 2

    def test_digest(self):
        # byte-for-byte: the paper's figure 1 and figure 3 instances (k = 3,
        # as drawn there) and seeded `kpvcr gen` instances; recorded while
        # vertex ids were a dataclass, so any id type must reproduce it
        figures = [
            "kpvcr 1\nk 3\nspine 5\nleaves 1=2 3=3 5=2\n"
            "start s1 s3 s5 l3.1 l5.1 l5.2\ntarget s1 s3 s4 s5 l3.1 l3.2\n",
            "kpvcr 1\nk 3\nspine 8\nleaves 1=2 6=3 8=1\n"
            "start s1 s4 s6 l6.1 s7 s8\ntarget s1 s4 s6 l6.1 s7 s8\n",
        ]
        insts = [parse_instance(text) for text in figures] + [
            random_instance(GenerateConfig(spine, prob, k, seed, scramble=seed % 2 == 1))
            for spine, prob, k, seed in (
                (6, 0.5, 4, 1),
                (30, 0.4, 4, 2),
                (80, 0.7, 5, 3),
                (200, 0.2, 6, 4),
            )
        ]
        text = "".join(render_dot(inst) for inst in insts)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "4cdbfe510443824b"
