"""End-to-end CLI behaviour through kpvcr.cli.main."""

import pytest

from kpvcr import CaterpillarForest, parse_instance, parse_witness
from kpvcr.cli import main
from kpvcr.instance import MAX_VERTICES

YES_INSTANCE = """\
kpvcr 1
k 4
spine 5
leaves 1=1 5=1
start s2 s4
target l1.1 s3
"""

NO_INSTANCE = """\
kpvcr 1
k 4
spine 3
leaves 1=1 2=2 3=1
start l1.1 l3.1
target l2.1 s2
"""

# decide says YES, and the planner cannot route it (ROADMAP item 1)
UNROUTED_INSTANCE = """\
kpvcr 1
k 4
spine 7
leaves 1=1 2=2 3=1 6=1 7=1
start l1.1 s1 s3 s6
target l2.1 l7.1 s2 s4
"""

K3_INSTANCE = """\
kpvcr 1
k 3
spine 5
leaves 1=2 3=3 5=2
start s1 s3 s5 l3.1 l5.1 l5.2
target s1 s3 s5 l3.1 l5.1 l5.2
"""

K2_INSTANCE = """\
kpvcr 1
k 2
spine 3
start s2
target s2
"""


@pytest.fixture
def yes_file(tmp_path):
    p = tmp_path / "yes.kpvcr"
    p.write_text(YES_INSTANCE)
    return str(p)


@pytest.fixture
def no_file(tmp_path):
    p = tmp_path / "no.kpvcr"
    p.write_text(NO_INSTANCE)
    return str(p)


class TestDecide:
    def test_yes(self, yes_file, capsys):
        assert main(["decide", yes_file]) == 0
        assert capsys.readouterr().out.strip() == "YES"

    def test_no(self, no_file, capsys):
        assert main(["decide", no_file]) == 1
        assert capsys.readouterr().out.strip() == "NO"

    def test_k3_refused(self, tmp_path, capsys):
        p = tmp_path / "k3.kpvcr"
        p.write_text(K3_INSTANCE)
        assert main(["decide", str(p)]) == 2
        err = capsys.readouterr().err
        assert "k = 3" in err and "open problem" in err

    def test_k2_refused_naming_its_k(self, tmp_path, capsys):
        p = tmp_path / "k2.kpvcr"
        p.write_text(K2_INSTANCE)
        assert main(["decide", str(p)]) == 2
        err = capsys.readouterr().err
        assert "k = 2" in err and "k = 3" not in err and "open problem" not in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["decide", str(tmp_path / "absent")]) == 2

    def test_malformed_file(self, tmp_path, capsys):
        p = tmp_path / "bad.kpvcr"
        p.write_text("not a kpvcr file\n")
        assert main(["decide", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sizes", ["spine 1000000000", "spine 5\nleaves 1=1000000000"]
    )
    def test_oversized_instance(self, tmp_path, capsys, sizes):
        p = tmp_path / "huge.kpvcr"
        p.write_text(f"kpvcr 1\nk 4\n{sizes}\nstart s1\ntarget s1\n")
        assert main(["decide", str(p)]) == 2
        assert "more than the" in capsys.readouterr().err


class TestWitness:
    def test_witness_then_check(self, yes_file, tmp_path, capsys):
        wpath = tmp_path / "out.witness"
        assert main(["witness", yes_file, "-o", str(wpath)]) == 0
        moves = parse_witness(wpath.read_text())
        assert moves
        assert main(["check", yes_file, str(wpath)]) == 0
        assert capsys.readouterr().out.strip() == "VALID"

    def test_witness_on_no_instance(self, no_file, capsys):
        assert main(["witness", no_file]) == 1
        assert capsys.readouterr().out.strip() == "NO"

    def test_internal_error_is_not_no(self, tmp_path, capsys):
        p = tmp_path / "unrouted.kpvcr"
        p.write_text(UNROUTED_INSTANCE)
        out = tmp_path / "out.witness"
        assert main(["witness", str(p), "-o", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal error:")
        assert not out.exists()

    def test_check_rejects_wrong_endpoint(self, yes_file, tmp_path, capsys):
        wpath = tmp_path / "stub.witness"
        wpath.write_text("witness 0\n")
        assert main(["check", yes_file, str(wpath)]) == 1
        assert capsys.readouterr().out.strip() == "INVALID"

    def test_check_rejects_illegal_slide(self, yes_file, tmp_path, capsys):
        wpath = tmp_path / "bad.witness"
        wpath.write_text("witness 1\nslide s2 s5\n")
        assert main(["check", yes_file, str(wpath)]) == 1


class TestRigid:
    def test_lists_rigid_vertices(self, tmp_path, capsys):
        p = tmp_path / "rigid.kpvcr"
        p.write_text("kpvcr 1\nk 4\nspine 5\nleaves 1=1 5=1\nstart s3\ntarget s3\n")
        assert main(["rigid", str(p)]) == 0
        assert capsys.readouterr().out.split() == ["s3"]

    def test_empty_when_all_movable(self, yes_file, capsys):
        assert main(["rigid", yes_file]) == 0
        assert capsys.readouterr().out.strip() == ""


class TestOracle:
    def test_agrees_on_yes(self, yes_file, capsys):
        assert main(["oracle", yes_file]) == 0
        assert capsys.readouterr().out.strip() == "YES"

    def test_agrees_on_no(self, no_file, capsys):
        assert main(["oracle", no_file]) == 1

    def test_state_budget(self, yes_file, capsys):
        assert main(["oracle", yes_file, "--max-states", "1"]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_state_cap_below_one_is_input_error(self, yes_file, capsys, cap):
        # start differs from target, so a search would otherwise run
        assert main(["oracle", yes_file, "--max-states", cap]) == 2
        assert "max_states must be >= 1" in capsys.readouterr().err


class TestGen:
    def test_deterministic_and_parsable(self, capsys):
        argv = ["gen", "--spine", "8", "--leaf-prob", "0.4", "--k", "4", "--seed", "11"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        inst = parse_instance(first)
        assert inst.k == 4 and inst.spine == 8

    def test_default_is_yes_instance(self, tmp_path, capsys):
        assert (
            main(["gen", "--spine", "7", "--leaf-prob", "0.3", "--k", "4", "--seed", "3"])
            == 0
        )
        p = tmp_path / "gen.kpvcr"
        p.write_text(capsys.readouterr().out)
        assert main(["decide", str(p)]) == 0

    def test_scramble_changes_target(self, capsys):
        base = ["gen", "--spine", "9", "--leaf-prob", "0.5", "--k", "4", "--seed", "7"]
        assert main(base) == 0
        plain = parse_instance(capsys.readouterr().out)
        assert main(base + ["--scramble"]) == 0
        scrambled = parse_instance(capsys.readouterr().out)
        assert plain.start == scrambled.start
        assert plain.target != scrambled.target

    def test_rejects_bad_config(self, capsys):
        assert (
            main(["gen", "--spine", "1", "--leaf-prob", "0.5", "--k", "4", "--seed", "1"])
            == 2
        )

    @pytest.mark.parametrize(
        "spine, leaf_prob",
        [(MAX_VERTICES + 1, "0.0"), (MAX_VERTICES, "1.0")],
        ids=["spine", "spine+leaves"],
    )
    def test_refuses_oversized(self, monkeypatch, capsys, spine, leaf_prob):
        # the cap applies before the forest is built: the spine alone before
        # any draw, the spine plus the drawn leaves right after the draw
        def no_forest(*args):
            raise AssertionError("forest built for an oversized instance")

        monkeypatch.setattr(CaterpillarForest, "from_counts", no_forest)
        argv = ["gen", "--spine", str(spine), "--leaf-prob", leaf_prob, "--k", "4", "--seed", "1"]
        assert main(argv) == 2
        assert "more than the" in capsys.readouterr().err


class TestExportDot:
    def test_writes_dot(self, yes_file, tmp_path):
        out = tmp_path / "g.dot"
        assert main(["export-dot", yes_file, "-o", str(out)]) == 0
        assert out.read_text().startswith("graph kpvcr {")
