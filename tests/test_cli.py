"""End-to-end CLI behaviour through kpvcr.cli.main."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kpvcr
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

    @pytest.mark.parametrize("which", ["instance", "witness"])
    def test_non_utf8_file(self, yes_file, tmp_path, capsys, which):
        """Undecodable bytes are an input error (exit 2), not a traceback
        with exit 1, which would read as NO or INVALID.  The message names
        the file, since `check` reads two."""
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe")
        argv = ["decide", str(bad)] if which == "instance" else ["check", yes_file, str(bad)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}:")
        assert yes_file not in captured.err

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


# both covers are 4-path vertex covers of the 6-path, of sizes 2 and 1
UNEQUAL_SIZE_INSTANCE = """\
kpvcr 1
k 4
spine 6
start s2 s5
target s3
"""


class TestOracle:
    @pytest.mark.parametrize("command", ["oracle", "decide"])
    def test_unequal_sizes_answer_no(self, tmp_path, capsys, command):
        path = tmp_path / "unequal.kpvcr"
        path.write_text(UNEQUAL_SIZE_INSTANCE)
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().out == "NO\n"

    def test_unequal_sizes_refuse_a_cap_below_one_first(self, tmp_path, capsys):
        path = tmp_path / "unequal.kpvcr"
        path.write_text(UNEQUAL_SIZE_INSTANCE)
        assert main(["oracle", str(path), "--max-states", "0"]) == 2
        assert "max_states must be >= 1" in capsys.readouterr().err

    def test_agrees_on_yes(self, yes_file, capsys):
        assert main(["oracle", yes_file]) == 0
        assert capsys.readouterr().out.strip() == "YES"

    def test_agrees_on_no(self, no_file, capsys):
        assert main(["oracle", no_file]) == 1

    def test_state_budget(self, yes_file, capsys):
        assert main(["oracle", yes_file, "--max-states", "1"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_out_of_memory_is_resource_error(self, yes_file, capsys, monkeypatch):
        # the oracle packs every k-path of the forest into ints, so a large
        # instance can exhaust memory; that must not read as NO (exit 1)
        def exhaust(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("kpvcr.oracle.oracle_reachable", exhaust)
        assert main(["oracle", yes_file]) == 3
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_refuses_masks_too_large_before_building_one(self, tmp_path, capsys, monkeypatch):
        # 64,719 vertices: the whole-forest masks would take 1.3 GiB whatever
        # the state cap, and building them ran out of memory
        assert main(["gen", "--spine", "40000", "--leaf-prob", "0.4", "--k", "4", "--seed", "1"]) == 0
        path = tmp_path / "big.kpvcr"
        path.write_text(capsys.readouterr().out)

        def no_mask(*args):
            raise AssertionError("built a mask")

        monkeypatch.setattr("kpvcr._kpaths.PathCoverContext.mask_of", no_mask)
        assert main(["oracle", str(path), "--max-states", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the oracle's k-path masks would take 1,307 MiB")
        assert "104,650 paths and 64,719 vertices" in err

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


_SRC = str(Path(kpvcr.__file__).resolve().parents[1])

# prints the exit code of `main` on the script's arguments, then every
# module loaded by then
_LOADED = """\
import sys
from kpvcr.cli import main
code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""


def _last_line(script: str, *argv: str, flags: tuple[str, ...] = ()) -> list[str]:
    """The words of the last output line of `script`, run in a fresh
    interpreter (started with `flags`) on this checkout's kpvcr."""
    out = subprocess.run(
        [sys.executable, *flags, "-c", script, *argv],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return out.splitlines()[-1].split()


def _modules(*argv: str, flags: tuple[str, ...] = ()) -> tuple[int, set[str]]:
    code, *modules = _last_line(_LOADED, *argv, flags=flags)
    return int(code), set(modules)


def _loaded(*argv: str) -> tuple[int, set[str]]:
    code, modules = _modules(*argv)
    return code, {m.removeprefix("kpvcr.") for m in modules if m.startswith("kpvcr")}


class TestLoadedModules:
    """Each subcommand loads only the modules it calls: a CLI child spends
    more time loading kpvcr than `check` spends working, so a stray
    module-level import would bring that cost back unnoticed."""

    @pytest.fixture
    def witness_file(self, yes_file, tmp_path, capsys):
        out = tmp_path / "yes.witness"
        assert main(["witness", yes_file, "-o", str(out)]) == 0
        return str(out)

    def test_check_loads_neither_planner_nor_rigidity(self, yes_file, witness_file):
        code, loaded = _loaded("check", yes_file, witness_file)
        assert code == 0 and "instance" in loaded
        assert not loaded & {"rigidity", "planner", "_kpaths", "oracle", "generate"}

    @pytest.mark.parametrize(
        "command, needs", [("decide", "planner"), ("witness", "planner"), ("rigid", "rigidity")]
    )
    def test_decision_loads_no_oracle_or_generator(self, yes_file, command, needs):
        code, loaded = _loaded(command, yes_file)
        assert code == 0 and needs in loaded
        assert not loaded & {"oracle", "generate"}

    def test_no_dataclasses_inspect_or_typing(self, yes_file, witness_file):
        # `python -S` skips site, which preloads typing on some installs;
        # dataclasses alone pulls in inspect, ast, dis and tokenize
        bare = set(_last_line("import sys; print(*sorted(sys.modules))", flags=("-S",)))
        for argv in (
            ("check", yes_file, witness_file),
            ("decide", yes_file),
            ("witness", yes_file),
            ("rigid", yes_file),
        ):
            code, modules = _modules(*argv, flags=("-S",))
            assert code == 0 and "kpvcr.cli" in modules
            extra = {m.split(".")[0] for m in modules - bare}
            assert not extra & {"dataclasses", "inspect", "typing"}, argv

    def test_entry_points_still_resolve_on_cli(self):
        # bench/spans.py wraps these where it finds them on `kpvcr.cli`
        for name in (
            "parse_instance",
            "parse_witness",
            "is_ts_reachable",
            "build_sequence",
            "validate_sequence",
        ):
            assert getattr(kpvcr.cli, name) is getattr(kpvcr, name)

    def test_bare_import_loads_no_submodule(self):
        script = "import sys, kpvcr; print(*sorted(m for m in sys.modules if 'kpvcr' in m))"
        assert _last_line(script) == ["kpvcr"]
