"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

They run small instances through the same code paths as the workloads.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import sweep  # noqa: E402
import workloads  # noqa: E402

SMALL = [
    workloads.Recipe("slack", workloads.ALL_OPS, 30, 4, config_seed=11, slack=True),
    workloads.Recipe("rigid", ("decide",), 40, 4, config_seed=3),
]


def _write(recipes, work: Path) -> None:
    for recipe in recipes:
        (work / f"{recipe.name}.kpvcr").write_text(recipe.build().render())


def _rendered(recipes) -> list[tuple[str, str, tuple[str, ...]]]:
    return [(r.name, r.build().render(), r.ops) for r in recipes]


def test_generation_repeats_for_a_seed_and_differs_across_seeds():
    for generate in workloads.GENERATORS.values():
        assert _rendered(generate(7)) == _rendered(generate(7))
        assert _rendered(generate(7)) != _rendered(generate(8))
    _, pairs_a = sweep.setup(7, 200)
    _, pairs_b = sweep.setup(7, 200)
    _, pairs_c = sweep.setup(8, 200)
    assert pairs_a == pairs_b
    assert pairs_a != pairs_c


def test_strata_hold_their_quota():
    recipes = [r for r in workloads.decide_rigid(3) if r.name.startswith("cat-")]
    leafed = [workloads.ends_leafed(r.build()) for r in recipes]
    assert leafed.count(True) == leafed.count(False) == len(workloads.KS) * workloads.RIGID_PER_KIND


def test_traced_counts_repeat_exactly(tmp_path):
    _write(SMALL, tmp_path)
    samples = run.cli_samples(SMALL, 5, tmp_path)
    first = run.run_samples(samples, 0, 1, True, tmp_path)
    second = run.run_samples(samples, 0, 1, True, tmp_path)
    assert first.failed == second.failed == 0
    keys = ["planner.moves", "cover.is_kpvc.calls", "graph.delete.calls", "rigidity.tokens"]
    keys += [f"rigidity.tag.{tag}" for tag in run.RIGID_TAGS]
    counts_a, counts_b = first.layers[0][1], second.layers[0][1]
    assert counts_a["planner.moves"] > 0 and counts_a["graph.delete.calls"] > 0
    assert {k: counts_a[k] for k in keys} == {k: counts_b[k] for k in keys}


def test_planted_wrong_verdict_counts_as_failure(tmp_path):
    _write(SMALL, tmp_path)
    good = run.cli_samples(SMALL[1:], 5, tmp_path)[0]
    planted = dataclasses.replace(good, want_stdout="NO")
    got = run.run_samples([good, planted], 0, run.MIN_ROUNDS, False, tmp_path)
    assert got.rounds == run.MIN_ROUNDS
    assert got.attempted == 2 * got.rounds
    assert got.failed == got.rounds


def test_self_time_subtracts_direct_children():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and c [5, 9]
    names = ["a", "b", "c", "c"]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(names, starts, ends, parents) == {"a": 3.0, "b": 2.0, "c": 5.0}


def test_tracer_records_nesting_and_counts(tmp_path):
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2, lambda c, args, r: c.update(out=r))
    assert outer(1) == 4
    assert tracer.names == ["outer", "inner"]
    assert tracer.parents == [-1, 0]
    path = tmp_path / "spans.json"
    tracer.write(str(path))
    self_s, counts = spans.summarize(str(path))
    assert counts["outer.calls"] == counts["inner.calls"] == 1
    assert counts["out"] == 4
    assert self_s["outer"] >= 0 and self_s["inner"] >= 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
