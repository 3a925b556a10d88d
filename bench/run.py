#!/usr/bin/env python3
"""kpvcr benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository (the package is imported from its
`src/`, not from an install).  Workloads, metrics and the reason for each
are described in bench/README.md and BENCHMARK.json.

Every `kpvcr` invocation is a fresh child process, one at a time, so no
call reuses another's module-level caches, exactly as a user's shell would
run them.  Each child gets a PYTHONHASHSEED derived from the seed and its
instance, and its peak RSS is read from its own rusage.  A pass runs every
sample once; passes repeat while one more as long as the longest so far
would still end within --seconds of the run's start (at least MIN_ROUNDS), and each (instance, subcommand)
time is the median over all its runs.  `sweep-small` runs whole sweep
processes (bench/sweep.py) the same way, one per pass.  Reported times are
scaled to reference seconds to cancel the machine's speed drift; see
bench/clock.py.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same samples
through a child that wraps kpvcr's public functions (bench/spans.py) and
prints the per-layer metrics; it also runs each sample untraced once per
pass to report the tracing overhead.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
from clock import calibrate, speed_factor

START = perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 60
SETUP_REPEATS = 5
MIN_ROUNDS = 2
STARTUP_REPEATS = 5
SWEEP_PAIRS = 10_000
MIN_SWEEP_CHILDREN = 3

END_TO_END = (
    ("decide_s", "s"),
    ("witness_s", "s"),
    ("check_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
RIGID_TAGS = ("lemma-1a", "lemma-1b", "4a", "4b2", "4b3", "4b4", "movable")
PER_LAYER = (
    ("cli.startup_s", "s"),
    ("cover.is_kpvc.calls", "count"),
    ("cover.is_kpvc.self_s", "s"),
    ("cover.partition.calls", "count"),
    ("cover.partition.self_s", "s"),
    ("graph.delete.calls", "count"),
    ("graph.delete.self_s", "s"),
    ("graph.canonical.calls", "count"),
    ("graph.canonical.self_s", "s"),
    ("graph.delete_per_token", "ratio"),
    ("rigidity.rigid_set.calls", "count"),
    ("rigidity.rigid_set.self_s", "s"),
    ("rigidity.tokens", "count"),
    ("rigidity.rigid_tokens", "count"),
    *((f"rigidity.tag.{tag}", "count") for tag in RIGID_TAGS),
    ("planner.signature.self_s", "s"),
    ("planner.build_sequence.calls", "count"),
    ("planner.build_sequence.self_s", "s"),
    ("planner.moves", "count"),
    ("planner.validate_sequence.self_s", "s"),
    ("planner.validate_sequence.states", "count"),
    ("oracle.covers", "count"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class Child:
    wall_s: float
    speed: float  # speed_factor around the child
    maxrss_kb: int
    code: int  # negative: killed by that signal
    stdout: str

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.speed


def spawn(cmd: list[str], hash_seed: int, work: Path) -> Child:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
    out_path, err_path = work / "child.out", work / "child.err"
    before = calibrate()
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 rather than RUSAGE_CHILDREN: that one is a running
            # maximum over every child reaped so far
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    speed = speed_factor(before, calibrate())
    return Child(wall, speed, usage.ru_maxrss, code, out_path.read_text())


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def another_pass(durations: list[float], minimum: int, deadline: float) -> bool:
    """Start another pass if the minimum is not reached yet, or if one more
    pass as long as the longest so far still ends by `deadline`."""
    return len(durations) < minimum or perf_counter() + max(durations) <= deadline


# -- samples --------------------------------------------------------------------


@dataclass
class Outcome:
    times: dict[str, float]  # reference seconds per metric key
    attempted: int
    failed: int


@dataclass
class CliSample:
    """One `kpvcr` subcommand on one instance file."""

    name: str  # instance name; with op, the key its times are pooled under
    op: str  # decide / witness / check
    argv: list[str]
    want_stdout: str
    hash_seed: int
    op_id: int

    def command(self, spans_path: Path | None) -> list[str]:
        if spans_path is None:
            return python("-m", "kpvcr.cli", *self.argv)
        return python(str(BENCH / "cli_child.py"), str(spans_path), str(self.op_id), *self.argv)

    def ok(self, child: Child) -> bool:
        return child.code == 0 and child.stdout.strip() == self.want_stdout

    def outcome(self, child: Child) -> Outcome:
        return Outcome({self.op: child.ref_s}, 1, int(not self.ok(child)))


@dataclass
class SweepSample:
    """One fresh `bench/sweep.py` process: set-up, signatures and pairs."""

    seed: int
    hash_seed: int
    out: Path
    name: str = "sweep"
    sizes: dict[str, int] = field(default_factory=dict)  # covers, pairs

    def command(self, spans_path: Path | None) -> list[str]:
        cmd = python(
            str(BENCH / "sweep.py"),
            "--seed", str(self.seed),
            "--pairs", str(SWEEP_PAIRS),
            "--out", str(self.out),
        )
        return cmd + ["--spans", str(spans_path)] if spans_path else cmd

    def outcome(self, child: Child) -> Outcome:
        if child.code != 0 or not self.out.exists():
            return Outcome({}, 1, 1)
        result = json.loads(self.out.read_text())
        self.out.unlink()
        self.sizes = {"covers": result["covers"], "pairs": result["pairs"]}
        times = {key: result[f"{key}_s"] for key in SWEEP_KEYS}  # already scaled
        attempted = result["cases"] + result["pairs"]
        return Outcome(times, attempted, result["bad_cases"] + result["bad_pairs"])


SWEEP_KEYS = ("setup", "decide", "witness", "check")
OPS = ("decide", "witness", "check")
WANT_STDOUT = {"decide": "YES", "witness": "", "check": "VALID"}


def cli_samples(recipes, seed: int, work: Path) -> list[CliSample]:
    hash_rng = random.Random(f"hash-{seed}")
    samples = []
    for recipe in recipes:
        path = work / f"{recipe.name}.kpvcr"
        wit = work / f"{recipe.name}.w"
        argv = {
            "decide": ["decide", str(path)],
            "witness": ["witness", str(path), "-o", str(wit)],
            "check": ["check", str(path), str(wit)],
        }
        hash_seed = hash_rng.randrange(2**32)
        samples += [
            CliSample(recipe.name, op, argv[op], WANT_STDOUT[op], hash_seed, len(samples) + j)
            for j, op in enumerate(recipe.ops)
        ]
    return samples


def cli_setup(workload: str, seed: int, work: Path):
    """Pick the instances (untimed), then time building, rendering and
    writing them: the median of SETUP_REPEATS, in reference seconds."""
    import workloads

    recipes = workloads.GENERATORS[workload](seed)
    times, texts = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = perf_counter()
        rendered = {r.name: r.build().render() for r in recipes}
        for name, text in rendered.items():
            (work / f"{name}.kpvcr").write_text(text)
        times.append((perf_counter() - t0) * speed_factor(before, calibrate()))
        texts.append(rendered)
    if any(t != texts[0] for t in texts):
        raise RuntimeError("instance generation is not deterministic")
    return recipes, statistics.median(times)


@dataclass
class Passes:
    """What run_samples saw.  Times are pooled per (sample name, key)."""

    times: dict[tuple[str, str], list[float]]
    traced_times: dict[tuple[str, str], list[float]]
    layers: list[tuple[Counter, Counter]]  # (self seconds, counts) per pass
    speeds: list[float]
    attempted: int = 0
    failed: int = 0
    maxrss_kb: int = 0
    rounds: int = 0

    def total(self, key: str, traced: bool = False) -> float:
        """Sum over samples of the median time of `key`, i.e. one pass."""
        pooled = self.traced_times if traced else self.times
        return sum(statistics.median(t) for (_, k), t in pooled.items() if k == key)


def run_samples(samples, deadline: float, minimum: int, trace: bool, work: Path) -> Passes:
    """Run passes over the samples, one child at a time, until the next pass
    would end after `deadline` (at least `minimum` passes; one if traced).
    A traced pass runs every sample untraced and then traced."""
    got = Passes(defaultdict(list), defaultdict(list), [], [])
    spans_path = work / "spans.json"
    durations: list[float] = []
    while another_pass(durations, 1 if trace else minimum, deadline):
        started = perf_counter()
        self_s: Counter = Counter()
        counts: Counter = Counter()
        for sample in samples:
            runs = [(got.times, None)]
            if trace:
                runs.append((got.traced_times, spans_path))
            for pooled, spans_to in runs:
                child = spawn(sample.command(spans_to), sample.hash_seed, work)
                outcome = sample.outcome(child)
                for key, t in outcome.times.items():
                    pooled[sample.name, key].append(t)
                got.speeds.append(child.speed)
                got.maxrss_kb = max(got.maxrss_kb, child.maxrss_kb)
                got.attempted += outcome.attempted
                got.failed += outcome.failed
            if trace and spans_path.exists():
                s, c = spans.summarize(str(spans_path))
                self_s.update(s)
                counts.update(c)
                spans_path.unlink()
        got.layers.append((self_s, counts))
        got.rounds += 1
        durations.append(perf_counter() - started)
    return got


def run(workload: str, seed: int, deadline: float, trace: bool, work: Path):
    if workload == "sweep-small":
        hash_seed = random.Random(f"hash-{seed}").randrange(2**32)
        samples = [SweepSample(seed, hash_seed, work / "sweep.json")]
        got = run_samples(samples, deadline, MIN_SWEEP_CHILDREN, trace, work)
        setup_s = got.total("setup")
        extra = {"children": len(got.speeds)}
    else:
        recipes, setup_s = cli_setup(workload, seed, work)
        samples = cli_samples(recipes, seed, work)
        got = run_samples(samples, deadline, MIN_ROUNDS, trace, work)
        extra = {"rounds": got.rounds, "instances": len(recipes)}
    extra["speed"] = statistics.median(got.speeds)
    if trace:
        ratio = sum(got.total(op, traced=True) for op in OPS) / sum(got.total(op) for op in OPS)
        metrics = layer_metrics(got.layers, ratio, work)
        extra.update(unreported_spans(got.layers))
    else:
        metrics = {f"{op}_s": got.total(op) for op in OPS}
        metrics["peak_rss_mb"] = got.maxrss_kb / 1024
        metrics["setup_s"] = setup_s
        if workload == "sweep-small" and got.times:
            sizes = samples[0].sizes
            extra["covers_per_s"] = sizes["covers"] / metrics["decide_s"]
            extra["pairs_per_s"] = sizes["pairs"] / (metrics["witness_s"] + metrics["check_s"])
    return metrics, got.attempted, got.failed, extra


# -- per-layer metrics ----------------------------------------------------------


def startup_s(work: Path) -> float:
    """Interpreter start plus `import kpvcr.cli`, doing no work."""
    return statistics.median(
        spawn(python("-c", "import kpvcr.cli"), 0, work).wall_s
        for _ in range(STARTUP_REPEATS)
    )


def layer_metrics(rounds_layers, overhead_ratio: float, work: Path) -> dict[str, float]:
    """Self times are medians over passes; counts come from the first pass
    (every pass runs the same inputs under the same hash seeds)."""
    counts = rounds_layers[0][1]
    out: dict[str, float] = {}
    for name, _ in PER_LAYER:
        if name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            out[name] = statistics.median(r[0].get(span, 0.0) for r in rounds_layers)
        else:
            out[name] = counts.get(name, 0)
    tokens = counts["rigidity.tokens"]
    out["graph.delete_per_token"] = counts["graph.delete.calls"] / tokens if tokens else 0.0
    out["cli.startup_s"] = startup_s(work)
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def unreported_spans(rounds_layers) -> dict[str, float]:
    """Median self times of the traced spans that are not per-layer metrics
    because some workload never reaches them (the instance parsers on
    `sweep-small`, the oracle on the CLI workloads).  Printed, not
    reported."""
    reported = {name for name, _ in PER_LAYER}
    spans_seen = {span for self_s, _ in rounds_layers for span in self_s}
    return {
        f"{span}.self_s": statistics.median(r[0].get(span, 0.0) for r in rounds_layers)
        for span in sorted(spans_seen)
        if f"{span}.self_s" not in reported
    }


# -- main -----------------------------------------------------------------------


WORKLOADS = ("decide-rigid", "witness-slack", "sweep-small")


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "kpvcr" / "cli.py").is_file():
        print(f"error: no kpvcr sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for this process and every child: see bench/clock.py
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        deadline = START + args.seconds
        got = run(args.workload, args.seed, deadline, bool(args.trace), work)
        metrics, attempted, failed, extra = got
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = dict(PER_LAYER if args.trace else END_TO_END)
    extra["run_s"] = perf_counter() - START
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in extra.items():
        print(f"  {key} {value:.6g}" if isinstance(value, float) else f"  {key} {value}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(f"  failed_frac {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
