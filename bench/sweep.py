"""Sweep child: python3 sweep.py --seed N --pairs P --out RESULT [--spans SPANS]

One fresh process per call, so no call warms the next.  Set-up enumerates
the exhaustive small family (the criterion-2/3 family of the acceptance
tests), computes its oracle reachability classes and draws P ordered YES
pairs, uniformly over all such pairs, from the seed.  Then, case by case,
it computes `reachability_signature` for every cover, checks that equal
signatures are exactly the oracle classes, and builds and validates a
witness for each of the case's sampled pairs.  The result, with the time
of each phase in reference seconds, goes to RESULT as JSON.
"""

from __future__ import annotations

import argparse
import json
import random
from itertools import accumulate
from time import perf_counter

from clock import calibrate, speed_factor
from kpvcr import KpvcrError, TokenSet, minimum_cover_size, oracle, planner

MAX_SPINE = 5
MAX_LEAVES = 2
MAX_N = 12
KS = (4, 5)
EXTRA = 2  # cover sizes psi .. psi + EXTRA


def _cover_key(vertices) -> list:
    return sorted(v.sort_key for v in vertices)


def setup(seed: int, pairs: int):
    cases = []  # (forest, k, covers, classes as sorted member lists)
    for forest in oracle.enumerate_caterpillars(MAX_SPINE, MAX_LEAVES):
        if forest.n > MAX_N:
            continue
        for k in KS:
            psi = minimum_cover_size(forest, k)
            for size in range(psi, min(forest.n, psi + EXTRA) + 1):
                covers = oracle.enumerate_kpvcs(forest, k, size)
                if not covers:
                    continue
                classes = oracle.reachability_classes(forest, k, size)
                cases.append(
                    (
                        forest,
                        k,
                        sorted(covers, key=lambda c: _cover_key(c.occupied)),
                        [sorted(c, key=_cover_key) for c in classes],
                    )
                )
    flat = [(c, members) for c, case in enumerate(cases) for members in case[3]]
    rng = random.Random(seed)
    picks = rng.choices(
        range(len(flat)), cum_weights=list(accumulate(len(m) ** 2 for _, m in flat)), k=pairs
    )
    sample: list[list] = [[] for _ in cases]  # pairs per case
    for p in picks:
        c, members = flat[p]
        k = cases[c][1]
        I, J = rng.choice(members), rng.choice(members)
        sample[c].append((TokenSet(I, k), TokenSet(J, k)))
    return cases, sample


class RefTimer:
    """Phase times in reference seconds (bench/clock.py).  A sweep runs for
    several seconds, through more than one of the machine's speed swings,
    so it re-calibrates after every CHUNK_S of timed work and scales each
    chunk by the speed measured around it."""

    CHUNK_S = 0.25

    def __init__(self, phases: tuple[str, ...]) -> None:
        self.totals = dict.fromkeys(phases, 0.0)
        self._chunk = dict.fromkeys(phases, 0.0)
        self._calibration = calibrate()

    def add(self, phase: str, wall_s: float) -> None:
        self._chunk[phase] += wall_s
        if sum(self._chunk.values()) >= self.CHUNK_S:
            self.flush()

    def flush(self) -> None:
        now = calibrate()
        speed = speed_factor(self._calibration, now)
        for phase, wall_s in self._chunk.items():
            self.totals[phase] += wall_s * speed
            self._chunk[phase] = 0.0
        self._calibration = now


def run(seed: int, pairs: int, tracer=None) -> dict:
    op = 0
    if tracer is not None:
        tracer.op = -1
    timer = RefTimer(("setup", "decide", "witness", "check"))
    t0 = perf_counter()
    cases, sample = setup(seed, pairs)
    timer.add("setup", perf_counter() - t0)
    timer.flush()

    # Each case's pairs run right after its signatures, which is when a
    # caller that has just decided a case would ask for its witnesses, and
    # spreads the witness timings over the whole run.
    covers = bad_cases = bad_pairs = 0
    for (forest, k, case_covers, classes), case_pairs in zip(cases, sample):
        groups: dict[object, set] = {}
        try:
            for cov in case_covers:
                if tracer is not None:
                    tracer.op = op
                op += 1
                t = perf_counter()
                sig = planner.reachability_signature(forest, cov)
                timer.add("decide", perf_counter() - t)
                groups.setdefault(sig, set()).add(cov.occupied)
                covers += 1
        except KpvcrError:
            bad_cases += 1
        else:
            if {frozenset(g) for g in groups.values()} != {frozenset(c) for c in classes}:
                bad_cases += 1

        for I, J in case_pairs:
            if tracer is not None:
                tracer.op = op
            op += 1
            try:
                t = perf_counter()
                seq = planner.build_sequence(forest, I, J)
                t1 = perf_counter()
                ok = planner.validate_sequence(forest, k, seq)
                timer.add("check", perf_counter() - t1)
                timer.add("witness", t1 - t)
                ok = ok and seq.end.occupied == J.occupied
            except KpvcrError:
                ok = False
            bad_pairs += not ok
    timer.flush()

    return {
        **{f"{phase}_s": t for phase, t in timer.totals.items()},
        "cases": len(cases),
        "covers": covers,
        "bad_cases": bad_cases,
        "pairs": sum(map(len, sample)),
        "bad_pairs": bad_pairs,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    tracer = None
    if args.spans:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    try:
        result = run(args.seed, args.pairs, tracer)
    finally:
        if tracer is not None:
            tracer.write(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
