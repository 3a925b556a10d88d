#!/usr/bin/env python3
"""Benchmark rigid_set scaling, witness construction and validation on the
slack path, and the full decision on random caterpillars.

For each size, prints rigid_set's and is_kpvc's wall times on a random
caterpillar's minimum cover, then the fitted log-log slope of each.  Then,
for each size, times build_sequence and validate_sequence on the slack
path's witness, and prints both slopes against n + moves.  The slack path
is a bare path with k = 4: its left-rooted minimum cover plus the leftmost
free vertex, against the right-rooted one plus the rightmost free vertex.
Optionally times a single end-to-end decide.

Example:
    python3 scripts/benchmark_scaling.py --sizes 500 1000 2000 4000 --decide 5000
"""

from __future__ import annotations

import argparse
import math
import random
import time

from kpvcr import (
    CaterpillarForest,
    TokenSet,
    build_sequence,
    is_kpvc,
    is_ts_reachable,
    partition,
    rigid_set,
    validate_sequence,
)


def random_caterpillar(spine: int, seed: int, prob: float) -> CaterpillarForest:
    rng = random.Random(seed)
    leaves = {
        i: rng.randint(1, 2) for i in range(1, spine + 1) if rng.random() < prob
    }
    return CaterpillarForest.from_counts(spine, leaves)


def graph_with_n(target: int, seed: int, prob: float) -> CaterpillarForest:
    spine = target // 2
    G = random_caterpillar(spine, seed, prob)
    while G.n < target:
        spine += max(1, (target - G.n) * 2 // 5)
        G = random_caterpillar(spine, seed, prob)
    return G


def slack_path(n: int, k: int = 4) -> tuple[CaterpillarForest, TokenSet, TokenSet]:
    """A bare path of n vertices with its left-rooted minimum cover plus the
    leftmost free vertex, and the right-rooted one plus the rightmost."""
    G = CaterpillarForest.from_counts(n)
    comp = G.components[0]
    left = set(partition(comp, k, comp.spine[0]).representatives)
    right = set(partition(comp, k, comp.spine[-1]).representatives)
    left.add(next(v for v in comp.spine if v not in left))
    right.add(next(v for v in reversed(comp.spine) if v not in right))
    return G, TokenSet.of(k, left), TokenSet.of(k, right)


def time_is_kpvc(G: CaterpillarForest, cover: TokenSet) -> float:
    """Best of three is_kpvc calls, each on a fresh forest over G's
    components, so that no remembered verdict answers it."""
    best = math.inf
    for _ in range(3):
        fresh = CaterpillarForest(G.components)
        t0 = time.perf_counter()
        ok = is_kpvc(fresh, cover)
        best = min(best, time.perf_counter() - t0)
    if not ok:
        raise SystemExit(f"n={G.n}: the minimum cover is not a cover")
    return best


def fitted_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(t, 1e-9)) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[500, 1000, 2000, 4000])
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--leaf-prob", type=float, default=0.4)
    ap.add_argument("--decide", type=int, default=None, metavar="N",
                    help="also time one is_ts_reachable call at this size")
    args = ap.parse_args()

    points: list[tuple[int, float]] = []
    kpvc_points: list[tuple[int, float]] = []
    for target in args.sizes:
        G = graph_with_n(target, args.seed, args.leaf_prob)
        comp = G.components[0]
        cover = TokenSet.of(args.k, partition(G, args.k, comp.spine[0]).representatives)
        t0 = time.perf_counter()
        report = rigid_set(G, cover)
        dt = time.perf_counter() - t0
        points.append((G.n, dt))
        kpvc_s = time_is_kpvc(G, cover)
        kpvc_points.append((G.n, kpvc_s))
        print(f"n={G.n:6d} tokens={len(cover):5d} rigid={len(report.rigid):5d} "
              f"rigid_set {dt:8.2f}s is_kpvc {kpvc_s:8.4f}s")

    if len(points) >= 2:
        print(f"rigid_set log-log slope: {fitted_slope(points):.2f}")
        print(f"is_kpvc log-log slope: {fitted_slope(kpvc_points):.2f}")

    build_points: list[tuple[int, float]] = []
    points = []
    for n in args.sizes:
        # best of three, each on a fresh forest, so that no verdict a
        # build memoised is reused
        build_s = dt = math.inf
        for _ in range(3):
            G, I, J = slack_path(n)
            t0 = time.perf_counter()
            seq = build_sequence(G, I, J)
            build_s = min(build_s, time.perf_counter() - t0)
        for _ in range(3):
            fresh = slack_path(n)[0]
            t0 = time.perf_counter()
            ok = validate_sequence(fresh, 4, seq)
            dt = min(dt, time.perf_counter() - t0)
        if not (ok and seq.end.occupied == J.occupied):
            print(f"slack path n={n}: witness INVALID")
            return 1
        build_points.append((n + len(seq), build_s))
        points.append((n + len(seq), dt))
        print(f"slack path n={n:6d} moves={len(seq):6d} build_sequence {build_s:8.3f}s "
              f"validate_sequence {dt:8.3f}s")
    if len(points) >= 2:
        print(f"build_sequence log-log slope in n + moves: {fitted_slope(build_points):.2f}")
        print(f"validate_sequence log-log slope in n + moves: {fitted_slope(points):.2f}")

    if args.decide:
        G = graph_with_n(args.decide, args.seed, args.leaf_prob)
        comp = G.components[0]
        I = TokenSet.of(args.k, partition(G, args.k, comp.spine[0]).representatives)
        J = TokenSet.of(args.k, partition(G, args.k, comp.spine[-1]).representatives)
        t0 = time.perf_counter()
        verdict = is_ts_reachable(G, I, J)
        print(f"decide n={G.n}: {'YES' if verdict else 'NO'} "
              f"in {time.perf_counter() - t0:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
