#!/usr/bin/env python3
"""Exhaustive cross-check of the solver against the brute-force oracle.

Enumerates every canonical caterpillar up to the given bounds, every cover
of size psi..psi+extra for each k, and verifies:
  * the fast decision matches the oracle reachability classes, and
  * (optionally) every ordered YES pair yields a validating witness.

The summary line splits the time: `oracle_s` for cover enumeration and
reachability classes, `engine_s` for signatures and witnesses; `peak_rss_mb`
is the process's peak resident set size (`ru_maxrss`).

Example:
    python3 scripts/run_enumeration_suite.py --max-spine 5 --max-leaves 2 --witnesses
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

from kpvcr import (
    LogicError,
    TokenSet,
    build_sequence,
    enumerate_caterpillars,
    enumerate_kpvcs,
    minimum_cover_size,
    reachability_classes,
    reachability_signature,
    validate_sequence,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-spine", type=int, default=5)
    ap.add_argument("--max-leaves", type=int, default=2)
    ap.add_argument("--max-n", type=int, default=None,
                    help="skip graphs with more vertices than this")
    ap.add_argument("--ks", type=int, nargs="+", default=[4, 5])
    ap.add_argument("--extra", type=int, default=2,
                    help="cover sizes up to psi+extra")
    ap.add_argument("--witnesses", action="store_true",
                    help="also build and validate every ordered YES pair")
    args = ap.parse_args()

    t0 = time.perf_counter()
    oracle_s = engine_s = 0.0
    graphs = 0
    cases = 0
    pairs = 0
    mismatches = 0
    bad_witnesses = 0
    for G in enumerate_caterpillars(args.max_spine, args.max_leaves):
        if args.max_n is not None and G.n > args.max_n:
            continue
        graphs += 1
        for k in args.ks:
            psi = minimum_cover_size(G, k)
            for size in range(psi, min(G.n, psi + args.extra) + 1):
                t = time.perf_counter()
                covers = enumerate_kpvcs(G, k, size)
                classes = reachability_classes(G, k, size) if covers else []
                t1 = time.perf_counter()
                oracle_s += t1 - t
                if not covers:
                    continue
                cases += 1
                groups: dict[object, set[frozenset]] = {}
                for cov in covers:
                    groups.setdefault(
                        reachability_signature(G, cov), set()
                    ).add(cov.occupied)
                if {frozenset(g) for g in groups.values()} != {
                    frozenset(c) for c in classes
                }:
                    mismatches += 1
                    print(f"MISMATCH graph={G.components[0]} k={k} size={size}")
                if args.witnesses:
                    for cls in classes:
                        members = [TokenSet(occ, k) for occ in cls]
                        for I in members:
                            for J in members:
                                pairs += 1
                                try:
                                    seq = build_sequence(G, I, J)
                                except LogicError as exc:
                                    bad_witnesses += 1
                                    print(f"WITNESS FAILED graph={G.components[0]} k={k} "
                                          f"start={sorted(map(str, I.occupied))} "
                                          f"target={sorted(map(str, J.occupied))}: {exc}")
                                    continue
                                if not (
                                    validate_sequence(G, k, seq)
                                    and seq.end.occupied == J.occupied
                                ):
                                    bad_witnesses += 1
                engine_s += time.perf_counter() - t1
        if graphs % 25 == 0:
            print(f"... {graphs} graphs, {cases} cases, {pairs} pairs, "
                  f"{time.perf_counter() - t0:.1f}s", file=sys.stderr)

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(f"graphs={graphs} cases={cases} decision_mismatches={mismatches} "
          f"witness_pairs={pairs} witness_failures={bad_witnesses} "
          f"oracle_s={oracle_s:.2f} engine_s={engine_s:.2f} "
          f"peak_rss_mb={peak_kib / 1024:.1f} "
          f"elapsed={time.perf_counter() - t0:.1f}s")
    return 1 if (mismatches or bad_witnesses) else 0


if __name__ == "__main__":
    raise SystemExit(main())
