"""Acceptance suite: eight numbered criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria 1-6 and 8 work over the exhaustive small family (every canonical
caterpillar with spine 2-5, per-vertex leaf counts 0-2, at most 12 vertices;
k in {4, 5}; every cover of size psi..psi+2).  Criterion 3 walks every
ordered YES pair of that family and takes three to seven minutes; criterion 7
benchmarks the large-instance path.

The exact family counts asserted below (191 graphs, 1146 cases, 34420
covers) were derived once from the enumeration and frozen so that a silent
change in the generators cannot shrink the suite unnoticed.
"""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from kpvcr import (
    CaterpillarForest,
    TokenSet,
    VertexId,
    build_sequence,
    enumerate_caterpillars,
    enumerate_kpvcs,
    find_h_regions,
    is_kpvc,
    minimum_cover_size,
    oracle_reachable,
    oracle_reachable_covers,
    oracle_rigid_set,
    partition,
    reachability_classes,
    reachability_signature,
    rigid_set,
    is_ts_reachable,
    validate_sequence,
)

from conftest import cat, toks, vs


def _v(x):
    return VertexId.parse(x)


def _report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {verdict} -- {detail}", flush=True)


# ---------------------------------------------------------------------------
# Shared family data, built once per session
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def shared():
    return {}


def _suite(shared):
    if "cases" not in shared:
        graphs = [G for G in enumerate_caterpillars(5, 2) if G.n <= 12]
        cases = []
        for G in graphs:
            for k in (4, 5):
                psi = minimum_cover_size(G, k)
                for size in range(psi, min(G.n, psi + 2) + 1):
                    covers = sorted(
                        enumerate_kpvcs(G, k, size),
                        key=lambda t: sorted(v.sort_key for v in t.occupied),
                    )
                    if covers:
                        cases.append((G, k, size, covers))
        assert len(graphs) == 191
        assert len(cases) == 1146
        assert sum(len(c[3]) for c in cases) == 34420
        shared["graphs"] = graphs
        shared["cases"] = cases
    return shared["graphs"], shared["cases"]


def _classes(shared):
    """Oracle BFS reachability classes for every case, built on first use."""
    if "classes" not in shared:
        _, cases = _suite(shared)
        t0 = time.perf_counter()
        shared["classes"] = [
            reachability_classes(G, k, size) for (G, k, size, _) in cases
        ]
        shared["classes_time"] = time.perf_counter() - t0
    return shared["classes"]


def _sorted_covers(cls):
    return sorted(cls, key=lambda f: sorted(v.sort_key for v in f))


# ---------------------------------------------------------------------------
# Figure encodings (shared with the unit suite)
# ---------------------------------------------------------------------------

FIG1 = cat(5, {1: 2, 3: 3, 5: 2})
FIG1_COVER_A = toks(3, "s1", "s3", "s5", "l3.1", "l5.1", "l5.2")
FIG1_COVER_B = toks(3, "s1", "s3", "s4", "s5", "l3.1", "l3.2")

FIG3 = cat(8, {1: 2, 6: 3, 8: 1})
FIG3_COVER = toks(3, "s1", "s4", "s6", "l6.1", "s7", "s8")


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_decision_oracle_equivalence(shared):
    """is_ts_reachable agrees with the oracle BFS on every ordered pair.

    Both verdicts are equivalence relations on the equal-size covers of a
    case (the solver compares signatures; the oracle's reachable-set relation
    is symmetric and transitive on covers).  Two equivalence relations agree
    on every ordered pair exactly when they induce the same partition, so
    comparing the signature grouping against the oracle classes checks all
    pairs at once.  A direct sample of ordered pairs guards the argument.
    """
    _, cases = _suite(shared)
    t0 = time.perf_counter()
    classes = _classes(shared)
    failures = []
    total_pairs = 0
    for (G, k, size, covers), cls in zip(cases, classes):
        mine = {}
        for cov in covers:
            sig = reachability_signature(G, cov)
            mine.setdefault(sig, set()).add(cov.occupied)
        got = {frozenset(g) for g in mine.values()}
        want = {frozenset(c) for c in cls}
        total_pairs += len(covers) ** 2
        if got != want:
            failures.append((G, k, size))
    # spot sample through the public entry points
    rng = random.Random(11)
    sampled = 0
    for _ in range(4000):
        i = rng.randrange(len(cases))
        G, k, size, covers = cases[i]
        a = rng.choice(covers)
        b = rng.choice(covers)
        fast = is_ts_reachable(G, a, b)
        slow = oracle_reachable(G, a, b)
        if fast != slow:
            failures.append((G, k, a.occupied, b.occupied))
        sampled += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 900
    _report(
        1,
        "decision vs oracle",
        ok,
        f"{len(cases)} cases, {total_pairs} ordered pairs via partitions, "
        f"{sampled} sampled directly, {elapsed:.1f}s",
    )
    assert not failures, failures[:5]
    assert elapsed < 900


def test_criterion_2_rigidity_oracle_equivalence(shared):
    """rigid_set equals the oracle rigid set for every cover in the family.

    The oracle rigid set of I is the intersection of I's oracle reachability
    class (the vertices present in every reachable cover), so the class data
    already encodes it; a direct oracle_rigid_set sample guards the identity.
    """
    _, cases = _suite(shared)
    classes = _classes(shared)
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for (G, k, size, covers), cls in zip(cases, classes):
        for members in cls:
            want = frozenset.intersection(*members)
            for occ in members:
                got = rigid_set(G, TokenSet(occ, k)).rigid
                if got != want:
                    failures.append((G, k, occ, got, want))
                checked += 1
    rng = random.Random(17)
    for _ in range(300):
        i = rng.randrange(len(cases))
        G, k, size, covers = cases[i]
        cov = rng.choice(covers)
        if rigid_set(G, cov).rigid != oracle_rigid_set(G, cov):
            failures.append((G, k, cov.occupied))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "rigid set vs oracle",
        not failures,
        f"{checked} covers plus 300 direct oracle samples, {elapsed:.1f}s",
    )
    assert not failures, failures[:5]


@pytest.mark.slow
def test_criterion_3_witness_soundness_completeness(shared):
    """build_sequence yields a validate_sequence-accepted I-to-J witness for
    every ordered YES pair of the family (identity pairs included)."""
    _, cases = _suite(shared)
    classes = _classes(shared)
    t0 = time.perf_counter()
    failures = []
    total = 0
    for (G, k, size, covers), cls in zip(cases, classes):
        for members in cls:
            ordered = _sorted_covers(members)
            tokensets = [TokenSet(occ, k) for occ in ordered]
            for I in tokensets:
                for J in tokensets:
                    seq = build_sequence(G, I, J)
                    good = (
                        seq.start.occupied == I.occupied
                        and seq.end.occupied == J.occupied
                        and validate_sequence(G, k, seq)
                    )
                    if not good:
                        failures.append((G, k, I.occupied, J.occupied))
                    total += 1
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "witnesses for all YES pairs",
        not failures,
        f"{total} ordered YES pairs, {len(failures)} failures, {elapsed:.1f}s",
    )
    assert not failures, failures[:5]


def test_criterion_4_partition_optimality(shared):
    """partition(...).psi matches the brute-force minimum cover size for
    every tree in the family and every root; representatives form a cover."""
    graphs, _ = _suite(shared)
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for G in graphs:
        comp = G.components[0]
        allv = sorted(comp.all_vertices())
        for k in (4, 5):
            brute = next(
                s for s in range(G.n + 1) if enumerate_kpvcs(G, k, s)
            )
            for r in allv:
                res = partition(G, k, r)
                reps = TokenSet.of(k, res.representatives)
                if res.psi != brute or not is_kpvc(G, reps):
                    failures.append((G, k, r, res.psi, brute))
                checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        4,
        "partition optimality",
        not failures,
        f"{checked} (tree, k, root) triples, {elapsed:.1f}s",
    )
    assert not failures, failures[:5]


def test_criterion_5_h_region_structure(shared):
    """H-region shape: never more than two regions, at most one for k >= 4,
    spine size within [2k-5, 2k-1]; the two figure-1 instances pin down the
    two-region and zero-region k = 3 cases bit for bit."""
    graphs, cases = _suite(shared)
    t0 = time.perf_counter()
    failures = []
    checked = 0
    two_region_hits = 0

    def sweep(G, cov, k_at_least_4):
        nonlocal checked, two_region_hits
        comp = G.canonical().components[0]
        for u in sorted(cov.occupied):
            if u not in comp.spine:
                continue
            regs = find_h_regions(G, cov, u)
            checked += 1
            if len(regs) > 2 or (k_at_least_4 and len(regs) > 1):
                failures.append((G, cov.k, u, len(regs)))
            if len(regs) == 2:
                two_region_hits += 1
            for r in regs:
                if u not in r.vertices:
                    failures.append((G, cov.k, u, "u outside region"))
                if not 2 * cov.k - 5 <= r.spine_size <= 2 * cov.k - 1:
                    failures.append((G, cov.k, u, r.spine_size))

    for G, k, size, covers in cases:
        for cov in covers:
            sweep(G, cov, True)
    # k = 3 sweep: the only setting where two regions can coexist
    for G in graphs:
        psi3 = minimum_cover_size(G, 3)
        for size in (psi3, psi3 + 1):
            if size > G.n:
                continue
            for cov in enumerate_kpvcs(G, 3, size):
                sweep(G, cov, False)

    regs_a = find_h_regions(FIG1, FIG1_COVER_A, _v("s3"))
    if len(regs_a) != 2 or {r.vertices for r in regs_a} != {
        vs("s2", "s3", "l3.1", "l3.2", "l3.3"),
        vs("s3", "s4", "l3.1", "l3.2", "l3.3"),
    }:
        failures.append(("fig-1a", regs_a))
    if find_h_regions(FIG1, FIG1_COVER_B, _v("s3")) != ():
        failures.append(("fig-1b", "expected no region"))
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "H-region structure",
        not failures,
        f"{checked} (cover, u) probes, {two_region_hits} two-region k=3 hits, "
        f"figure checks exact, {elapsed:.1f}s",
    )
    assert not failures, failures[:5]
    assert two_region_hits > 0


def test_criterion_6_remark_blocking_scenario():
    """The figure-3 instance at k = 3, checked purely through the oracle:
    the cover is valid, s4 slides to s3 immediately, and no reachable cover
    touches the H-region around s1 other than through s1's own token."""
    t0 = time.perf_counter()
    failures = []
    k = 3
    size = len(FIG3_COVER)
    valid = enumerate_kpvcs(FIG3, k, size)
    if FIG3_COVER not in valid:
        failures.append("start cover invalid")
    slid = FIG3_COVER.occupied - {_v("s4")} | {_v("s3")}
    if TokenSet(slid, k) not in valid:
        failures.append("s4 -> s3 slide does not land on a cover")
    (region,) = find_h_regions(FIG3, FIG3_COVER, _v("s1"))
    if region.vertices != vs("s1", "s2", "l1.1", "l1.2"):
        failures.append(("unexpected region", region.vertices))
    covers = oracle_reachable_covers(FIG3, FIG3_COVER)
    for c in covers:
        if c & region.vertices != vs("s1"):
            failures.append(("region breached", c))
    if not any(_v("s3") in c for c in covers):
        failures.append("oracle never saw the immediate slide")
    elapsed = time.perf_counter() - t0
    _report(
        6,
        "figure-3 blocking regression",
        not failures,
        f"{len(covers)} reachable covers sealed off the region, {elapsed:.1f}s",
    )
    assert not failures, failures[:5]


_BENCH_SCRIPT = """
import json, random, time
from kpvcr import CaterpillarForest, TokenSet, is_ts_reachable, partition, rigid_set

def make(spine, seed, prob=0.4):
    rng = random.Random(seed)
    leaves = {i: rng.randint(1, 2) for i in range(1, spine + 1) if rng.random() < prob}
    return CaterpillarForest.from_counts(spine, leaves)

def graph_with_n(target, seed):
    spine = target // 2
    G = make(spine, seed)
    while G.n < target:
        spine += max(1, (target - G.n) * 2 // 5)
        G = make(spine, seed)
    return G

points = []
for target in (500, 1000, 2000, 4000):
    G = graph_with_n(target, 42)
    comp = G.components[0]
    cover = TokenSet.of(4, partition(G, 4, comp.spine[0]).representatives)
    t0 = time.perf_counter()
    rigid_set(G, cover)
    points.append((G.n, time.perf_counter() - t0))

G = graph_with_n(5000, 42)
comp = G.components[0]
I = TokenSet.of(4, partition(G, 4, comp.spine[0]).representatives)
J = TokenSet.of(4, partition(G, 4, comp.spine[-1]).representatives)
t0 = time.perf_counter()
verdict = is_ts_reachable(G, I, J)
print(json.dumps({
    "points": points,
    "decide_n": G.n,
    "verdict": verdict,
    "decide_time": time.perf_counter() - t0,
}))
"""


def test_criterion_7_complexity_envelope():
    """rigid_set log-log slope over n in {500, 1000, 2000, 4000} stays under
    3.3, and a full decide on an n >= 5000 instance finishes within 60 s.

    Measured in a fresh interpreter, so that the heap, allocator and GC
    state the other criteria leave behind bill no unrelated work to this
    timing.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _BENCH_SCRIPT],
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    points = data["points"]
    verdict = data["verdict"]
    decide_time = data["decide_time"]
    # least-squares slope of log t against log n
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(t, 1e-6)) for _, t in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )

    ok = slope <= 3.3 and decide_time <= 60.0
    timing = ", ".join(f"n={n}:{t:.2f}s" for n, t in points)
    _report(
        7,
        "complexity envelope",
        ok,
        f"{timing}, slope {slope:.2f} (bound 3.3), decide n={data['decide_n']} "
        f"-> {verdict} in {decide_time:.1f}s (bound 60s)",
    )
    assert slope <= 3.3
    assert decide_time <= 60.0
    assert verdict is True


def test_criterion_8_sequence_algebra(shared):
    """Randomized law checks on witnesses: rev o rev is the identity, every
    reversal validates back-to-front, and concatenation of chaining
    sequences stays valid; at least 1000 checks, zero failures."""
    _, cases = _suite(shared)
    classes = _classes(shared)
    t0 = time.perf_counter()
    rng = random.Random(20260823)
    failures = []
    checks = 0
    pool = [
        (i, _sorted_covers(members))
        for i, cls in enumerate(classes)
        for members in cls
        if len(members) >= 2
    ]
    while checks < 1000:
        i, members = pool[rng.randrange(len(pool))]
        G, k, size, _ = cases[i]
        a, b, c = (rng.choice(members) for _ in range(3))
        I, J, K = TokenSet(a, k), TokenSet(b, k), TokenSet(c, k)
        seq = build_sequence(G, I, J)
        rev = seq.reverse()
        if not (validate_sequence(G, k, rev) and rev.end.occupied == a):
            failures.append(("rev validity", G, a, b))
        checks += 1
        rr = rev.reverse()
        if rr.start.occupied != seq.start.occupied or rr.moves != seq.moves:
            failures.append(("rev o rev", G, a, b))
        checks += 1
        tail = build_sequence(G, J, K)
        both = seq + tail
        if not (
            validate_sequence(G, k, both)
            and both.start.occupied == a
            and both.end.occupied == c
        ):
            failures.append(("concat closure", G, a, b, c))
        checks += 1
    elapsed = time.perf_counter() - t0
    _report(
        8,
        "sequence algebra",
        not failures,
        f"{checks} randomized law checks, {len(failures)} failures, "
        f"{elapsed:.1f}s",
    )
    assert checks >= 1000
    assert not failures, failures[:5]
