"""Oracle families past the exhaustive one.

Criteria 1 and 2 (tests/test_acceptance.py) stop at spine 5, so H-region
windows wider than five spine positions, and the feed and anchor cases
around them, never meet the oracle there.  This family does: every
canonical caterpillar with spine exactly 7 and at most 2 leaves per vertex,
k = 4, every cover of size psi..psi+1.  Each signature grouping must equal
the breadth-first search's reachability classes, and each cover's rigid set
must equal the intersection of its class.

Witnesses on this family still fail on 106 star pairs, and spine 8 carries
a wrong verdict; tests/test_planner.py::TestKnownDefects pins both.
"""

from kpvcr import (
    TokenSet,
    enumerate_caterpillars,
    minimum_cover_size,
    reachability_classes,
    reachability_signature,
)


def test_spine7_signatures_and_rigid_sets():
    graphs = covers = 0
    failures = []
    for G in enumerate_caterpillars(7, 2):
        if len(G.components[0].spine) != 7:
            continue
        graphs += 1
        psi = minimum_cover_size(G, 4)
        for size in (psi, psi + 1):
            classes = reachability_classes(G, 4, size)
            groups: dict[tuple, set] = {}
            for cls in classes:
                rigid = frozenset.intersection(*cls)
                for occ in cls:
                    covers += 1
                    sig = reachability_signature(G, TokenSet(occ, 4))
                    groups.setdefault(sig, set()).add(occ)
                    if sig[1] != rigid:
                        failures.append(("rigid set", G, occ, sig[1], rigid))
            if {frozenset(g) for g in groups.values()} != {frozenset(c) for c in classes}:
                failures.append(("classes", G, size))
    # frozen from the enumeration, so a change in the generators cannot
    # shrink the family unnoticed
    assert (graphs, covers) == (1134, 59795)
    assert not failures, failures[:5]
