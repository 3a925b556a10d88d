"""Every signature of the exhaustive small family, pinned by a digest.

The family is the one the sweep benchmark decides: every canonical
caterpillar with spine 2-5, at most two leaves per vertex and at most 12
vertices, at k = 4 and 5, and every cover of size psi..psi+2 (34,420
covers).  Each cover's `reachability_signature` is rendered with its
members sorted, one line per cover, and the sorted lines are hashed, so a
change to how signatures are computed or remembered cannot alter any of
them unnoticed.
"""

from __future__ import annotations

import hashlib

from kpvcr import enumerate_caterpillars, enumerate_kpvcs, minimum_cover_size
from kpvcr.planner import reachability_signature

DIGEST = "722e07e6e3a29cbe728ef3c7506dc0939d13ae5294552a5790e44b33d501dcbb"


def _ids(vertices):
    return " ".join(map(str, sorted(vertices)))


def _lines():
    for G in enumerate_caterpillars(5, 2):
        if G.n > 12:
            continue
        (comp,) = G.components
        shape = f"{len(comp.spine)}:{','.join(str(len(ls)) for ls in comp.leaves)}"
        for k in (4, 5):
            psi = minimum_cover_size(G, k)
            for size in range(psi, min(G.n, psi + 2) + 1):
                for cov in enumerate_kpvcs(G, k, size):
                    n, rigid, counts = reachability_signature(G, cov)
                    tallies = " ".join(f"{v}={c}" for v, c in sorted(counts))
                    yield f"{shape} k={k} [{_ids(cov.occupied)}] -> {n} [{_ids(rigid)}] {tallies}"


def test_sweep_family_signatures():
    lines = sorted(_lines())
    assert len(lines) == 34420
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DIGEST
