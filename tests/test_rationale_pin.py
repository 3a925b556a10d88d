"""Every rationale tag of the exhaustive small family, pinned by a digest.

The family is the one the sweep benchmark decides and the signature pin
(`tests/test_signature_pin.py`) hashes: every canonical caterpillar with
spine 2-5, at most two leaves per vertex and at most 12 vertices, at k = 4
and 5, and every cover of size psi..psi+2 (34,420 covers).  The signature
holds only the rigid set, so a token whose verdict moves from one rigid
lemma to another would leave it unchanged.  Here each cover's
`rigid_set(...).rationale` is rendered with its tokens sorted, one line per
cover, and the sorted lines are hashed.
"""

from __future__ import annotations

import hashlib

from kpvcr import enumerate_caterpillars, enumerate_kpvcs, minimum_cover_size
from kpvcr.rigidity import rigid_set

DIGEST = "c166f10d33dc98284b05dcdbfa5e739c23c46a6f70d5574fbff5581a91c9ec40"


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
                    tags = sorted(rigid_set(G, cov).rationale.items())
                    yield f"{shape} k={k} " + " ".join(f"{v}={tag}" for v, tag in tags)


def test_sweep_family_rationale_tags():
    lines = sorted(_lines())
    assert len(lines) == 34420
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DIGEST
