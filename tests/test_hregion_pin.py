"""Every H-region search result of a small exhaustive family, pinned by a
digest.

The family: every canonical caterpillar with spine 2-6, at most two leaves
per vertex and at most 11 vertices, at k = 3, 4 and 5, every cover of size
psi..psi+1, and every spine token u of the cover.  Each
`find_h_regions(G, cover, u)` result is rendered as its regions' sorted
window vertices, witness paths and spine sizes, one line per (cover, u),
and the sorted lines are hashed, so a change to how windows are found or
witnessed cannot alter any of them unnoticed.
"""

from __future__ import annotations

import hashlib

from kpvcr import enumerate_caterpillars, enumerate_kpvcs, find_h_regions, minimum_cover_size

DIGEST = "637d298b7573f5350221bed465a9abec5b45119369171f7850721fd305d18077"


def _ids(vertices):
    return " ".join(map(str, vertices))


def _lines():
    for G in enumerate_caterpillars(6, 2):
        if G.n > 11:
            continue
        (comp,) = G.components
        shape = f"{len(comp.spine)}:{','.join(str(len(ls)) for ls in comp.leaves)}"
        (spine,) = (set(c.spine) for c in G.canonical().components)
        for k in (3, 4, 5):
            psi = minimum_cover_size(G, k)
            for size in range(psi, min(G.n, psi + 1) + 1):
                for cov in enumerate_kpvcs(G, k, size):
                    for u in sorted(cov.occupied & spine):
                        regions = "; ".join(
                            f"[{_ids(sorted(r.vertices))}] "
                            f"{' | '.join(_ids(p) for p in r.witness_paths)} {r.spine_size}"
                            for r in find_h_regions(G, cov, u)
                        )
                        yield f"{shape} k={k} [{_ids(sorted(cov.occupied))}] u={u} -> {regions}"


def test_small_family_h_regions():
    lines = sorted(_lines())
    assert len(lines) == 48882
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DIGEST
