"""Byte-for-byte pin of the certificates hypertree recognition finds.

For every covering hypertree of up to three edges over four attributes, in
the order `covering_hypertrees` lists its edges and in reverse order (which
is often not a tree construction ordering, so the greedy reduction runs),
the golden records the certificate's ordering and branching and the
interaction set, in certificate order.  For every covering edge set of up to
three edges that is not a hypertree, and for the four-cycle, it records the
witness `find_certificate` returns.  A change to the smallest-branch choice,
to the greedy reduction or to the overlaps shows up as a diff.

Regenerate (only when a change to the certificates is intended) with

    PYTHONPATH=src python tests/test_certificate_golden.py
"""

import itertools

from gajdchase.hypergraph import Hypergraph, NotHypertree, find_certificate, interaction_set
from conftest import GOLDEN_DIR, covering_hypertrees

GOLDEN = GOLDEN_DIR / "certificates.txt"
ATTRS = ("A", "B", "C", "D")
MAX_EDGES = 3


def non_hypertrees() -> list[tuple[tuple[str, ...], ...]]:
    subsets = [c for r in range(1, len(ATTRS) + 1) for c in itertools.combinations(ATTRS, r)]
    found = [
        combo
        for k in range(1, MAX_EDGES + 1)
        for combo in itertools.combinations(subsets, k)
        if set().union(*combo) == set(ATTRS) and isinstance(find_certificate(Hypergraph(combo)), NotHypertree)
    ]
    return found + [(("A", "B"), ("B", "C"), ("C", "D"), ("A", "D"))]


def describe(edges) -> str:
    h = Hypergraph(edges)
    found = find_certificate(h)
    if isinstance(found, NotHypertree):
        return f"{h.render()} witness={' '.join(map(str, found.witness))}"
    branching = " ".join("-" if b is None else str(b) for b in found.branching)
    shared = " ".join(s.render() for s in interaction_set(found, h))
    return (
        f"{h.render()} ordering={' '.join(map(str, found.ordering))} branching={branching} interactions={shared}"
    )


def render_certificates() -> str:
    out = []
    for g in covering_hypertrees(ATTRS, MAX_EDGES):
        edges = g.hypergraph.edges
        out.append(describe(edges))
        out.append(describe(edges[::-1]))
    for edges in non_hypertrees():
        out.append(describe(edges))
        out.append(describe(edges[::-1]))
    return "\n".join(out) + "\n"


def test_certificates_golden():
    assert render_certificates() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render_certificates())
