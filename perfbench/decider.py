"""Reference decider for implication, independent of the chase.

An acyclic join dependency is equivalent to the multivalued dependencies
along the edges of its join tree (Beeri, Fagin, Maier and Yannakakis 1983):
cutting a tree edge splits the attributes into the two sides' unions, and
their intersection multidetermines either side.  Implication among sets of
multivalued dependencies is decided by the dependency basis (Beeri 1980).
So a target is implied exactly when every multivalued dependency of its join
tree follows from those of the constraints' join trees.

Dependencies are given as (edges, branching): the edges in certificate
order, and `branching[i]` the position the edge at position i hangs under
(None at the root), as in `HypertreeCertificate.branching`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Edges = Sequence[frozenset]
Tree = tuple[Edges, Sequence]
Mvd = tuple[frozenset, frozenset]


def tree_mvds(edges: Edges, branching: Sequence) -> list[Mvd]:
    """(separator, side) for each tree edge; raises ValueError if the tree is no join tree."""
    n = len(edges)
    if len(branching) != n or (n and branching[0] is not None):
        raise ValueError("branching must have one entry per edge and none at the root")
    below: list[set[int]] = [{i} for i in range(n)]
    for i in range(n - 1, 0, -1):
        p = branching[i]
        if p is None or not 0 <= p < i:
            raise ValueError(f"position {i} must hang under an earlier position")
        below[p] |= below[i]
    mvds = []
    for i in range(1, n):
        side = frozenset().union(*(edges[j] for j in below[i]))
        rest = frozenset().union(*(edges[j] for j in range(n) if j not in below[i]))
        sep = side & rest
        if sep != edges[i] & edges[branching[i]]:
            raise ValueError(f"tree edge at position {i} violates the running intersection property")
        mvds.append((sep, side - sep))
    return mvds


def dependency_basis(x: frozenset, universe: frozenset, mvds: Iterable[Mvd]) -> list[frozenset]:
    """Beeri's refinement: the coarsest partition of universe - x that every MVD respects."""
    mvds = list(mvds)
    blocks = [universe - x] if universe - x else []
    changed = True
    while changed:
        changed = False
        for v, w in mvds:
            for k, y in enumerate(blocks):
                if y & v or not (y & w) or not (y - w):
                    continue
                blocks[k : k + 1] = [y & w, y - w]
                changed = True
                break
            if changed:
                break
    return blocks


def implied(constraints: Iterable[Tree], target: Tree) -> bool:
    """Whether the constraints' join-tree MVDs imply every MVD of the target's join tree."""
    universe = frozenset().union(*target[0])
    given = [m for edges, branching in constraints for m in tree_mvds(edges, branching)]
    for sep, side in tree_mvds(*target):
        blocks = dependency_basis(sep, universe, given)
        if not all(b <= side or not (b & side) for b in blocks):
            return False
    return True


def tree_of(gajd) -> Tree:
    """The (edges, branching) pair of a parsed `Gajd`, read from its certificate."""
    return (
        [frozenset(e) for e in gajd.edges_in_order],
        gajd.certificate.branching,
    )
