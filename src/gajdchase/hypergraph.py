"""Attribute sets, hypergraphs, and hypertree recognition.

A hypergraph over named attributes is a *hypertree* when its edges can be
listed in a tree construction ordering: each edge after the first must be a
twig of the prefix ending at it.  An edge E is a twig within a set of edges
when the part of E shared with the rest of the set is already contained in a
single other edge, the *branch*.  A certificate records one such ordering
together with a branching function, and the multiset of branch/twig
intersections along it is the interaction set, which does not depend on the
ordering chosen.  By the twig equation each intersection is what the twig
shares with its prefix, so validating a certificate computes it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Union

from .errors import InvalidCertificateError

Attribute = str


class AttributeSet:
    """An immutable, canonically ordered set of attribute names.

    Iteration order is the sorted name order, which fixes column order in
    relations and tableaux.  The empty set is allowed (it arises as the
    intersection of disjoint edges).
    """

    __slots__ = ("_members",)

    def __init__(self, members: Iterable[str] = ()):
        names = sorted(set(members))
        for name in names:
            if not name or not name.isidentifier():
                raise ValueError(f"attribute name must be an identifier, got {name!r}")
        self._members = tuple(names)

    @property
    def members(self) -> tuple[str, ...]:
        return self._members

    def __iter__(self) -> Iterator[str]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, name: object) -> bool:
        return name in self._members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributeSet):
            return NotImplemented
        return self._members == other._members

    def __hash__(self) -> int:
        return hash(self._members)

    def __or__(self, other: "AttributeSet") -> "AttributeSet":
        return AttributeSet(self._members + other._members)

    def __and__(self, other: "AttributeSet") -> "AttributeSet":
        return AttributeSet(n for n in self._members if n in other)

    def __sub__(self, other: "AttributeSet") -> "AttributeSet":
        return AttributeSet(n for n in self._members if n not in other)

    def __le__(self, other: "AttributeSet") -> bool:
        return all(n in other for n in self._members)

    def index(self, name: str) -> int:
        return self._members.index(name)

    def __repr__(self) -> str:
        return f"AttributeSet({list(self._members)!r})"

    def render(self) -> str:
        return "{" + " ".join(self._members) + "}"

    @staticmethod
    def union(sets: Iterable["AttributeSet"]) -> "AttributeSet":
        out: list[str] = []
        for s in sets:
            out.extend(s.members)
        return AttributeSet(out)


class Hypergraph:
    """A sequence of distinct, nonempty hyperedges over the union of their attributes.

    Edge order is preserved as given; certificates refer to edges by index.
    """

    __slots__ = ("nodes", "edges")

    def __init__(self, edges: Iterable[Iterable[str]]):
        coerced = tuple(e if isinstance(e, AttributeSet) else AttributeSet(e) for e in edges)
        if not coerced:
            raise ValueError("a hypergraph needs at least one edge")
        for e in coerced:
            if len(e) == 0:
                raise ValueError("hyperedges must be nonempty")
        if len(set(coerced)) != len(coerced):
            raise ValueError("duplicate hyperedges are not allowed")
        self.edges: tuple[AttributeSet, ...] = coerced
        self.nodes: AttributeSet = AttributeSet.union(coerced)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.edges == other.edges

    def __hash__(self) -> int:
        return hash(self.edges)

    def __repr__(self) -> str:
        return f"Hypergraph({[list(e) for e in self.edges]!r})"

    def render(self) -> str:
        return "".join(e.render() for e in self.edges)


def _shared(h: Hypergraph, candidate: int, others: Iterable[int]) -> AttributeSet:
    """What edge `candidate` shares with the union of the edges `others`: the twig equation's left side."""
    return AttributeSet.union(h.edges[j] for j in others) & h.edges[candidate]


class TwigResult(NamedTuple):
    is_twig: bool
    branch: int | None


def is_twig(h: Hypergraph, candidate: int, within: Iterable[int]) -> TwigResult:
    """Test whether edge `candidate` is a twig within the edge-index set `within`.

    Returns the smallest branch index when the twig equation
    (union of the other edges) ∩ candidate == branch ∩ candidate holds for
    some other edge.  A sole edge is trivially a twig with no branch.
    """
    idx = sorted(set(within))
    if candidate not in idx:
        raise ValueError(f"candidate edge {candidate} is not in the given set")
    if len(idx) == 1:
        return TwigResult(True, None)
    cand = h.edges[candidate]
    others = [j for j in idx if j != candidate]
    needed = _shared(h, candidate, others)
    for j in others:
        if (h.edges[j] & cand) == needed:
            return TwigResult(True, j)
    return TwigResult(False, None)


@dataclass(frozen=True)
class HypertreeCertificate:
    """A tree construction ordering plus a branching function.

    `ordering` is a permutation of edge indices; position 0 is the root.
    `branching[i]` is the position (not edge index) of the branch chosen for
    the edge at position i, with `branching[0]` always None.
    """

    ordering: tuple[int, ...]
    branching: tuple[int | None, ...]

    def __post_init__(self):
        n = len(self.ordering)
        if len(self.branching) != n:
            raise InvalidCertificateError("branching length must match ordering length")
        if self.branching and self.branching[0] is not None:
            raise InvalidCertificateError("the root position has no branch")
        for i in range(1, n):
            j = self.branching[i]
            if j is None or not 0 <= j < i:
                raise InvalidCertificateError(f"branch position for position {i} must lie in [0, {i})")


@dataclass(frozen=True)
class NotHypertree:
    """Recognition failure witness: edge indices none of which is a twig."""

    witness: tuple[int, ...]


class InteractionSet:
    """Branch ∩ twig intersections along a certificate, in certificate order.

    Compared as a multiset: the collection of intersections is the same for
    every valid certificate of a hypertree, though their order is not.
    """

    __slots__ = ("members",)

    def __init__(self, members: Iterable[AttributeSet]):
        self.members: tuple[AttributeSet, ...] = tuple(members)

    def as_multiset(self) -> Counter:
        return Counter(self.members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InteractionSet):
            return NotImplemented
        return Counter(self.members) == Counter(other.members)

    def __hash__(self) -> int:
        return hash(frozenset(Counter(self.members).items()))

    def __iter__(self) -> Iterator[AttributeSet]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"InteractionSet({[list(m) for m in self.members]!r})"


def validate_certificate(h: Hypergraph, cert: HypertreeCertificate) -> tuple[AttributeSet, ...]:
    """Each twig's overlap with its prefix, by replaying the twig test; raises InvalidCertificateError."""
    n = len(h.edges)
    if sorted(cert.ordering) != list(range(n)):
        raise InvalidCertificateError("ordering is not a permutation of the edge indices")
    shared = []
    for i in range(1, n):
        needed = _shared(h, cert.ordering[i], cert.ordering[:i])
        if (h.edges[cert.ordering[cert.branching[i]]] & h.edges[cert.ordering[i]]) != needed:
            raise InvalidCertificateError(
                f"edge at position {i} is not a twig of its prefix with the recorded branch"
            )
        shared.append(needed)
    return tuple(shared)


def _try_ordering(h: Hypergraph, ordering: tuple[int, ...]) -> HypertreeCertificate | None:
    """Build a certificate for a fixed ordering, choosing the smallest valid branch per position."""
    n = len(ordering)
    branching: list[int | None] = [None] * n
    for i in range(1, n):
        cand = h.edges[ordering[i]]
        needed = _shared(h, ordering[i], ordering[:i])
        for j in range(i):
            if (h.edges[ordering[j]] & cand) == needed:
                branching[i] = j
                break
        else:
            return None
    return HypertreeCertificate(ordering, tuple(branching))


def find_certificate(h: Hypergraph) -> Union[HypertreeCertificate, NotHypertree]:
    """Recognize a hypertree and return a deterministic certificate.

    The input edge order is tried first, so edges already listed in a tree
    construction ordering keep their positions.  Otherwise the edges are
    reduced greedily, removing the smallest-index twig at each step; greedy
    removal is order-safe, so a stuck reduction proves the hypergraph is not
    a hypertree and the stuck edge set is returned as the witness.
    """
    n = len(h.edges)
    identity = _try_ordering(h, tuple(range(n)))
    if identity is not None:
        return identity
    remaining = list(range(n))
    removed: list[int] = []
    while len(remaining) > 1:
        for e in remaining:
            ok, _branch = is_twig(h, e, remaining)
            if ok:
                removed.append(e)
                remaining.remove(e)
                break
        else:
            return NotHypertree(tuple(remaining))
    ordering = tuple(remaining + list(reversed(removed)))
    cert = _try_ordering(h, ordering)
    if cert is None:  # pragma: no cover - greedy reduction guarantees validity
        raise InvalidCertificateError("greedy reduction produced an invalid ordering")
    return cert


def interaction_set(cert: HypertreeCertificate, h: Hypergraph) -> InteractionSet:
    """The branch ∩ twig intersections of a valid certificate, in certificate order."""
    return InteractionSet(validate_certificate(h, cert))
