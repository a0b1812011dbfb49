"""Attribute sets, hypergraphs, and hypertree recognition.

A hypergraph over named attributes is a *hypertree* when its edges can be
listed in a tree construction ordering: each edge after the first must be a
twig of the prefix ending at it.  An edge E is a twig within a set of edges
when the part of E shared with the rest of the set is already contained in a
single other edge, the *branch*.  A certificate records one such ordering
together with a branching function, and the multiset of branch/twig
intersections along it is the interaction set, which does not depend on the
ordering chosen.  By the twig equation each intersection is what the twig
shares with its prefix, so the walk that builds or validates a certificate
computes it.

Recognition and validation make one walk (`_walk`) over an ordering with one
running set of the prefix's attribute names.  Each overlap is a tuple of the
candidate edge's names, in its sorted order, so the twig test compares
tuples.  A hypergraph keeps the certificate recognition built for it with
the overlaps of that walk, so its interaction set is not walked for again.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple, Union

from .errors import InvalidCertificateError

Attribute = str


class AttributeSet:
    """An immutable, canonically ordered set of attribute names.

    Iteration order is the sorted name order, which fixes column order in
    relations and tableaux.  The empty set is allowed (it arises as the
    intersection of disjoint edges).  The constructor checks and sorts the
    names it is given.  `&`, `|`, `-` and `union` build their result from
    their operands' names, which are checked already: `&` and `-` keep the
    left operand's sorted order, `|` and `union` sort the merged names, and
    none of them checks a name again.
    """

    __slots__ = ("_members",)

    def __init__(self, members: Iterable[str] = ()):
        names = sorted(set(members))
        for name in names:
            if not name or not name.isidentifier():
                raise ValueError(f"attribute name must be an identifier, got {name!r}")
        self._members = tuple(names)

    @classmethod
    def _of(cls, names: tuple[str, ...]) -> "AttributeSet":
        """The set of `names`, which are valid, distinct and sorted already."""
        s = object.__new__(cls)
        s._members = names
        return s

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
        return AttributeSet._of(tuple(sorted({*self._members, *other._members})))

    def __and__(self, other: "AttributeSet") -> "AttributeSet":
        return AttributeSet._of(_overlap(self, other._members))

    def __sub__(self, other: "AttributeSet") -> "AttributeSet":
        theirs = other._members
        return AttributeSet._of(tuple([n for n in self._members if n not in theirs]))

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
        return AttributeSet._of(tuple(sorted(set().union(*[s._members for s in sets]))))


def _overlap(edge: AttributeSet, names) -> tuple[str, ...]:
    """The names of `edge` that are in the container `names`, in the edge's sorted order."""
    return tuple([n for n in edge._members if n in names])


class Hypergraph:
    """A sequence of distinct, nonempty hyperedges over the union of their attributes.

    Edge order is preserved as given; certificates refer to edges by index.
    Equality and hashing take the edges only.
    """

    __slots__ = ("nodes", "edges", "_walked")

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
        # The certificate `find_certificate` built for this hypergraph and its twigs' overlaps.
        self._walked: tuple[HypertreeCertificate, tuple[AttributeSet, ...]] | None = None

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
    needed = _overlap(cand, set().union(*(h.edges[j]._members for j in others)))
    for j in others:
        if _overlap(cand, h.edges[j]._members) == needed:
            return TwigResult(True, j)
    return TwigResult(False, None)


class _CertificateFields(NamedTuple):
    ordering: tuple[int, ...]
    branching: tuple[int | None, ...]


class HypertreeCertificate(_CertificateFields):
    """A tree construction ordering plus a branching function.

    `ordering` is a permutation of edge indices; position 0 is the root.
    `branching[i]` is the position (not edge index) of the branch chosen for
    the edge at position i, with `branching[0]` always None.  Construction
    checks the branching's shape; `validate_certificate` checks it against
    a hypergraph.
    """

    __slots__ = ()

    def __new__(cls, ordering: tuple[int, ...], branching: tuple[int | None, ...]) -> "HypertreeCertificate":
        n = len(ordering)
        if len(branching) != n:
            raise InvalidCertificateError("branching length must match ordering length")
        if branching and branching[0] is not None:
            raise InvalidCertificateError("the root position has no branch")
        for i in range(1, n):
            j = branching[i]
            if j is None or not 0 <= j < i:
                raise InvalidCertificateError(f"branch position for position {i} must lie in [0, {i})")
        return tuple.__new__(cls, (ordering, branching))


class NotHypertree(NamedTuple):
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


def _walk(
    edges: list[AttributeSet], branches: Callable[[int], Iterable[int]]
) -> tuple[list[int | None], list[AttributeSet]]:
    """Test each edge after the first as a twig of its prefix, in the order given.

    The branch of the edge at position i is the first position `branches(i)`
    yields at which the edge's overlap equals its overlap with the prefix.
    Returns the branching and the overlaps of the positions passed, so both
    are shorter than `edges` when some edge has no branch.
    """
    prefix = set(edges[0]._members)
    branching: list[int | None] = [None]
    shared = []
    for i in range(1, len(edges)):
        cand = edges[i]
        needed = _overlap(cand, prefix)
        for j in branches(i):
            if _overlap(cand, edges[j]._members) == needed:
                branching.append(j)
                break
        else:
            break  # no branch: the walk ends here
        shared.append(AttributeSet._of(needed))
        prefix.update(cand._members)
    return branching, shared


def validate_certificate(h: Hypergraph, cert: HypertreeCertificate) -> tuple[AttributeSet, ...]:
    """Each twig's overlap with its prefix, by replaying the twig test; raises InvalidCertificateError."""
    n = len(h.edges)
    if sorted(cert.ordering) != list(range(n)):
        raise InvalidCertificateError("ordering is not a permutation of the edge indices")
    passed, shared = _walk([h.edges[e] for e in cert.ordering], lambda i: (cert.branching[i],))
    if len(passed) < n:
        raise InvalidCertificateError(
            f"edge at position {len(passed)} is not a twig of its prefix with the recorded branch"
        )
    return tuple(shared)


def _try_ordering(h: Hypergraph, ordering: tuple[int, ...]) -> HypertreeCertificate | None:
    """Build a certificate for a fixed ordering, choosing the smallest valid branch per position."""
    branching, shared = _walk([h.edges[e] for e in ordering], range)
    if len(branching) < len(ordering):
        return None
    cert = HypertreeCertificate(ordering, tuple(branching))
    h._walked = cert, tuple(shared)
    return cert


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
    """The branch ∩ twig intersections of a certificate of `h`, in certificate order.

    For the certificate `find_certificate(h)` built, `h` keeps them from its
    walk; any other is validated here, and raises InvalidCertificateError
    when it is not a certificate of `h`.
    """
    walked = h._walked
    if walked is not None and walked[0] is cert:
        return InteractionSet(walked[1])
    return InteractionSet(validate_certificate(h, cert))
