"""Weighted relations and the marginalize/product-join algebra.

A weighted relation is a finite table of tuples over an attribute set with
one nonnegative weight per tuple; a probability distribution is the special
case where the weights sum to one.  On top of plain marginalization and
product join, the monotone join of two relations divides out the marginal of
their shared attributes, which makes the two-operand case exactly
conditional independence given the intersection.  A generalized acyclic join
dependency (GAJD) asserts that a relation equals the left-to-right monotone
join of its marginals over a hypertree's edges.

Zero handling: the inverse relation is defined only where the weight is
nonzero, so zero-weight tuples are dropped by `inverse` and, consequently,
tuples whose intersection marginal vanishes are dropped by `monotone_join`.
This sparse algebra serves `tableau.run` and the symbolic evaluator; the
numeric oracle (`oracle.py`) runs the same map on dense arrays of strictly
positive distributions, where the zero-drop rule never applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as iterproduct
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import SchemeError, NotHypertreeError
from .hypergraph import (
    AttributeSet,
    Hypergraph,
    HypertreeCertificate,
    InteractionSet,
    NotHypertree,
    find_certificate,
    interaction_set,
)

ValueTuple = tuple[str, ...]


@dataclass(frozen=True)
class DomainSpec:
    """Finite value domains, one label list per attribute."""

    domains: Mapping[str, tuple[str, ...]]
    scheme: AttributeSet = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for attr, labels in self.domains.items():
            if not labels:
                raise ValueError(f"domain of {attr} must be nonempty")
            if len(set(labels)) != len(labels):
                raise ValueError(f"domain of {attr} has duplicate labels")
        object.__setattr__(self, "scheme", AttributeSet(self.domains.keys()))

    @classmethod
    def uniform(cls, attrs: Iterable[str], size: int = 2) -> "DomainSpec":
        return cls({a: tuple(str(i) for i in range(size)) for a in attrs})

    @classmethod
    def with_sizes(cls, attrs: Iterable[str], sizes: Mapping[str, int]) -> "DomainSpec":
        """Labels `0..size-1` per attribute; an attribute missing from `sizes` gets two."""
        return cls({a: tuple(str(i) for i in range(sizes.get(a, 2))) for a in attrs})

    def table_size(self) -> int:
        return math.prod(len(self.domains[a]) for a in self.scheme)

    def tuples(self) -> Iterator[ValueTuple]:
        """All value tuples over the scheme, attributes in canonical order, labels in declared order."""
        yield from iterproduct(*(self.domains[a] for a in self.scheme))


class WeightedRelation:
    """A finite map from value tuples over a scheme to nonnegative weights.

    Tuples are keyed by value tuples aligned with the scheme's canonical
    attribute order.  Instances are treated as immutable; every operation
    returns a new relation.  A tuple absent from the table carries weight 0.
    """

    __slots__ = ("scheme", "_rows")

    def __init__(self, scheme: AttributeSet, rows: Mapping[ValueTuple, float]):
        width = len(scheme)
        table: dict[ValueTuple, float] = {}
        for key, w in rows.items():
            key = tuple(key)
            if len(key) != width:
                raise SchemeError(f"tuple {key!r} does not match scheme {scheme.render()}")
            w = float(w)
            if not math.isfinite(w) or w < 0.0:
                raise ValueError(f"weight for {key!r} must be finite and nonnegative, got {w}")
            if key in table:
                raise ValueError(f"duplicate tuple {key!r}")
            table[key] = w
        self.scheme = scheme
        self._rows = table

    def items(self) -> Iterator[tuple[ValueTuple, float]]:
        return iter(self._rows.items())

    def keys(self) -> Iterator[ValueTuple]:
        return iter(self._rows.keys())

    def weight(self, key: ValueTuple) -> float:
        return self._rows.get(tuple(key), 0.0)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: object) -> bool:
        return key in self._rows

    def total(self) -> float:
        return math.fsum(self._rows.values())

    def max_abs_diff(self, other: "WeightedRelation") -> float:
        """Largest pointwise weight difference; missing tuples count as 0."""
        if self.scheme != other.scheme:
            raise SchemeError("cannot compare relations over different schemes")
        keys = set(self._rows) | set(other._rows)
        return max((abs(self.weight(k) - other.weight(k)) for k in keys), default=0.0)

    def __repr__(self) -> str:
        return f"WeightedRelation({self.scheme.render()}, {len(self._rows)} rows)"

    def to_text(self) -> str:
        """Serialize as a header of attribute names plus `f`, one tuple per line.

        Weights are printed with 17 significant digits so a round trip is
        value-exact for binary64.
        """
        lines = [" ".join(list(self.scheme) + ["f"])]
        for key in sorted(self._rows):
            lines.append(" ".join(list(key) + [format(self._rows[key], ".17g")]))
        return "\n".join(lines) + "\n"


def relation_from_domains(domains: DomainSpec, weights: Iterable[float]) -> WeightedRelation:
    """Dense relation over the full domain product, weights in tuple-iteration order."""
    keys = list(domains.tuples())
    ws = list(weights)
    if len(ws) != len(keys):
        raise ValueError(f"expected {len(keys)} weights, got {len(ws)}")
    return WeightedRelation(domains.scheme, dict(zip(keys, ws)))


def getter(cols: Sequence[int], scalar: bool) -> Callable[[Sequence], object]:
    """An `operator.itemgetter` of the entries at `cols` of a tuple, as a tuple (`()` for none).

    With `scalar`, one column reads as its value itself, as index keys are
    read.  This is the package's one reader of tuple components: relation
    keys, join projections and bindings, and atom keys are all read with it.
    """
    if len(cols) > 1 or (cols and scalar):
        return itemgetter(*cols)
    return itemgetter(slice(cols[0], cols[0] + 1) if cols else slice(0, 0))


def marginalize(rel: WeightedRelation, onto: AttributeSet) -> WeightedRelation:
    """Sum weights over the attributes outside `onto`; total mass is preserved."""
    if not onto <= rel.scheme:
        raise SchemeError(f"{onto.render()} is not a subset of {rel.scheme.render()}")
    proj = getter([rel.scheme.index(a) for a in onto], False)
    acc: dict[ValueTuple, float] = {}
    for key, w in rel.items():
        p = proj(key)
        acc[p] = acc.get(p, 0.0) + w
    return WeightedRelation(onto, acc)


def product_join(p: WeightedRelation, q: WeightedRelation) -> WeightedRelation:
    """Natural join of the tuple sets with pointwise multiplied weights."""
    shared = p.scheme & q.scheme
    out_scheme = p.scheme | q.scheme
    proj_p = getter([p.scheme.index(a) for a in shared], False)
    proj_q = getter([q.scheme.index(a) for a in shared], False)
    by_shared: dict[ValueTuple, list[tuple[ValueTuple, float]]] = {}
    for qk, qw in q.items():
        by_shared.setdefault(proj_q(qk), []).append((qk, qw))
    # An output key is read from the concatenation of the two keys, p's first.
    width = len(p.scheme)
    read = getter([p.scheme.index(a) if a in p.scheme else width + q.scheme.index(a) for a in out_scheme], False)
    rows: dict[ValueTuple, float] = {}
    for pk, pw in p.items():
        for qk, qw in by_shared.get(proj_p(pk), []):
            rows[read(pk + qk)] = pw * qw
    return WeightedRelation(out_scheme, rows)


def inverse(rel: WeightedRelation) -> WeightedRelation:
    """Reciprocal weights; tuples with weight 0 are dropped."""
    return WeightedRelation(rel.scheme, {k: 1.0 / w for k, w in rel.items() if w != 0.0})


def monotone_join(p: WeightedRelation, q: WeightedRelation) -> WeightedRelation:
    """Product join of p and q divided by the marginal of q on the shared attributes.

    Taking the intersection marginal from the second operand is a fixed
    convention; when p and q are marginals of one joint both choices agree.
    Tuples whose intersection marginal is zero are dropped.
    """
    shared = p.scheme & q.scheme
    return product_join(product_join(p, q), inverse(marginalize(q, shared)))


@dataclass(frozen=True)
class Gajd:
    """A generalized acyclic join dependency: a hypertree over the full scheme.

    A certificate passed in is validated at construction, and one found here
    is valid as built, so downstream code can rely on the ordering and
    branching without re-checking.  The edges in certificate order and the
    interaction set depend only on the certificate, so they are computed
    there too, once.
    """

    hypergraph: Hypergraph
    certificate: HypertreeCertificate | None = None
    edges_in_order: tuple[AttributeSet, ...] = field(init=False, compare=False, repr=False)
    interactions: InteractionSet = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        cert = self.certificate
        if cert is None:
            found = find_certificate(self.hypergraph)
            if isinstance(found, NotHypertree):
                edges = ", ".join(self.hypergraph.edges[i].render() for i in found.witness)
                raise NotHypertreeError(
                    f"no tree construction ordering exists; stuck edges: {edges}",
                    witness=found.witness,
                )
            cert = found
            object.__setattr__(self, "certificate", cert)
        # interaction_set validates a certificate passed in; a found one carries its overlaps.
        object.__setattr__(self, "interactions", interaction_set(cert, self.hypergraph))
        object.__setattr__(self, "edges_in_order", tuple(self.hypergraph.edges[i] for i in cert.ordering))

    @classmethod
    def from_edges(cls, edges: Iterable[Iterable[str]], certificate: HypertreeCertificate | None = None) -> "Gajd":
        return cls(Hypergraph(edges), certificate)

    @property
    def scheme(self) -> AttributeSet:
        return self.hypergraph.nodes

    def render(self) -> str:
        return "(x)" + self.hypergraph.render()


def mpj_map(rel: WeightedRelation, g: Gajd) -> WeightedRelation:
    """Left fold of the monotone join over the marginals in certificate order."""
    if rel.scheme != g.scheme:
        raise SchemeError(
            f"relation scheme {rel.scheme.render()} does not match constraint scheme {g.scheme.render()}"
        )
    edges = g.edges_in_order
    acc = marginalize(rel, edges[0])
    for edge in edges[1:]:
        acc = monotone_join(acc, marginalize(rel, edge))
    return acc


class SatisfiesResult(NamedTuple):
    holds: bool
    residual: float


def satisfies(rel: WeightedRelation, g: Gajd, tol: float = 1e-12) -> SatisfiesResult:
    """Whether `rel` is a fixed point of its own marginalize/product-join map, within `tol`."""
    residual = rel.max_abs_diff(mpj_map(rel, g))
    return SatisfiesResult(residual <= tol, residual)
