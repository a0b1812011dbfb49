import importlib
import itertools
import os
import random
import sys
from pathlib import Path

import pytest

from gajdchase.errors import NotHypertreeError
from gajdchase.hypergraph import AttributeSet, HypertreeCertificate, is_twig, validate_certificate
from gajdchase.oracle import random_positive
from gajdchase.prelation import DomainSpec, Gajd, WeightedRelation, relation_from_domains
from gajdchase.symbolic import MarginalAtom, RationalExpression, distinguished_for
from gajdchase.tableau import Row, Tableau

GOLDEN_DIR = Path(__file__).parent / "golden"


def benchmark_workload(name: str, seed: int):
    """The benchmark's workload `name` at `seed`, from `perfbench/gen.py`."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        gen = importlib.import_module("gen")
    finally:
        del sys.path[0]
    return gen.WORKLOADS[name](seed)


def subprocess_env() -> dict:
    """The environment for a child Python that imports the `gajdchase` these tests import."""
    import gajdchase

    src = str(Path(gajdchase.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


def covering_hypertrees(attrs, max_edges):
    """Every hypertree whose edges cover `attrs`, with at most `max_edges` edges."""
    universe = list(attrs)
    subsets = []
    for r in range(1, len(universe) + 1):
        subsets.extend(tuple(c) for c in itertools.combinations(universe, r))
    found = []
    for k in range(1, max_edges + 1):
        for combo in itertools.combinations(subsets, k):
            if set().union(*(set(e) for e in combo)) != set(universe):
                continue
            try:
                found.append(Gajd.from_edges(combo))
            except NotHypertreeError:
                continue
    return found


def random_hypertree(attrs, max_edges, rng):
    """One random covering hypertree, by rejection sampling over edge sets."""
    universe = list(attrs)
    subsets = []
    for r in range(1, len(universe) + 1):
        subsets.extend(tuple(c) for c in itertools.combinations(universe, r))
    while True:
        k = rng.randint(1, max_edges)
        combo = rng.sample(subsets, k)
        if set().union(*(set(e) for e in combo)) != set(universe):
            continue
        try:
            return Gajd.from_edges(combo)
        except NotHypertreeError:
            continue


def hypertree_census(rng):
    """Every covering hypertree over 2-4 attributes with up to 5 edges, plus random ones over 5-7."""
    census = []
    for attrs in (["A", "B"], ["A", "B", "C"], ["A", "B", "C", "D"]):
        census.extend(covering_hypertrees(attrs, 5))
    for n, samples in [(5, 40), (6, 30), (7, 20)]:
        attrs = [f"A{i+1}" for i in range(n)]
        census.extend(random_hypertree(attrs, 5, rng) for _ in range(samples))
    return census


def random_certificate(g: Gajd, rng: random.Random) -> HypertreeCertificate:
    """A uniformly scrambled valid certificate: random twig removal, random branch choice."""
    h = g.hypergraph
    n = len(h.edges)
    remaining = list(range(n))
    removal = []
    while len(remaining) > 1:
        twigs = [e for e in remaining if is_twig(h, e, remaining).is_twig]
        pick = rng.choice(twigs)
        removal.append(pick)
        remaining.remove(pick)
    ordering = tuple(remaining + list(reversed(removal)))
    branching: list[int | None] = [None] * n
    for i in range(1, n):
        cand = h.edges[ordering[i]]
        prefix = AttributeSet.union(h.edges[ordering[k]] for k in range(i))
        needed = prefix & cand
        options = [j for j in range(i) if (h.edges[ordering[j]] & cand) == needed]
        branching[i] = rng.choice(options)
    cert = HypertreeCertificate(ordering, tuple(branching))
    validate_certificate(h, cert)
    return cert


def reverse_greedy_certificate(g: Gajd) -> HypertreeCertificate:
    """A second deterministic strategy: remove the largest-index twig, pick the largest branch."""
    h = g.hypergraph
    n = len(h.edges)
    remaining = list(range(n))
    removal = []
    while len(remaining) > 1:
        twigs = [e for e in remaining if is_twig(h, e, remaining).is_twig]
        pick = max(twigs)
        removal.append(pick)
        remaining.remove(pick)
    ordering = tuple(remaining + list(reversed(removal)))
    branching: list[int | None] = [None] * n
    for i in range(1, n):
        cand = h.edges[ordering[i]]
        prefix = AttributeSet.union(h.edges[ordering[k]] for k in range(i))
        needed = prefix & cand
        options = [j for j in range(i) if (h.edges[ordering[j]] & cand) == needed]
        branching[i] = max(options)
    cert = HypertreeCertificate(ordering, tuple(branching))
    validate_certificate(h, cert)
    return cert


def positive_relation(domains: DomainSpec, seed: int) -> WeightedRelation:
    """The oracle's seeded positive joint as a dict relation, for the relation-algebra tests."""
    return relation_from_domains(domains, random_positive(domains, seed).ravel().tolist())


def relation_from_text(text: str) -> WeightedRelation:
    """Parse `WeightedRelation.to_text` output: a header of attributes plus `f`, one tuple per line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty relation text")
    header = lines[0].split()
    if not header or header[-1] != "f":
        raise ValueError("header must end with the weight column `f`")
    scheme = AttributeSet(header[:-1])
    if list(scheme) != header[:-1]:
        raise ValueError("header attributes must be listed in canonical sorted order")
    rows: dict[tuple[str, ...], float] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != len(header):
            raise ValueError(f"row {ln!r} does not match the header width")
        key = tuple(parts[:-1])
        if key in rows:
            raise ValueError(f"duplicate tuple {key!r} in row {ln!r}")
        rows[key] = float(parts[-1])
    return WeightedRelation(scheme, rows)


def is_normalized(rel: WeightedRelation, tol: float = 1e-12) -> bool:
    return abs(rel.total() - 1.0) <= tol


def identity_tableau(scheme: AttributeSet) -> Tableau:
    """The single all-distinguished row; the identity mapping on every relation."""
    cells = tuple(distinguished_for(scheme, a) for a in scheme)
    atom = RationalExpression.atom(MarginalAtom(scheme, cells))
    t = Tableau(scheme, atom)
    t.add_row(Row(cells, atom))
    return t


def pattern_set(t: Tableau) -> frozenset:
    return frozenset(row.cells for row in t.rows)


def contains_distinguished_row(t: Tableau) -> bool:
    """Whether `t` holds the all-distinguished row."""
    return t.has_pattern(t.distinguished_row())


def brute_marginal(rel: WeightedRelation, onto: AttributeSet) -> dict:
    """Independent marginalization: direct summation, no library reuse."""
    positions = [list(rel.scheme).index(a) for a in onto]
    out: dict = {}
    for key, w in rel.items():
        sub = tuple(key[i] for i in positions)
        out[sub] = out.get(sub, 0.0) + w
    return out


# Golden problem: the four-attribute chain target with its two covering splits.
CHAIN4_ATTRS = ["A1", "A2", "A3", "A4"]
CHAIN4_TARGET = [["A1", "A2"], ["A2", "A3"], ["A3", "A4"]]
CHAIN4_LEFT_SPLIT = [["A1", "A2"], ["A2", "A3", "A4"]]
CHAIN4_RIGHT_SPLIT = [["A1", "A2", "A3"], ["A3", "A4"]]

CHAIN4_PROBLEM = """\
attrs A1 A2 A3 A4
gajd C1 = {A1 A2} {A2 A3 A4}
gajd C2 = {A1 A2 A3} {A3 A4}
query {A1 A2} {A2 A3} {A3 A4} given C1 C2
"""

CHAIN4_NEGATIVE_PROBLEM = """\
attrs A1 A2 A3 A4
gajd C1 = {A1 A2} {A2 A3 A4}
query {A1 A2} {A2 A3} {A3 A4} given C1
"""


@pytest.fixture
def chain4():
    target = Gajd.from_edges(CHAIN4_TARGET)
    left = Gajd.from_edges(CHAIN4_LEFT_SPLIT)
    right = Gajd.from_edges(CHAIN4_RIGHT_SPLIT)
    return target, left, right


def chain_positive(n):
    """The chain {A1 A2}..{An-1 An} given every two-way split {A1..Ak}{Ak..An}, k = 2..n-1: implied."""
    attrs = [f"A{i}" for i in range(1, n + 1)]
    target = Gajd.from_edges([attrs[i : i + 2] for i in range(n - 1)])
    return [Gajd.from_edges([attrs[:k], attrs[k - 1 :]]) for k in range(2, n)], target
