"""Metamorphic checks of `implies` on a seeded census: changes to a query that cannot change its answer.

Renaming attributes, reordering or repeating the constraints, and adding one
act on the chase's input, its tableau's coding and its rule order, but not
on the implication problem, so the verdict and the size of the fixpoint
that certifies a "no" stay put, and an added constraint keeps a "yes".
Implication is also transitive: what follows from the constraints together
with an implied target follows from the constraints alone.
"""

import random

import pytest

from gajdchase.chase import implies
from gajdchase.prelation import Gajd
from conftest import random_hypertree

SEED = 29
QUERIES = 150


def outcome(constraints, target):
    verdict = implies(constraints, target)
    return verdict.holds, None if verdict.holds else len(verdict.closure_trace.final)


def renamed(g: Gajd, names: dict) -> Gajd:
    return Gajd.from_edges([[names[a] for a in edge] for edge in g.hypergraph.edges])


@pytest.fixture(scope="module")
def census():
    """Seeded queries over 5-7 attributes: a target, two constraints, a spare one, and the outcome."""
    rng = random.Random(SEED)
    cases = []
    for k in range(QUERIES):
        attrs = [f"A{i}" for i in range(1, 5 + k % 3 + 1)]
        target, *constraints, spare = [random_hypertree(attrs, 4, rng) for _ in range(4)]
        cases.append((attrs, target, constraints, spare, outcome(constraints, target)))
    assert {holds for *_, (holds, _) in cases} == {True, False}
    return cases


def test_renaming_attributes(census):
    rng = random.Random(SEED)
    for attrs, target, constraints, _, expected in census:
        # Names that sort as the originals do, then names in a shuffled sort order.
        order_kept = {a: f"X{i:02d}" for i, a in enumerate(attrs)}
        shuffled = [f"Y{i}" for i in range(len(attrs))]
        rng.shuffle(shuffled)
        for names in (order_kept, dict(zip(attrs, shuffled))):
            assert outcome([renamed(c, names) for c in constraints], renamed(target, names)) == expected


def test_reordering_and_repeating_constraints(census):
    for _, target, constraints, _, expected in census:
        assert outcome(constraints[::-1], target) == expected
        assert outcome(constraints + constraints[:1], target) == expected
        assert outcome(constraints[1:] + constraints, target) == expected


def test_adding_a_constraint_keeps_yes(census):
    kept = 0
    for _, target, constraints, spare, (holds, _) in census:
        if holds:
            assert outcome(constraints + [spare], target)[0]
            assert outcome([spare] + constraints, target)[0]
            kept += 1
    assert kept >= 5


def test_implication_is_transitive(census):
    # If C implies T1 and C with T1 implies T2, then C implies T2; here T1 is the target and T2 the spare.
    chained = 0
    for _, target, constraints, spare, (holds, _) in census:
        if holds and implies(constraints + [target], spare).holds:
            assert implies(constraints, spare).holds
            chained += 1
    assert chained >= 10
