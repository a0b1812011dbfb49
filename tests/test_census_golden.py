"""Byte-for-byte pin of the chase's traces over a seeded random census.

Each case is a random target and two random constraints over five or six
attributes.  The golden records the problem, the `implies --trace
--factorize` output and the closure's steps, so any change to the order in
which rules fire, to row ids, to weight expressions or to factorizations
shows up as a diff.

Regenerate (only when a change to the traces is intended) with

    PYTHONPATH=src python tests/test_census_golden.py
"""

import random

from gajdchase.chase import chase, implies
from gajdchase.cli import ProblemFile, Query, cmd_implies
from gajdchase.hypergraph import AttributeSet
from gajdchase.tableau import build_tr
from conftest import GOLDEN_DIR, chain_positive, random_hypertree

GOLDEN = GOLDEN_DIR / "census_traces.txt"
SEED = 5
CASES_PER_WIDTH = 30
WIDTHS = (5, 6)
MAX_EDGES = 4


def census_problems() -> list[ProblemFile]:
    rng = random.Random(SEED)
    problems = []
    for n in WIDTHS:
        attrs = [f"A{i}" for i in range(1, n + 1)]
        for _ in range(CASES_PER_WIDTH):
            target = random_hypertree(attrs, MAX_EDGES, rng)
            constraints = {f"C{k}": random_hypertree(attrs, MAX_EDGES, rng) for k in (1, 2)}
            query = Query(target, tuple(constraints))
            problems.append(ProblemFile(AttributeSet(attrs), {}, constraints, (query,)))
    return problems


def render_census() -> str:
    out = []
    for number, problem in enumerate(census_problems(), start=1):
        out.append(f"## case {number}")
        out.append(problem.render().rstrip("\n"))
        _, text = cmd_implies(problem, trace=True, factorize=True)
        out.append(text.rstrip("\n"))
        query = problem.queries[0]
        verdict = implies(problem.rules_for(query), query.target)
        if verdict.closure_trace is not None:
            out.append(f"closure stop: {verdict.closure_trace.stop_reason}")
            out.extend(verdict.closure_trace.render_steps())
    return "\n".join(out) + "\n"


def test_census_traces_golden():
    assert render_census() == GOLDEN.read_text()


def test_census_chase_counts():
    # The golden renders steps, not counts.  A continued run whose join
    # callbacks index another tableau than the one it appends to still
    # renders the same steps but counts fewer duplicates.
    verdict_dups = closure_dups = closure_rows = 0
    for problem in census_problems():
        query = problem.queries[0]
        verdict = implies(problem.rules_for(query), query.target)
        verdict_dups += verdict.trace.duplicates
        if verdict.closure_trace is not None:
            closure_dups += verdict.closure_trace.duplicates
            closure_rows += len(verdict.closure_trace.final)
    assert (verdict_dups, closure_dups, closure_rows) == (340, 240, 390)


def test_each_rule_emits_each_fixpoint_row_once():
    # Every fixpoint row is a join result of every rule (select it on each
    # edge), and each comes out once per rule and run.  Each result is a
    # duplicate or a pending application, and a pending one is either applied
    # or dropped as a duplicate, so the duplicates are R * |F| - (|F| - |T0|)
    # for R rules, fixpoint F and initial tableau T0.  A row's result from
    # its own projections counts as a duplicate without being formed; the
    # chains-shape negatives, with one split dropped, have two-edge rules only.
    cases = [(problem.rules_for(problem.queries[0]), problem.queries[0].target) for problem in census_problems()]
    for n in range(4, 9):
        constraints, target = chain_positive(n)
        cases += [(constraints[:drop] + constraints[drop + 1 :], target) for drop in range(len(constraints))]
    negatives = 0
    for rules, target in cases:
        verdict = implies(rules, target)
        if verdict.holds:
            continue
        negatives += 1
        closure = verdict.closure_trace
        fixpoint, initial = len(closure.final), len(verdict.trace.initial)
        expected = len(rules) * fixpoint - (fixpoint - initial)
        assert verdict.trace.duplicates + closure.duplicates == expected
        for rng in (None, random.Random(0)):
            fresh = chase(build_tr(target), rules, rng=rng)
            assert (len(fresh.final), fresh.duplicates) == (fixpoint, expected)
    assert negatives > 50


if __name__ == "__main__":
    GOLDEN.write_text(render_census())
