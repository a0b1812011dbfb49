"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from contextlib import contextmanager

import pytest

from gajdchase.chase import JRule, chase, implies
from gajdchase.cli import cmd_implies, cmd_tableau, parse
from gajdchase.hypergraph import interaction_set
from gajdchase.oracle import (
    CounterexampleReport,
    OracleConfig,
    check_decomposition,
    check_soundness,
    search_counterexample,
)
from gajdchase.prelation import DomainSpec, Gajd, mpj_map
from gajdchase.tableau import build_tr, run
from conftest import (
    CHAIN4_NEGATIVE_PROBLEM,
    CHAIN4_PROBLEM,
    contains_distinguished_row,
    covering_hypertrees,
    hypertree_census,
    pattern_set,
    positive_relation,
    random_certificate,
    random_hypertree,
    reverse_greedy_certificate,
)


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    print(f"\nACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


EXPECTED_INITIAL_ROWS = ["(a1,a2,b1,b2)", "(b3,a2,a3,b4)", "(b5,b6,a3,a4)"]
EXPECTED_ROWS_AFTER_ONE = EXPECTED_INITIAL_ROWS + ["(a1,a2,a3,b4)"]
EXPECTED_ROWS_AFTER_TWO = EXPECTED_ROWS_AFTER_ONE + ["(a1,a2,a3,a4)"]
CHAIN_FACTORIZATION = "phi(a1,a2)*phi(a2,a3)*phi(a3,a4)/(phi(a2)*phi(a3))"

STUBBORN_TARGET = Gajd.from_edges([["A"], ["B", "C"]])
STUBBORN_CONSTRAINTS = [
    Gajd.from_edges([["B"], ["A", "C"]]),
    Gajd.from_edges([["C"], ["A", "B"], ["B", "C"]]),
]

COARSE_TARGET = Gajd.from_edges([["A", "B", "C"], ["C", "D"]])
COARSE_CONSTRAINT = Gajd.from_edges([["A", "B"], ["B", "C"], ["C", "D"]])


def chain4_pieces():
    target = Gajd.from_edges([["A1", "A2"], ["A2", "A3"], ["A3", "A4"]])
    left = Gajd.from_edges([["A1", "A2"], ["A2", "A3", "A4"]])
    right = Gajd.from_edges([["A1", "A2", "A3"], ["A3", "A4"]])
    return target, left, right


def positive_golden_cases():
    """Every implication in the golden suite whose verdict is yes."""
    target, left, right = chain4_pieces()
    single_target = Gajd.from_edges([["A", "B"]])
    independence = Gajd.from_edges([["A"], ["B"]])
    return [
        ("chain4_both_splits", [left, right], target),
        ("chain4_reflexive", [target], target),
        ("single_edge_vacuous", [independence], single_target),
        ("chain_coarsening", [COARSE_CONSTRAINT], COARSE_TARGET),
        ("detour_derivation", STUBBORN_CONSTRAINTS, STUBBORN_TARGET),
    ]


def test_criterion_1_initial_tableau_golden(golden_dir):
    with criterion(1, "initial tableau rendering", 1.0):
        problem = parse(CHAIN4_PROBLEM)
        code, text = cmd_tableau(problem, query_index=1)
        assert code == 0
        assert text == (golden_dir / "chain4_tableau.txt").read_text()
        t = build_tr(problem.queries[0].target)
        assert [r.render_pattern() for r in t.rows] == EXPECTED_INITIAL_ROWS
        assert [r.weight_expr.render() for r in t.rows] == [
            "phi(a1,a2,b1,b2)",
            "phi(b3,a2,a3,b4)",
            "phi(b5,b6,a3,a4)",
        ]


def test_criterion_2_two_step_trace_golden(golden_dir):
    with criterion(2, "two-step derivation trace", 1.0):
        problem = parse(CHAIN4_PROBLEM)
        code, text = cmd_implies(problem, trace=True, factorize=True)
        assert code == 0
        assert text == (golden_dir / "chain4_both_splits_implies.txt").read_text()
        target, left, right = chain4_pieces()
        verdict = implies([JRule("C1", left), JRule("C2", right)], target)
        assert [s.produced.render_pattern() for s in verdict.trace.steps] == [
            "(a1,a2,a3,b4)",
            "(a1,a2,a3,a4)",
        ]
        assert [(s.rule.name, s.selection) for s in verdict.trace.steps] == [
            ("C1", (0, 1)),
            ("C2", (3, 2)),
        ]
        assert [r.render_pattern() for r in verdict.trace.final.rows] == EXPECTED_ROWS_AFTER_TWO


def test_criterion_3_factorization_string():
    with criterion(3, "verdict and factorization", 1.0):
        target, left, right = chain4_pieces()
        verdict = implies([JRule("C1", left), JRule("C2", right)], target)
        assert verdict.holds
        assert verdict.factorization.render() == CHAIN_FACTORIZATION


def test_criterion_4_negative_verdict_golden(golden_dir):
    with criterion(4, "negative verdict, four-row trace", 1.0):
        problem = parse(CHAIN4_NEGATIVE_PROBLEM)
        code, text = cmd_implies(problem, trace=True)
        assert code == 0
        assert text == (golden_dir / "chain4_left_split_implies.txt").read_text()
        target, left, _ = chain4_pieces()
        verdict = implies([JRule("C1", left)], target)
        assert not verdict.holds
        assert [r.render_pattern() for r in verdict.trace.final.rows] == EXPECTED_ROWS_AFTER_ONE
        assert not contains_distinguished_row(verdict.trace.final)
        # decision evidence: the unrestricted fixpoint also lacks the row
        assert verdict.closure_trace is not None
        assert verdict.closure_trace.stop_reason == "fixpoint"
        assert not contains_distinguished_row(verdict.closure_trace.final)


def test_criterion_5_tableau_matches_fold():
    with criterion(5, "tableau execution equals the marginal fold", 30.0):
        worst = 0.0
        # three attributes: every covering hypertree against all 50 seeds
        dom3 = DomainSpec.uniform(["A", "B", "C"])
        trees3 = covering_hypertrees(["A", "B", "C"], 3)
        rels3 = [positive_relation(dom3, seed) for seed in range(50)]
        for g in trees3:
            t = build_tr(g)
            for rel in rels3:
                worst = max(worst, run(t, rel).max_abs_diff(mpj_map(rel, g)))
        # four attributes: every covering hypertree, seeds rotating so each
        # tree meets several of the 50 relations and every relation is used
        dom4 = DomainSpec.uniform(["A", "B", "C", "D"])
        trees4 = covering_hypertrees(["A", "B", "C", "D"], 3)
        rels4 = [positive_relation(dom4, 1000 + seed) for seed in range(50)]
        for i, g in enumerate(trees4):
            t = build_tr(g)
            for k in range(3):
                rel = rels4[(i * 3 + k) % 50]
                worst = max(worst, run(t, rel).max_abs_diff(mpj_map(rel, g)))
        assert len(trees3) > 30 and len(trees4) > 300
        assert worst <= 1e-12, f"worst deviation {worst}"


def test_criterion_6_decomposition_census():
    with criterion(6, "decomposable factorization census", 120.0):
        reports = []
        # exhaustive census over three and four attributes
        for attrs, per_tree_trials, max_edges in [
            (["A", "B", "C"], 5, 4),
            (["A", "B", "C", "D"], 3, 4),
        ]:
            dom = DomainSpec.uniform(attrs)
            for i, g in enumerate(covering_hypertrees(attrs, max_edges)):
                cfg = OracleConfig(domains=dom, seed=i, trials=per_tree_trials)
                reports.append(check_decomposition(g, cfg))
        # sampled census over five and six attributes
        rng = random.Random(77)
        for n, samples, trials in [(5, 30, 4), (6, 15, 3)]:
            attrs = [f"A{i+1}" for i in range(n)]
            dom = DomainSpec.uniform(attrs)
            for j in range(samples):
                g = random_hypertree(attrs, 4, rng)
                reports.append(check_decomposition(g, OracleConfig(domains=dom, seed=j, trials=trials)))
        # the six-attribute chordal clique set, with the full 100 seeds
        dom6 = DomainSpec.uniform(["A1", "A2", "A3", "A4", "A5", "A6"])
        cliques = Gajd.from_edges(
            [["A1", "A2", "A3"], ["A1", "A2", "A4"], ["A2", "A3", "A5"], ["A5", "A6"]]
        )
        reports.append(check_decomposition(cliques, OracleConfig(domains=dom6, seed=0, trials=100)))
        assert len(reports) > 1000
        worst_formula = max(r.worst_formula_residual for r in reports)
        worst_fixpoint = max(r.worst_fixpoint_residual for r in reports)
        assert all(r.passed for r in reports)
        assert worst_formula <= 1e-10 and worst_fixpoint <= 1e-12


def test_criterion_7_order_independence():
    with criterion(7, "fixpoint is application-order independent", 60.0):
        target, left, right = chain4_pieces()
        cases = [
            (target, [JRule("C1", left), JRule("C2", right)]),
            (target, [JRule("C1", left)]),
            (target, [JRule("T", target)]),
            (COARSE_TARGET, [JRule("W", COARSE_CONSTRAINT)]),
            (STUBBORN_TARGET, [JRule(f"S{i}", g) for i, g in enumerate(STUBBORN_CONSTRAINTS)]),
        ]
        for tgt, ruleset in cases:
            reference = pattern_set(chase(build_tr(tgt), ruleset).final)
            for seed in range(20):
                shuffled = chase(build_tr(tgt), ruleset, rng=random.Random(seed))
                assert pattern_set(shuffled.final) == reference


def test_criterion_8_soundness_cross_validation():
    with criterion(8, "numeric soundness of positive verdicts", 300.0):
        for name, constraints, target in positive_golden_cases():
            verdict = implies(constraints, target)
            assert verdict.holds, name
            dom = DomainSpec.uniform(list(target.scheme))
            cfg = OracleConfig(domains=dom, seed=2024, trials=50)
            report = check_soundness(constraints, target, cfg)
            assert report.failed == 0, f"{name}: {report.render()}"
            assert report.converged >= cfg.trials // 2, f"{name}: {report.render()}"
            assert report.status == "pass", f"{name}: {report.render()}"


def test_criterion_9_counterexample_search():
    with criterion(9, "counterexample for the non-implication", 60.0):
        target, left, _ = chain4_pieces()
        assert not implies([left], target).holds
        dom = DomainSpec.uniform(["A1", "A2", "A3", "A4"])
        cfg = OracleConfig(domains=dom, seed=31, trials=100)
        found = search_counterexample([left], target, cfg)
        assert isinstance(found, CounterexampleReport)
        assert max(found.constraint_residuals) <= 1e-10
        assert found.target_residual > 1e-8


def test_criterion_10_interaction_set_census():
    with criterion(10, "interaction set is ordering independent", 60.0):
        rng = random.Random(13)
        census = hypertree_census(rng)
        assert len(census) > 2000
        for g in census:
            base = interaction_set(g.certificate, g.hypergraph)
            assert interaction_set(reverse_greedy_certificate(g), g.hypergraph) == base
            for _ in range(2):
                cert = random_certificate(g, rng)
                assert interaction_set(cert, g.hypergraph) == base
