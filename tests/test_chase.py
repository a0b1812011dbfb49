import itertools
import random

import pytest

from gajdchase import chase as chase_module
from gajdchase.chase import ChaseStep, ChaseTrace, JRule, chase, implies
from gajdchase.errors import ChaseRowLimitError, SchemeError
from gajdchase.hypergraph import AttributeSet
from gajdchase.oracle import fold_axes, project_onto, random_positive
from gajdchase.prelation import DomainSpec, Gajd, relation_from_domains, satisfies
from gajdchase.symbolic import MarginalAtom, RationalExpression, distinguished_for, evaluate
from gajdchase.tableau import Row, build_tr, run
from conftest import covering_hypertrees, pattern_set, random_hypertree


def rules_for(chain4):
    target, left, right = chain4
    return target, JRule("C1", left), JRule("C2", right)


# A true implication whose derivation must pass through a row that loses a
# distinguished variable: {B indep AC} plus {C}{AB}{BC} imply {A indep BC}.
# The greedy most-distinguished-first prefix alone never finds it.
STUBBORN_TARGET = [["A"], ["B", "C"]]
STUBBORN_CONSTRAINTS = [[["B"], ["A", "C"]], [["C"], ["A", "B"], ["B", "C"]]]


def independence_family(n):
    """Target {A1}..{An} given {A1}..{An-2}{An-1 An}: not implied, and the fixpoint has n^(n-1) rows."""
    attrs = [f"A{i}" for i in range(1, n + 1)]
    target = [[a] for a in attrs]
    return target, [[[a] for a in attrs[:-2]] + [attrs[-2:]]]


def _step(t, rule, selection, produced_id, pattern, num, den=()):
    """A hand-built step; variables and atoms are named as they render, e.g. "a2,a3,b4"."""
    var = {v.render(): v for row in t.rows for v in row.cells}

    def atom(names):
        vs = tuple(var[n] for n in names.split(","))
        return MarginalAtom(AttributeSet(v.column for v in vs), vs)

    cells = tuple(var[n] for n in pattern.split(","))
    expr = RationalExpression.of([atom(a) for a in num], [atom(a) for a in den])
    return ChaseStep(rule, selection, Row(cells, expr), produced_id)


class TestReplay:
    def _replay(self, t, steps):
        return ChaseTrace(initial=t, steps=steps, final=t, stop_reason="fixpoint").replay()

    def _c1_step(self, chain4, selection=(0, 1)):
        target, left, _ = chain4
        t = build_tr(target)
        return t, _step(t, JRule("C1", left), selection, 3, "a1,a2,a3,b4", ["a1,a2", "a2,a3,b4"], ["a2"])

    def test_two_row_application(self, chain4):
        t, step = self._c1_step(chain4)
        replayed = self._replay(t, [step])
        row = replayed.rows[3]
        assert row.render_pattern() == "(a1,a2,a3,b4)"
        assert row.weight_expr.render() == "phi(a1,a2)*phi(a2,a3,b4)/phi(a2)"
        assert len(t) == 3

    def test_follow_up_application_reaches_distinguished(self, chain4):
        _, _, right = chain4
        t, first = self._c1_step(chain4)
        second = _step(t, JRule("C2", right), (3, 2), 4, "a1,a2,a3,a4", ["a1,a2,a3", "a3,a4"], ["a3"])
        replayed = self._replay(t, [first, second])
        assert [r.render_pattern() for r in replayed.rows[3:]] == ["(a1,a2,a3,b4)", "(a1,a2,a3,a4)"]
        assert replayed.rows[4].weight_expr.render() == "phi(a1,a2,a3)*phi(a3,a4)/phi(a3)"
        assert replayed.contains_distinguished_row()

    def test_self_selection_already_present(self, chain4):
        t, step = self._c1_step(chain4, (0, 0))
        with pytest.raises(ValueError, match="already a row"):
            self._replay(t, [step])

    def test_disagreeing_overlap_not_joinable(self, chain4):
        t, step = self._c1_step(chain4, (0, 2))
        with pytest.raises(ValueError, match="disagree"):
            self._replay(t, [step])

    def test_arity_checked(self, chain4):
        t, step = self._c1_step(chain4, (0,))
        with pytest.raises(ValueError, match="needs 2 selected rows"):
            self._replay(t, [step])

    def test_row_ids_checked(self, chain4):
        t, step = self._c1_step(chain4, (0, 9))
        with pytest.raises(ValueError, match="out of range"):
            self._replay(t, [step])

    def test_recorded_row_checked(self, chain4):
        t, step = self._c1_step(chain4)
        with pytest.raises(ValueError, match="not the recorded row"):
            self._replay(t, [ChaseStep(step.rule, step.selection, t.rows[0], 3)])
        with pytest.raises(ValueError, match="row id"):
            self._replay(t, [ChaseStep(step.rule, step.selection, step.produced, 4)])

    def test_rule_over_another_scheme(self, chain4):
        t, step = self._c1_step(chain4)
        narrow = JRule("N", Gajd.from_edges([["A1", "A2"], ["A2", "A3"]]))
        with pytest.raises(SchemeError):
            self._replay(t, [ChaseStep(narrow, (0, 1), step.produced, 3)])


class TestChase:
    def test_no_constraints_is_identity(self, chain4):
        target, _, _ = chain4
        t = build_tr(target)
        trace = chase(t, [])
        assert trace.stop_reason == "fixpoint"
        assert trace.steps == []
        assert pattern_set(trace.final) == pattern_set(t)

    def test_fixpoint_of_single_split(self, chain4):
        target, left, _ = chain4
        trace = chase(build_tr(target), [JRule("C1", left)])
        assert trace.stop_reason == "fixpoint"
        got = sorted(row.render_pattern() for row in trace.final.rows)
        assert got == sorted([
            "(a1,a2,b1,b2)",
            "(b3,a2,a3,b4)",
            "(b5,b6,a3,a4)",
            "(a1,a2,a3,b4)",
            "(b3,a2,b1,b2)",
        ])

    def test_deterministic_traces(self, chain4):
        target, left, right = chain4
        first = chase(build_tr(target), [JRule("C1", left), JRule("C2", right)])
        second = chase(build_tr(target), [JRule("C1", left), JRule("C2", right)])
        assert first.render_steps() == second.render_steps()

    def test_confluence_under_random_orders(self, chain4):
        target, left, right = chain4
        cases = [
            (target, [JRule("C1", left)]),
            (target, [JRule("C1", left), JRule("C2", right)]),
            (target, [JRule("T", target)]),
        ]
        for tgt, ruleset in cases:
            reference = pattern_set(chase(build_tr(tgt), ruleset).final)
            for seed in range(8):
                shuffled = chase(build_tr(tgt), ruleset, rng=random.Random(seed))
                assert pattern_set(shuffled.final) == reference

    def test_seeded_orders_differ(self):
        target, given = independence_family(5)
        rules = [JRule("C", Gajd.from_edges(given[0]))]
        sequences, fixpoints = set(), set()
        for seed in range(20):
            trace = chase(build_tr(Gajd.from_edges(target)), rules, rng=random.Random(seed))
            sequences.add(tuple((step.selection, step.produced.cells) for step in trace.steps))
            fixpoints.add(pattern_set(trace.final))
        assert len(sequences) >= 2
        assert len(fixpoints) == 1 and len(next(iter(fixpoints))) == 625

    def test_row_cap_enforced(self, chain4):
        target, left, _ = chain4
        with pytest.raises(ChaseRowLimitError):
            chase(build_tr(target), [JRule("C1", left)], max_rows=4)

    def test_scheme_mismatch_rejected(self, chain4):
        target, _, _ = chain4
        narrow = Gajd.from_edges([["A1", "A2"]])
        with pytest.raises(SchemeError):
            chase(build_tr(target), [JRule("N", narrow)])

    def test_replay_reproduces_final(self, chain4):
        target, left, right = chain4
        trace = chase(build_tr(target), [JRule("C1", left), JRule("C2", right)])
        replayed = trace.replay()
        assert pattern_set(replayed) == pattern_set(trace.final)

    def test_duplicates_counted(self, chain4):
        target, left, _ = chain4
        trace = chase(build_tr(target), [JRule("C1", left)])
        assert trace.duplicates > 0

    def test_terminates_on_wider_scheme(self):
        attrs = ["A", "B", "C", "D", "E", "F"]
        target = Gajd.from_edges([["A", "B"], ["B", "C"], ["C", "D"], ["D", "E"], ["E", "F"]])
        constraints = [
            Gajd.from_edges([["A", "B", "C"], ["C", "D", "E"], ["E", "F"]]),
            Gajd.from_edges([["A", "B"], ["B", "C", "D", "E", "F"]]),
            Gajd.from_edges([["A", "B", "C", "D"], ["D", "E", "F"]]),
            Gajd.from_edges([["A", "B", "C", "D", "E"], ["E", "F"]]),
        ]
        trace = chase(build_tr(target), constraints)
        assert trace.stop_reason == "fixpoint"

    def test_witness_is_least_selection(self):
        # Each step's selection is the lexicographically least selection of
        # earlier rows that produces its row, as trying every selection in
        # order would find it, and the trace still replays.
        def mixes_to(t, edges, selection, cells):
            # Reference mix: row k_i's cells on the i-th edge, which must agree where edges overlap.
            mixed = {}
            for edge, k in zip(edges, selection):
                for a in edge:
                    v = t.rows[k].cells[t.scheme.index(a)]
                    if mixed.setdefault(a, v) != v:
                        return False
            return tuple(mixed[a] for a in t.scheme) == cells

        rng = random.Random(17)
        checked = 0
        for attrs in (["A", "B", "C"], ["A", "B", "C", "D"]) * 6:
            target = random_hypertree(attrs, 3, rng)
            rules = [JRule(f"R{k}", random_hypertree(attrs, 3, rng)) for k in range(2)]
            verdict = implies(rules, target)
            traces = [chase(build_tr(target), rules), verdict.trace, verdict.closure_trace]
            for trace in filter(None, traces):
                t = trace.initial.copy()
                for step in trace.steps:
                    assert step.produced_id == len(t)
                    edges = step.rule.gajd.edges_in_order
                    least = next(
                        selection
                        for selection in itertools.product(range(len(t)), repeat=len(edges))
                        if mixes_to(t, edges, selection, step.produced.cells)
                    )
                    assert least == step.selection
                    t.add_row(step.produced)
                    checked += 1
                replayed = trace.replay()
                assert [r.cells for r in replayed.rows] == [r.cells for r in trace.final.rows]
        assert checked > 50

    def test_continue_matches_fresh_chase(self, chain4):
        target, left, _ = chain4
        rules = [JRule("C1", left)]
        prefix = chase(build_tr(target), rules, stop_when_no_gain=True)
        assert prefix.stop_reason == "no_gain"
        kept = [r.cells for r in prefix.final.rows]
        fresh = chase(prefix.final, rules)
        continued = chase(prefix, rules)
        assert continued.render_steps() == fresh.render_steps()
        assert [r.cells for r in continued.final.rows] == [r.cells for r in fresh.final.rows]
        assert continued.initial is prefix.final
        assert [r.cells for r in prefix.final.rows] == kept
        with pytest.raises(ValueError):
            chase(prefix, rules)

    def test_continue_requires_same_constraints(self, chain4):
        target, left, right = chain4
        prefix = chase(build_tr(target), [JRule("C1", left)], stop_when_no_gain=True)
        with pytest.raises(ValueError):
            chase(prefix, [JRule("C2", right)])


class TestImplies:
    def test_positive_golden(self, chain4):
        target, left, right = chain4
        verdict = implies([JRule("C1", left), JRule("C2", right)], target)
        assert verdict.holds
        assert [s.produced.render_pattern() for s in verdict.trace.steps] == [
            "(a1,a2,a3,b4)",
            "(a1,a2,a3,a4)",
        ]
        assert verdict.factorization.render() == (
            "phi(a1,a2)*phi(a2,a3)*phi(a3,a4)/(phi(a2)*phi(a3))"
        )
        assert len(verdict.trace.final) == 5
        assert verdict.closure_trace is None
        assert [r.render() for r in verdict.rewrites] == [
            "rewrite: phi(a2,a3,b4) -> phi(a2,a3) (sum over b4)"
        ]

    def test_negative_golden(self, chain4):
        target, left, _ = chain4
        verdict = implies([JRule("C1", left)], target)
        assert not verdict.holds
        assert verdict.factorization is None
        # presentation trace stops after the informative derivation
        assert [s.produced.render_pattern() for s in verdict.trace.steps] == ["(a1,a2,a3,b4)"]
        assert len(verdict.trace.final) == 4
        # the decision is certified by the unrestricted fixpoint
        assert verdict.closure_trace is not None
        assert verdict.closure_trace.stop_reason == "fixpoint"
        assert len(verdict.closure_trace.final) == 5
        assert not verdict.closure_trace.final.contains_distinguished_row()

    def test_reflexive(self, chain4):
        target, _, _ = chain4
        verdict = implies([JRule("T", target)], target)
        assert verdict.holds
        assert len(verdict.trace.steps) == 1
        assert verdict.factorization.render() == (
            "phi(a1,a2)*phi(a2,a3)*phi(a3,a4)/(phi(a2)*phi(a3))"
        )

    def test_single_edge_target_trivially_holds(self):
        target = Gajd.from_edges([["A", "B"]])
        constraint = Gajd.from_edges([["A"], ["B"]])
        verdict = implies([JRule("I", constraint)], target)
        assert verdict.holds
        assert verdict.trace.steps == []
        assert verdict.factorization.render() == "phi(a1,a2)"

    def test_empty_constraint_set(self, chain4):
        target, _, _ = chain4
        verdict = implies([], target)
        assert not verdict.holds
        assert verdict.closure_trace is not None
        assert len(verdict.closure_trace.final) == 3

    def test_chain_coarsening(self):
        target = Gajd.from_edges([["A", "B", "C"], ["C", "D"]])
        constraint = Gajd.from_edges([["A", "B"], ["B", "C"], ["C", "D"]])
        verdict = implies([JRule("W", constraint)], target)
        assert verdict.holds
        assert verdict.factorization.render() == (
            "phi(a1,a2)*phi(a2,a3)*phi(a3,a4)/(phi(a2)*phi(a3))"
        )

    def test_closure_decides_when_prefix_stalls(self):
        # Regression for the hill-climbing prefix being decision-incomplete.
        target = Gajd.from_edges(STUBBORN_TARGET)
        rules = [JRule(f"S{i}", Gajd.from_edges(e)) for i, e in enumerate(STUBBORN_CONSTRAINTS)]
        prefix_only = chase(
            build_tr(target), rules, stop_at_distinguished=True, stop_when_no_gain=True
        )
        assert not prefix_only.final.contains_distinguished_row()
        verdict = implies(rules, target)
        assert verdict.holds
        assert verdict.trace.final.contains_distinguished_row()
        assert verdict.closure_trace is None
        assert verdict.factorization is not None

    def test_subscheme_constraint_rejected(self, chain4):
        target, _, _ = chain4
        with pytest.raises(SchemeError, match="padding"):
            implies([Gajd.from_edges([["A1", "A2"]])], target)

    def test_full_scheme_edge_holds_before_any_step(self):
        # The target's tableau starts with the all-distinguished row; run on,
        # rule C would add the row (b2,a2,b1).
        target = Gajd.from_edges([["A1", "A2", "A3"], ["A1", "A2"], ["A2", "A3"]])
        rules = [JRule("C", Gajd.from_edges([["A1", "A2"], ["A2", "A3"]]))]
        verdict = implies(rules, target)
        assert verdict.holds and verdict.closure_trace is None
        assert verdict.trace.steps == [] and verdict.trace.stop_reason == "distinguished"
        assert verdict.factorization.render() == "phi(a1,a2,a3)"
        trace = chase(build_tr(target), rules, stop_at_distinguished=True)
        assert trace.steps == [] and trace.stop_reason == "distinguished"
        assert len(chase(build_tr(target), rules).steps) == 1
        with pytest.raises(SchemeError, match="padding"):
            implies([Gajd.from_edges([["A1", "A2"]])], target)

    @pytest.mark.parametrize(
        "target, given, fixpoint_rows",
        [
            # The worst census case before the chase joined projections.
            (
                [["A2", "A3", "A5", "A6"], ["A1", "A2"], ["A1"], ["A2", "A4"]],
                [
                    [["A1", "A2", "A4"], ["A1", "A3", "A4", "A6"], ["A1", "A3", "A4", "A5"], ["A2", "A4"]],
                    [["A4"], ["A2", "A6"], ["A1", "A3", "A5"], ["A3", "A4"]],
                ],
                32,
            ),
            # census/n7/q35 of the benchmark: 66 s when every row selection was tried.
            (
                [["A1", "A4", "A6"], ["A1", "A3", "A4", "A5", "A6"], ["A2", "A4", "A5", "A7"], ["A4", "A7"]],
                [
                    [["A5"], ["A1", "A2", "A3", "A4"], ["A3"], ["A5", "A6", "A7"]],
                    [["A1", "A3", "A4", "A5", "A6", "A7"], ["A2", "A4", "A6"]],
                ],
                64,
            ),
            (*independence_family(5), 625),
            (*independence_family(6), 7776),
        ],
    )
    def test_former_pathological_queries(self, target, given, fixpoint_rows):
        verdict = implies([Gajd.from_edges(e) for e in given], Gajd.from_edges(target))
        assert not verdict.holds
        assert verdict.closure_trace.stop_reason == "fixpoint"
        assert len(verdict.closure_trace.final) == fixpoint_rows

    def test_independence_family_closure_replays(self):
        target, given = independence_family(5)
        closure = implies([Gajd.from_edges(e) for e in given], Gajd.from_edges(target)).closure_trace
        assert len(closure.final) == 625
        replayed = closure.replay()
        assert [r.cells for r in replayed.rows] == [r.cells for r in closure.final.rows]
        assert replayed.rows == closure.final.rows

    def test_row_expressions_built_when_read(self, monkeypatch):
        calls = []
        original = chase_module.eq5_expression

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(chase_module, "eq5_expression", counting)
        target, given = independence_family(5)
        constraints, target = [Gajd.from_edges(e) for e in given], Gajd.from_edges(target)
        closure = implies(constraints, target).closure_trace
        assert len(closure.steps) > 500 and calls == []
        lines = closure.render_steps()
        assert len(calls) == len(closure.steps) == len(lines)
        assert closure.render_steps() == lines and len(calls) == len(lines)

        calls.clear()
        closure = implies(constraints, target).closure_trace
        step = closure.steps[-1]
        lazy, scheme, g = step.produced, closure.final.scheme, step.rule.gajd
        expr = original(
            [(e, dict(zip(scheme, closure.final.rows[k].cells))) for e, k in zip(g.edges_in_order, step.selection)],
            [(s, dict(zip(scheme, lazy.cells))) for s in g.interactions],
        )
        eager = Row(lazy.cells, expr)
        assert calls == []
        assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)
        assert len(calls) == 1
        assert lazy.weight_expr is lazy.weight_expr and len(calls) == 1
        assert lazy != Row(lazy.cells, RationalExpression.of())

    def test_row_cap_propagates(self, chain4):
        target, left, _ = chain4
        with pytest.raises(ChaseRowLimitError):
            implies([JRule("C1", left)], target, max_rows=4)


def _satisfying_relation(constraints, attrs, seed):
    dom = DomainSpec.uniform(attrs)
    folds = [fold_axes(dom.scheme, g) for g in constraints]
    projected, residuals = project_onto(random_positive(dom, seed), folds, sweeps=300, stop_tol=1e-12)
    assert max(residuals) <= 1e-12
    return relation_from_domains(dom, projected.ravel().tolist())


class TestNumericAgreement:
    def test_generating_sequence_preserves_mapping(self):
        # Every chase prefix denotes the same mapping on relations that
        # satisfy the constraints.
        target = Gajd.from_edges(STUBBORN_TARGET)
        constraints = [Gajd.from_edges(e) for e in STUBBORN_CONSTRAINTS]
        rules = [JRule(f"S{i}", g) for i, g in enumerate(constraints)]
        trace = chase(build_tr(target), rules)
        assert trace.steps
        for seed in range(3):
            rel = _satisfying_relation(constraints, ["A", "B", "C"], seed)
            t = trace.initial.copy()
            baseline = run(t, rel)
            for step in trace.steps:
                t.add_row(step.produced)
                assert run(t, rel).max_abs_diff(baseline) <= 1e-9

    def test_positive_verdicts_hold_numerically(self, chain4):
        target, left, right = chain4
        constraints = [left, right]
        verdict = implies([JRule("C1", left), JRule("C2", right)], target)
        assert verdict.holds
        for seed in range(5):
            rel = _satisfying_relation(constraints, ["A1", "A2", "A3", "A4"], seed)
            assert satisfies(rel, target, tol=1e-8).holds

    def test_factorization_matches_weights(self, chain4):
        target, left, right = chain4
        verdict = implies([JRule("C1", left), JRule("C2", right)], target)
        scheme = target.scheme
        dist = [distinguished_for(scheme, a) for a in scheme]
        for seed in range(3):
            rel = _satisfying_relation([left, right], ["A1", "A2", "A3", "A4"], seed)
            for key, w in rel.items():
                binding = dict(zip(dist, key))
                assert evaluate(verdict.factorization, rel, binding) == pytest.approx(w, abs=1e-9)

    def test_stubborn_factorization_matches_weights(self):
        target = Gajd.from_edges(STUBBORN_TARGET)
        constraints = [Gajd.from_edges(e) for e in STUBBORN_CONSTRAINTS]
        verdict = implies(constraints, target)
        assert verdict.holds
        scheme = target.scheme
        dist = [distinguished_for(scheme, a) for a in scheme]
        for seed in range(3):
            rel = _satisfying_relation(constraints, ["A", "B", "C"], seed)
            for key, w in rel.items():
                binding = dict(zip(dist, key))
                assert evaluate(verdict.factorization, rel, binding) == pytest.approx(w, abs=1e-9)

    def test_verdicts_match_exhaustive_small_census(self):
        # Cross-check the two-phase decision against a plain fixpoint chase
        # for every target/constraint pair over three attributes.
        hypertrees = covering_hypertrees(["A", "B", "C"], 2)
        assert len(hypertrees) > 10
        pairs = 0
        for target in hypertrees:
            for constraint in hypertrees:
                verdict = implies([constraint], target)
                full = chase(build_tr(target), [constraint])
                assert verdict.holds == full.final.contains_distinguished_row()
                pairs += 1
        assert pairs == len(hypertrees) ** 2

    def test_verdicts_match_random_wider_census(self):
        # Same cross-check over seeded random pairs on four attributes.
        from conftest import random_hypertree

        rng = random.Random(99)
        attrs = ["A", "B", "C", "D"]
        positives = 0
        for _ in range(80):
            constraints = [random_hypertree(attrs, 3, rng) for _ in range(rng.randint(1, 2))]
            target = random_hypertree(attrs, 3, rng)
            verdict = implies(constraints, target)
            full = chase(build_tr(target), constraints)
            assert verdict.holds == full.final.contains_distinguished_row()
            positives += verdict.holds
        assert positives >= 10
