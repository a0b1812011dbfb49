import collections
import hashlib
import itertools
import random

import pytest

from gajdchase import chase as chase_module
from gajdchase.chase import ChaseStep, ChaseTrace, JRule, chase, implies
from gajdchase.cli import parse
from gajdchase.errors import ChaseRowLimitError, SchemeError
from gajdchase.hypergraph import AttributeSet
from gajdchase.oracle import fold_axes, project_onto, random_positive
from gajdchase.prelation import DomainSpec, Gajd, relation_from_domains, satisfies
from gajdchase.symbolic import MarginalAtom, RationalExpression, Variable, distinguished_for, evaluate, restrict_atom
from gajdchase.tableau import JoinPlan, Row, Tableau, build_tr, run
from conftest import (
    benchmark_workload,
    chain_positive,
    contains_distinguished_row,
    covering_hypertrees,
    hypertree_census,
    pattern_set,
    random_hypertree,
)


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
        trace = ChaseTrace(t, t, "fixpoint", 0, None)
        trace.steps = steps
        return trace.replay()

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
        assert contains_distinguished_row(replayed)

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

    def test_work_budget_binds_during_the_join(self):
        # The first join over family 6's target rows finds 6^5 applications; the
        # 101st pending one passes the budget of one rule times the 100-row cap.
        target, given = independence_family(6)
        with pytest.raises(ChaseRowLimitError, match="more than 100 pending applications") as excinfo:
            implies([JRule("C", Gajd.from_edges(given[0]))], Gajd.from_edges(target), max_rows=100)
        assert excinfo.value.limit == 100
        assert "work spent" in str(excinfo.value)

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

    def test_each_join_result_emitted_once(self, monkeypatch):
        # Each new projection is joined as soon as it is indexed, so a result
        # comes out only at the last new projection it uses: once per (rule,
        # pattern) in a run, across the prefix and its continued closure.
        emitted = collections.Counter()
        original = chase_module._ChaseRun._consider

        def counting_consider(run, rule_idx, cr):
            emit = original(run, rule_idx, cr)
            n = len(cr.scheme)  # the pattern's slots; the selection's follow them

            def counted(binding):
                emitted[cr, tuple(binding[:n])] += 1
                emit(binding)

            return counted

        monkeypatch.setattr(chase_module._ChaseRun, "_consider", counting_consider)
        target, given = independence_family(5)
        draws = [(Gajd.from_edges(target), [Gajd.from_edges(e) for e in given])]
        rng = random.Random(3)
        for n in (5, 6, 6):
            attrs = [f"A{i}" for i in range(1, n + 1)]
            draws.append((random_hypertree(attrs, 4, rng), [random_hypertree(attrs, 4, rng) for _ in range(2)]))
        runs = 0
        for target, constraints in draws:
            rules = [JRule(f"R{k}", g) for k, g in enumerate(constraints)]
            for k in (None, 0, 1, 2):
                emitted.clear()
                if k is None:
                    implies(rules, target)
                else:
                    chase(build_tr(target), rules, rng=random.Random(k))
                runs += bool(emitted)
                repeated = sum(1 for count in emitted.values() if count > 1)
                assert repeated == 0, f"{repeated} results emitted more than once (order {k})"
        assert runs == 4 * len(draws)

    def test_short_rules_never_form_the_row_being_indexed(self, monkeypatch):
        # A rule's result from the indexed row's own projections, one per
        # edge, is that row.  A one- or two-edge rule counts it as a
        # duplicate without forming it; a longer rule still forms it, which
        # shows that the watch below sees such results.
        from test_census_golden import census_problems

        indexed = [None]
        formed, own = collections.Counter(), collections.Counter()  # by the rule's edge count
        index_row, consider = chase_module._ChaseRun._index_row, chase_module._ChaseRun._consider

        def watched_index_row(run, rid):
            indexed[0] = run.work.patterns[rid]
            index_row(run, rid)
            indexed[0] = None

        def watched_consider(run, rule_idx, cr):
            emit = consider(run, rule_idx, cr)
            n, edges = len(cr.scheme), len(cr.cols)

            def watched(binding):
                formed[edges] += 1
                own[edges] += binding[:n] == indexed[0]
                emit(binding)

            return watched

        monkeypatch.setattr(chase_module._ChaseRun, "_index_row", watched_index_row)
        monkeypatch.setattr(chase_module._ChaseRun, "_consider", watched_consider)
        cases = [(problem.rules_for(problem.queries[0]), problem.queries[0].target) for problem in census_problems()]
        for n in range(4, 9):
            constraints, target = chain_positive(n)
            cases.append((constraints, target))
            cases += [(constraints[:drop] + constraints[drop + 1 :], target) for drop in range(len(constraints))]
        whole = Gajd.from_edges([["A1", "A2", "A3", "A4"]])  # one edge
        cases.append(([whole, Gajd.from_edges([["A1", "A2"], ["A2", "A3", "A4"]])], chain_positive(4)[1]))
        for constraints, target in cases:
            implies(constraints, target)
            chase(build_tr(target), constraints, rng=random.Random(1))
        assert own[1] == own[2] == 0
        assert formed[2] > 500 and own[3] + own[4] > 0

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
        # order would find it, and the trace still replays.  Seeded orders
        # add the rows in other orders, and the selections must stay least.
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
            traces += [chase(build_tr(target), rules, rng=random.Random(k)) for k in range(3)]
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

    def test_run_at_the_goal_compiles_no_plan_and_continues_like_a_fresh_chase(self, chain4, monkeypatch):
        # The target's tableau already holds the all-distinguished row, from its full edge.
        target = Gajd.from_edges([["A1"], ["A2"], ["A3", "A4"], ["A1", "A2", "A3", "A4"]])
        chain, left, right = chain4
        # The two-edge rules build no JoinPlan; the three-edge chain builds one for its ports.
        rules = [JRule("C1", left), JRule("C2", right), JRule("T", chain)]
        compiles, plans = [], []
        compile_units = chase_module._ChaseRun._compile

        def counting_compile(run):
            compiles.append(run)
            compile_units(run)

        class CountingPlan(chase_module.JoinPlan):
            def __init__(self, *args):
                plans.append(self)
                super().__init__(*args)

        monkeypatch.setattr(chase_module._ChaseRun, "_compile", counting_compile)
        monkeypatch.setattr(chase_module, "JoinPlan", CountingPlan)
        prefix = chase(build_tr(target), rules, stop_at_distinguished=True)
        assert (prefix.stop_reason, len(prefix.steps), compiles, plans) == ("distinguished", 0, [], [])
        continued = chase(prefix, rules)
        assert (len(compiles), len(plans)) == (1, 1)
        fresh = chase(build_tr(target), rules)
        assert len(continued.steps) > 0
        assert continued.render_steps() == fresh.render_steps()
        assert [r.cells for r in continued.final.rows] == [r.cells for r in fresh.final.rows]
        assert continued.duplicates == fresh.duplicates

    def test_pending_entries_carry_their_distinguished_count(self, chain4):
        target, left, right = chain4
        trace = chase(build_tr(target), [JRule("C1", left)], stop_when_no_gain=True)
        run = trace._run
        assert run.pending
        for key, _, _, pattern, dist in run.pending:
            assert dist == sum(run.is_distinguished[v] for v in pattern) == -key

    def test_chain_queries_build_no_join_plan_and_longer_rules_build_theirs_per_run(self, monkeypatch):
        plans = []

        class CountingPlan(chase_module.JoinPlan):
            def __init__(self, *args):
                plans.append(self)
                super().__init__(*args)

        monkeypatch.setattr(chase_module, "JoinPlan", CountingPlan)
        for n in range(4, 8):
            constraints, target = chain_positive(n)
            assert implies(constraints, target).holds
            assert not implies(constraints[1:], target).holds
        assert plans == []
        # The prefix stalls and the closure continues its run, so one query is one run; only
        # {C}{AB}{BC} has three edges.
        constraints, target = [Gajd.from_edges(c) for c in STUBBORN_CONSTRAINTS], Gajd.from_edges(STUBBORN_TARGET)
        for runs in (1, 2):
            assert implies(constraints, target).holds
            assert len(plans) == runs

    def test_continue_requires_same_constraints(self, chain4):
        target, left, right = chain4
        prefix = chase(build_tr(target), [JRule("C1", left)], stop_when_no_gain=True)
        with pytest.raises(ValueError):
            chase(prefix, [JRule("C2", right)])


class TestPairReaders:
    """A two-edge rule's readers, built from its separator, read as the `JoinPlan` they replace."""

    @staticmethod
    def layouts(rng):
        """Two-edge column layouts over 2-12 columns, each edge ascending, together covering every column.

        Each column is in the first edge only, the second only, or both; the
        separator is empty, one column or wider, and one edge may hold the other.
        """
        for shared in [0, 1, 2, 3] * 60:
            n = rng.randint(max(2, shared + 1), 12)
            both = set(rng.sample(range(n), shared))
            rest = [c for c in range(n) if c not in both]
            rng.shuffle(rest)
            cut = rng.randint(0 if both else 1, len(rest) - (0 if both else 1))
            first, second = sorted(both.union(rest[:cut])), sorted(both.union(rest[cut:]))
            if first and second and first != second:
                yield n, (tuple(first), tuple(second))

    def test_readers_equal_the_plans(self):
        rng = random.Random(30)
        separators = collections.Counter()
        for n, cols in self.layouts(rng):
            separators[min(len(set(cols[0]) & set(cols[1])), 2)] += 1
            plan = JoinPlan([cols[0] + (n,), cols[1] + (n + 1,)], range(2))
            readers = chase_module._pair_readers(cols, n)
            for pos, (key, read) in enumerate(readers):
                ((insert_key, _),) = plan.inserts[pos]
                ((_, probe_key),), probe_read = plan.probes[pos]
                for _ in range(5):
                    # Distinct row ids, so a binding with the two swapped differs.
                    own_id, other_id = rng.sample(range(100, 200), 2)
                    own = tuple(rng.randrange(3) for _ in cols[pos]) + (own_id,)
                    other = tuple(rng.randrange(3) for _ in cols[1 - pos]) + (other_id,)
                    assert key(own) == insert_key(own) == probe_key(own)
                    assert read(own + other) == probe_read(own + other)
        assert min(separators.values()) > 30 and sorted(separators) == [0, 1, 2]


class TestJoinOrderPinned:
    """Values measured before the join looked every position up on all its bound slots.

    The join's results must come out in the same order, so seeded chases draw
    the same keys and every step, row id and duplicate count stays put.
    """

    @staticmethod
    def digest(trace):
        h = hashlib.sha256()
        for step in trace.steps:
            h.update(f"{step.selection} {step.produced.render_pattern()}\n".encode())
        return h.hexdigest()[:16]

    @pytest.mark.parametrize(
        "family, pinned",
        [
            (
                "independence5",
                [(620, 5, "8bdf86af897c0522"), (620, 5, "a7cad6c4999c4e1b"), (620, 5, "d5b07b0e3f13739b")],
            ),
            ("chain4", [(5, 11, "c8757bcc3106ab79"), (5, 11, "bfdcf00dcec14cb1"), (5, 11, "5d8ec7de3b40f817")]),
        ],
    )
    def test_seeded_chases(self, family, pinned, chain4):
        if family == "chain4":
            target, *rules = rules_for(chain4)
        else:
            edges, given = independence_family(5)
            target, rules = Gajd.from_edges(edges), [JRule("G", Gajd.from_edges(given[0]))]
        got = []
        for k in range(3):
            trace = chase(build_tr(target), rules, rng=random.Random(k))
            got.append((len(trace.steps), trace.duplicates, self.digest(trace)))
        assert got == pinned

    def test_chain_family_with_one_split_dropped(self):
        # The chains workload's shape: {A1 A2}..{An-1 An} given all two-way splits but one.
        got = {}
        for n in range(4, 10):
            constraints, target = chain_positive(n)
            duplicates = rows = 0
            for drop in range(len(constraints)):
                verdict = implies(constraints[:drop] + constraints[drop + 1 :], target)
                assert not verdict.holds
                duplicates += verdict.trace.duplicates + verdict.closure_trace.duplicates
                rows += len(verdict.closure_trace.final)
            got[n] = (duplicates, rows)
        assert got == {4: (6, 10), 5: (38, 26), 6: (124, 52), 7: (300, 90), 8: (610, 142), 9: (1106, 210)}


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
        assert not contains_distinguished_row(verdict.closure_trace.final)

    def test_rewrites_of_a_fallen_back_expansion_are_not_listed(self):
        # Three expansions of this derivation start rewriting, meet a variable
        # that resists and fall back to the unexpanded atom; the atom rewrites
        # they made are not used, so none is listed.
        target = Gajd.from_edges([["A1", "A2", "A4", "A6"], ["A2", "A3", "A5", "A6"]])
        constraints = [
            Gajd.from_edges([["A1", "A3", "A4", "A6"], ["A2", "A4", "A5", "A6"]]),
            Gajd.from_edges([["A1", "A3", "A5", "A6"], ["A2", "A4", "A5", "A6"]]),
            Gajd.from_edges([["A2", "A3", "A4"], ["A3", "A6"], ["A1", "A5"]]),
        ]
        verdict = implies(constraints, target)
        assert verdict.holds and verdict.rewrites == ()
        assert verdict.factorization.render() == "phi(a1,a5)*phi(a2,a3,a4)*phi(a3,a6)/(phi()*phi(a3))"
        assert reference_factorization(verdict.trace) == (verdict.factorization, (), 3)

    def test_factorization_built_once_on_first_read(self, chain4, monkeypatch):
        target, left, right = chain4
        original = chase_module.factorization_for
        traces = []

        def counted(trace):
            traces.append(trace)
            return original(trace)

        monkeypatch.setattr(chase_module, "factorization_for", counted)
        verdict = implies([JRule("C1", left), JRule("C2", right)], target)
        assert traces == []
        first = verdict.factorization
        assert verdict.factorization is first
        assert [r.render() for r in verdict.rewrites] == [
            "rewrite: phi(a2,a3,b4) -> phi(a2,a3) (sum over b4)"
        ]
        assert traces == [verdict.trace]
        assert (first, verdict.rewrites) == original(verdict.trace)
        negative = implies([JRule("C1", left)], target)
        assert (negative.factorization, negative.rewrites) == (None, ())
        assert len(traces) == 1

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
        assert not contains_distinguished_row(prefix_only.final)
        verdict = implies(rules, target)
        assert verdict.holds
        assert contains_distinguished_row(verdict.trace.final)
        assert verdict.closure_trace is None
        assert verdict.factorization is not None

    def test_continued_positive_counts_the_duplicates_of_a_fresh_chase(self):
        # A positive whose prefix stops at no_gain continues the prefix's run
        # to the goal; its duplicates are those of one deterministic chase to
        # the goal.  Such queries are rare, so seeded ones are drawn until
        # five qualify (the 258th draw is the fifth); the cap bounds the
        # draws when a defect lets none qualify.
        rng = random.Random(1)
        qualified = 0
        for _ in range(1000):
            if qualified == 5:
                break
            attrs = [f"A{i}" for i in range(1, rng.choice((5, 6)) + 1)]
            target = random_hypertree(attrs, 4, rng)
            rules = [random_hypertree(attrs, 4, rng) for _ in range(2)]
            prefix = chase(build_tr(target), rules, stop_at_distinguished=True, stop_when_no_gain=True)
            verdict = implies(rules, target)
            if prefix.stop_reason != "no_gain" or not verdict.holds:
                continue
            qualified += 1
            fresh = chase(build_tr(target), rules, stop_at_distinguished=True)
            assert verdict.trace.duplicates == fresh.duplicates
        assert qualified == 5

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

    @pytest.mark.parametrize("query", ["family5", "family6", "census"])
    def test_chase_rows_pass_add_row_and_replay(self, query):
        # The chase admits its rows without `add_row`'s checks; each one
        # must still pass them, sit at its row id, and replay.
        if query == "census":
            members = [g for g in hypertree_census(random.Random(13)) if len(g.scheme) == 7]
            target, *constraints = random.Random(1).sample(members, 4)
        else:
            target, given = independence_family(int(query[-1]))
            constraints, target = [Gajd.from_edges(e) for e in given], Gajd.from_edges(target)
        verdict = implies(constraints, target)
        assert not verdict.holds
        for trace in (verdict.trace, verdict.closure_trace):
            final = trace.final
            # `implies` reads its verdict from the stop reason.
            assert (trace.stop_reason == "distinguished") == contains_distinguished_row(final)
            fresh = Tableau(final.scheme, final.psi)
            for i, row in enumerate(final.rows):
                assert fresh.add_row(row) == i
                assert final.row_id(row.cells) == i
            replayed = trace.replay()
            assert [r.cells for r in replayed.rows] == [r.cells for r in final.rows]
            assert replayed.rows == final.rows
        assert len(verdict.closure_trace.steps) > 80

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
            [MarginalAtom.from_cells(e, dict(zip(scheme, closure.final.rows[k].cells)))
             for e, k in zip(g.edges_in_order, step.selection)],
            [MarginalAtom.from_cells(s, dict(zip(scheme, lazy.cells))) for s in g.interactions],
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


class TestDecodeOnRead:
    """A run keeps coded patterns and its record; `Variable`s, `Row`s and `ChaseStep`s are made when read.

    A row's `MarginalAtom`s are made when its expression is read, a `build_tr` row's included.
    """

    @pytest.fixture
    def made(self, monkeypatch):
        # A named tuple is made by its `__new__`, or unchecked by its `_make`; a Row by its `__init__`.
        counts = collections.Counter()
        hooks = ((Variable, "__new__"), (Variable, "_make"), (Row, "__init__"), (ChaseStep, "__new__"),
                 (MarginalAtom, "__new__"), (MarginalAtom, "_make"))
        for cls, hook in hooks:

            def counted(*args, _name=cls.__name__, _make=getattr(cls, hook), **kwargs):
                counts[_name] += 1
                return _make(*args, **kwargs)

            monkeypatch.setattr(cls, hook, staticmethod(counted) if hook == "_make" else counted)
        return counts

    @staticmethod
    def census_negative():
        """The first seeded census query whose verdict is no, whose prefix takes no step and whose closure does."""
        rng = random.Random(41)
        while True:
            attrs = [f"A{i}" for i in range(1, rng.randint(5, 7) + 1)]
            target, *constraints = [random_hypertree(attrs, 4, rng) for _ in range(3)]
            verdict = implies(constraints, target)
            if not verdict.holds and not verdict.trace.steps and verdict.closure_trace.steps:
                return constraints, target

    def test_negative_decodes_only_what_is_read(self, made):
        constraints, target = self.census_negative()
        made.clear()
        verdict = implies(constraints, target)
        prefix, closure = verdict.trace, verdict.closure_trace
        final = closure.final
        assert len(final) > len(closure.initial) == len(prefix.final) == len(target.hypergraph.edges)
        assert prefix.steps == [] and prefix.render_steps() == []
        assert made == {}
        steps = closure.steps
        assert made == {"Variable": len(final.code_of), "Row": len(final), "ChaseStep": len(steps)}
        assert closure.steps is steps and final.rows is final.rows
        assert made == {"Variable": len(final.code_of), "Row": len(final), "ChaseStep": len(steps)}
        # The decoded rows and steps equal an eager reference, row id by row id.
        rows = final.rows
        assert [final.code(row.cells) for row in rows] == final.patterns
        assert [step.produced for step in steps] == rows[len(closure.initial):]
        assert [step.produced_id for step in steps] == list(range(len(closure.initial), len(final)))
        fresh = Tableau(final.scheme, final.psi)
        for i, row in enumerate(rows):
            assert fresh.add_row(row) == i
        assert fresh.patterns == final.patterns and list(fresh.code_of) == list(final.code_of)
        for row in rows[: len(closure.initial)]:
            assert row.weight_expr == RationalExpression.atom(MarginalAtom(final.scheme, row.cells))
        replayed = closure.replay()
        assert replayed.rows == rows

    def test_positive_decodes_nothing_until_read(self, chain4, made):
        target, left, right = chain4
        verdict = implies([JRule("C1", left), JRule("C2", right)], target)
        assert verdict.holds and made == {}
        assert [s.produced.render_pattern() for s in verdict.trace.steps] == ["(a1,a2,a3,b4)", "(a1,a2,a3,a4)"]
        assert made["ChaseStep"] == 2 and made["Row"] == len(verdict.trace.final) == 5

    def test_factorization_builds_no_step(self, chain4, made):
        # The factorization reads each derived row's rule and selection from the record.
        target, left, right = chain4
        verdict = implies([JRule("C1", left), JRule("C2", right)], target)
        assert verdict.factorization.render() == "phi(a1,a2)*phi(a2,a3)*phi(a3,a4)/(phi(a2)*phi(a3))"
        assert made["ChaseStep"] == 0
        assert len(verdict.trace.steps) == 2 and made["ChaseStep"] == 2

    def test_factorization_decodes_only_its_result_and_rewrites(self, made, monkeypatch):
        # The expansion runs on coded atoms, which hash as plain tuples; each atom of
        # the result and its rewrites is decoded once, and no row or step is.
        hashed = collections.Counter()
        original_hash = AttributeSet.__hash__

        def counted_hash(s):
            hashed["AttributeSet"] += 1
            return original_hash(s)

        constraints, target = chain_positive(12)
        verdict = implies(constraints, target)
        final = verdict.trace.final
        made.clear()
        monkeypatch.setattr(AttributeSet, "__hash__", counted_hash)
        expression, rewrites = chase_module.factorization_for(verdict.trace)
        assert hashed == {}
        monkeypatch.setattr(AttributeSet, "__hash__", original_hash)
        atoms = {*expression.numerator, *expression.denominator, *(a for r in rewrites for a in r[:2])}
        assert len(rewrites) == 45 and len(atoms) == 66
        assert made == {"MarginalAtom": len(atoms), "Variable": len(final.code_of)}
        assert final._rows == []
        assert (expression, rewrites) == reference_factorization(verdict.trace)[:2]


def reference_factorization(trace):
    """`factorization_for` as a recursion over canonical quotients, re-cancelled after every product.

    Returns the expression, the rewrites, and how many `(row, edge)`
    expansions fell back to the unexpanded atom.
    """
    final = trace.final
    scheme = final.scheme
    derivations = {step.produced_id: step for step in trace.steps}
    rewrites = []
    memo = {}
    fallbacks = [0]

    def atom_at(row, over):
        return MarginalAtom.from_cells(over, dict(zip(scheme, row.cells)))

    def marginalize(expr, row, onto):
        # A failed attempt keeps none of its rewrites: the caller falls back to the unexpanded atom.
        current = expr
        made = len(rewrites)
        for a in scheme:
            if a in onto:
                continue
            v = row.cells[scheme.index(a)]
            in_den = sum(1 for at in current.denominator if v in at.pattern)
            holders = [i for i, at in enumerate(current.numerator) if v in at.pattern]
            if in_den or len(holders) != 1:
                del rewrites[made:]
                return None
            i = holders[0]
            atom = current.numerator[i]
            restricted = restrict_atom(atom, atom.over - AttributeSet([a]))
            rewrites.append(chase_module.AtomRewrite(atom, restricted, v))
            num = list(current.numerator)
            num[i] = restricted
            current = RationalExpression.of(num, current.denominator)
        return current

    def expr_for(rid, onto):
        key = (rid, onto)
        if key in memo:
            return memo[key]
        row = final.rows[rid]
        step = derivations.get(rid)
        if step is None:
            result = RationalExpression.atom(atom_at(row, onto))
        else:
            e = RationalExpression.of()
            for edge, k in zip(step.rule.gajd.edges_in_order, step.selection):
                e = e * expr_for(k, edge)
            e = e * RationalExpression.of((), [atom_at(row, s) for s in step.rule.gajd.interactions])
            if onto == scheme:
                result = e
            else:
                result = marginalize(e, row, onto)
                if result is None:
                    fallbacks[0] += 1
                    result = RationalExpression.atom(atom_at(row, onto))
        memo[key] = result
        return result

    expression = expr_for(final.row_id(final.distinguished_row()), scheme)
    return expression, tuple(rewrites), fallbacks[0]


class TestFactorizationExact:
    """`factorization_for`, on signed exponent maps, gives the reference's expression and rewrites."""

    def check(self, constraints, target):
        verdict = implies(constraints, target)
        if not verdict.holds:
            return None
        expression, rewrites, fallbacks = reference_factorization(verdict.trace)
        assert chase_module.factorization_for(verdict.trace) == (expression, rewrites)
        return len(rewrites), fallbacks

    def test_census_positives(self):
        from test_census_golden import census_problems

        seen = []
        for problem in census_problems():
            query = problem.queries[0]
            seen.append(self.check(problem.rules_for(query), query.target))
        positives = [x for x in seen if x is not None]
        assert len(positives) >= 10
        # Both branches are exercised: expansions that rewrite, and ones that fall back.
        assert sum(r for r, _ in positives) > 0 and sum(f for _, f in positives) > 0

    @pytest.mark.parametrize("n", range(4, 11))
    def test_chain_positives(self, n):
        constraints, target = chain_positive(n)
        assert self.check(constraints, target) is not None

    @pytest.mark.parametrize("workload, positives", [("census", 39), ("chains", 9)])
    def test_benchmark_positives(self, workload, positives):
        # Every positive of the benchmark's workload at seed 1, under its disguised attribute names.
        wl = benchmark_workload(workload, 1)
        parsed = [parse(text) for text in wl.problems]
        seen = []
        for op in wl.ops:
            problem = parsed[op.problem]
            query = problem.queries[op.query]
            seen.append(self.check(problem.rules_for(query), query.target))
        assert sum(x is not None for x in seen) == positives


class TestCodedMarginalization:
    """`_marginalize_expr` on hand-made coded quotients: a summed variable slides into its one holder.

    A coded atom is its names and the ranks of its variables; the row's
    cells below are ranks 0, 5 and 7 at A, B and C, and B is summed out.
    """

    SCHEME, CELLS, ONTO = ("A", "B", "C"), (0, 5, 7), ("A", "C")
    AB, BC, B, A, C = (("A", "B"), (0, 5)), (("B", "C"), (5, 7)), (("B",), (5,)), (("A",), (0,)), (("C",), (7,))

    def marginalize(self, exps):
        rewrites = []
        return chase_module._marginalize_expr(exps, self.CELLS, self.SCHEME, self.ONTO, rewrites), rewrites

    def test_the_one_holder_is_restricted(self):
        exps = {self.AB: 1, self.C: -1}
        assert self.marginalize(exps) == (True, [(self.AB, self.A, 5)])
        assert exps == {self.C: -1, self.A: 1}

    @pytest.mark.parametrize("exps", [
        {AB: 1, BC: 1},  # two holders
        {AB: 2},  # a squared holder
        {AB: 1, B: -1},  # held in the denominator too
        {A: 1, C: -1},  # no holder
    ], ids=["two-holders", "squared", "denominator", "none"])
    def test_a_variable_that_resists(self, exps):
        assert self.marginalize(dict(exps))[0] is False


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
                assert verdict.holds == contains_distinguished_row(full.final)
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
            assert verdict.holds == contains_distinguished_row(full.final)
            positives += verdict.holds
        assert positives >= 10
